"""Scenario library: configuration parsing, orchestration, artifact output.

Every experiment is described by a JSON-serializable config with explicit
defaults; a run produces a manifest (config echo, metrics, threshold checks,
file inventory with checksums) plus metric CSVs and field snapshots.  All
numeric artifacts are a pure function of (config, master_seed): every
trajectory draws from its own stream and reductions happen in stream order.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import time as _time
from dataclasses import dataclass, field as dc_field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import analysis, langevin, schrodinger, smoluchowski
from .fieldio import write_field
from .grids import PERIODIC, REFLECTING, DensityField, Grid, WaveField
from .guidance import GuidanceParams, regularized_density
from .version import __version__

SCENARIO_NAMES = (
    "double_well",
    "interference",
    "harmonic_ground",
    "adiabatic_tracking",
    "product_separation",
    "free_packet",
)
# Scenarios that compare histograms coarsened by ``histogram_refine``.
_HISTOGRAM_SCENARIOS = ("harmonic_ground", "double_well", "interference")
# Default path stride of the double-well localization block.
_LOCALIZATION_STRIDE = 20
_GUIDANCE_KEYS = ("lam", "epsilon", "drift_cap")


# --------------------------------------------------------------------------
# configuration

@dataclass
class ScenarioConfig:
    scenario: str
    grid: dict
    hbar: float
    mass: float
    guidance: dict
    time: dict
    ensemble: dict
    params: dict
    master_seed: int
    histogram_refine: int
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "grid": copy.deepcopy(self.grid),
            "hbar": self.hbar,
            "mass": self.mass,
            "guidance": copy.deepcopy(self.guidance),
            "time": copy.deepcopy(self.time),
            "ensemble": copy.deepcopy(self.ensemble),
            "params": copy.deepcopy(self.params),
            "master_seed": self.master_seed,
            "histogram_refine": self.histogram_refine,
            "out_dir": self.out_dir,
        }

    def build_grid(self) -> Grid:
        return _grid(self.grid)

    def guidance_params(self) -> GuidanceParams:
        lam = float(self.guidance["lam"])
        cap = self.guidance.get("drift_cap")
        if cap == "auto":
            # Displacement cap of two noise standard deviations per step: large
            # enough to never bind in smooth regions, finite at density nodes.
            cap = 2.0 * np.sqrt(2.0 * lam / float(self.time["dt_langevin"]))
        return GuidanceParams(
            lam=lam,
            epsilon=float(self.guidance.get("epsilon", 1e-12)),
            drift_cap=None if cap is None else float(cap),
        )


def _grid(g: dict) -> Grid:
    return Grid(
        points=tuple(int(n) for n in g["points"]),
        extent=tuple((float(lo), float(hi)) for lo, hi in g["extent"]),
        boundary=tuple(g["boundary"]),
    )


def _defaults(scenario: str) -> dict:
    base = {
        "scenario": scenario,
        "hbar": 1.0,
        "mass": 1.0,
        "guidance": {"lam": 1.0, "epsilon": 1e-12, "drift_cap": None},
        "time": {"dt_psi": 1e-3, "dt_langevin": 1e-3, "t_final": 10.0, "snapshot_stride": 10},
        "ensemble": {"n_trajectories": 1000, "sampler": {"type": "density"}},
        "master_seed": 20260808,
        "histogram_refine": 4,
        "out_dir": None,
    }
    per = {
        "harmonic_ground": {
            "grid": {"points": [256], "extent": [[-8.0, 8.0]], "boundary": [PERIODIC]},
            "guidance": {"lam": 10.0, "epsilon": 1e-12, "drift_cap": None},
            "time": {"dt_psi": 1e-3, "dt_langevin": 1e-3, "t_final": 20.0, "snapshot_stride": 10},
            "ensemble": {"n_trajectories": 1000, "sampler": {"type": "point", "at": [0.0]}},
            "params": {
                "omega": 1.0,
                "tv_limit": 0.08,
                "norm_drift_limit": 1e-9,
                "norm_drift_steps": None,
                "oracle": None,
            },
        },
        "double_well": {
            "grid": {"points": [512], "extent": [[-9.0, 9.0]], "boundary": [REFLECTING]},
            "guidance": {"lam": 1.0, "epsilon": 1e-12, "drift_cap": None},
            "time": {"dt_psi": 5e-3, "dt_langevin": 5e-3, "t_final": 200.0, "snapshot_stride": 10},
            "ensemble": {"n_trajectories": 10000, "sampler": {"type": "point", "at": [-1.0]}},
            "params": {
                "a": 1.0,
                "b": 1.0,
                "equilibrium": {"enabled": True, "tv_limit": 0.05},
                "oracle": None,
                "mfpt": None,
                "localization": None,
            },
        },
        "adiabatic_tracking": {
            "grid": {"points": [384], "extent": [[-12.0, 12.0]], "boundary": [PERIODIC]},
            "time": {"dt_psi": 1e-3, "dt_langevin": 1e-3, "t_final": 6.283, "snapshot_stride": 10},
            "ensemble": {"n_trajectories": 0, "sampler": {"type": "density"}},
            "params": {
                "omega": 1.0,
                "displacement": 1.0,
                "lam_values": [1.0, 10.0, 100.0],
                "tv_limit_last": 0.1,
            },
        },
        "interference": {
            "grid": {"points": [2048], "extent": [[-16.0, 16.0]], "boundary": [PERIODIC]},
            "guidance": {"lam": 25.0, "epsilon": 1e-12, "drift_cap": "auto"},
            "time": {"dt_psi": 2e-3, "dt_langevin": 1e-4, "t_final": None, "snapshot_stride": 10},
            "ensemble": {"n_trajectories": 8192, "sampler": {"type": "density"}},
            "histogram_refine": 8,
            "params": {
                "packet_width": 1.0,
                "separation": 5.0,
                "momentum": 2.0,
                "node_threshold": 1e-8,
                "tv_limit": 0.15,
                "zero_crossing_fraction": 0.99,
            },
        },
        "product_separation": {
            "grid": {
                "points": [128, 128],
                "extent": [[-8.0, 8.0], [-8.0, 8.0]],
                "boundary": [REFLECTING, REFLECTING],
            },
            "time": {"dt_psi": 5e-3, "dt_langevin": 5e-3, "t_final": 100.0, "snapshot_stride": 10},
            "ensemble": {"n_trajectories": 64, "sampler": {"type": "density"}},
            "params": {"a": 1.0, "b": 1.0, "gauss_width": 1.0, "record_stride": 1,
                       "write_paths": 0},
        },
        "free_packet": {
            "grid": {"points": [1024], "extent": [[-40.0, 40.0]], "boundary": [PERIODIC]},
            "time": {"dt_psi": 1e-3, "dt_langevin": 1e-3, "t_final": 2.0, "snapshot_stride": 100},
            "ensemble": {"n_trajectories": 0, "sampler": {"type": "density"}},
            "params": {"sigma0": 1.0, "rel_error_limit": 0.01},
        },
    }
    merged = copy.deepcopy(base)
    for key, value in per[scenario].items():
        merged[key] = copy.deepcopy(value)
    return merged


def _deep_merge(dst: dict, src: dict) -> dict:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = copy.deepcopy(value)
    return dst


def _is_number(value, kind=Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _oracle_errors(oracle, tm) -> list[str]:
    """Violations of ``params.oracle``: the density solver and the walkers
    must reach every checkpoint in whole ``fp_dt`` and ``dt_langevin`` steps."""
    if not oracle:
        return []
    if not isinstance(oracle, dict):
        return ["params.oracle must be an object or null"]
    fp_dt = oracle.get("fp_dt", tm.get("dt_langevin"))
    if not _is_number(fp_dt) or fp_dt <= 0:
        return [f"params.oracle.fp_dt must be a positive number, got {fp_dt!r}"]
    checkpoints = oracle.get("checkpoints", [])
    t_final = tm.get("t_final")
    if (not isinstance(checkpoints, (list, tuple))
            or not all(_is_number(tc) and 0 <= tc <= (t_final or 0) for tc in checkpoints)):
        return [f"params.oracle.checkpoints must be a list of times in [0, time.t_final={t_final}]"]
    errors = []
    for name, dt in (("params.oracle.fp_dt", fp_dt), ("time.dt_langevin", tm.get("dt_langevin"))):
        for tc in checkpoints:
            try:
                smoluchowski.horizon_steps(0.0, tc, dt)
            except ValueError:
                errors.append(f"{name}={dt} does not divide the checkpoint time {tc}")
    return errors


def _well_errors(scenario, params, grid) -> list[str]:
    """Violations of the two-Gaussian parameters that the runner would raise
    on: a, b (and the product state's gauss_width) must be positive, and the
    double well's grid must cover [-(b + 6a), b + 6a]."""
    names = {"double_well": ("a", "b"), "product_separation": ("a", "b", "gauss_width")}
    errors = [f"params.{name} must be a positive number, got {params.get(name)!r}"
              for name in names.get(scenario, ())
              if not (_is_number(params.get(name)) and params[name] > 0)]
    if scenario == "double_well" and not errors and grid:
        reach = params["b"] + 6 * params["a"]
        lo, hi = grid.extent[0]
        if lo > -reach or hi < reach:
            errors.append(f"grid extent [{lo}, {hi}] does not cover the double well's "
                          f"[-(b + 6a), b + 6a] = [{-reach}, {reach}]")
    return errors


def validate_config(source) -> tuple[ScenarioConfig | None, list[str]]:
    """Parse and validate a config (JSON text, path-free).  Returns the config
    with defaults applied, or None plus the full list of violations."""
    errors: list[str] = []
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            return None, [f"invalid JSON: {exc}"]
    if not isinstance(source, dict):
        return None, ["config must be a JSON object"]
    scenario = source.get("scenario")
    if scenario not in SCENARIO_NAMES:
        return None, [
            f"unknown scenario {scenario!r}; valid names: {', '.join(SCENARIO_NAMES)}"
        ]
    merged = _deep_merge(_defaults(scenario), source)
    for section in ("grid", "guidance", "time", "ensemble", "params"):
        if not isinstance(merged.get(section), dict):
            errors.append(f"{section} must be a JSON object")
    if errors:
        return None, errors

    tm = merged["time"]
    g = merged["guidance"]
    en = merged["ensemble"]
    errors += [f"guidance.{key} is not a guidance key; valid keys: {', '.join(_GUIDANCE_KEYS)}"
               for key in sorted(set(g) - set(_GUIDANCE_KEYS))]
    # Type checks first, so that the range checks below compare numbers only.
    for name, value, kind, optional in (
        ("hbar", merged["hbar"], Real, False),
        ("mass", merged["mass"], Real, False),
        ("master_seed", merged["master_seed"], Integral, False),
        ("time.dt_psi", tm.get("dt_psi"), Real, True),
        ("time.dt_langevin", tm.get("dt_langevin"), Real, True),
        ("time.t_final", tm.get("t_final"), Real, True),
        ("time.snapshot_stride", tm.get("snapshot_stride", 1), Integral, False),
        ("guidance.lam", g.get("lam"), Real, False),
        ("guidance.epsilon", g.get("epsilon", 1e-12), Real, False),
        ("ensemble.n_trajectories", en.get("n_trajectories", 0), Integral, False),
    ):
        if not (_is_number(value, kind) or (optional and value is None)):
            what = "an integer" if kind is Integral else "a number"
            errors.append(f"{name} must be {what}, got {value!r}")
    if errors:
        return None, errors

    for key in ("dt_psi", "dt_langevin"):
        if tm.get(key) is not None and tm[key] <= 0:
            errors.append(f"time.{key} must be positive")
    if (
        tm.get("dt_psi")
        and tm.get("dt_langevin")
        and tm["dt_langevin"] > tm["dt_psi"] * (1 + 1e-12)
    ):
        errors.append("time.dt_langevin must not exceed time.dt_psi")
    if tm.get("t_final") is not None and tm["t_final"] < 0:
        errors.append("time.t_final must be nonnegative")
    if tm.get("snapshot_stride", 1) < 1:
        errors.append("time.snapshot_stride must be >= 1")

    if g["lam"] <= 0:
        errors.append("guidance.lam must be positive")
    if g.get("epsilon", 1e-12) <= 0:
        errors.append("guidance.epsilon must be positive")
    cap = g.get("drift_cap")
    if cap is not None and cap != "auto" and (not _is_number(cap) or cap <= 0):
        errors.append("guidance.drift_cap must be positive, null, or 'auto'")

    grid = None
    try:
        grid = _grid(merged["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"grid: {exc}")

    if en.get("n_trajectories", 0) < 0:
        errors.append("ensemble.n_trajectories must be >= 0")
    sampler = en.get("sampler", {})
    if not isinstance(sampler, dict) or sampler.get("type") not in ("point", "density"):
        errors.append("ensemble.sampler.type must be 'point' or 'density'")
    elif sampler["type"] == "point" and grid and en.get("n_trajectories", 0) > 0:
        if np.atleast_1d(sampler.get("at", [])).shape != (grid.dims,):
            errors.append(f"ensemble.sampler.at must have {grid.dims} coordinate(s), one per grid axis")
    refine = merged.get("histogram_refine")
    if isinstance(refine, bool) or not isinstance(refine, int) or refine < 1:
        errors.append(f"histogram_refine must be an integer >= 1, got {refine!r}")
    elif scenario in _HISTOGRAM_SCENARIOS and grid and any(n % refine for n in grid.points):
        errors.append(f"histogram_refine={refine} must divide every grid axis {grid.points}")

    errors += _oracle_errors(merged["params"].get("oracle"), tm)
    errors += _well_errors(scenario, merged["params"], grid)
    strides, loc = {}, merged["params"].get("localization")
    if scenario == "product_separation":
        strides["params.record_stride"] = merged["params"].get("record_stride")
    if scenario == "double_well" and isinstance(loc, dict):
        strides["params.localization.record_stride"] = loc.get("record_stride", _LOCALIZATION_STRIDE)
    for name, stride in strides.items():
        if not _is_number(stride, Integral) or stride < 1:
            errors.append(f"{name} must be an integer >= 1, got {stride!r}")

    if errors:
        return None, errors
    cfg = ScenarioConfig(
        scenario=scenario,
        grid=merged["grid"],
        hbar=float(merged["hbar"]),
        mass=float(merged["mass"]),
        guidance=merged["guidance"],
        time=merged["time"],
        ensemble=merged["ensemble"],
        params=merged["params"],
        master_seed=int(merged["master_seed"]),
        histogram_refine=int(merged["histogram_refine"]),
        out_dir=merged.get("out_dir"),
    )
    return cfg, []


# --------------------------------------------------------------------------
# manifest and artifact helpers

@dataclass
class Check:
    name: str
    value: float
    requirement: str
    passed: bool

    def __post_init__(self):
        self.value = float(self.value)
        self.passed = bool(self.passed)


@dataclass
class Outcome:
    metrics: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)
    fields: list = dc_field(default_factory=list)   # (name, field object)
    tables: dict = dc_field(default_factory=dict)   # name -> (header, rows)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    scenario: str
    config: dict
    version: str
    metrics: dict
    checks: list
    passed: bool
    files: list
    timing: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "version": self.version,
            "metrics": self.metrics,
            "checks": [vars(c) if isinstance(c, Check) else c for c in self.checks],
            "passed": self.passed,
            "files": self.files,
            "timing": self.timing,
        }

    def save(self, path: Path):
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RunManifest":
        d = json.loads(Path(path).read_text())
        return cls(
            scenario=d["scenario"],
            config=d["config"],
            version=d["version"],
            metrics=d["metrics"],
            checks=[Check(**c) for c in d["checks"]],
            passed=d["passed"],
            files=d["files"],
            timing=d["timing"],
        )

    def verify_files(self, base_dir) -> list[str]:
        """Recompute checksums; returns a list of mismatches (empty = ok)."""
        problems = []
        base = Path(base_dir)
        for entry in self.files:
            p = base / entry["path"]
            if not p.exists():
                problems.append(f"missing file {entry['path']}")
            elif _sha256(p) != entry["sha256"]:
                problems.append(f"checksum mismatch for {entry['path']}")
        return problems


# --------------------------------------------------------------------------
# shared scenario pieces

def _sampler_from_config(cfg: ScenarioConfig, psi: WaveField, params: GuidanceParams):
    spec = cfg.ensemble["sampler"]
    if spec["type"] == "point":
        return langevin.PointSampler(np.asarray(spec["at"], dtype=float))
    return langevin.DensitySampler(regularized_density(psi, params))


def _coarse(field: DensityField, refine: int) -> DensityField:
    return field if refine == 1 else analysis.coarsen(field, refine)


def _harmonic_potential(grid: Grid, omega: float, mass: float) -> np.ndarray:
    mesh = grid.meshgrid()
    u = np.zeros(grid.points)
    for m in mesh:
        u = u + 0.5 * mass * omega**2 * m**2
    return u


# --------------------------------------------------------------------------
# scenarios

def _run_harmonic_ground(cfg: ScenarioConfig, engines):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    omega = float(p["omega"])
    potential = _harmonic_potential(grid, omega, cfg.mass)
    h = schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass, potential=potential)
    x = grid.coords(0)
    psi0 = WaveField(
        grid,
        (cfg.mass * omega / np.pi / cfg.hbar) ** 0.25
        * np.exp(-cfg.mass * omega * x**2 / (2 * cfg.hbar)),
    )
    params = cfg.guidance_params()
    out.fields.append(("psi_initial", psi0))

    # propagator hygiene: the ground state is stationary; norm must hold
    steps = p.get("norm_drift_steps") or int(round(cfg.time["t_final"] / cfg.time["dt_psi"]))
    norm0 = psi0.norm_sq()
    psi_final = schrodinger.evolve(
        psi0, h, steps * cfg.time["dt_psi"], cfg.time["dt_psi"], snapshot_stride=steps
    )[-1]
    norm_drift = abs(psi_final.norm_sq() - norm0) / norm0
    out.metrics["norm_drift"] = norm_drift
    out.metrics["propagator_steps"] = steps
    out.checks.append(
        Check(
            "psi_norm_drift",
            norm_drift,
            f"< {p['norm_drift_limit']}",
            norm_drift < p["norm_drift_limit"],
        )
    )
    out.fields.append(("psi_final", psi_final))

    equilibrium = regularized_density(psi0, params)
    out.fields.append(("equilibrium", equilibrium))

    if "ensemble" in engines and cfg.ensemble["n_trajectories"] > 0:
        tv = _equilibrium_check(cfg, out, engines, psi0, params, equilibrium, p["tv_limit"])
        out.tables["equilibrium"] = (
            ["metric", "value"],
            [["tv_equilibrium", tv], ["norm_drift", norm_drift]],
        )
    return out


def _equilibrium_check(cfg, out, engines, psi, params, equilibrium, limit):
    """Run the ensemble on the static field ``psi``, check the TV distance of
    its final histogram from ``equilibrium`` against ``limit``, and cross-check
    the density solver at ``params.oracle``'s checkpoints when it is set and
    the "fp" engine runs.  Returns the TV distance."""
    oracle = cfg.params.get("oracle") or {}
    result = langevin.run_ensemble(
        cfg.ensemble["n_trajectories"],
        _sampler_from_config(cfg, psi, params),
        psi,
        params,
        cfg.time["dt_langevin"],
        cfg.time["t_final"],
        master_seed=cfg.master_seed,
        checkpoint_times=tuple(oracle.get("checkpoints", ())),
    )
    tv = analysis.total_variation(
        _coarse(result.histogram, cfg.histogram_refine),
        _coarse(equilibrium, cfg.histogram_refine).normalized(),
    )
    out.metrics["tv_equilibrium"] = tv
    out.checks.append(Check("tv_equilibrium", tv, f"< {limit}", tv < limit))
    out.fields.append(("final_histogram", result.histogram))
    if oracle and "fp" in engines:
        _oracle_cross_check(cfg, out, psi, params, result, oracle)
    return tv


def _oracle_cross_check(cfg, out, psi, params, result, oracle):
    """TV between the Langevin checkpoint histograms and the density solver."""
    start = cfg.ensemble["sampler"]
    grid = psi.grid
    if start["type"] == "point":
        p0_values = np.zeros(grid.points)
        idx = grid.cell_index(np.asarray(start["at"], dtype=float))[0]
        p0_values[tuple(idx)] = 1.0 / grid.cell_volume
    else:
        p0_values = regularized_density(psi, params).normalized().values
    p0 = DensityField(grid, p0_values, 0.0)
    dt = float(oracle.get("fp_dt", cfg.time["dt_langevin"]))
    # One evolution through the sorted checkpoints, each leg starting where the
    # last one ended.
    densities = {}
    dens = p0
    for tc in sorted({tc for tc, _ in result.checkpoints}):
        dens = densities[tc] = smoluchowski.fp_evolve(dens, psi, params, dt, tc, method="auto")[-1]
    rows = []
    worst = 0.0
    for tc, positions in result.checkpoints:
        dens = densities[tc]
        hist = analysis.histogram(positions, dens.grid)
        hc = _coarse(hist, cfg.histogram_refine)
        dc = _coarse(dens, cfg.histogram_refine).normalized()
        tv = analysis.total_variation(hc, dc)
        rows.append([tc, tv, float(np.max(np.abs(hc.values - dc.values)))])
        worst = max(worst, tv)
    out.metrics["oracle_tv_max"] = worst
    out.metrics["oracle_checkpoints"] = [float(t) for t, _ in result.checkpoints]
    limit = oracle.get("tv_limit", 0.05)
    out.checks.append(Check("oracle_tv_max", worst, f"< {limit}", worst < limit))
    out.tables["oracle_tv"] = (["t", "tv", "maxnorm"], rows)


def _path_table(result, limit: int):
    """CSV rows (stream_id, t, x1..xN) for the first ``limit`` recorded paths."""
    dims = result.paths.shape[2]
    header = ["stream_id", "t"] + [f"x{k + 1}" for k in range(dims)]
    rows = []
    for sid in range(min(limit, result.paths.shape[0])):
        for j, t in enumerate(result.path_times):
            rows.append([sid, float(t)] + [float(v) for v in result.paths[sid, j]])
    return header, rows


def _run_double_well(cfg: ScenarioConfig, engines):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    dg = schrodinger.DoubleGaussianParams(a=float(p["a"]), b=float(p["b"]))
    psi = schrodinger.make_double_gaussian(grid, dg)
    params = cfg.guidance_params()
    equilibrium = regularized_density(psi, params)
    out.fields.append(("psi_initial", psi))
    out.fields.append(("equilibrium", equilibrium))

    eq_block = p.get("equilibrium") or {}
    if "ensemble" in engines and eq_block.get("enabled") and cfg.ensemble["n_trajectories"] > 0:
        _equilibrium_check(cfg, out, engines, psi, params, equilibrium,
                           eq_block.get("tv_limit", 0.05))

    mfpt = p.get("mfpt")
    if mfpt and "ensemble" in engines:
        _mfpt_block(cfg, out, psi, dg, params, mfpt)

    loc = p.get("localization")
    if loc and "ensemble" in engines:
        _localization_block(cfg, out, psi, dg, params, loc)
    return out


def _mfpt_block(cfg, out, psi, dg, params, mfpt):
    target = mfpt.get("target", "far_well")
    if target == "far_well":
        stop = langevin.PlaneCrossing(at=dg.b)
    elif target == "ridge":
        stop = langevin.PlaneCrossing(at=0.0)
    else:
        stop = langevin.PlaneCrossing(at=float(target))
    prediction = analysis.kramers_prediction(dg, params.lam)
    t_max = mfpt.get("t_max_factor", 4.0) * prediction
    dt = float(mfpt.get("dt", cfg.time["dt_langevin"]))
    n = int(mfpt["n"])
    start = float(mfpt.get("start", -dg.b))
    results = langevin.run_first_passage_ensemble(
        n, [start], psi, params, dt, stop, t_max,
        master_seed=cfg.master_seed,
    )
    est = analysis.mfpt_estimate(results, params=dg, lam=params.lam)
    out.metrics["mfpt_mean"] = est.mean
    out.metrics["mfpt_se"] = est.standard_error
    out.metrics["mfpt_censored_fraction"] = est.censored_fraction
    out.metrics["mfpt_prediction"] = prediction
    out.metrics["mfpt_ratio"] = est.ratio
    out.metrics["mfpt_escapes"] = int(round(est.n * (1 - est.censored_fraction)))
    factor = mfpt.get("within_factor")
    if factor:
        ok = est.defined and (1.0 / factor) <= est.ratio <= factor
        out.checks.append(
            Check("mfpt_within_factor", est.ratio if est.defined else np.nan,
                  f"within factor {factor} of the escape-time formula", bool(ok))
        )
    out.tables["mfpt"] = (
        ["a", "b", "lam", "predicted", "measured_mean", "se", "ratio", "censored_fraction", "n"],
        [[dg.a, dg.b, params.lam, prediction, est.mean, est.standard_error,
          est.ratio, est.censored_fraction, est.n]],
    )


def _localization_block(cfg, out, psi, dg, params, loc):
    prediction = analysis.kramers_prediction(dg, params.lam)
    horizon = loc.get("horizon_fraction", 0.1) * prediction
    dt = float(loc.get("dt", cfg.time["dt_langevin"]))
    horizon = round(horizon / dt) * dt
    n = int(loc["n"])
    gap = loc.get("well_gap", dg.b / 2.0)
    lo_edge, hi_edge = cfg.build_grid().extent[0]
    wells = [(lo_edge, -gap), (gap, hi_edge)]
    result = langevin.run_ensemble(
        n,
        langevin.PointSampler([-dg.b]),
        psi,
        params,
        dt,
        horizon,
        master_seed=cfg.master_seed,
        record_stride=int(loc.get("record_stride", _LOCALIZATION_STRIDE)),
    )
    jumps = np.zeros(n, dtype=np.int64)
    for i in range(n):
        occ = analysis.well_occupancy(result.paths[i], wells, dt=dt)
        jumps[i] = occ.jump_count
    stay = float(np.mean(jumps == 0))
    mass_start_well = float(np.mean(result.final_positions[:, 0] < 0.0))
    out.metrics["localization_horizon"] = horizon
    out.metrics["no_jump_fraction"] = stay
    out.metrics["mean_jumps"] = float(jumps.mean())
    out.metrics["final_mass_start_well"] = mass_start_well
    frac = loc.get("stay_fraction", 0.95)
    out.checks.append(
        Check("no_jump_fraction", stay, f">= {frac}", stay >= frac)
    )
    out.tables["localization"] = (
        ["horizon", "no_jump_fraction", "mean_jumps", "final_mass_start_well", "n"],
        [[horizon, stay, float(jumps.mean()), mass_start_well, n]],
    )
    write_paths = int(loc.get("write_paths", 0))
    if write_paths:
        out.tables["paths"] = _path_table(result, write_paths)


def _run_adiabatic_tracking(cfg: ScenarioConfig, engines):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    omega = float(p["omega"])
    potential = _harmonic_potential(grid, omega, cfg.mass)
    h = schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass, potential=potential)
    psi0 = schrodinger.make_packet(
        grid, [float(p["displacement"])], np.sqrt(cfg.hbar / (cfg.mass * omega))
    )
    snaps = schrodinger.evolve(
        psi0, h, cfg.time["t_final"], cfg.time["dt_psi"], cfg.time["snapshot_stride"]
    )
    out.fields.append(("psi_initial", psi0))
    out.fields.append(("psi_final", snaps[-1]))

    if "fp" not in engines:
        return out

    summary_rows = []
    series_rows = []
    tv_by_lam = []
    snap_times = np.array([s.time for s in snaps])
    for lam in p["lam_values"]:
        params = GuidanceParams(lam=float(lam), epsilon=float(cfg.guidance.get("epsilon", 1e-12)))
        p0 = regularized_density(psi0, params).normalized()
        densities = smoluchowski.fp_evolve(
            p0, snaps, params, cfg.time["dt_psi"], cfg.time["t_final"],
            method="implicit", snapshot_stride=cfg.time["snapshot_stride"],
        )
        tvs = []
        for dens in densities:
            i = int(np.searchsorted(snap_times, dens.time + 1e-12, side="right") - 1)
            ref = regularized_density(snaps[max(i, 0)], params).normalized()
            dn = dens.normalized()
            tv = analysis.total_variation(dn, ref)
            tvs.append(tv)
            series_rows.append(
                [lam, dens.time, tv, float(np.max(np.abs(dn.values - ref.values)))]
            )
        mean_tv = float(np.mean(tvs))
        max_tv = float(np.max(tvs))
        tv_by_lam.append(mean_tv)
        summary_rows.append([lam, mean_tv, max_tv])
    out.metrics["lam_values"] = [float(v) for v in p["lam_values"]]
    out.metrics["tracking_tv_mean"] = tv_by_lam
    decreasing = all(a > b for a, b in zip(tv_by_lam[:-1], tv_by_lam[1:]))
    out.checks.append(
        Check("tracking_tv_decreasing", float(tv_by_lam[-1] - tv_by_lam[0]),
              "strictly decreasing in lam", decreasing)
    )
    limit = p.get("tv_limit_last", 0.1)
    out.checks.append(
        Check("tracking_tv_last", tv_by_lam[-1], f"< {limit}", tv_by_lam[-1] < limit)
    )
    out.tables["tracking"] = (["lam", "tv_mean", "tv_max"], summary_rows)
    out.tables["tracking_series"] = (["lam", "t", "tv", "maxnorm"], series_rows)
    return out


def _run_interference(cfg: ScenarioConfig, engines):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    w = float(p["packet_width"])
    c = float(p["separation"])
    k = float(p["momentum"])
    fringe_time = cfg.time.get("t_final") or c / k * cfg.mass / cfg.hbar
    fringe_time = round(fringe_time / cfg.time["dt_psi"]) * cfg.time["dt_psi"]
    h = schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass)
    x = grid.coords(0)
    values = np.exp(-((x + c) ** 2) / (2 * w * w) + 1j * k * x) + np.exp(
        -((x - c) ** 2) / (2 * w * w) - 1j * k * x
    )
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    psi0 = WaveField(grid, values, 0.0)
    snaps = schrodinger.evolve(
        psi0, h, fringe_time, cfg.time["dt_psi"], cfg.time["snapshot_stride"]
    )
    out.fields.append(("psi_initial", psi0))
    out.fields.append(("psi_final", snaps[-1]))
    out.metrics["fringe_time"] = fringe_time

    if "ensemble" in engines and cfg.ensemble["n_trajectories"] > 0:
        params = cfg.guidance_params()
        sampler = _sampler_from_config(cfg, psi0, params)
        result = langevin.run_ensemble(
            cfg.ensemble["n_trajectories"],
            sampler,
            snaps,
            params,
            cfg.time["dt_langevin"],
            fringe_time,
            master_seed=cfg.master_seed,
            node_threshold=float(p["node_threshold"]),
        )
        reference = regularized_density(snaps[-1], params)
        tv = analysis.total_variation(
            _coarse(result.histogram, cfg.histogram_refine),
            _coarse(reference, cfg.histogram_refine).normalized(),
        )
        zero_fraction = float(np.mean(result.crossings == 0))
        out.metrics["tv_fringe"] = tv
        out.metrics["zero_crossing_fraction"] = zero_fraction
        out.metrics["mean_crossings"] = float(result.crossings.mean())
        limit = p.get("tv_limit", 0.15)
        frac = p.get("zero_crossing_fraction", 0.99)
        out.checks.append(Check("tv_fringe", tv, f"< {limit}", tv < limit))
        out.checks.append(
            Check("zero_crossing_fraction", zero_fraction, f">= {frac}", zero_fraction >= frac)
        )
        out.fields.append(("final_histogram", result.histogram))
        out.tables["interference"] = (
            ["fringe_time", "tv", "zero_crossing_fraction", "mean_crossings", "n"],
            [[fringe_time, tv, zero_fraction, float(result.crossings.mean()),
              cfg.ensemble["n_trajectories"]]],
        )
    return out


def _run_product_separation(cfg: ScenarioConfig, engines):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    dgp = schrodinger.DoubleGaussianParams(a=float(p["a"]), b=float(p["b"]))
    x = grid.coords(0)
    y = grid.coords(1)
    fx = np.exp(-((x - dgp.b) ** 2) / (2 * dgp.a**2)) + np.exp(
        -((x + dgp.b) ** 2) / (2 * dgp.a**2)
    )
    fy = np.exp(-(y**2) / (2 * float(p["gauss_width"]) ** 2))
    psi = WaveField(grid, np.outer(fx, fy), 0.0)
    out.fields.append(("psi_initial", psi))
    params = cfg.guidance_params()

    if "ensemble" in engines and cfg.ensemble["n_trajectories"] > 0:
        sampler = _sampler_from_config(cfg, psi, params)
        result = langevin.run_ensemble(
            cfg.ensemble["n_trajectories"],
            sampler,
            psi,
            params,
            cfg.time["dt_langevin"],
            cfg.time["t_final"],
            master_seed=cfg.master_seed,
            record_stride=int(p.get("record_stride", 1)),
        )
        stats = analysis.independence_test(result.paths)
        bound = 3.0 / np.sqrt(stats.n_increments)
        out.metrics["rho_increments"] = stats.rho_increments
        out.metrics["rho_occupancy"] = stats.rho_occupancy
        out.metrics["n_increments"] = stats.n_increments
        out.metrics["rho_bound"] = bound
        out.checks.append(
            Check("increment_correlation", abs(stats.rho_increments),
                  f"< {bound:.3e} (3/sqrt(samples))", abs(stats.rho_increments) < bound)
        )
        out.tables["correlation"] = (
            ["rho_increments", "z_increments", "rho_occupancy", "z_occupancy", "n_increments"],
            [[stats.rho_increments, stats.z_increments, stats.rho_occupancy,
              stats.z_occupancy, stats.n_increments]],
        )
        write_paths = int(p.get("write_paths", 0))
        if write_paths:
            out.tables["paths"] = _path_table(result, write_paths)
    return out


def _run_free_packet(cfg: ScenarioConfig, engines):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    sigma0 = float(p["sigma0"])
    h = schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass)
    psi0 = schrodinger.make_packet(grid, [0.0], np.sqrt(2.0) * sigma0)
    snaps = schrodinger.evolve(
        psi0, h, cfg.time["t_final"], cfg.time["dt_psi"], cfg.time["snapshot_stride"]
    )
    x = grid.coords(0)
    rows = []
    for s in snaps:
        rho = np.abs(s.values) ** 2
        rho = rho / (rho.sum() * grid.cell_volume)
        mean = float(np.sum(x * rho) * grid.cell_volume)
        var = float(np.sum((x - mean) ** 2 * rho) * grid.cell_volume)
        t = s.time
        expected = sigma0 * np.sqrt(
            1.0 + (cfg.hbar * t / (2 * cfg.mass * sigma0**2)) ** 2
        )
        rows.append([t, np.sqrt(var), expected])
    sigma_final, sigma_expected = rows[-1][1], rows[-1][2]
    rel_error = abs(sigma_final - sigma_expected) / sigma_expected
    out.metrics["sigma_final"] = float(sigma_final)
    out.metrics["sigma_expected"] = float(sigma_expected)
    out.metrics["rel_error"] = float(rel_error)
    limit = p.get("rel_error_limit", 0.01)
    out.checks.append(Check("dispersion_rel_error", rel_error, f"< {limit}", rel_error < limit))
    out.tables["dispersion"] = (["t", "sigma_measured", "sigma_expected"], rows)
    out.fields.append(("psi_initial", psi0))
    out.fields.append(("psi_final", snaps[-1]))
    return out


_RUNNERS = {
    "harmonic_ground": _run_harmonic_ground,
    "double_well": _run_double_well,
    "adiabatic_tracking": _run_adiabatic_tracking,
    "interference": _run_interference,
    "product_separation": _run_product_separation,
    "free_packet": _run_free_packet,
}


def run_scenario(cfg: ScenarioConfig, out_dir=None, engines=("ensemble", "fp")) -> RunManifest:
    """Execute a scenario and write manifest, metric CSVs and field snapshots.

    ``engines`` restricts execution to the stochastic side ("ensemble"), the
    density-solver side ("fp"), or both.
    """
    t_start = _time.perf_counter()
    engines = set(engines)
    outcome = _RUNNERS[cfg.scenario](cfg, engines)

    out_base = Path(out_dir or cfg.out_dir or f"runs/{cfg.scenario}")
    out_base.mkdir(parents=True, exist_ok=True)
    files = []
    for name, fld in outcome.fields:
        path = write_field(fld, out_base / "fields" / name)
        for suffix in (".f64", ".json"):
            rel = (out_base / "fields" / name).with_suffix(suffix).relative_to(out_base)
            files.append(rel)
    for name, (header, rows) in sorted(outcome.tables.items()):
        path = out_base / "metrics" / f"{name}.csv"
        _write_csv(path, header, rows)
        files.append(path.relative_to(out_base))

    passed = all(c.passed for c in outcome.checks)
    inventory = [
        {
            "path": str(rel),
            "bytes": (out_base / rel).stat().st_size,
            "sha256": _sha256(out_base / rel),
        }
        for rel in files
    ]
    manifest = RunManifest(
        scenario=cfg.scenario,
        config=cfg.to_dict(),
        version=__version__,
        metrics=_jsonable(outcome.metrics),
        checks=outcome.checks,
        passed=passed,
        files=inventory,
        timing={"wall_clock_s": _time.perf_counter() - t_start},
    )
    manifest.save(out_base / "manifest.json")
    return manifest


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
