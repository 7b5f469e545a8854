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
import math
import time as _time
import warnings
from dataclasses import asdict, dataclass, field as dc_field
from numbers import Integral, Real
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, langevin, schrodinger, smoluchowski
from .fieldio import write_field
from .grids import PERIODIC, REFLECTING, DensityField, Grid, WaveField, checkpoint_steps, step_count, step_plan
from .guidance import GuidanceParams, regularized_density
from .version import __version__


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
    workers: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def build_grid(self) -> Grid:
        return _grid(self.grid)

    def guidance_params(self) -> GuidanceParams:
        lam = float(self.guidance["lam"])
        cap = self.guidance["drift_cap"]
        if cap == "auto":
            # Displacement cap of two noise standard deviations per step: large
            # enough to never bind in smooth regions, finite at density nodes.
            cap = 2.0 * np.sqrt(2.0 * lam / float(self.time["dt_langevin"]))
        return GuidanceParams(
            lam=lam,
            epsilon=float(self.guidance["epsilon"]),
            drift_cap=None if cap is None else float(cap),
        )


def _grid(g: dict) -> Grid:
    return Grid(
        points=tuple(int(n) for n in g["points"]),
        extent=tuple((float(lo), float(hi)) for lo, hi in g["extent"]),
        boundary=tuple(g["boundary"]),
    )


def _is_number(value, kind=Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) < math.inf


def _is_list(value, item=_is_number) -> bool:
    return isinstance(value, (list, tuple)) and all(map(item, value))


# The config schema.  Every key maps to (default, rule).  A rule is either
# (test, phrase), the phrase completing "<path> must be ...", or a dict: the
# keys of a nested object.  A None default is resolved where the value is
# used (from another value, or as "off"), and None then passes any rule.
_REQUIRED = object()   # the default of a key the config must give
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_NUMBER = (_is_number, "a number")
_FRACTION = (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]")
_COUNT = (lambda v: _is_number(v, Integral) and v >= 0, "an integer >= 0")
_STRIDE = (lambda v: _is_number(v, Integral) and v >= 1, "an integer >= 1")
_LIST = (lambda v: _is_list(v, lambda _: True), "a list")
_CAP = (lambda v: v is None or v == "auto" or _POSITIVE[0](v), "a positive number, null or 'auto'")
_SAMPLER = (lambda v: v in ("point", "density"), "'point' or 'density'")
_TARGET = (lambda v: v in ("far_well", "ridge") or _is_number(v), "'far_well', 'ridge' or a number")

_SHARED = {
    "scenario": (_REQUIRED, (lambda v: v in SCENARIO_NAMES, "a scenario name")),
    "grid": ({}, {"points": (_REQUIRED, (lambda v: _is_list(v, _STRIDE[0]),
                                         "a list of positive integers")),
                  "extent": (_REQUIRED, _LIST), "boundary": (_REQUIRED, _LIST)}),
    "hbar": (1.0, _POSITIVE),
    "mass": (1.0, _POSITIVE),
    "guidance": ({}, {"lam": (1.0, _POSITIVE), "epsilon": (1e-12, _POSITIVE),
                      "drift_cap": (None, _CAP)}),   # "auto": two noise deviations per step
    "time": ({}, {"dt_psi": (1e-3, _POSITIVE), "dt_langevin": (1e-3, _POSITIVE),
                  "t_final": (_REQUIRED, _POSITIVE), "snapshot_stride": (10, _STRIDE)}),
    "ensemble": ({}, {"n_trajectories": (1000, _COUNT), "sampler": ({}, {
        "type": ("density", _SAMPLER),
        "at": (None, (lambda v: _is_number(v) or _is_list(v), "a number or a list of numbers"))})}),
    "master_seed": (20260808, (lambda v: _is_number(v, Integral), "an integer")),
    "histogram_refine": (4, _STRIDE),
    # None: every CPU this process may use; no count changes a result.
    "workers": (None, _STRIDE),
}
_TWO_GAUSSIANS = {"a": (1.0, _POSITIVE), "b": (1.0, _POSITIVE)}
# None: fp_dt is time.dt_langevin.
_ORACLE = {"checkpoints": (_REQUIRED, (lambda v: _is_list(v) and len(v) > 0,
                                        "a non-empty list of numbers")),
           "fp_dt": (None, _POSITIVE), "tv_limit": (0.05, _POSITIVE)}


class _Stage(NamedTuple):
    """One engine call from t = 0: ``dt`` up to ``t1`` on a static field, or
    through the snapshots ``schrodinger.evolve`` returns every ``stride``
    steps of ``dt_psi`` when ``lattice`` is ``(dt_psi, stride)``, returning
    its state at each of ``checkpoints``.  ``key`` names dt and ``horizon``
    names t1 in the validator's messages.  A ``rounded`` t1 is a horizon the
    runner takes to whole steps, and it must keep at least one."""
    key: str
    horizon: str
    t1: float
    dt: float
    lattice: tuple | None = None
    rounded: bool = False
    checkpoints: tuple = ()


def _whole(t: float, dt: float) -> float:
    """``t`` rounded to whole ``dt`` steps (inf stays inf)."""
    return float(np.rint(t / dt)) * dt


def _to_t_final(m: dict, key: str, lattice=None) -> _Stage:
    """Steps of ``time.<key>`` from 0 to time.t_final."""
    tm = m["time"]
    return _Stage(f"time.{key}", f"time.t_final={tm['t_final']}", tm["t_final"], tm[key], lattice)


def _equilibrium_stages(m: dict) -> list:
    """The walkers up to time.t_final, if there are any, through the checkpoints
    of ``params.oracle``; with the oracle then the density solver from t = 0 to
    the last checkpoint in fp_dt (or dt_langevin) steps, through the same ones."""
    if not m["ensemble"]["n_trajectories"]:
        return []
    walkers, oracle = _to_t_final(m, "dt_langevin"), m["params"]["oracle"]
    if not oracle:
        return [walkers]
    times = tuple(oracle["checkpoints"])
    key, dt = ("params.oracle.fp_dt", oracle["fp_dt"]) if oracle["fp_dt"] else (walkers.key, walkers.dt)
    return [walkers._replace(checkpoints=times),
            _Stage(key, f"the last checkpoint time {max(times)}", max(times), dt, checkpoints=times)]


def _harmonic_stages(m: dict) -> list:
    """The propagator's norm-drift run, params.norm_drift_steps of dt_psi or
    time.t_final in whole dt_psi steps, then the equilibrium stages."""
    tm, steps = m["time"], m["params"]["norm_drift_steps"]
    t1 = steps * tm["dt_psi"] if steps else _whole(tm["t_final"], tm["dt_psi"])
    return [_to_t_final(m, "dt_psi")._replace(t1=t1, rounded=True), *_equilibrium_stages(m)]


def _escape_time(m: dict) -> float:
    """The escape-time formula for the double well of ``m``; inf once it overflows."""
    dg = schrodinger.DoubleGaussianParams(a=float(m["params"]["a"]), b=float(m["params"]["b"]))
    return analysis.kramers_prediction(dg, float(m["guidance"]["lam"]))


def _double_well_stages(m: dict) -> list:
    """The equilibrium stages if enabled, then the localization walkers up to
    params.localization.horizon_fraction of the escape-time formula in whole
    steps of their dt.  The first-passage budget is a censoring time, not a
    horizon the steps must divide."""
    p = m["params"]
    stages = _equilibrium_stages(m) if p["equilibrium"]["enabled"] else []
    loc = p["localization"]
    if loc:
        horizon = loc["horizon_fraction"] * _escape_time(m)
        key, dt = (("params.localization.dt", loc["dt"]) if loc["dt"]
                   else ("time.dt_langevin", m["time"]["dt_langevin"]))
        stages.append(_Stage(key, f"the localization horizon {horizon}", _whole(horizon, dt), dt,
                             rounded=True))
    return stages


def _interference_stages(m: dict) -> list:
    """The propagator up to the fringe time, time.t_final or by default the
    time the two packets take to meet, in whole dt_psi steps; then the walkers
    through its snapshots, if there are any."""
    tm, p = m["time"], m["params"]
    meet = tm["t_final"] or float(p["separation"]) / float(p["momentum"]) * m["mass"] / m["hbar"]
    fringe = _whole(meet, tm["dt_psi"])
    stages = [_Stage("time.dt_psi", f"the fringe time {meet}", fringe, tm["dt_psi"], rounded=True)]
    if m["ensemble"]["n_trajectories"]:
        stages.append(_Stage("time.dt_langevin", f"the snapshot intervals up to the fringe time {fringe}",
                             fringe, tm["dt_langevin"], (tm["dt_psi"], tm["snapshot_stride"])))
    return stages


def _walk(spec: dict, given: dict, path: str, defaults: dict, errors: list) -> dict:
    """``given`` merged over the defaults of one level of the schema, a
    scenario's ``defaults`` (dotted path -> default) before the table's.
    Appends every unknown key and every value that breaks its rule to
    ``errors``."""
    where = path[:-1] or "config"
    errors += [f"{path}{key} is not {'an' if where[0] in 'aeiou' else 'a'} {where} key; "
               f"valid keys: {', '.join(spec)}" for key in given if key not in spec]
    merged = {}
    for key, (default, rule) in spec.items():
        name = path + key
        default = defaults.get(name, default)
        value = given.get(key, default)
        if isinstance(rule, dict) and isinstance(value, dict):
            merged[key] = _walk(rule, value, name + ".", defaults, errors)
            continue
        test, phrase = (lambda v: False, "a JSON object") if isinstance(rule, dict) else rule
        if not (value is None and default is None or test(value)):
            shown = "nothing" if value is _REQUIRED else repr(value)
            errors.append(f"{name} must be {phrase}, got {shown}")
        merged[key] = copy.deepcopy(value)
    return merged


def _snapshot_steps(st: _Stage):
    """Raise as ``step_plan`` would through the snapshots ``schrodinger.evolve``
    returns for ``st``.  The full segments between them are alike, so the
    snapshots at steps 0, ``stride``, the last below n and n suffice."""
    dt_psi, stride = st.lattice
    n = step_count(0.0, st.t1, dt_psi)
    last = max(n - 1, 0) // stride * stride   # the last snapshot step below n
    snaps = [SimpleNamespace(time=s * dt_psi) for s in {0, min(stride, n), last, n}]
    step_plan(snaps, 0.0, st.t1, st.dt)


def _stage_error(st: _Stage) -> str | None:
    """Why the engine could not step ``st`` or take its checkpoints, by its
    own rules, or None."""
    if not np.isfinite(st.t1):
        return f"{st.horizon} is not finite"
    try:
        if st.lattice:   # a snapshot stage takes no checkpoints
            _snapshot_steps(st)
            return None
        steps = step_count(0.0, st.t1, st.dt)
    except ValueError:
        return f"{st.key}={st.dt} does not divide {st.horizon}"
    if not steps and st.rounded:
        return f"{st.key}={st.dt} rounds {st.horizon} to zero steps"
    for tc in st.checkpoints:
        try:
            checkpoint_steps([tc], 0.0, st.t1, st.dt, steps)
        except ValueError:
            return f"{st.key}={st.dt} takes no step at the checkpoint time {tc} of {st.horizon}"
    return None


def _oracle_errors(m: dict) -> list[str]:
    """``params.oracle`` needs the walkers' equilibrium run to happen."""
    errors = []
    if m["ensemble"]["n_trajectories"] == 0:
        errors.append("params.oracle never runs: it needs ensemble.n_trajectories > 0")
    if "equilibrium" in m["params"] and not m["params"]["equilibrium"]["enabled"]:
        errors.append("params.oracle never runs: it needs params.equilibrium.enabled true")
    return errors


def _relation_errors(scenario: str, m: dict) -> list[str]:
    """Violations that involve more than one key; checked once every key
    obeys its own rule."""
    tm, p, en = m["time"], m["params"], m["ensemble"]
    errors = []
    if tm["dt_langevin"] > tm["dt_psi"] * (1 + 1e-12):
        errors.append("time.dt_langevin must not exceed time.dt_psi")
    need = _SCENARIOS[scenario]
    # the escape-time formula's range and overflow warnings are the run's to give
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stages = need.stages(m)
        escape = _escape_time(m) if scenario == "double_well" else None
    stage_errors = [e for e in map(_stage_error, stages) if e]
    errors += stage_errors
    if p.get("oracle"):
        errors += _oracle_errors(m)
    if scenario == "product_separation" and stages and not stage_errors:
        (st,) = stages   # the walkers
        n = en["n_trajectories"] * (step_count(0.0, st.t1, st.dt) // p["record_stride"])
        if n <= 9:   # the bound 3/sqrt(n) is then at least 1, which no |rho| exceeds
            errors.append(f"product_separation records {n} path increments (walkers x steps // "
                          "params.record_stride); increment_correlation needs 10 to be able to fail")
    loc = p.get("localization")
    if loc and loc["well_gap"] is not None and loc["well_gap"] > p["b"]:
        errors.append(f"params.localization.well_gap={loc['well_gap']} exceeds params.b={p['b']}: "
                      "the walkers would start at -b, outside their own well")
    try:
        grid = _grid(m["grid"])
    except (TypeError, ValueError) as exc:
        return errors + [f"grid: {exc}"]
    if grid.dims != need.dims:
        errors.append(f"grid must be {need.dims}-d for {scenario}, got {grid.dims}-d")
    if need.periodic and REFLECTING in grid.boundary:
        errors.append(f"grid.boundary must be periodic on every axis for {scenario}, "
                      f"got {list(grid.boundary)!r}")
    at = en["sampler"]["at"]
    if en["sampler"]["type"] == "point" and en["n_trajectories"] > 0 and (
            at is None or np.atleast_1d(at).shape != (grid.dims,)):
        errors.append(f"ensemble.sampler.at must have {grid.dims} coordinate(s), one per grid axis")
    refine = m["histogram_refine"]
    if need.histograms and any(n % refine for n in grid.points):
        errors.append(f"histogram_refine={refine} must divide every grid axis {grid.points}")
    if scenario == "double_well":
        reach = p["b"] + 6 * p["a"]
        lo, hi = grid.extent[0]
        if lo > -reach or hi < reach:
            errors.append(f"grid extent [{lo}, {hi}] does not cover the double well's "
                          f"[-(b + 6a), b + 6a] = [{-reach}, {reach}]")
        mfpt = p["mfpt"]
        if mfpt:
            if not np.isfinite(mfpt["t_max_factor"] * escape):
                errors.append(f"params.mfpt.t_max_factor={mfpt['t_max_factor']} times the "
                              f"escape-time formula {escape} is not finite")
            if _is_number(mfpt["target"]) and not lo < mfpt["target"] < hi:
                errors.append(f"params.mfpt.target must lie inside the grid extent ({lo}, {hi}) "
                              f"for a walker to reach it, got {mfpt['target']}")
            if mfpt["start"] is not None and not lo <= mfpt["start"] <= hi:
                errors.append(f"params.mfpt.start must lie inside the grid extent [{lo}, {hi}], "
                              f"got {mfpt['start']}")
    return errors


def validate_config(source) -> tuple[ScenarioConfig | None, list[str]]:
    """Parse and validate a config (JSON text, path-free).  Returns the config
    with defaults applied, or None plus the full list of violations."""
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
    errors: list[str] = []
    need = _SCENARIOS[scenario]
    merged = _walk({**_SHARED, "params": ({}, need.params)}, source, "", need.defaults, errors)
    errors = errors or _relation_errors(scenario, merged)
    if errors:
        return None, errors
    return ScenarioConfig(**{**merged, "hbar": float(merged["hbar"]), "mass": float(merged["mass"]),
                             "master_seed": int(merged["master_seed"]),
                             "histogram_refine": int(merged["histogram_refine"])}), []


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
        return asdict(self)

    def save(self, path: Path):
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RunManifest":
        d = json.loads(Path(path).read_text())
        return cls(**{**d, "checks": [Check(**c) for c in d["checks"]]})

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

def _check(out: Outcome, name: str, value, relation: str, limit):
    """Record the threshold check ``value < limit`` or ``value >= limit``."""
    passed = value < limit if relation == "<" else value >= limit
    out.checks.append(Check(name, value, f"{relation} {limit}", passed))


def _distance(p: DensityField, ref: DensityField, refine: int = 1) -> tuple[float, float]:
    """TV distance and max-norm between ``p`` and ``ref`` normalized, both
    block-averaged by ``refine`` first when it is above 1."""
    if refine > 1:
        p, ref = analysis.coarsen(p, refine), analysis.coarsen(ref, refine)
    ref = ref.normalized()
    return analysis.total_variation(p, ref), float(np.max(np.abs(p.values - ref.values)))


def _walkers(cfg: ScenarioConfig, psi0: WaveField, snaps, params: GuidanceParams, stage: _Stage, **kw):
    """The config's walkers, drawn by its sampler (a point, or the density of
    ``psi0``) and stepped from its master seed through ``stage`` on ``snaps``,
    returning their positions at its checkpoints."""
    spec = cfg.ensemble["sampler"]
    sampler = (langevin.PointSampler(np.asarray(spec["at"], dtype=float)) if spec["type"] == "point"
               else langevin.DensitySampler(regularized_density(psi0, params)))
    return langevin.run_ensemble(cfg.ensemble["n_trajectories"], sampler, snaps, params, stage.dt,
                                 stage.t1, master_seed=cfg.master_seed, workers=cfg.workers,
                                 checkpoint_times=stage.checkpoints, **kw)


def _harmonic(cfg: ScenarioConfig, grid: Grid, omega: float) -> schrodinger.HamiltonianSpec:
    """The config's Hamiltonian in the trap U = m omega^2 |x|^2 / 2."""
    u = sum((0.5 * cfg.mass * omega**2 * m**2 for m in grid.meshgrid()), np.zeros(grid.points))
    return schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass, potential=u)


# --------------------------------------------------------------------------
# scenarios

def _run_harmonic_ground(cfg: ScenarioConfig, stages):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    omega = float(p["omega"])
    h = _harmonic(cfg, grid, omega)
    x = grid.coords(0)
    psi0 = WaveField(grid, (cfg.mass * omega / np.pi / cfg.hbar) ** 0.25
                     * np.exp(-cfg.mass * omega * x**2 / (2 * cfg.hbar)))
    params = cfg.guidance_params()
    out.fields.append(("psi_initial", psi0))

    # propagator hygiene: the ground state is stationary; norm must hold
    norm_run, *equilibrium_stages = stages
    steps = step_count(0.0, norm_run.t1, norm_run.dt)
    norm0 = psi0.norm_sq()
    psi_final = schrodinger.evolve(psi0, h, norm_run.t1, norm_run.dt, snapshot_stride=steps)[-1]
    norm_drift = abs(psi_final.norm_sq() - norm0) / norm0
    out.metrics["norm_drift"] = norm_drift
    out.metrics["propagator_steps"] = steps
    _check(out, "psi_norm_drift", norm_drift, "<", p["norm_drift_limit"])
    out.fields.append(("psi_final", psi_final))

    equilibrium = regularized_density(psi0, params)
    out.fields.append(("equilibrium", equilibrium))

    if equilibrium_stages:
        tv = _equilibrium_check(cfg, out, equilibrium_stages, psi0, params, equilibrium, p["tv_limit"])
        out.tables["equilibrium"] = (["metric", "value"],
                                     [["tv_equilibrium", tv], ["norm_drift", norm_drift]])
    return out


def _equilibrium_check(cfg, out, stages, psi, params, equilibrium, limit):
    """Run the walkers' stage of ``stages`` (see ``_equilibrium_stages``) on
    the static field ``psi``, check the TV distance of their binned final
    positions from ``equilibrium`` against ``limit``, and hand the density
    solver's stage, when there is one, to the oracle cross-check.  Returns
    the TV distance."""
    walkers, *solver = stages
    result = _walkers(cfg, psi, psi, params, walkers)
    hist = analysis.histogram(result.final_positions, psi.grid)
    tv, _ = _distance(hist, equilibrium, cfg.histogram_refine)
    out.metrics["tv_equilibrium"] = tv
    _check(out, "tv_equilibrium", tv, "<", limit)
    out.fields.append(("final_histogram", hist))
    if solver:
        _oracle_cross_check(cfg, out, psi, params, result, *solver)
    return tv


def _oracle_cross_check(cfg, out, psi, params, result, stage: _Stage):
    """TV between the walkers' checkpoint histograms and the density solver,
    which steps ``stage`` from t = 0 through the same checkpoints in one call."""
    start = cfg.ensemble["sampler"]
    grid = psi.grid
    # A point start is the walkers' folded start point, binned by the one cell rule.
    p0 = (analysis.histogram(grid.fold(np.asarray(start["at"], dtype=float)), grid)
          if start["type"] == "point" else regularized_density(psi, params).normalized())
    densities = smoluchowski.fp_evolve(p0, psi, params, stage.dt, stage.t1,
                                       checkpoint_times=stage.checkpoints)
    rows = [[tc, *_distance(analysis.histogram(positions, grid), dens, cfg.histogram_refine)]
            for (tc, positions), dens in zip(result.checkpoints, densities)]
    worst = max(tv for _, tv, _ in rows)
    out.metrics["oracle_tv_max"] = worst
    out.metrics["oracle_checkpoints"] = [float(t) for t in stage.checkpoints]
    _check(out, "oracle_tv_max", worst, "<", cfg.params["oracle"]["tv_limit"])
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


def _run_double_well(cfg: ScenarioConfig, stages):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    dg = schrodinger.DoubleGaussianParams(a=float(p["a"]), b=float(p["b"]))
    psi = schrodinger.make_double_gaussian(grid, dg)
    params = cfg.guidance_params()
    equilibrium = regularized_density(psi, params)
    out.fields.append(("psi_initial", psi))
    out.fields.append(("equilibrium", equilibrium))

    loc = p["localization"]
    if loc:
        *stages, loc_stage = stages
    if stages:
        _equilibrium_check(cfg, out, stages, psi, params, equilibrium, p["equilibrium"]["tv_limit"])

    if p["mfpt"]:
        _mfpt_block(cfg, out, psi, dg, params, p["mfpt"])

    if loc:
        _localization_block(cfg, out, psi, dg, params, loc, loc_stage)
    return out


def _mfpt_block(cfg, out, psi, dg, params, mfpt):
    target = {"far_well": dg.b, "ridge": 0.0}.get(mfpt["target"], mfpt["target"])
    stop = langevin.PlaneCrossing(at=float(target))
    prediction = analysis.kramers_prediction(dg, params.lam)
    t_max = mfpt["t_max_factor"] * prediction
    dt = float(mfpt["dt"] or cfg.time["dt_langevin"])
    n = int(mfpt["n"])
    start = -dg.b if mfpt["start"] is None else float(mfpt["start"])
    results = langevin.run_first_passage_ensemble(n, [start], psi, params, dt, stop, t_max,
                                                  master_seed=cfg.master_seed)
    est = analysis.mfpt_estimate(results)
    ratio = est.mean / prediction if est.defined else np.nan
    out.metrics["mfpt_mean"] = est.mean
    out.metrics["mfpt_se"] = est.standard_error
    out.metrics["mfpt_censored_fraction"] = est.censored_fraction
    out.metrics["mfpt_prediction"] = prediction
    out.metrics["mfpt_ratio"] = ratio
    out.metrics["mfpt_escapes"] = int(round(est.n * (1 - est.censored_fraction)))
    factor = mfpt["within_factor"]
    if factor:
        ok = est.defined and (1.0 / factor) <= ratio <= factor
        out.checks.append(Check("mfpt_within_factor", ratio,
                                f"within factor {factor} of the escape-time formula", bool(ok)))
    out.tables["mfpt"] = (
        ["a", "b", "lam", "predicted", "measured_mean", "se", "ratio", "censored_fraction", "n"],
        [[dg.a, dg.b, params.lam, prediction, est.mean, est.standard_error,
          ratio, est.censored_fraction, est.n]],
    )


def _localization_block(cfg, out, psi, dg, params, loc, stage):
    dt, horizon = float(stage.dt), stage.t1
    n = int(loc["n"])
    gap = loc["well_gap"] or dg.b / 2.0
    x = psi.grid.coords(0)   # cell centres: well 0 at or below -gap, 1 at or above gap
    wells = langevin.NodeBasinMap(psi.grid, np.where(x <= -gap, 0, np.where(x >= gap, 1, -1)))
    write_paths = int(loc["write_paths"])
    result = langevin.run_ensemble(n, langevin.PointSampler([-dg.b]), psi, params, dt, horizon,
                                   master_seed=cfg.master_seed, basins=lambda _: wells,
                                   record_stride=int(loc["record_stride"]) if write_paths else None,
                                   workers=cfg.workers)
    stay = float(np.mean(result.crossings == 0))
    mass_start_well = float(np.mean(result.final_positions[:, 0] < 0.0))
    out.metrics["localization_horizon"] = horizon
    out.metrics["no_jump_fraction"] = stay
    out.metrics["mean_jumps"] = float(result.crossings.mean())
    out.metrics["final_mass_start_well"] = mass_start_well
    _check(out, "no_jump_fraction", stay, ">=", loc["stay_fraction"])
    out.tables["localization"] = (
        ["horizon", "no_jump_fraction", "mean_jumps", "final_mass_start_well", "n"],
        [[horizon, stay, float(result.crossings.mean()), mass_start_well, n]],
    )
    if write_paths:
        out.tables["paths"] = _path_table(result, write_paths)


def _run_adiabatic_tracking(cfg: ScenarioConfig, stages):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    omega = float(p["omega"])
    h = _harmonic(cfg, grid, omega)
    psi0 = schrodinger.make_packet(grid, [float(p["displacement"])], np.sqrt(cfg.hbar / (cfg.mass * omega)))
    (run,) = stages   # the propagator, and the density solver through its snapshots
    snaps = schrodinger.evolve(psi0, h, run.t1, run.dt, cfg.time["snapshot_stride"])
    out.fields.append(("psi_initial", psi0))
    out.fields.append(("psi_final", snaps[-1]))

    # One lockstep sweep over every lam; p0 and the reference densities
    # depend on epsilon alone.
    sweep = [GuidanceParams(lam=float(lam), epsilon=float(cfg.guidance["epsilon"]))
             for lam in p["lam_values"]]
    p0 = regularized_density(psi0, sweep[0]).normalized()
    densities = smoluchowski.fp_evolve(p0, snaps, sweep, run.dt, run.t1, method="implicit",
                                       checkpoint_times=[s.time for s in snaps])
    series = [[] for _ in sweep]   # the tracking_series rows of each lam
    for snap, *dens in zip(snaps, *densities):
        ref = regularized_density(snap, sweep[0])
        for rows, lam, d in zip(series, p["lam_values"], dens):
            rows.append([lam, d.time, *_distance(d.normalized(), ref)])
    summary_rows = []
    series_rows = []
    tv_by_lam = []
    for lam, rows in zip(p["lam_values"], series):
        tvs = [row[2] for row in rows]
        mean_tv = float(np.mean(tvs))
        max_tv = float(np.max(tvs))
        tv_by_lam.append(mean_tv)
        summary_rows.append([lam, mean_tv, max_tv])
        series_rows += rows
    out.metrics["lam_values"] = [float(v) for v in p["lam_values"]]
    out.metrics["tracking_tv_mean"] = tv_by_lam
    decreasing = all(a > b for a, b in zip(tv_by_lam[:-1], tv_by_lam[1:]))
    out.checks.append(Check("tracking_tv_decreasing", float(tv_by_lam[-1] - tv_by_lam[0]),
                            "strictly decreasing in lam", decreasing))
    _check(out, "tracking_tv_last", tv_by_lam[-1], "<", p["tv_limit_last"])
    out.tables["tracking"] = (["lam", "tv_mean", "tv_max"], summary_rows)
    out.tables["tracking_series"] = (["lam", "t", "tv", "maxnorm"], series_rows)
    return out


def _run_interference(cfg: ScenarioConfig, stages):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    w = float(p["packet_width"])
    c = float(p["separation"])
    k = float(p["momentum"])
    propagator, *walkers = stages
    fringe_time = propagator.t1
    h = schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass)
    x = grid.coords(0)
    values = (np.exp(-((x + c) ** 2) / (2 * w * w) + 1j * k * x)
              + np.exp(-((x - c) ** 2) / (2 * w * w) - 1j * k * x))
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    psi0 = WaveField(grid, values, 0.0)
    snaps = schrodinger.evolve(psi0, h, fringe_time, propagator.dt, cfg.time["snapshot_stride"])
    out.fields.append(("psi_initial", psi0))
    out.fields.append(("psi_final", snaps[-1]))
    out.metrics["fringe_time"] = fringe_time

    if walkers:
        params = cfg.guidance_params()
        result = _walkers(cfg, psi0, snaps, params, walkers[0], basins=lambda psi:
                          langevin.NodeBasinMap.from_wavefield(psi, float(p["node_threshold"])))
        hist = analysis.histogram(result.final_positions, grid)
        tv, _ = _distance(hist, regularized_density(snaps[-1], params), cfg.histogram_refine)
        zero_fraction = float(np.mean(result.crossings == 0))
        out.metrics["tv_fringe"] = tv
        out.metrics["zero_crossing_fraction"] = zero_fraction
        out.metrics["mean_crossings"] = float(result.crossings.mean())
        _check(out, "tv_fringe", tv, "<", p["tv_limit"])
        _check(out, "zero_crossing_fraction", zero_fraction, ">=", p["zero_crossing_fraction"])
        out.fields.append(("final_histogram", hist))
        out.tables["interference"] = (
            ["fringe_time", "tv", "zero_crossing_fraction", "mean_crossings", "n"],
            [[fringe_time, tv, zero_fraction, float(result.crossings.mean()),
              cfg.ensemble["n_trajectories"]]],
        )
    return out


def _run_product_separation(cfg: ScenarioConfig, stages):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    dgp = schrodinger.DoubleGaussianParams(a=float(p["a"]), b=float(p["b"]))
    x = grid.coords(0)
    y = grid.coords(1)
    fx = np.exp(-((x - dgp.b) ** 2) / (2 * dgp.a**2)) + np.exp(-((x + dgp.b) ** 2) / (2 * dgp.a**2))
    fy = np.exp(-(y**2) / (2 * float(p["gauss_width"]) ** 2))
    psi = WaveField(grid, np.outer(fx, fy), 0.0)
    out.fields.append(("psi_initial", psi))
    params = cfg.guidance_params()

    if stages:   # the walkers
        result = _walkers(cfg, psi, psi, params, stages[0], record_stride=int(p["record_stride"]))
        stats = analysis.independence_test(result.paths)
        bound = 3.0 / np.sqrt(stats.n_increments)
        out.metrics["rho_increments"] = stats.rho_increments
        out.metrics["rho_occupancy"] = stats.rho_occupancy
        out.metrics["n_increments"] = stats.n_increments
        out.metrics["rho_bound"] = bound
        out.checks.append(Check("increment_correlation", abs(stats.rho_increments),
                                f"< {bound:.3e} (3/sqrt(samples))", abs(stats.rho_increments) < bound))
        out.tables["correlation"] = (
            ["rho_increments", "z_increments", "rho_occupancy", "z_occupancy", "n_increments"],
            [[stats.rho_increments, stats.z_increments, stats.rho_occupancy,
              stats.z_occupancy, stats.n_increments]],
        )
        write_paths = int(p["write_paths"])
        if write_paths:
            out.tables["paths"] = _path_table(result, write_paths)
    return out


def _run_free_packet(cfg: ScenarioConfig, stages):
    out = Outcome()
    grid = cfg.build_grid()
    p = cfg.params
    sigma0 = float(p["sigma0"])
    h = schrodinger.HamiltonianSpec(hbar=cfg.hbar, mass=cfg.mass)
    psi0 = schrodinger.make_packet(grid, [0.0], np.sqrt(2.0) * sigma0)
    (run,) = stages
    snaps = schrodinger.evolve(psi0, h, run.t1, run.dt, cfg.time["snapshot_stride"])
    x = grid.coords(0)
    rows = []
    for s in snaps:
        rho = np.abs(s.values) ** 2
        rho = rho / (rho.sum() * grid.cell_volume)
        mean = float(np.sum(x * rho) * grid.cell_volume)
        var = float(np.sum((x - mean) ** 2 * rho) * grid.cell_volume)
        t = s.time
        expected = sigma0 * np.sqrt(1.0 + (cfg.hbar * t / (2 * cfg.mass * sigma0**2)) ** 2)
        rows.append([t, np.sqrt(var), expected])
    sigma_final, sigma_expected = rows[-1][1], rows[-1][2]
    rel_error = abs(sigma_final - sigma_expected) / sigma_expected
    out.metrics["sigma_final"] = float(sigma_final)
    out.metrics["sigma_expected"] = float(sigma_expected)
    out.metrics["rel_error"] = float(rel_error)
    _check(out, "dispersion_rel_error", rel_error, "<", p["rel_error_limit"])
    out.tables["dispersion"] = (["t", "sigma_measured", "sigma_expected"], rows)
    out.fields.append(("psi_initial", psi0))
    out.fields.append(("psi_final", snaps[-1]))
    return out


@dataclass(frozen=True)
class _Scenario:
    dims: int          # grid axes the runner builds its state on
    periodic: bool     # propagated by the split-step method, which needs periodic axes
    histograms: bool   # compares histograms coarsened by ``histogram_refine``
    defaults: dict     # dotted path -> default, replacing the one in _SHARED
    params: dict       # the scenario's ``params`` keys
    stages: Callable   # merged config -> the _Stages its runner steps, in O(1)
    run: Callable      # (config, its stages) -> Outcome


_SCENARIOS = {
    "double_well": _Scenario(dims=1, periodic=False, histograms=True, defaults={
        "grid.points": [512], "grid.extent": [[-9.0, 9.0]], "grid.boundary": [REFLECTING],
        "time.dt_psi": 5e-3, "time.dt_langevin": 5e-3, "time.t_final": 200.0,
        "ensemble.n_trajectories": 10000,
        "ensemble.sampler.type": "point", "ensemble.sampler.at": [-1.0],
    }, stages=_double_well_stages, run=_run_double_well, params={
        **_TWO_GAUSSIANS,
        "equilibrium": ({}, {"enabled": (True, (lambda v: isinstance(v, bool), "true or false")),
                             "tv_limit": (0.05, _POSITIVE)}),
        "oracle": (None, _ORACLE),
        # None: dt is time.dt_langevin, start is -b, within_factor sets no check.
        "mfpt": (None, {"n": (_REQUIRED, _STRIDE), "dt": (None, _POSITIVE),
                        "target": ("far_well", _TARGET), "t_max_factor": (4.0, _POSITIVE),
                        "start": (None, _NUMBER), "within_factor": (None, _POSITIVE)}),
        # None: dt is time.dt_langevin, well_gap is b / 2.
        "localization": (None, {"n": (_REQUIRED, _STRIDE), "dt": (None, _POSITIVE),
                                "horizon_fraction": (0.1, _POSITIVE), "well_gap": (None, _POSITIVE),
                                "record_stride": (20, _STRIDE), "stay_fraction": (0.95, _FRACTION),
                                "write_paths": (0, _COUNT)}),
    }),
    "interference": _Scenario(dims=1, periodic=True, histograms=True, defaults={
        "grid.points": [2048], "grid.extent": [[-16.0, 16.0]], "grid.boundary": [PERIODIC],
        "guidance.lam": 25.0, "guidance.drift_cap": "auto",
        "time.dt_psi": 2e-3, "time.dt_langevin": 1e-4,
        "time.t_final": None,   # None: when the two packets meet
        "ensemble.n_trajectories": 8192, "histogram_refine": 8,
    }, stages=_interference_stages, run=_run_interference, params={
        "packet_width": (1.0, _POSITIVE), "separation": (5.0, _POSITIVE),
        "momentum": (2.0, _POSITIVE), "node_threshold": (1e-8, _POSITIVE),
        "tv_limit": (0.15, _POSITIVE), "zero_crossing_fraction": (0.99, _FRACTION),
    }),
    "harmonic_ground": _Scenario(dims=1, periodic=True, histograms=True, defaults={
        "grid.points": [256], "grid.extent": [[-8.0, 8.0]], "grid.boundary": [PERIODIC],
        "guidance.lam": 10.0, "time.t_final": 20.0,
        "ensemble.sampler.type": "point", "ensemble.sampler.at": [0.0],
    }, stages=_harmonic_stages, run=_run_harmonic_ground, params={
        "omega": (1.0, _POSITIVE), "tv_limit": (0.08, _POSITIVE),
        "norm_drift_limit": (1e-9, _POSITIVE),
        "norm_drift_steps": (None, _STRIDE),   # None: t_final / dt_psi
        "oracle": (None, _ORACLE),
    }),
    "adiabatic_tracking": _Scenario(dims=1, periodic=True, histograms=False, defaults={
        "grid.points": [384], "grid.extent": [[-12.0, 12.0]], "grid.boundary": [PERIODIC],
        "time.t_final": 6.283, "ensemble.n_trajectories": 0,
    }, stages=lambda m: [_to_t_final(m, "dt_psi", (m["time"]["dt_psi"], m["time"]["snapshot_stride"]))],
    run=_run_adiabatic_tracking, params={
        "omega": (1.0, _POSITIVE), "displacement": (1.0, _NUMBER),
        # tracking_tv_decreasing compares neighbours, and tracking_tv_last judges the largest
        "lam_values": ([1.0, 10.0, 100.0], (
            lambda v: _is_list(v, _POSITIVE[0]) and len(v) >= 2 and list(v) == sorted(set(v)),
            "a strictly increasing list of at least two positive numbers")),
        "tv_limit_last": (0.1, _POSITIVE),
    }),
    "product_separation": _Scenario(dims=2, periodic=False, histograms=False, defaults={
        "grid.points": [128, 128], "grid.extent": [[-8.0, 8.0], [-8.0, 8.0]],
        "grid.boundary": [REFLECTING, REFLECTING],
        "time.dt_psi": 5e-3, "time.dt_langevin": 5e-3, "time.t_final": 100.0,
        "ensemble.n_trajectories": 64,
    }, stages=lambda m: [_to_t_final(m, "dt_langevin")] if m["ensemble"]["n_trajectories"] else [],
    run=_run_product_separation, params={
        **_TWO_GAUSSIANS, "gauss_width": (1.0, _POSITIVE), "record_stride": (1, _STRIDE),
        "write_paths": (0, _COUNT)}),
    "free_packet": _Scenario(dims=1, periodic=True, histograms=False, defaults={
        "grid.points": [1024], "grid.extent": [[-40.0, 40.0]], "grid.boundary": [PERIODIC],
        "time.t_final": 2.0, "time.snapshot_stride": 100, "ensemble.n_trajectories": 0,
    }, stages=lambda m: [_to_t_final(m, "dt_psi")],
    run=_run_free_packet, params={"sigma0": (1.0, _POSITIVE), "rel_error_limit": (0.01, _POSITIVE)}),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunManifest:
    """Run a config from ``validate_config`` and write its manifest, metric
    CSVs and field snapshots under ``out_dir`` (by default ``runs/<scenario>``).
    The runner steps the stages its scenario declares, the ones the validator
    checked."""
    t_start = _time.perf_counter()
    need = _SCENARIOS[cfg.scenario]
    outcome = need.run(cfg, need.stages(cfg.to_dict()))

    out_base = Path(out_dir or f"runs/{cfg.scenario}")
    out_base.mkdir(parents=True, exist_ok=True)
    files = []
    for name, fld in outcome.fields:
        binary = write_field(fld, out_base / "fields" / name).relative_to(out_base)
        files += [binary, binary.with_suffix(".json")]
    for name, (header, rows) in sorted(outcome.tables.items()):
        path = out_base / "metrics" / f"{name}.csv"
        _write_csv(path, header, rows)
        files.append(path.relative_to(out_base))

    passed = all(c.passed for c in outcome.checks)
    inventory = [{"path": str(rel), "bytes": (out_base / rel).stat().st_size,
                  "sha256": _sha256(out_base / rel)} for rel in files]
    manifest = RunManifest(
        scenario=cfg.scenario, config=cfg.to_dict(), version=__version__,
        metrics=_jsonable(outcome.metrics), checks=outcome.checks, passed=passed, files=inventory,
        timing={"wall_clock_s": _time.perf_counter() - t_start})
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
