"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with -s to watch them stream).

Criterion 4c is known to fail: over a horizon of 0.1x the escape-time formula
the no-jump fraction is exp(-0.1 * T_formula / T_true) ~ 0.90 (and the
formula is accurate here, T_formula ~ T_true), which is below the stated 0.95
threshold.  The assertion is kept faithful to the stated number; see the
measured-vs-oracle agreement asserted alongside it.
"""

import numpy as np
import pytest

from psiwalk import (
    DensityField,
    DoubleGaussianParams,
    FPOperator,
    Grid,
    GuidanceParams,
    HamiltonianSpec,
    PointSampler,
    WaveField,
    fp_step,
    make_double_gaussian,
    run_ensemble,
)
from psiwalk.guidance import regularized_density
from psiwalk.scenarios import run_scenario, validate_config

from _oracles import MFPT_FULL_CROSSING


def _report(criterion, detail, passed):
    print(f"ACCEPTANCE {criterion}: {detail} -> {'PASS' if passed else 'FAIL'}")
    return passed


def _run(config, out_dir):
    cfg, errors = validate_config(config)
    assert errors == [], errors
    return run_scenario(cfg, out_dir=out_dir)


# -- 1. equilibrium law --------------------------------------------------------

def test_criterion_1_equilibrium_law(tmp_path):
    manifest = _run(
        {
            "scenario": "harmonic_ground",
            "guidance": {"lam": 1.0},
            "time": {"dt_psi": 5e-3, "dt_langevin": 5e-3, "t_final": 100.0},
            "ensemble": {"n_trajectories": 10_000, "sampler": {"type": "point", "at": [0.0]}},
            "params": {"tv_limit": 0.05},
            "master_seed": 715,
        },
        tmp_path,
    )
    tv = manifest.metrics["tv_equilibrium"]
    ok = _report(
        "1 equilibrium-law",
        f"TV(histogram, (|psi|^2+eps)/Z) = {tv:.4f} (< 0.05), "
        f"wall {manifest.timing['wall_clock_s']:.0f}s",
        tv < 0.05 and manifest.timing["wall_clock_s"] < 300,
    )
    assert ok


# -- 2. oracle equivalence -------------------------------------------------------

@pytest.mark.parametrize(
    "scenario_cfg",
    [
        {
            "scenario": "harmonic_ground",
            "guidance": {"lam": 1.0},
            "time": {"dt_psi": 2e-3, "dt_langevin": 2e-3, "t_final": 3.0},
            "ensemble": {"n_trajectories": 100_000, "sampler": {"type": "point", "at": [1.5]}},
            "params": {"oracle": {"checkpoints": [0.3, 1.0, 3.0], "tv_limit": 0.05}},
            "master_seed": 82,
        },
        {
            "scenario": "double_well",
            "time": {"dt_psi": 2e-3, "dt_langevin": 2e-3, "t_final": 3.0},
            "ensemble": {"n_trajectories": 100_000, "sampler": {"type": "point", "at": [-1.0]}},
            "params": {
                "a": 1.0,
                "b": 1.0,
                "equilibrium": {"enabled": True, "tv_limit": 1.0},
                "oracle": {"checkpoints": [0.3, 1.0, 3.0], "tv_limit": 0.05},
            },
            "master_seed": 83,
        },
    ],
    ids=["harmonic", "double_well_low_barrier"],
)
def test_criterion_2_oracle_equivalence(tmp_path, scenario_cfg):
    manifest = _run(scenario_cfg, tmp_path)
    worst = manifest.metrics["oracle_tv_max"]
    ok = _report(
        f"2 oracle-equivalence[{scenario_cfg['scenario']}]",
        f"max TV(Langevin 1e5 samples, density solver) over 3 checkpoints = {worst:.4f} (< 0.05)",
        worst < 0.05,
    )
    assert ok


# -- 3. adiabatic approximation ----------------------------------------------------

def test_criterion_3_adiabatic_tracking(tmp_path):
    manifest = _run({"scenario": "adiabatic_tracking", "master_seed": 3}, tmp_path)
    tvs = manifest.metrics["tracking_tv_mean"]
    decreasing = all(a > b for a, b in zip(tvs[:-1], tvs[1:]))
    ok = _report(
        "3 adiabatic-tracking",
        f"TV residual per lam {dict(zip([1, 10, 100], [round(v, 4) for v in tvs]))}, "
        f"strictly decreasing={decreasing}, TV(lam=100)={tvs[-1]:.4f} (< 0.1)",
        decreasing and tvs[-1] < 0.1,
    )
    assert ok


# -- 4. escape times and localization ------------------------------------------------

@pytest.fixture(scope="module")
def mfpt_campaigns(tmp_path_factory):
    out = {}
    for b, seed in ((2.5, 411), (3.0, 412)):
        manifest = _run(
            {
                "scenario": "double_well",
                "grid": {"points": [512], "extent": [[-9.5, 9.5]], "boundary": ["reflecting"]},
                "time": {"dt_psi": 0.02, "dt_langevin": 0.02, "t_final": 1.0},
                "ensemble": {"n_trajectories": 0},
                "params": {
                    "a": 1.0,
                    "b": b,
                    "equilibrium": {"enabled": False},
                    "mfpt": {"n": 220, "dt": 0.02, "target": "far_well",
                             "t_max_factor": 4.0, "within_factor": 3.0},
                },
                "master_seed": seed,
            },
            tmp_path_factory.mktemp(f"mfpt_{b}"),
        )
        out[b] = manifest.metrics
    return out


def test_criterion_4a_escape_time_within_factor_3(mfpt_campaigns):
    m = mfpt_campaigns[2.5]
    ratio = m["mfpt_ratio"]
    escapes = m["mfpt_escapes"]
    ok = _report(
        "4a escape-time-vs-formula",
        f"measured/predicted = {ratio:.2f} at b/a=2.5 with {escapes} escapes "
        f"(within factor 3; quadrature oracle {MFPT_FULL_CROSSING[2.5]:.0f})",
        escapes >= 200 and 1 / 3 < ratio < 3,
    )
    assert ok


def test_criterion_4b_exponential_scaling(mfpt_campaigns):
    t25 = mfpt_campaigns[2.5]["mfpt_mean"]
    t30 = mfpt_campaigns[3.0]["mfpt_mean"]
    log_ratio = float(np.log(t30 / t25))
    ok = _report(
        "4b exponential-scaling",
        f"ln(T(3.0)/T(2.5)) = {log_ratio:.2f} (target 2.75 +- 30%)",
        2.75 * 0.7 < log_ratio < 2.75 * 1.3,
    )
    assert ok


def test_criterion_4c_localization(tmp_path):
    manifest = _run(
        {
            "scenario": "double_well",
            "grid": {"points": [512], "extent": [[-9.5, 9.5]], "boundary": ["reflecting"]},
            "time": {"dt_psi": 0.01, "dt_langevin": 0.01, "t_final": 1.0},
            "ensemble": {"n_trajectories": 0},
            "params": {
                "a": 1.0,
                "b": 3.0,
                "equilibrium": {"enabled": False},
                "localization": {"n": 300, "horizon_fraction": 0.1,
                                 "stay_fraction": 0.95, "dt": 0.01},
            },
            "master_seed": 77,
        },
        tmp_path,
    )
    stay = manifest.metrics["no_jump_fraction"]
    horizon = manifest.metrics["localization_horizon"]
    # Cross-check against the first-passage oracle: survival over the horizon.
    oracle = float(np.exp(-horizon / MFPT_FULL_CROSSING[3.0]))
    assert abs(stay - oracle) < 0.06, "simulation disagrees with the survival oracle"
    ok = _report(
        "4c localization",
        f"no-jump fraction over 0.1*T = {stay:.3f} (>= 0.95 required; "
        f"survival oracle predicts {oracle:.3f}, so the stated threshold is "
        "unattainable -- see the decisions ledger)",
        stay >= 0.95,
    )
    assert ok, (
        f"measured no-jump fraction {stay:.3f} matches the exp(-horizon/T) oracle "
        f"{oracle:.3f} but is below the stated 0.95 threshold"
    )


# -- 5. interference confinement ---------------------------------------------------

def test_criterion_5_interference(tmp_path):
    manifest = _run({"scenario": "interference", "master_seed": 5}, tmp_path)
    tv = manifest.metrics["tv_fringe"]
    zero = manifest.metrics["zero_crossing_fraction"]
    ok = _report(
        "5 interference-confinement",
        f"zero-crossing fraction = {zero:.4f} (>= 0.99), "
        f"TV(histogram, |psi|^2/Z at fringe time) = {tv:.4f} (< 0.15)",
        zero >= 0.99 and tv < 0.15,
    )
    assert ok


# -- 6. separability -----------------------------------------------------------------

def test_criterion_6_separability(tmp_path):
    manifest = _run({"scenario": "product_separation", "master_seed": 6}, tmp_path)
    rho = abs(manifest.metrics["rho_increments"])
    bound = manifest.metrics["rho_bound"]
    ok = _report(
        "6 separability",
        f"|increment correlation| = {rho:.2e} (< 3/sqrt(samples) = {bound:.2e})",
        rho < bound,
    )
    assert ok


# -- 7. solver hygiene ----------------------------------------------------------------

def test_criterion_7a_propagator_norm_drift():
    g = Grid.make(256, (-8.0, 8.0), "periodic")
    x = g.coords(0)
    h = HamiltonianSpec(potential=0.5 * x**2)
    psi = WaveField(g, np.exp(-((x - 1.0) ** 2) / 2 + 0.4j * x))
    n0 = psi.norm_sq()
    from psiwalk import evolve

    final = evolve(psi, h, 100.0, 1e-3, snapshot_stride=10**9)[-1]
    drift = abs(final.norm_sq() - n0) / n0
    ok = _report("7a psi-norm-drift", f"{drift:.2e} over 1e5 steps (< 1e-9)", drift < 1e-9)
    assert ok


def test_criterion_7b_fp_mass_and_equilibrium():
    g = Grid.make(256, (-9.0, 9.0), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=1.5))
    params = GuidanceParams(lam=1.0)
    op = FPOperator.from_wavefield(psi, params)
    eq = regularized_density(psi, params).normalized()
    rng = np.random.default_rng(8)
    p = DensityField(g, rng.random(256)).normalized()
    dt = 0.9 * op.stable_dt()
    worst_mass = 0.0
    for _ in range(500):
        p_next = fp_step(p, op, dt)
        worst_mass = max(worst_mass, abs(p_next.total() - p.total()))
        p = p_next
    fixed = eq
    for _ in range(100):
        fixed = fp_step(fixed, op, dt)
    eq_residual = float(np.max(np.abs(fixed.values - eq.values)))
    flux_residual = op.flux_max(eq.values)
    ok = _report(
        "7b fp-hygiene",
        f"mass drift/step = {worst_mass:.2e} (<= 1e-12), equilibrium residual = "
        f"{eq_residual:.2e} (<= 1e-12), stationary flux = {flux_residual:.2e} (<= 1e-12)",
        worst_mass <= 1e-12 and eq_residual <= 1e-12 and flux_residual <= 1e-12,
    )
    assert ok


def test_criterion_7c_em_noise_moments():
    # pooled increments of a drift-free ensemble: 200 walkers x 500 steps, 2-d
    g = Grid.make((16, 16), ((-8.0, 8.0),) * 2, "periodic")
    psi = WaveField(g, np.ones((16, 16)))
    lam, dt = 1.5, 4e-3
    res = run_ensemble(
        200, PointSampler([0.0, 0.0]), psi, GuidanceParams(lam=lam), dt, 500 * dt,
        master_seed=700, record_stride=1,
    )
    inc = np.diff(res.paths, axis=1)
    span = 16.0
    inc = np.where(inc > span / 2, inc - span, inc)
    inc = np.where(inc < -span / 2, inc + span, inc)
    flat = inc.reshape(-1, 2)
    n = flat.shape[0]
    target = 2 * lam * dt
    var_err = max(abs(flat[:, k].var() - target) / target for k in range(2))
    mean_err = max(abs(flat[:, k].mean()) for k in range(2))
    cross = abs(np.mean(flat[:, 0] * flat[:, 1]))
    lag1 = abs(np.mean(inc[:, 1:, 0] * inc[:, :-1, 0]))
    sigma3 = 3 * target / np.sqrt(n)
    ok = _report(
        "7c em-noise-moments",
        f"var err {var_err:.3%} (< 3%), |mean| {mean_err:.2e} (< {3 * np.sqrt(target / n):.2e}), "
        f"|cross-cov| {cross:.2e}, |lag-1| {lag1:.2e} (< {sigma3:.2e})",
        var_err < 0.03
        and mean_err < 3 * np.sqrt(target / n)
        and cross < sigma3
        and lag1 < sigma3,
    )
    assert ok


# -- 8. determinism ---------------------------------------------------------------------

def test_criterion_8_determinism_across_workers(tmp_path):
    base = {
        "scenario": "harmonic_ground",
        "guidance": {"lam": 5.0},
        "time": {"dt_psi": 2e-3, "dt_langevin": 2e-3, "t_final": 2.0},
        "ensemble": {"n_trajectories": 8200, "sampler": {"type": "point", "at": [0.0]}},
        "params": {"tv_limit": 0.05},
        "master_seed": 888,
    }
    m1 = _run({**base, "workers": 1}, tmp_path / "w1")
    m4 = _run({**base, "workers": 4}, tmp_path / "w4")
    same_metrics = m1.metrics == m4.metrics
    same_files = [
        {k: f[k] for k in ("path", "bytes", "sha256")} for f in m1.files
    ] == [{k: f[k] for k in ("path", "bytes", "sha256")} for f in m4.files]
    byte_identical = all(
        (tmp_path / "w1" / f["path"]).read_bytes() == (tmp_path / "w4" / f["path"]).read_bytes()
        for f in m1.files
    )
    ok = _report(
        "8 determinism",
        f"metrics equal={same_metrics}, artifact checksums equal={same_files}, "
        f"bytes equal={byte_identical} for workers 1 vs 4",
        same_metrics and same_files and byte_identical,
    )
    assert ok
