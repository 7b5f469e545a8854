import json
import timeit
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psiwalk import Grid, HamiltonianSpec, WaveField, evolve, langevin
from psiwalk.cli import main
from psiwalk.grids import step_plan
from psiwalk.scenarios import (
    _REQUIRED, _SCENARIOS, _SHARED, SCENARIO_NAMES, RunManifest, _Stage, _stage_error, run_scenario,
    validate_config,
)


def small_harmonic(seed=101, workers=1):
    return {
        "scenario": "harmonic_ground",
        "guidance": {"lam": 5.0},
        "time": {"dt_psi": 2e-3, "dt_langevin": 2e-3, "t_final": 2.0},
        "ensemble": {"n_trajectories": 400, "sampler": {"type": "point", "at": [0.0]}},
        "params": {"tv_limit": 0.2},
        "master_seed": seed,
        "workers": workers,
    }


# -- config validation ---------------------------------------------------------

def test_minimal_config_gets_defaults():
    cfg, errors = validate_config('{"scenario": "free_packet"}')
    assert errors == []
    assert cfg.time["dt_psi"] == 1e-3
    assert cfg.params["sigma0"] == 1.0
    assert cfg.grid["points"] == [1024]


def test_dt_ordering_error_names_both_keys():
    cfg, errors = validate_config(
        {"scenario": "free_packet", "time": {"dt_psi": 1e-3, "dt_langevin": 2e-3}}
    )
    assert cfg is None
    assert any("dt_langevin" in e and "dt_psi" in e for e in errors)


def test_unknown_scenario_lists_valid_names():
    cfg, errors = validate_config({"scenario": "warp_drive"})
    assert cfg is None
    assert any("double_well" in e and "interference" in e for e in errors)


def test_all_violations_reported():
    cfg, errors = validate_config(
        {
            "scenario": "free_packet",
            "guidance": {"lam": -1.0, "epsilon": 0.0},
            "time": {"snapshot_stride": 0},
        }
    )
    assert cfg is None
    assert len(errors) >= 3


def test_histogram_refine_must_divide_every_grid_axis():
    # caught before the 8192-walker ensemble runs, not by coarsen afterwards
    cfg, errors = validate_config({"scenario": "interference", "histogram_refine": 3})
    assert cfg is None
    assert errors == ["histogram_refine=3 must divide every grid axis (2048,)"]


def test_point_sampler_must_match_grid_dims():
    cfg, errors = validate_config(
        {"scenario": "harmonic_ground", "ensemble": {"sampler": {"type": "point", "at": [0.0, 1.0]}}}
    )
    assert cfg is None
    assert errors == ["ensemble.sampler.at must have 1 coordinate(s), one per grid axis"]


def test_point_sampler_check_passes_scalar_in_1d_and_unused_samplers():
    scalar = {"scenario": "harmonic_ground", "ensemble": {"sampler": {"type": "point", "at": 0.5}}}
    assert validate_config(scalar)[1] == []
    # free_packet runs no walkers, so its sampler is never built
    unused = {"scenario": "free_packet", "ensemble": {"sampler": {"type": "point", "at": [0.0, 1.0]}}}
    assert validate_config(unused)[1] == []


@pytest.mark.parametrize("value", ["2", 2.5, 2.0, True])
def test_histogram_refine_must_be_integer(value):
    cfg, errors = validate_config({"scenario": "harmonic_ground", "histogram_refine": value})
    assert cfg is None
    assert errors == [f"histogram_refine must be an integer >= 1, got {value!r}"]


@pytest.mark.parametrize("override, error", [
    ({"time": {"dt_psi": "0.001"}}, "time.dt_psi must be a positive number, got '0.001'"),
    ({"ensemble": {"n_trajectories": "10"}},
     "ensemble.n_trajectories must be an integer >= 0, got '10'"),
    ({"master_seed": "x"}, "master_seed must be an integer, got 'x'"),
    ({"guidance": {"drift_cap": "x"}},
     "guidance.drift_cap must be a positive number, null or 'auto', got 'x'"),
    ({"time": 5}, "time must be a JSON object, got 5"),
], ids=["dt_psi", "n_trajectories", "master_seed", "drift_cap", "time"])
def test_mistyped_values_are_listed_not_raised(override, error):
    cfg, errors = validate_config({"scenario": "free_packet", **override})
    assert cfg is None
    assert errors == [error]


@pytest.mark.parametrize("guidance, errors", [
    ({"diffusion": {"length_scale": 2, "time_scale": 1}},
     ["guidance.diffusion is not a guidance key; valid keys: lam, epsilon, drift_cap"]),
    ({"lam": None}, ["guidance.lam must be a positive number, got None"]),
    ({"lam": "4"}, ["guidance.lam must be a positive number, got '4'"]),
    ({"lam": None, "diffusion": {"length_scale": -2, "time_scale": 1}},
     ["guidance.diffusion is not a guidance key; valid keys: lam, epsilon, drift_cap",
      "guidance.lam must be a positive number, got None"]),
], ids=["unknown_key", "lam_null", "lam_string", "both"])
def test_guidance_takes_only_a_numeric_lam_epsilon_and_drift_cap(guidance, errors):
    # an unknown guidance key used to be ignored, leaving the default lam in force
    assert validate_config({"scenario": "harmonic_ground", "guidance": guidance}) == (None, errors)


@pytest.mark.parametrize("scenario, override, error", [
    ("double_well", {"params": {"a": 0.0}}, "params.a must be a positive number, got 0.0"),
    ("double_well", {"params": {"b": -1}}, "params.b must be a positive number, got -1"),
    ("double_well", {"params": {"b": "1"}}, "params.b must be a positive number, got '1'"),
    ("product_separation", {"params": {"a": -1.0}}, "params.a must be a positive number, got -1.0"),
    ("product_separation", {"params": {"gauss_width": 0}},
     "params.gauss_width must be a positive number, got 0"),
    ("double_well", {"params": {"b": 3.5}},
     "grid extent [-9.0, 9.0] does not cover the double well's [-(b + 6a), b + 6a] = [-9.5, 9.5]"),
    ("double_well", {"grid": {"extent": [[-9.0, 6.5]]}},
     "grid extent [-9.0, 6.5] does not cover the double well's [-(b + 6a), b + 6a] = [-7.0, 7.0]"),
], ids=["dw_a", "dw_b", "dw_b_string", "product_a", "product_width", "dw_extent", "dw_extent_hi"])
def test_two_gaussian_states_the_runner_cannot_build_are_listed(scenario, override, error):
    # listed before compute: the runner used to raise on these after setup
    assert validate_config({"scenario": scenario, **override}) == (None, [error])


def test_oracle_fp_dt_must_divide_every_checkpoint():
    # caught before the ensemble runs, not by the density solver afterwards
    def oracle_errors(oracle):
        return validate_config({"scenario": "harmonic_ground", "params": {"oracle": oracle}})[1]

    assert oracle_errors({"checkpoints": [0.25, 0.5], "fp_dt": 0.02}) == [
        "params.oracle.fp_dt=0.02 does not divide the checkpoint time 0.25"]
    assert oracle_errors({"checkpoints": [0.25], "fp_dt": 0.0}) == [
        "params.oracle.fp_dt must be a positive number, got 0.0"]
    assert oracle_errors({"checkpoints": [0.25, 30.0]}) == [
        "params.oracle.checkpoints must be a list of times in [0, time.t_final=20.0]"]
    assert oracle_errors({"checkpoints": [0.25, 0.0005], "fp_dt": 5e-4}) == [
        "time.dt_langevin=0.001 does not divide the checkpoint time 0.0005"]
    # fp_dt defaults to dt_langevin (1e-3), which divides both
    assert oracle_errors({"checkpoints": [0.25, 0.5]}) == []


def test_checkpoint_within_the_step_rule_validates_and_runs(tmp_path):
    # 0.0050000005 lies within the step rule's tolerance of step 500 of 1e-5:
    # it validated, then the ensemble's own, tighter alignment rule raised
    # after the propagator had run
    cfg, errors = validate_config({
        "scenario": "harmonic_ground", "time": {"dt_langevin": 1e-5, "t_final": 0.01},
        "ensemble": {"n_trajectories": 50}, "params": {"oracle": {"checkpoints": [0.0050000005]}}})
    assert errors == []
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.metrics["oracle_checkpoints"] == [0.0050000005]
    assert [c.name for c in manifest.checks] == ["psi_norm_drift", "tv_equilibrium",
                                                 "oracle_tv_max"]


def test_oracle_legs_are_checked_as_the_density_solver_steps_them():
    # each leg starts at the previous checkpoint; the solver stops at the first it cannot step
    oracle = {"checkpoints": [0.3, 0.45, 0.2], "fp_dt": 0.1}
    assert validate_config({"scenario": "harmonic_ground", "params": {"oracle": oracle}})[1] == [
        "params.oracle.fp_dt=0.1 does not divide the interval [0.3, 0.45] between checkpoints"]


@pytest.mark.parametrize("scenario, override, error", [
    ("double_well", {"params": {"equilibrium": {"enabled": False}}},
     "params.oracle never runs: it needs params.equilibrium.enabled true"),
    ("double_well", {"ensemble": {"n_trajectories": 0}},
     "params.oracle never runs: it needs ensemble.n_trajectories > 0"),
    ("harmonic_ground", {"ensemble": {"n_trajectories": 0}},
     "params.oracle never runs: it needs ensemble.n_trajectories > 0"),
    ("harmonic_ground", {"time": {"t_final": 0.05}, "ensemble": {"n_trajectories": 50},
                         "params": {"oracle": {}}},
     "params.oracle.checkpoints must be a non-empty list of numbers, got nothing"),
    ("harmonic_ground", {"params": {"oracle": {"checkpoints": []}}},
     "params.oracle.checkpoints must be a non-empty list of numbers, got []"),
], ids=["double_well_no_equilibrium", "double_well_no_walkers", "harmonic_no_walkers",
        "harmonic_no_checkpoints", "harmonic_empty_checkpoints"])
def test_an_oracle_block_that_never_runs_is_listed(scenario, override, error):
    # these validated, ran no density solve and reported passed (without
    # checkpoints: a header-only oracle_tv.csv and an oracle_tv_max of 0.0)
    params = {"oracle": {"checkpoints": [0.5]}, **override.pop("params", {})}
    assert validate_config({"scenario": scenario, "params": params, **override}) == (None, [error])


@pytest.mark.parametrize("t_final, n", [(2e-3, 2), (1e-3, 1)])
def test_an_increment_correlation_check_that_cannot_fail_is_listed(t_final, n):
    # 3/sqrt(n) >= 1 for n <= 9 increments: with two, rho = -1.0 passed
    # against a bound of 2.12; with one, rho was NaN and failed after the run
    source = {"scenario": "product_separation", "grid": {"points": [16, 16]},
              "time": {"dt_langevin": 1e-3, "t_final": t_final}, "ensemble": {"n_trajectories": 1}}
    assert validate_config(source) == (None, [
        f"product_separation records {n} path increments (walkers x steps // "
        "params.record_stride); increment_correlation needs 10 to be able to fail"])
    source["time"]["t_final"] = 1e-2
    assert validate_config(source)[1] == []


@pytest.mark.parametrize("localization, fixed, error", [
    ({"well_gap": 20.0}, {"well_gap": 1.0},
     "params.localization.well_gap=20.0 exceeds params.b=1.0: the walkers would start at -b, "
     "outside their own well"),
], ids=["well_gap"])
def test_a_localization_check_that_cannot_fail_is_listed(localization, fixed, error):
    # on [-9.5, 9.5] a well_gap of 20 left both wells empty: no_jump_fraction 1.0 passed
    def source(loc):
        return {"scenario": "double_well",
                "grid": {"points": [512], "extent": [[-9.5, 9.5]], "boundary": ["reflecting"]},
                "ensemble": {"n_trajectories": 0},
                "params": {"a": 1.0, "b": 1.0, "equilibrium": {"enabled": False},
                           "localization": {"n": 200, **loc}}}
    assert validate_config(source(localization)) == (None, [error])
    assert validate_config(source(fixed))[1] == []


@pytest.mark.parametrize("lam_values", [[10.0], [100.0, 10.0, 1.0], [1.0, 1.0]])
def test_lam_values_must_increase(lam_values):
    # [10.0] compared nothing and passed tracking_tv_decreasing; [100, 10, 1]
    # failed it although the TV falls as lam grows, and tracking_tv_last judged lam = 1
    source = {"scenario": "adiabatic_tracking", "params": {"lam_values": lam_values}}
    assert validate_config(source) == (None, [
        "params.lam_values must be a strictly increasing list of at least two positive numbers, "
        f"got {lam_values!r}"])
    assert validate_config({"scenario": "adiabatic_tracking"})[1] == []


@pytest.mark.parametrize("stride", [0, -2, 2.5, "4", True])
def test_record_stride_must_be_positive_integer(stride):
    # listed before compute: the ensemble used to hang on a negative stride,
    # or fail on the path shape after the whole run with 0
    product = {"scenario": "product_separation", "params": {"record_stride": stride}}
    assert validate_config(product)[1] == [
        f"params.record_stride must be an integer >= 1, got {stride!r}"]
    loc = {"scenario": "double_well",
           "params": {"localization": {"n": 10, "record_stride": stride}}}
    assert validate_config(loc)[1] == [
        f"params.localization.record_stride must be an integer >= 1, got {stride!r}"]
    assert validate_config({"scenario": "double_well",
                            "params": {"localization": {"n": 10}}})[1] == []


PROPAGATED = ("harmonic_ground", "adiabatic_tracking", "interference", "free_packet")


@pytest.mark.parametrize("scenario, override, errors", [
    ("double_well", {"grid": {"points": [64, 64], "extent": [[-9.0, 9.0]] * 2,
                              "boundary": ["reflecting"] * 2}},
     ["grid must be 1-d for double_well, got 2-d",
      "ensemble.sampler.at must have 2 coordinate(s), one per grid axis"]),
    ("product_separation", {"grid": {"points": [128], "extent": [[-8.0, 8.0]],
                                     "boundary": ["reflecting"]}},
     ["grid must be 2-d for product_separation, got 1-d"]),
    *[(name, {"grid": {"boundary": ["reflecting"]}},
       [f"grid.boundary must be periodic on every axis for {name}, got ['reflecting']"])
      for name in PROPAGATED],
    ("free_packet", {"grid": {"points": [256.5]}},
     ["grid.points must be a list of positive integers, got [256.5]"]),
    ("free_packet", {"grid": {"extent": [[float("-inf"), float("inf")]]}},
     ["grid: extent must be finite with hi > lo, got (-inf, inf)"]),
    ("free_packet", {"grid": {"extent": [[-1e308, 1e308]]}},   # the width overflows
     ["grid: extent must be finite with hi > lo, got (-1e+308, 1e+308)"]),
], ids=["double_well_2d", "product_1d", *[f"{name}_reflecting" for name in PROPAGATED],
        "fractional_points", "infinite_extent", "overflowing_width"])
def test_grids_the_runner_cannot_use_are_listed(scenario, override, errors):
    # listed before compute: the runner used to raise on these after setup,
    # or to run on the points truncated to an integer
    assert validate_config({"scenario": scenario, **override}) == (None, errors)


@pytest.mark.parametrize("scenario, time, error", [
    ("harmonic_ground", {"t_final": 0.0105},
     "time.dt_langevin=0.001 does not divide time.t_final=0.0105"),
    ("double_well", {"t_final": 0.0123},
     "time.dt_langevin=0.005 does not divide time.t_final=0.0123"),
    ("product_separation", {"t_final": 0.0123},
     "time.dt_langevin=0.005 does not divide time.t_final=0.0123"),
    ("adiabatic_tracking", {"t_final": 0.0105},
     "time.dt_psi=0.001 does not divide time.t_final=0.0105"),
    ("free_packet", {"t_final": 0.0105}, "time.dt_psi=0.001 does not divide time.t_final=0.0105"),
    ("interference", {"dt_langevin": 3e-4, "t_final": 0.6},
     "time.dt_langevin=0.0003 does not divide the snapshot intervals up to the fringe time 0.6"),
    ("interference", {"dt_langevin": 1.5e-3, "snapshot_stride": 3, "t_final": 0.01},
     "time.dt_langevin=0.0015 does not divide the snapshot intervals up to the fringe time 0.01"),
], ids=["harmonic", "double_well", "product", "adiabatic", "free_packet", "fringe_interval",
        "fringe_time"])
def test_a_step_that_does_not_divide_its_horizon_is_listed(scenario, time, error):
    # the runners used to raise this after the propagator or the ensemble had started
    assert validate_config({"scenario": scenario, "time": time}) == (None, [error])
    # without walkers, only the propagated scenarios step to t_final
    no_walkers = {"scenario": scenario, "time": time, "ensemble": {"n_trajectories": 0}}
    expected = [error] if scenario in ("adiabatic_tracking", "free_packet") else []
    assert validate_config(no_walkers)[1] == expected


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_a_zero_t_final_is_listed(scenario):
    # it validated, then raised on a snapshot stride of 0 (harmonic_ground),
    # passed without a step (free_packet), reported NaN (product_separation) or
    # ran to the packets' meeting time instead (interference)
    assert validate_config({"scenario": scenario, "time": {"t_final": 0}}) == (
        None, ["time.t_final must be a positive number, got 0"])


@pytest.mark.parametrize("config, error", [
    ({"scenario": "double_well", "ensemble": {"n_trajectories": 0},
      "params": {"b": 3.0, "equilibrium": {"enabled": False},
                 "localization": {"n": 300, "horizon_fraction": 1e-7, "dt": 0.01}}},
     "params.localization.dt=0.01 rounds the localization horizon 0.0002701027975858461 to zero steps"),
    ({"scenario": "harmonic_ground", "time": {"t_final": 1e-3, "dt_psi": 4e-3, "dt_langevin": 1e-3}},
     "time.dt_psi=0.004 rounds time.t_final=0.001 to zero steps"),
    ({"scenario": "interference", "time": {"t_final": 1e-4}},
     "time.dt_psi=0.002 rounds the fringe time 0.0001 to zero steps"),
], ids=["localization", "harmonic_norm_drift", "fringe"])
def test_a_horizon_rounded_to_zero_steps_is_listed(config, error):
    # the localization run took no step and passed with a no-jump fraction of
    # 1; the norm-drift run raised on a snapshot stride of 0 after validation
    assert validate_config(config) == (None, [error])


def test_validation_time_does_not_grow_with_the_snapshot_count():
    # 10**7 propagator snapshots; validation used to build one object per snapshot
    config = {"scenario": "interference",
              "time": {"t_final": 1e4, "dt_psi": 1e-3, "snapshot_stride": 1}}
    assert validate_config(config)[1] == []
    assert min(timeit.repeat(lambda: validate_config(config), number=1, repeat=5)) < 1e-3


def test_the_snapshot_stage_check_agrees_with_stepping_every_snapshot():
    # The validator reads four snapshot times; the runner steps through all
    # that evolve returns.  Horizons are whole dt_psi steps, as the runner's
    # are, or off them by a slack-sized amount, which step_plan treats as a
    # stretch of its own when it exceeds 1e-12.  The examples need the
    # stride's snapshot (dt divides 6 and 2 steps of dt_psi, not 3) and the
    # final one (a 1e-11 stretch takes no step).
    grid = Grid.make(8, (0.0, 1.0), "periodic")
    psi0 = WaveField(grid, np.ones(8, dtype=complex), 0.0)
    outcomes = []

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([1e-3, 2e-3, 3e-3, 0.1]), st.integers(1, 4), st.integers(0, 12),
           st.sampled_from([0.0, 1e-13, 1e-11, -1e-11]),
           st.sampled_from([5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 0.05]))
    @example(3e-3, 3, 8, 0.0, 2e-3)
    @example(1e-3, 2, 5, 1e-11, 5e-4)
    def check(dt_psi, stride, steps, off, dt):
        t1 = steps * dt_psi + off
        assume(t1 >= 0)   # a horizon never precedes the start
        stage = _Stage("time.dt_langevin", "the horizon", 0.0, t1, dt, (dt_psi, stride))
        try:
            step_plan(evolve(psi0, HamiltonianSpec(), t1, dt_psi, stride), 0.0, t1, dt)
        except ValueError:
            runs = False
        else:
            runs = True
        assert (_stage_error(stage) is None) == runs
        outcomes.append(runs)

    check()
    assert any(outcomes) and not all(outcomes)


@st.composite
def small_configs(draw, names=SCENARIO_NAMES):
    """A config of one of ``names`` small enough to run in a fraction of a
    second (16 grid points per axis, at most 4 walkers), its steps, horizons,
    checkpoints and localization dt drawn from small lattices that make some
    configs valid and others not."""
    name = draw(st.sampled_from(names))
    dims = _SCENARIOS[name].dims
    config = {
        "scenario": name,
        "grid": {"points": [16] * dims},
        "time": {"dt_psi": draw(st.sampled_from([1e-3, 2e-3, 4e-3])),
                 "dt_langevin": draw(st.sampled_from([5e-4, 1e-3, 2e-3, 3e-3])),
                 "t_final": draw(st.sampled_from([0, 1e-3, 2e-3, 5e-3, 6e-3, 0.01, 0.0100000001])),
                 "snapshot_stride": draw(st.sampled_from([1, 2, 3]))},
        "ensemble": {"n_trajectories": draw(st.sampled_from([0, 1, 4]))},
        "params": {},
        "histogram_refine": 2,
    }
    p = config["params"]
    if name in ("harmonic_ground", "double_well") and draw(st.booleans()):
        checkpoints = st.lists(st.sampled_from([0, 1e-3, 2e-3, 2.5e-3, 5e-3]), max_size=3)
        p["oracle"] = {"checkpoints": draw(checkpoints),
                       "fp_dt": draw(st.sampled_from([None, 5e-4, 1e-3, 3e-3]))}
    if name == "harmonic_ground":
        p["norm_drift_steps"] = draw(st.sampled_from([None, 1, 3]))
    if name == "double_well":
        p.update(a=1.0, b=2.5, equilibrium={"enabled": draw(st.booleans())})
        if draw(st.booleans()):
            # horizons of 0.2, 0.4 and 2e-4 (the escape time is 207): the first
            # two keep a record_stride of 20 of every dt drawn, the last no step
            p["localization"] = {"n": 4, "horizon_fraction": draw(st.sampled_from([1e-3, 2e-3, 1e-6])),
                                 "dt": draw(st.sampled_from([None, 1e-3, 0.01])),
                                 "record_stride": draw(st.sampled_from([1, 20]))}
    if name == "adiabatic_tracking":
        p["lam_values"] = [1.0, 10.0]
    return config


def test_every_config_the_validator_accepts_runs(tmp_path):
    # every stage the runner steps is one the validator checked; half the
    # draws are double_well, whose optional blocks validate least often, and
    # the example runs an oracle and a localization block together, which
    # the draws seldom validate
    accepted = []

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(small_configs(), small_configs(("double_well",))))
    @example({"scenario": "double_well", "grid": {"points": [16]},
              "time": {"dt_psi": 2e-3, "dt_langevin": 1e-3, "t_final": 0.01, "snapshot_stride": 1},
              "ensemble": {"n_trajectories": 4}, "histogram_refine": 2,
              "params": {"a": 1.0, "b": 2.5, "equilibrium": {"enabled": True},
                         "oracle": {"checkpoints": [0, 5e-3], "fp_dt": None},
                         "localization": {"n": 4, "horizon_fraction": 1e-3, "dt": None,
                                          "record_stride": 20}}})
    def check(source):
        cfg, errors = validate_config(source)
        accepted.append(cfg is not None)
        if cfg is not None:
            run_scenario(cfg, out_dir=tmp_path / "run")

    with warnings.catch_warnings():   # a 4-walker run's statistics may be NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        check()
    assert any(accepted) and not all(accepted)


@pytest.mark.parametrize("scenario, override, error", [
    ("double_well", {"params": {"mfpt": {"dt": 0.01}}},
     "params.mfpt.n must be an integer >= 1, got nothing"),
    ("double_well", {"params": {"mfpt": {"n": 10, "target": "farwell"}}},
     "params.mfpt.target must be 'far_well', 'ridge' or a number, got 'farwell'"),
    # every walker was censored behind the wall, and mfpt_mean was NaN
    ("double_well", {"params": {"mfpt": {"n": 10, "target": 100}}},
     "params.mfpt.target must lie inside the grid extent (-9.0, 9.0) for a walker to reach it, "
     "got 100"),
    # the run started from the folded point: one escape of 8, mfpt_se NaN
    ("double_well", {"params": {"mfpt": {"n": 10, "start": 100}}},
     "params.mfpt.start must lie inside the grid extent [-9.0, 9.0], got 100"),
    # exp(b^2 / a^2) overflows: the run raised on t_max=inf after building the wave field
    ("double_well", {"grid": {"extent": [[-40.0, 40.0]]}, "params": {"a": 1, "b": 27, "mfpt": {"n": 4}}},
     "params.mfpt.t_max_factor=4.0 times the escape-time formula inf is not finite"),
    ("double_well", {"grid": {"extent": [[-40.0, 40.0]]},
                     "params": {"a": 1, "b": 27, "localization": {"n": 4}}},
     "the localization horizon inf is not finite"),
    ("adiabatic_tracking", {"params": {"lam_values": []}},
     "params.lam_values must be a strictly increasing list of at least two positive numbers, "
     "got []"),
    ("double_well", {"params": {"equilibrium": {"tv_limit": "0.05"}}},
     "params.equilibrium.tv_limit must be a positive number, got '0.05'"),
    ("double_well", {"params": {"oracle": 5}}, "params.oracle must be a JSON object, got 5"),
    ("free_packet", {"ensembel": {"n_trajectories": 10}},
     "ensembel is not a config key; valid keys: scenario, grid, hbar, mass, guidance, time, "
     "ensemble, master_seed, histogram_refine, out_dir, workers, params"),
    ("free_packet", {"ensemble": {"n_trajectory": 10}},
     "ensemble.n_trajectory is not an ensemble key; valid keys: n_trajectories, sampler"),
    ("free_packet", {"params": {"sigma_0": 2.0}},
     "params.sigma_0 is not a params key; valid keys: sigma0, rel_error_limit"),
    ("double_well", {"params": {"localization": {"n": 10, "horizon": 1.0}}},
     "params.localization.horizon is not a params.localization key; valid keys: n, dt, "
     "horizon_fraction, well_gap, record_stride, stay_fraction, write_paths"),
], ids=["mfpt_n", "mfpt_target", "mfpt_target_outside", "mfpt_start_outside", "mfpt_t_max_inf",
        "localization_inf", "lam_values", "equilibrium_tv_limit", "oracle_not_object",
        "top_level_key", "section_key", "params_key", "block_key"])
def test_optional_blocks_and_unknown_keys_are_listed(scenario, override, error):
    # an unknown key used to be ignored, leaving the default in force, and the
    # optional blocks failed only once their part of the run had started
    assert validate_config({"scenario": scenario, **override}) == (None, [error])


def test_workers_is_a_process_count_checked_before_compute():
    assert validate_config({"scenario": "free_packet"})[0].workers is None   # every usable CPU
    assert validate_config({"scenario": "free_packet", "workers": 2})[0].workers == 2
    for bad in (0, -1, 2.5, "two", True):
        assert validate_config({"scenario": "free_packet", "workers": bad}) == (
            None, [f"workers must be an integer >= 1, got {bad!r}"])
    assert validate_config({"scenario": "free_packet", "time": {"workers": 2}})[1] == [
        "time.workers is not a time key; valid keys: dt_psi, dt_langevin, t_final, snapshot_stride"]


def test_validate_prints_the_defaults_of_nested_blocks(tmp_path, capsys):
    p = write_config(tmp_path, {"scenario": "harmonic_ground",
                                "params": {"oracle": {"checkpoints": [0.5]}}})
    assert main(["validate", "--config", str(p)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["params"]["oracle"] == {"checkpoints": [0.5], "fp_dt": None, "tv_limit": 0.05}
    assert printed["ensemble"]["sampler"] == {"type": "point", "at": [0.0]}


def test_cli_lists_mistyped_config_without_traceback(tmp_path, capsys):
    p = write_config(tmp_path, {"scenario": "harmonic_ground", "time": {"dt_psi": "0.001"},
                                "params": {"oracle": {"checkpoints": [0.25], "fp_dt": 0.02}}})
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: time.dt_psi must be a positive number, got '0.001'\n"
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot read ")


def test_invalid_json_reported():
    cfg, errors = validate_config("{not json")
    assert cfg is None and "JSON" in errors[0]


def test_config_round_trips_through_serialization():
    sources = [small_harmonic()] + [{"scenario": name} for name in SCENARIO_NAMES]
    for source in sources:
        cfg, _ = validate_config(source)
        text = json.dumps(cfg.to_dict())
        cfg2, errors = validate_config(text)
        assert errors == []
        assert cfg2.to_dict() == cfg.to_dict()


# Values a config may hold where the table expects something else.
ODD_VALUES = st.sampled_from([
    "x", "", -1, 0, 0.5, 2.5, 1e308, float("nan"), float("inf"), True, None,
    [], [0.5], [[0.0, 1.0]], ["reflecting"], {}, {"k": 1},
])


@st.composite
def drawn_configs(draw):
    """A config drawn from the schema table: a random subset of each level's
    keys, one in three given an odd value and the others their default (a
    nested object is drawn again), and now and then an unknown key at any
    depth."""
    name = draw(st.sampled_from(SCENARIO_NAMES))
    scenario = _SCENARIOS[name]
    unknown = []

    def level(spec, path):
        out = {}
        for key, (default, rule) in spec.items():
            if key == "scenario" or not draw(st.booleans()):
                continue
            default = scenario.defaults.get(path + key, default)
            odd = draw(st.integers(0, 2)) == 0
            if isinstance(rule, dict) and not odd:
                out[key] = level(rule, f"{path}{key}.")
            elif default is not _REQUIRED and not odd:
                out[key] = default
            else:
                out[key] = draw(ODD_VALUES)
        if draw(st.integers(0, 4)) == 0:
            out["unknown_key"] = draw(ODD_VALUES)
            unknown.append(f"{path}unknown_key")
        return out

    return {**level({**_SHARED, "params": ({}, scenario.params)}, ""), "scenario": name}, unknown


@settings(max_examples=300, deadline=None)
@given(drawn_configs())
def test_validation_of_drawn_configs_lists_errors_and_never_raises(drawn):
    source, unknown = drawn
    cfg, errors = validate_config(source)
    if cfg is None:
        assert errors and all(isinstance(e, str) for e in errors)
    else:
        assert errors == []
        assert validate_config(cfg.to_dict()) == (cfg, [])
    for path in unknown:
        assert any(e.startswith(f"{path} is not a") for e in errors)


# -- running ---------------------------------------------------------------------

def test_run_writes_manifest_and_artifacts(tmp_path):
    cfg, _ = validate_config(small_harmonic())
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.passed
    assert (tmp_path / "manifest.json").exists()
    loaded = RunManifest.load(tmp_path / "manifest.json")
    assert loaded.verify_files(tmp_path) == []
    assert loaded.scenario == "harmonic_ground"
    names = {f["path"] for f in loaded.files}
    assert "metrics/equilibrium.csv" in names
    assert any(n.startswith("fields/") and n.endswith(".f64") for n in names)


def test_metrics_identical_across_worker_counts(tmp_path):
    cfg1, _ = validate_config(small_harmonic(workers=1))
    cfg4, _ = validate_config(small_harmonic(workers=4))
    m1 = run_scenario(cfg1, out_dir=tmp_path / "w1")
    m4 = run_scenario(cfg4, out_dir=tmp_path / "w4")
    for entry in m1.files:
        if entry["path"].startswith("metrics/"):
            a = (tmp_path / "w1" / entry["path"]).read_bytes()
            b = (tmp_path / "w4" / entry["path"]).read_bytes()
            assert a == b, entry["path"]
    assert m1.metrics == m4.metrics


# -- CLI ---------------------------------------------------------------------------

def write_config(tmp_path, data):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return p


def test_cli_run_success_and_exit_code(tmp_path, capsys):
    p = write_config(tmp_path, small_harmonic())
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_threshold_failure_exit_code_2(tmp_path):
    data = small_harmonic()
    data["params"] = {"tv_limit": 1e-6}  # unattainably strict
    p = write_config(tmp_path, data)
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_validation_failure_exit_code_1(tmp_path, capsys):
    p = write_config(tmp_path, {"scenario": "nope"})
    code = main(["run", "--config", str(p)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_validate_prints_defaults(tmp_path, capsys):
    p = write_config(tmp_path, {"scenario": "free_packet"})
    code = main(["validate", "--config", str(p)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["time"]["dt_psi"] == 1e-3


def test_cli_seed_override_changes_results(tmp_path):
    p = write_config(tmp_path, small_harmonic())
    main(["run", "--config", str(p), "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", "--config", str(p), "--out", str(tmp_path / "b"), "--seed", "2"])
    ma = RunManifest.load(tmp_path / "a" / "manifest.json")
    mb = RunManifest.load(tmp_path / "b" / "manifest.json")
    assert ma.metrics["tv_equilibrium"] != mb.metrics["tv_equilibrium"]


def test_cli_workers_override_is_checked_and_changes_no_result(tmp_path, capsys):
    # the config's own rule judges the override: a configuration error, exit code 1
    p = write_config(tmp_path, small_harmonic(workers=2))
    for bad in ("0", "-1"):
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "bad"), "--workers", bad]) == 1
        assert capsys.readouterr().err == f"config error: workers must be an integer >= 1, got {bad}\n"
    with pytest.raises(SystemExit):   # not an integer: argparse's own error
        main(["run", "--config", str(p), "--out", str(tmp_path / "bad"), "--workers", "two"])
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    main(["run", "--config", str(p), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(p), "--out", str(tmp_path / "b"), "--workers", "1"])
    ma = RunManifest.load(tmp_path / "a" / "manifest.json")
    mb = RunManifest.load(tmp_path / "b" / "manifest.json")
    assert (ma.config["workers"], mb.config["workers"]) == (2, 1)
    assert ma.metrics == mb.metrics and ma.files == mb.files


def test_cli_report_verifies_and_summarizes(tmp_path, capsys):
    p = write_config(tmp_path, small_harmonic())
    main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    code = main(["report", "--manifest", str(tmp_path / "out" / "manifest.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_report_detects_tampering(tmp_path, capsys):
    p = write_config(tmp_path, small_harmonic())
    main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    victim = next((tmp_path / "out" / "metrics").glob("*.csv"))
    victim.write_text("tampered\n")
    code = main(["report", "--manifest", str(tmp_path / "out" / "manifest.json")])
    assert code == 1
    assert "checksum mismatch" in capsys.readouterr().err


def test_free_packet_scenario_runs_fast(tmp_path):
    cfg, _ = validate_config({"scenario": "free_packet", "time": {"t_final": 1.0}})
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.passed
    assert manifest.metrics["rel_error"] < 1e-6


def test_harmonic_ground_default_config_passes(tmp_path):
    # shipped defaults: n=1000, lam=10, TV < 0.08, norm drift < 1e-9
    cfg, errors = validate_config({"scenario": "harmonic_ground"})
    assert errors == []
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.passed
    assert manifest.metrics["tv_equilibrium"] < 0.08
    assert manifest.metrics["norm_drift"] < 1e-9


def test_double_well_localizes_on_short_horizon(tmp_path):
    # with the horizon far below the escape time, the ensemble stays put
    cfg, errors = validate_config(
        {
            "scenario": "double_well",
            "grid": {"points": [512], "extent": [[-9.5, 9.5]], "boundary": ["reflecting"]},
            "time": {"dt_psi": 0.01, "dt_langevin": 0.01, "t_final": 1.0},
            "ensemble": {"n_trajectories": 0},
            "params": {
                "a": 1.0,
                "b": 3.0,
                "equilibrium": {"enabled": False},
                "localization": {"n": 200, "horizon_fraction": 0.02,
                                 "stay_fraction": 0.95, "dt": 0.01, "write_paths": 2},
            },
            "master_seed": 55,
        }
    )
    assert errors == []
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.metrics["final_mass_start_well"] > 0.95
    assert manifest.metrics["no_jump_fraction"] >= 0.95
    paths_csv = (tmp_path / "metrics" / "paths.csv").read_text().splitlines()
    assert paths_csv[0] == "stream_id,t,x1"
    assert len(paths_csv) > 10


def test_localization_counts_every_change_of_well_at_every_step(tmp_path):
    # The recorded paths, one row per step, against a per-step reference: a
    # row's well is that of its cell's centre (at or below -b/2, at or above
    # b/2, or none), and a jump is a change of the last well a path was in.
    # Recording changes nothing: without write_paths the run records no path
    # and its metrics are the same.
    def localization(write_paths):
        cfg, errors = validate_config({
            "scenario": "double_well",
            "grid": {"points": [512], "extent": [[-9.5, 9.5]], "boundary": ["reflecting"]},
            "ensemble": {"n_trajectories": 0},
            "params": {"a": 1.0, "b": 2.0, "equilibrium": {"enabled": False},
                       "localization": {"n": 30, "horizon_fraction": 0.5, "dt": 0.01,
                                        "record_stride": 1, "stay_fraction": 0.0,
                                        "write_paths": write_paths}},
            "master_seed": 6})
        assert errors == []
        with mock.patch.object(langevin, "run_ensemble", wraps=langevin.run_ensemble) as run:
            manifest = run_scenario(cfg, out_dir=tmp_path / str(write_paths))
        assert (run.call_args.kwargs["record_stride"] is None) == (write_paths == 0)
        return cfg, manifest

    cfg, manifest = localization(30)
    rows = np.loadtxt(tmp_path / "30" / "metrics" / "paths.csv", delimiter=",", skiprows=1)
    grid = cfg.build_grid()
    centres = grid.coords(0)[grid.cell_index(rows[:, 2:])[:, 0]]
    wells = np.where(centres <= -1.0, 0, np.where(centres >= 1.0, 1, -1))
    jumps = []
    for sid in range(30):
        visited = [w for w in wells[rows[:, 0] == sid] if w >= 0]
        jumps.append(sum(a != b for a, b in zip(visited, visited[1:])))
    assert len(rows) == 30 * (1 + round(manifest.metrics["localization_horizon"] / 0.01))
    assert sum(jumps) > 0
    assert manifest.metrics["mean_jumps"] == np.mean(jumps)
    assert manifest.metrics["no_jump_fraction"] == np.mean(np.array(jumps) == 0)
    assert localization(0)[1].metrics == manifest.metrics


def run_mfpt(out_dir, **mfpt):
    """The reduced double_well_mfpt config with ``mfpt`` over its block:
    returns the manifest and the bytes of mfpt.csv."""
    cfg, errors = validate_config({
        "scenario": "double_well",
        "grid": {"points": [512], "extent": [[-9.5, 9.5]], "boundary": ["reflecting"]},
        "time": {"dt_psi": 0.02, "dt_langevin": 0.02, "t_final": 1.0},
        "ensemble": {"n_trajectories": 0},
        "params": {"a": 1.0, "b": 2.5, "equilibrium": {"enabled": False},
                   "mfpt": {"n": 60, "dt": 0.02, "t_max_factor": 0.25, **mfpt}},
        "master_seed": 411})
    assert errors == []
    manifest = run_scenario(cfg, out_dir=out_dir)
    return manifest, (out_dir / "metrics" / "mfpt.csv").read_bytes()


def test_a_numeric_mfpt_target_at_b_is_the_far_well(tmp_path):
    assert run_mfpt(tmp_path / "b", target=2.5)[1] == run_mfpt(tmp_path / "far", target="far_well")[1]


def test_an_mfpt_start_at_minus_b_is_the_default(tmp_path):
    assert run_mfpt(tmp_path / "start", start=-2.5)[1] == run_mfpt(tmp_path / "default")[1]


def test_the_ridge_is_reached_before_the_far_well(tmp_path):
    # same seed, same paths: each walker crosses x = 0 on its way to x = b.
    # The shipped budget of 4 escape times leaves almost no walker censored.
    ridge, _ = run_mfpt(tmp_path / "ridge", target="ridge", t_max_factor=4.0)
    far, _ = run_mfpt(tmp_path / "far", target="far_well", t_max_factor=4.0)
    assert ridge.metrics["mfpt_mean"] < far.metrics["mfpt_mean"]
    assert ridge.metrics["mfpt_censored_fraction"] <= far.metrics["mfpt_censored_fraction"]


def test_oracle_start_cell_is_the_walkers_histogram_cell(tmp_path):
    # One ulp below a coarse cell edge: the oracle's point-start delta and the
    # walkers' t = 0 histogram used to bin it into neighbouring cells (TV 1.0).
    cfg, errors = validate_config({
        "scenario": "double_well", "time": {"t_final": 0.05},
        "ensemble": {"n_trajectories": 50, "sampler": {"type": "point", "at": [-3.9375000000000004]}},
        "params": {"oracle": {"checkpoints": [0.0]}}})
    assert errors == []
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.metrics["oracle_tv_max"] == 0.0
    assert [c.passed for c in manifest.checks if c.name == "oracle_tv_max"] == [True]


def test_oracle_starts_a_point_beyond_a_wall_where_the_walkers_fold_it(tmp_path):
    # -9.5 lies beyond the wall at -9 and folds to -8.5; the oracle used to
    # clip it into the edge cell instead (oracle_tv_max 0.43 against 0.10).
    def oracle_tv(at):
        cfg, errors = validate_config({
            "scenario": "double_well", "time": {"t_final": 0.05},
            "ensemble": {"n_trajectories": 200, "sampler": {"type": "point", "at": [at]}},
            "params": {"oracle": {"checkpoints": [0.05]}}})
        assert errors == []
        return run_scenario(cfg, out_dir=tmp_path / str(at)).metrics["oracle_tv_max"]

    assert oracle_tv(-9.5) == oracle_tv(-8.5)


def test_manifest_echoes_config(tmp_path):
    cfg, _ = validate_config(small_harmonic())
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.config["master_seed"] == 101
    assert manifest.config["scenario"] == "harmonic_ground"
    assert manifest.version
