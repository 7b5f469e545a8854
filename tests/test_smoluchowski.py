from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from psiwalk import (
    DensityField,
    DoubleGaussianParams,
    FPOperator,
    Grid,
    GuidanceParams,
    PointSampler,
    StepSizeError,
    WaveField,
    fp_evolve,
    fp_step,
    fp_step_implicit,
    make_double_gaussian,
    run_ensemble,
    total_variation,
)
from psiwalk import smoluchowski
from psiwalk.analysis import coarsen, histogram
from psiwalk.guidance import regularized_density
from psiwalk.smoluchowski import _gm

from _memory import traced_peak


def double_well_setup(b=1.0, n=256, half=8.0):
    g = Grid.make(n, (-half, half), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=b))
    params = GuidanceParams(lam=1.0)
    op = FPOperator.from_wavefield(psi, params)
    eq = regularized_density(psi, params).normalized()
    return g, psi, params, op, eq


def test_equilibrium_is_discrete_fixed_point():
    g, psi, params, op, eq = double_well_setup()
    p = eq
    for _ in range(50):
        p = fp_step(p, op, 0.5 * op.stable_dt())
    assert np.max(np.abs(p.values - eq.values)) < 1e-12
    assert op.flux_max(eq.values) < 1e-12


def test_equilibrium_fixed_point_implicit():
    g, psi, params, op, eq = double_well_setup()
    p = eq
    for _ in range(20):
        p = fp_step_implicit(p, op, 0.05)
    assert np.max(np.abs(p.values - eq.values)) < 1e-10


def test_uniform_density_zero_drift_unchanged():
    g = Grid.make(64, (0.0, 4.0), "reflecting")
    op = FPOperator.from_log_density(g, np.zeros(64), lam=1.0)
    p = DensityField(g, np.full(64, 0.25))
    p2 = fp_step(p, op, 0.5 * op.stable_dt())
    assert np.array_equal(p2.values, p.values)


def test_mass_conserved_each_step():
    g, psi, params, op, eq = double_well_setup()
    rng = np.random.default_rng(3)
    values = rng.random(256)
    p = DensityField(g, values / (values.sum() * g.cell_volume))
    dt = 0.9 * op.stable_dt()
    for _ in range(200):
        p_next = fp_step(p, op, dt)
        assert abs(p_next.total() - p.total()) < 1e-12
        assert p_next.values.min() >= 0.0
        p = p_next


def test_mass_conserved_implicit():
    g, psi, params, op, eq = double_well_setup()
    p = DensityField(g, np.where(np.abs(g.coords(0) + 1.0) < 0.5, 1.0, 0.0))
    p = p.normalized()
    for _ in range(50):
        p_next = fp_step_implicit(p, op, 0.1)
        assert abs(p_next.total() - p.total()) < 1e-12
        assert p_next.values.min() >= 0.0
        p = p_next


def test_free_diffusion_variance_growth():
    g = Grid.make(512, (-16.0, 16.0), "reflecting")
    lam = 1.0
    op = FPOperator.from_log_density(g, np.zeros(512), lam=lam)
    x = g.coords(0)
    values = np.zeros(512)
    values[256] = 1.0 / g.cell_volume
    p = DensityField(g, values)
    dt = 0.9 * op.stable_dt()
    steps = int(round(1.0 / dt))
    for _ in range(steps):
        p = fp_step(p, op, dt)
    t = steps * dt
    mean = np.sum(x * p.values) * g.cell_volume
    var = np.sum((x - mean) ** 2 * p.values) * g.cell_volume
    var0 = 0.0  # started as a single-cell spike
    assert (var - var0) == pytest.approx(2 * lam * t, rel=0.02)


def test_explicit_step_rejects_unstable_dt():
    g, psi, params, op, eq = double_well_setup()
    bound = op.stable_dt()
    with pytest.raises(StepSizeError) as err:
        fp_step(eq, op, 10.0 * bound)
    assert err.value.suggested_dt < bound
    # the suggested dt is accepted
    fp_step(eq, op, err.value.suggested_dt)


def test_implicit_stable_beyond_explicit_bound():
    g, psi, params, op, eq = double_well_setup()
    p = DensityField(g, np.where(g.coords(0) < 0, 1.0, 0.0)).normalized()
    p = fp_step_implicit(p, op, 50.0 * op.stable_dt())
    assert p.values.min() >= 0.0
    assert abs(p.total() - 1.0) < 1e-9


def test_relaxation_to_equilibrium_monotone():
    g, psi, params, op, eq = double_well_setup(b=1.0)
    x = g.coords(0)
    start = np.where(np.abs(x + 1.0) < 0.4, 1.0, 0.0)
    p = DensityField(g, start).normalized()
    dt = 0.9 * op.stable_dt()
    tvs = []
    for block in range(40):
        for _ in range(100):
            p = fp_step(p, op, dt)
        tvs.append(total_variation(p.normalized(), eq))
    assert all(a >= b - 1e-12 for a, b in zip(tvs[:-1], tvs[1:]))
    assert tvs[-1] < 0.01


def test_static_equilibrium_sequence_constant():
    g, psi, params, op, eq = double_well_setup()
    seq = fp_evolve(eq, psi, params, 0.5 * op.stable_dt(), 20 * op.stable_dt())
    assert np.max(np.abs(seq[-1].values - eq.values)) < 1e-12


def test_fp_evolve_matches_langevin_histogram():
    # the two discretizations of the same process agree in distribution
    g = Grid.make(256, (-8.0, 8.0), "periodic")
    x = g.coords(0)
    psi = WaveField(g, np.exp(-x**2 / 2))
    params = GuidanceParams(lam=1.0)
    t_final = 1.0
    res = run_ensemble(
        20_000, PointSampler([1.5]), psi, params, 2e-3, t_final, master_seed=77
    )
    start = np.zeros(256)
    start[g.cell_index(np.array([1.5]))[0, 0]] = 1.0 / g.cell_volume
    p = DensityField(g, start)
    dens = fp_evolve(p, psi, params, 2e-3, t_final, method="auto")[-1]
    tv = total_variation(coarsen(histogram(res.final_positions, g), 4), coarsen(dens, 4).normalized())
    assert tv < 0.05


def test_operator_grid_mismatch_rejected():
    g, psi, params, op, eq = double_well_setup()
    other = Grid.make(64, (0.0, 1.0), "reflecting")
    p = DensityField(other, np.ones(64)).normalized()
    with pytest.raises(ValueError):
        fp_step(p, op, 1e-4)


def test_periodic_implicit_conserves_and_relaxes():
    g = Grid.make(128, (-6.0, 6.0), "periodic")
    x = g.coords(0)
    psi = WaveField(g, np.exp(-x**2 / 2))
    params = GuidanceParams(lam=5.0)
    eq = regularized_density(psi, params).normalized()
    p = DensityField(g, np.where(np.abs(x - 2.0) < 0.5, 1.0, 0.0)).normalized()
    for _ in range(400):
        p = fp_step_implicit(p, FPOperator.from_wavefield(psi, params), 5e-3)
    assert abs(p.total() - 1.0) < 1e-9
    assert total_variation(p.normalized(), eq) < 0.01


def test_2d_equilibrium_and_mass():
    g = Grid.make((32, 24), [(-5.0, 5.0), (-4.0, 4.0)], "reflecting")
    xs, ys = g.meshgrid()
    psi = WaveField(g, np.exp(-(xs**2) / 2 - (ys**2) / 4))
    params = GuidanceParams(lam=1.0)
    op = FPOperator.from_wavefield(psi, params)
    eq = regularized_density(psi, params).normalized()
    p = eq
    for _ in range(20):
        p = fp_step(p, op, 0.9 * op.stable_dt())
    assert np.max(np.abs(p.values - eq.values)) < 1e-12
    p = eq
    for _ in range(5):
        p = fp_step_implicit(p, op, 0.05)
    assert np.max(np.abs(p.values - eq.values)) < 1e-10
    assert abs(p.total() - 1.0) < 1e-12


# --------------------------------------------------------------------------
# The batched implicit solver against the per-pencil loop it replaced and
# against a dense solve.

P, R = "periodic", "reflecting"
BOUNDARIES = [(P,), (R,), (P, P), (R, R), (P, R), (R, P), (P, P, P), (R, R, R), (P, R, P), (R, P, R)]


def _random_case(seed, boundary):
    """A random operator (lam up to 100), density and dt (1e-4 to 5e-2)."""
    rng = np.random.default_rng(seed)
    points = tuple(int(n) for n in rng.integers(8, 14, size=len(boundary)))
    extent = [(-float(h), float(h)) for h in rng.uniform(1.0, 4.0, size=len(boundary))]
    g = Grid.make(points, extent, boundary)
    log_rho = rng.normal(scale=2.0, size=points)
    op = FPOperator.from_log_density(g, log_rho, lam=float(10 ** rng.uniform(-1, 2)))
    p = DensityField(g, rng.random(points))
    return op, p, float(10 ** rng.uniform(-4, np.log10(5e-2)))


def _reference_tridiag(sub, diag, sup, rhs):
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    return solve_banded((1, 1), ab, rhs)


def _reference_cyclic(sub, diag, sup, corner_lo, corner_hi, rhs):
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner_lo * corner_hi / gamma
    y = _reference_tridiag(sub, d, sup, rhs)
    u = np.zeros(diag.size)
    u[0] = gamma
    u[-1] = corner_hi
    z = _reference_tridiag(sub, d, sup, u)
    v_dot_y = y[0] + (corner_lo / gamma) * y[-1]
    v_dot_z = z[0] + (corner_lo / gamma) * z[-1]
    return y - (v_dot_y / (1.0 + v_dot_z)) * z


def _reference_implicit(p, op, dt):
    """Backward-Euler split step solved pencil by pencil with ``solve_banded``."""
    grid = op.grid
    values = p.values.copy()
    for axis in range(grid.dims):
        w = op.face_w[axis]
        cm = _gm(w)
        cp = cm + w
        scale = dt * op.lam / grid.spacing[axis] ** 2
        moved = np.moveaxis(values, axis, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        cp_p = np.moveaxis(cp, axis, -1).reshape(flat.shape[0], -1)
        cm_p = np.moveaxis(cm, axis, -1).reshape(flat.shape[0], -1)
        n = moved.shape[-1]
        out = np.empty_like(flat)
        for j in range(flat.shape[0]):
            cpj, cmj = cp_p[j], cm_p[j]
            if grid.boundary[axis] == P:
                sub = np.empty(n)
                sub[1:] = -scale * cmj[:-1]
                sub[0] = 0.0
                diag = 1.0 + scale * (cmj + np.roll(cpj, 1))
                out[j] = _reference_cyclic(sub, diag, -scale * cpj, -scale * cmj[-1],
                                           -scale * cpj[-1], flat[j])
            else:
                diag = np.ones(n)
                diag[:-1] += scale * cmj
                diag[1:] += scale * cpj
                sup = np.zeros(n)
                sup[:-1] = -scale * cpj
                sub = np.zeros(n)
                sub[1:] = -scale * cmj
                out[j] = _reference_tridiag(sub, diag, sup, flat[j])
        values = np.moveaxis(out.reshape(moved.shape), -1, axis)
    return np.maximum(values, 0.0)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: "-".join(x[0] for x in b))
def test_implicit_step_bit_identical_to_per_pencil_solves(boundary):
    for seed in range(9):
        op, p, dt = _random_case(seed, boundary)
        expected = _reference_implicit(p, op, dt)
        assert np.array_equal(fp_step_implicit(p, op, dt).values, expected), (seed, dt)


def _dense_axis_generator(op, axis):
    """Matrix of the ``axis`` part of the flux divergence, built face by face."""
    grid = op.grid
    dx = grid.spacing[axis]
    w = op.face_w[axis]
    cm = _gm(w)
    cp = cm + w
    c = op.lam / dx**2
    size = int(np.prod(grid.points))
    a = np.zeros((size, size))
    for face in np.ndindex(w.shape):
        hi_cell = list(face)
        hi_cell[axis] = (face[axis] + 1) % grid.points[axis]
        lo = np.ravel_multi_index(face, grid.points)
        hi = np.ravel_multi_index(tuple(hi_cell), grid.points)
        # the flux (lam/dx) (cp p_hi - cm p_lo) moves mass from cell hi to cell lo
        a[lo, hi] += c * cp[face]
        a[lo, lo] -= c * cm[face]
        a[hi, hi] -= c * cp[face]
        a[hi, lo] += c * cm[face]
    return a


@pytest.mark.parametrize("boundary", BOUNDARIES + [(R, P, P)], ids=lambda b: "-".join(x[0] for x in b))
def test_implicit_axis_solves_match_dense_backward_euler(boundary):
    for seed in range(3):
        op, p, dt = _random_case(100 + seed, boundary)
        size = p.values.size
        total = np.zeros((size, size))
        values = p.values
        for axis, solver in enumerate(op._solvers(dt)):
            a = _dense_axis_generator(op, axis)
            total += a
            expected = np.linalg.solve(np.eye(size) - dt * a, values.ravel())
            values = solver.solve(values)
            assert np.allclose(values.ravel(), expected, rtol=1e-10, atol=1e-13)
        # the dense generator is the explicit operator, term by term
        assert np.allclose(total @ p.values.ravel(), op.apply(p.values).ravel(),
                           rtol=1e-10, atol=1e-10 * np.abs(total).max())
        # and the explicit bound is one over the largest outflow rate of a cell
        assert op.stable_dt() == pytest.approx(1.0 / np.max(-np.diag(total)), rel=1e-12)


def test_operator_reused_across_dt_matches_fresh_operators():
    for boundary in [(P,), (R, P), (P, R, R)]:
        op, p, dt = _random_case(7, boundary)
        for step_dt in (dt, 3.0 * dt, dt):
            fresh = FPOperator(op.grid, op.lam, op.face_w)
            assert np.array_equal(fp_step_implicit(p, op, step_dt).values,
                                  fp_step_implicit(p, fresh, step_dt).values)


def test_fp_evolve_raises_on_nonfinite_state_before_next_snapshot():
    # a state that overflows in the first explicit step raises no later than
    # the next checkpoint (step 4)
    g, psi, params, op, eq = double_well_setup(n=64)
    p0 = DensityField(g, np.where(np.arange(64) % 2, 1.5e308, 0.0))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        fp_evolve(p0, psi, params, 1e-3, 4e-3, method="explicit", checkpoint_times=(4e-3,))
    # the returned densities carry the per-step accumulated time
    out = fp_evolve(eq, psi, params, 1e-3, 4e-3, method="explicit", checkpoint_times=(0.0, 3e-3, 4e-3))
    assert [p.time for p in out] == [0.0, 0.001 + 0.001 + 0.001, 0.001 + 0.001 + 0.001 + 0.001]


def test_fp_evolve_rejects_a_dt_that_does_not_divide_a_snapshot_interval():
    # the walkers' step rule: a snapshot at 0.015 falls between steps of 0.01,
    # where the density solver used to switch operators at the next step
    g, psi, params, op, eq = double_well_setup(n=64)
    off = [psi, WaveField(g, psi.values, time=0.015)]
    for evolve_off in (lambda: fp_evolve(eq, off, params, 0.01, 0.04),
                       lambda: run_ensemble(4, PointSampler([0.0]), off, params, 0.01, 0.04)):
        with pytest.raises(ValueError, match="does not divide the interval"):
            evolve_off()
    on = [psi, WaveField(g, psi.values, time=0.02)]
    out = fp_evolve(eq, on, params, 0.01, 0.04, checkpoint_times=(0.0, 0.02, 0.04))
    assert [p.time for p in out] == [0.0, 0.01 + 0.01, 0.01 + 0.01 + 0.01 + 0.01]


@pytest.mark.parametrize("start, tc", [(0.0, 5e-3), (0.0, 0.1), (1.0, 0.5), (1.0, 1.0 - 1e-12)],
                         ids=["one_step_past", "past", "before", "just_before"])
def test_fp_evolve_refuses_a_checkpoint_outside_its_run(start, tc):
    # before any step, by the walkers' rule and message: a checkpoint's step
    # count from p0.time must not exceed the run's, nor its span be negative
    g, psi, params, op, eq = double_well_setup(n=64)
    p0 = DensityField(g, eq.values, time=start)
    t_final = start + 4e-3
    with mock.patch.object(smoluchowski, "fp_step_implicit") as implicit, \
            mock.patch.object(smoluchowski, "fp_step") as explicit:
        for method in ("explicit", "implicit"):
            with pytest.raises(ValueError, match=rf"checkpoint time {tc} outside \[{start}, {t_final}\]"):
                fp_evolve(p0, psi, params, 1e-3, t_final, method=method,
                          checkpoint_times=(start + 2e-3, tc))
    assert not implicit.called and not explicit.called


def test_fp_evolve_returns_unsorted_and_repeated_checkpoints_in_the_order_given():
    g, psi, params, op, eq = double_well_setup(n=64)
    p0 = DensityField(g, np.roll(eq.values, 9))
    steps = [p0]
    for _ in range(10):
        steps.append(fp_step(steps[-1], op, 1e-3))
    out = fp_evolve(p0, psi, params, 1e-3, 0.01, method="explicit",
                    checkpoint_times=(5e-3, 2e-3, 5e-3, 0.01, 0.0))
    assert len(out) == 5 and out[0] is out[2] and out[4] is p0
    for d, k in zip(out, (5, 2, 5, 10, 0)):
        assert d.time == steps[k].time and np.array_equal(d.values, steps[k].values)
    assert fp_evolve(p0, psi, params, 1e-3, 0.01, checkpoint_times=()) == []
    # by default only t_final, the same density as asking for it
    (final,) = fp_evolve(p0, psi, params, 1e-3, 0.01, method="explicit")
    assert np.array_equal(final.values, out[3].values)


def test_fp_evolve_returns_p0_at_a_checkpoint_at_its_start():
    g, psi, params, op, eq = double_well_setup(n=64)
    for start in (0.0, 1.0):
        p0 = DensityField(g, eq.values, time=start)
        sweep = [params, GuidanceParams(lam=1000.0)]
        assert fp_evolve(p0, psi, params, 1e-3, start + 4e-3, checkpoint_times=(start,)) == [p0]
        assert fp_evolve(p0, psi, sweep, 1e-3, start + 4e-3, checkpoint_times=(start,)) == [[p0], [p0]]


def test_a_checkpoint_an_ulp_past_a_decimal_t_final_is_its_last_step_in_both_engines():
    # 9 steps of 0.001 land at 0.009000000000000001 > 0.009, as evolve's
    # snapshot times do; the walkers refused it as outside [0.0, 0.009]
    g, psi, params, op, eq = double_well_setup(n=64)
    tc = 9 * 0.001
    assert tc > 0.009
    res = run_ensemble(8, PointSampler([0.5]), psi, params, 1e-3, 0.009, checkpoint_times=(tc, 0.009))
    assert [t for t, _ in res.checkpoints] == [tc, 0.009]
    for _, positions in res.checkpoints:
        assert np.array_equal(positions, res.final_positions)
    got, final = fp_evolve(eq, psi, params, 1e-3, 0.009, checkpoint_times=(tc, 0.009))
    assert got is final and got.time == sum([0.001] * 9)


def test_fp_evolve_holds_a_few_densities_not_one_per_step():
    # it kept every step's density by default: 2000 steps held 2001 of them
    g = Grid.make(1024, (-8.0, 8.0), "periodic")
    x = g.coords(0)
    psi = WaveField(g, np.exp(-x**2 / 2))
    params = GuidanceParams(lam=1.0)
    p0 = DensityField(g, np.exp(-(x - 1.0) ** 2))
    dt = 0.5 * FPOperator.from_wavefield(psi, params).stable_dt()
    out, peak = traced_peak(fp_evolve, p0, psi, params, dt, 2000 * dt, method="explicit")
    assert peak < 16 * p0.values.nbytes   # 8.4 here: the operator, one step's temporaries
    assert [d.time for d in out] == [sum([dt] * 2000)]


def test_fp_evolve_rejects_a_t_final_before_the_start():
    # by the step rule's own message, which once said "does not divide"
    g, psi, params, op, eq = double_well_setup(n=64)
    late = DensityField(g, eq.values, time=1.0)
    with pytest.raises(ValueError, match=r"the interval \[1.0, 0.5\] ends before it starts"):
        fp_evolve(late, psi, params, 1e-3, 0.5)


@settings(max_examples=150, deadline=None)
@given(boundary=st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.sampled_from([P, R])] * d)),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 3.0),
       lam=st.floats(0.1, 100.0), dt=st.floats(1e-4, 5e-2))
def test_steps_conserve_mass_and_keep_the_equilibrium_on_random_log_densities(
        boundary, seed, scale, lam, dt):
    # every axis takes the shifted paths of the operator and its stability
    # bound (a reflecting axis through its zero-weight wall face), and every
    # periodic axis the cyclic solve
    rng = np.random.default_rng(seed)
    points = tuple(int(n) for n in rng.integers(8, 14, size=len(boundary)))
    extent = [(-float(h), float(h)) for h in rng.uniform(1.0, 4.0, size=len(boundary))]
    g = Grid.make(points, extent, boundary)
    log_rho = rng.normal(scale=scale, size=points)
    op = FPOperator.from_log_density(g, log_rho, lam)
    eq = DensityField(g, np.exp(log_rho))
    p = DensityField(g, rng.random(points))
    for step, step_dt in ((fp_step, op.stable_dt()), (fp_step_implicit, dt)):
        assert abs(step(p, op, step_dt).total() - p.total()) <= 1e-12 * p.total()
        moved = np.max(np.abs(step(eq, op, step_dt).values - eq.values))
        assert moved <= 1e-12 * eq.values.max()


# --------------------------------------------------------------------------
# A lambda sweep steps in lockstep, each lambda bit for bit as its own run.

def _assert_same_densities(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(np.signbit(a.values), np.signbit(b.values))


@settings(max_examples=150, deadline=None)
@given(boundary=st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.sampled_from([P, R])] * d)),
       seed=st.integers(0, 2**32 - 1), lams=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=4),
       method=st.sampled_from(["explicit", "implicit", "auto"]),
       segments=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       marks=st.lists(st.integers(0, 9), max_size=4))
def test_a_lam_sweep_matches_separate_runs_bit_for_bit(boundary, seed, lams, method, segments, marks):
    # moving snapshots, a start with empty cells, and under "auto" a dt between
    # the lambdas' bounds, so that each lambda picks its own method
    rng = np.random.default_rng(seed)
    points = tuple(int(n) for n in rng.integers(8, 12, size=len(boundary)))
    g = Grid.make(points, [(-3.0, 3.0)] * len(boundary), boundary)
    sweep = [GuidanceParams(lam=lam, epsilon=1e-6) for lam in lams]
    fields = [rng.normal(size=points) + 1j * rng.normal(size=points) for _ in segments]
    bounds = [FPOperator.from_wavefield(WaveField(g, v), q).stable_dt() for v in fields for q in sweep]
    dt = {"explicit": 0.5 * min(bounds), "implicit": float(10 ** rng.uniform(-3, np.log10(5e-2))),
          "auto": float(np.sqrt(min(bounds) * max(bounds)))}[method]
    starts = np.cumsum([0] + segments)
    snaps = [WaveField(g, v, time=dt * int(k)) for v, k in zip(fields, starts)]
    t_final = dt * int(starts[-1])
    # unsorted and repeated checkpoints on the step lattice
    checkpoints = [dt * (k % (int(starts[-1]) + 1)) for k in marks]
    p0 = DensityField(g, rng.random(points) * (rng.random(points) < 0.7))
    got = fp_evolve(p0, snaps, sweep, dt, t_final, method=method, checkpoint_times=checkpoints)
    assert len(got) == len(sweep)
    for q, densities in zip(sweep, got):
        _assert_same_densities(densities, fp_evolve(p0, snaps, q, dt, t_final, method=method,
                                                     checkpoint_times=checkpoints))


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: "-".join(x[0] for x in b))
def test_implicit_step_on_sequences_matches_per_element_steps(boundary):
    for seed in range(3):
        op, p, dt = _random_case(200 + seed, boundary)
        rng = np.random.default_rng(seed)
        lams = [op.lam, *(10 ** rng.uniform(-1, 2, size=2))]
        ps = [p] + [DensityField(op.grid, rng.random(op.grid.points) * (rng.random(op.grid.points) < 0.7))
                    for _ in lams[1:]]
        ops = [FPOperator(op.grid, lam, op.face_w) for lam in lams]
        got = fp_step_implicit(ps, ops, dt)
        _assert_same_densities(got, [fp_step_implicit(q, FPOperator(op.grid, lam, op.face_w), dt)
                                     for q, lam in zip(ps, lams)])
        _assert_same_densities(fp_step_implicit([p], [op], dt), [fp_step_implicit(p, op, dt)])


def test_a_sweep_rejects_what_cannot_step_together_before_any_step():
    g, psi, params, op, eq = double_well_setup(n=64)
    with mock.patch.object(smoluchowski, "fp_step_implicit") as implicit, \
            mock.patch.object(smoluchowski, "fp_step") as explicit:
        for sweep, error in (([params, GuidanceParams(lam=2.0, epsilon=1e-6)], "share one epsilon"),
                             ([], "at least one GuidanceParams")):
            with pytest.raises(ValueError, match=error):
                fp_evolve(eq, psi, sweep, 1e-3, 4e-3)
    assert not implicit.called and not explicit.called
    # operators from another snapshot, or too few operators: nothing is factored
    other = FPOperator.from_log_density(g, np.zeros(64), lam=1.0)
    for ps, ops, error in (([eq, eq], [op, other], "differ only in lam"),
                           ([eq, eq], [op], "one operator per density"),
                           ([], [], "one operator per density")):
        with pytest.raises(ValueError, match=error):
            fp_step_implicit(ps, ops, 1e-3)
    assert op._factors is None and other._factors is None


def test_a_sweep_raises_on_a_nonfinite_state_in_one_lam_before_its_next_snapshot():
    # under "auto" lam 10 steps explicitly and overflows in its first step,
    # while lam 1000 steps implicitly and stays finite on its own
    g, psi, params, op, eq = double_well_setup(n=64)
    p0 = DensityField(g, np.where(np.arange(64) == 20, 1e307, 0.0))
    sweep = [GuidanceParams(lam=10.0), GuidanceParams(lam=1000.0)]
    assert np.isfinite(fp_evolve(p0, psi, sweep[1], 1e-3, 4e-3)[-1].values).all()
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        fp_evolve(p0, psi, sweep, 1e-3, 4e-3)


@pytest.mark.parametrize("method, implicit_calls, explicit_calls", [
    ("implicit", 6, 0), ("auto", 6, 6), ("explicit", 0, 6)])
def test_fp_evolve_calls_the_module_fp_step_implicit_once_per_lockstep_step(
        method, implicit_calls, explicit_calls):
    # the benchmark's trace divides the implicit solver's time by this count;
    # under "auto" lam 1 steps explicitly (bound 0.021) and lam 10 and 1000
    # implicitly (bounds 2.1e-3 and 2.1e-5)
    g, psi, params, op, eq = double_well_setup(n=64)
    snaps = [psi, WaveField(g, np.roll(psi.values, 3), time=0.0075)]
    lams = (1.0, 10.0, 1000.0) if method != "explicit" else (1.0, 2.0)
    sweep = [GuidanceParams(lam=lam) for lam in lams]
    with mock.patch.object(smoluchowski, "fp_step_implicit",
                           wraps=smoluchowski.fp_step_implicit) as implicit, \
            mock.patch.object(smoluchowski, "fp_step", wraps=smoluchowski.fp_step) as explicit:
        out = fp_evolve(eq, snaps, sweep, 2.5e-3, 0.015, method=method,
                        checkpoint_times=(0.0, 5e-3, 0.01, 0.015))
    assert implicit.call_count == implicit_calls
    assert explicit.call_count == explicit_calls * (1 if method == "auto" else len(lams))
    assert [len(densities) for densities in out] == [4] * len(lams)
