import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiwalk import (
    DensityField,
    GuidanceParams,
    Grid,
    HamiltonianSpec,
    PlaneCrossing,
    PointSampler,
    WaveField,
    evolve,
    fp_evolve,
    gradient,
    make_packet,
    run_ensemble,
    run_first_passage_ensemble,
)
from psiwalk import langevin, schrodinger, smoluchowski
from psiwalk.grids import checkpoint_steps, step_count, step_plan

from _interpolate import interpolate


def test_grid_spacing_and_volume():
    g = Grid.make((100,), (0.0, 1.0), "periodic")
    assert g.spacing == (0.01,)
    assert g.cell_volume == pytest.approx(0.01)
    g2 = Grid.make((16, 32), [(-1.0, 1.0), (0.0, 4.0)], ("periodic", "reflecting"))
    assert g2.spacing == (0.125, 0.125)


@pytest.mark.parametrize(
    "points,extent,boundary",
    [
        ((4,), ((0.0, 1.0),), ("periodic",)),          # too few points
        ((16,), ((1.0, 1.0),), ("periodic",)),          # empty extent
        ((16,), ((0.0, np.inf),), ("periodic",)),       # infinite end
        ((16,), ((-1e308, 1e308),), ("periodic",)),     # finite ends, infinite width
        ((16,), ((np.nan, 1.0),), ("periodic",)),       # no end at all
        ((16,), ((0.0, 1.0),), ("absorbing",)),         # unknown boundary
        ((16, 16, 16, 16), ((0.0, 1.0),) * 4, ("periodic",) * 4),  # dims > 3
    ],
)
def test_grid_rejects_bad_construction(points, extent, boundary):
    with pytest.raises(ValueError):
        Grid(points=points, extent=extent, boundary=boundary)


def test_coords_placement():
    gp = Grid.make(8, (0.0, 8.0), "periodic")
    assert np.allclose(gp.coords(0), np.arange(8.0))
    gr = Grid.make(8, (0.0, 8.0), "reflecting")
    assert np.allclose(gr.coords(0), np.arange(8.0) + 0.5)


def test_integrate_constant_exact():
    g = Grid.make(100, (0.0, 1.0), "reflecting")
    f = DensityField(g, np.ones(100))
    assert f.total() == pytest.approx(1.0, abs=1e-12)


def test_integrate_gaussian_density():
    # |exp(-x^2/2)|^2 integrates to sqrt(pi)
    g = Grid.make(512, (-10.0, 10.0), "periodic")
    x = g.coords(0)
    f = DensityField(g, np.exp(-(x**2)))
    assert f.total() == pytest.approx(np.sqrt(np.pi), abs=1e-6)


def test_integrate_zero_field():
    g = Grid.make(64, (0.0, 2.0), "periodic")
    assert DensityField(g, np.zeros(64)).total() == 0.0


def test_density_rejects_negative_and_nonfinite():
    g = Grid.make(16, (0.0, 1.0), "periodic")
    finite, sign = "must be finite everywhere", "must be nonnegative"
    for value, message in [(np.nan, finite), (np.inf, finite), (-np.inf, finite),
                           (-1e-300, sign), (-1.0, sign)]:
        bad = np.ones(16)
        bad[3] = value
        with pytest.raises(ValueError, match=f"density values {message}"):
            DensityField(g, bad)
        if message == finite:
            for part in ("real", "imag"):
                wave = np.ones(16, dtype=complex)
                setattr(wave, part, bad)
                with pytest.raises(ValueError, match=f"wave values {message}"):
                    WaveField(g, wave)


def test_fields_accept_negative_zero_and_huge_finite_values():
    g = Grid.make(16, (0.0, 1.0), "periodic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert DensityField(g, np.full(16, -0.0)).total() == 0.0
        assert np.all(DensityField(g, np.full(16, 1e308)).values == 1e308)
        WaveField(g, np.full(16, -1e308 + 1e308j))
    with pytest.raises(ValueError, match="positive squared norm"):
        WaveField(g, np.full(16, -0.0 - 0.0j))


def test_normalize_on_demand():
    g = Grid.make(128, (-6.0, 6.0), "reflecting")
    x = g.coords(0)
    f = DensityField(g, 3.7 * np.exp(-(x**2)))
    assert abs(f.normalized().total() - 1.0) < 1e-12


def test_fields_are_immutable():
    g = Grid.make(16, (0.0, 1.0), "periodic")
    for field, value in ((DensityField, 1.0), (WaveField, 1.0 + 1.0j)):
        source = np.full(16, value)
        f = field(g, source)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        source[:] = 5.0
        assert np.all(f.values == value)


def test_gradient_log_gaussian():
    # d/dx ln exp(-x^2) = -2x; the grid spacing puts nodes at 0 and 0.5
    g = Grid.make(192, (-6.0, 6.0), "periodic")
    x = g.coords(0)
    grad = gradient(g, np.log(np.exp(-(x**2))))
    i0 = np.flatnonzero(x == 0.0)[0]
    assert grad[i0, 0] == pytest.approx(0.0, abs=1e-10)
    ihalf = np.flatnonzero(x == 0.5)[0]
    assert grad[ihalf, 0] == pytest.approx(-1.0, abs=2e-3)


def test_gradient_log_zero_field():
    g = Grid.make(32, (0.0, 1.0), "reflecting")
    grad = gradient(g, np.log(np.zeros(32) + 1e-12))
    assert np.all(grad == 0.0)


def test_gradient_axis_k_is_the_1d_gradient_of_every_pencil():
    bounds = ("periodic", "reflecting", "reflecting")
    g = Grid.make((8, 9, 10), [(-1.0, 1.0), (0.0, 3.0), (-2.0, 0.5)], bounds)
    values = np.random.default_rng(5).normal(size=g.points)
    grad = gradient(g, values)
    for k in range(3):
        line = Grid.make(g.points[k], g.extent[k], bounds[k])
        pencils = np.moveaxis(values, k, -1).reshape(-1, g.points[k])
        expected = np.stack([gradient(line, pencil)[:, 0] for pencil in pencils])
        assert np.array_equal(np.moveaxis(grad[..., k], k, -1).reshape(expected.shape), expected)


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_gradient_log_second_order_convergence(boundary):
    # max-norm error drops ~4x per halving of dx on a smooth non-quadratic log
    errors = []
    for n in (64, 128, 256):
        g = Grid.make(n, (-3.0, 3.0), boundary)
        x = g.coords(0)
        grad = gradient(g, np.log(np.exp(np.sin(np.pi * x / 3.0))))[:, 0]
        exact = (np.pi / 3.0) * np.cos(np.pi * x / 3.0)
        errors.append(np.max(np.abs(grad - exact)))
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0


def test_interpolate_linear_exact():
    g = Grid.make(10, (0.0, 1.0), "reflecting")
    f = 3.0 * g.coords(0)
    assert interpolate(g, f, np.array([0.37])) == pytest.approx(1.11, abs=1e-12)


def test_interpolate_node_bit_exact():
    g = Grid.make(64, (-2.0, 2.0), "periodic")
    rng = np.random.default_rng(5)
    f = rng.random(64)
    x = g.coords(0)
    for i in (0, 17, 63):
        assert interpolate(g, f, np.array([x[i]])) == f[i]
    gr = Grid.make(64, (-2.0, 2.0), "reflecting")
    xr = gr.coords(0)
    for i in (0, 31, 63):
        assert interpolate(gr, f, np.array([xr[i]])) == f[i]


def test_interpolate_periodic_wrap():
    g = Grid.make(16, (0.0, 16.0), "periodic")
    f = np.sin(2 * np.pi * g.coords(0) / 16.0)
    dx = g.spacing[0]
    inside = interpolate(g, f, np.array([0.1 * dx]))
    wrapped = interpolate(g, f, np.array([16.0 + 0.1 * dx]))
    assert wrapped == pytest.approx(inside, abs=1e-12)


def test_interpolate_batch_and_vector_values():
    g = Grid.make(32, (0.0, 1.0), "periodic")
    vec = np.stack([g.coords(0), 2 * g.coords(0)], axis=-1)
    out = interpolate(g, vec, np.array([[0.25], [0.5]]))
    assert out.shape == (2, 2)
    assert np.allclose(out[:, 1], 2 * out[:, 0])


def test_reflecting_fold():
    g = Grid.make(16, (0.0, 1.0), "reflecting")
    folded = g.fold(np.array([[1.2], [-0.3], [2.6]]))
    assert np.allclose(folded[:, 0], [0.8, 0.3, 0.6])


def test_periodic_fold():
    g = Grid.make(16, (-1.0, 1.0), "periodic")
    folded = g.fold(np.array([[1.5], [-1.25]]))
    assert np.allclose(folded[:, 0], [-0.5, 0.75])


# -- properties -------------------------------------------------------------------

def parent_interpolate(grid, values, x):
    """The per-corner fancy-indexing interpolation that ``interpolate`` replaced."""
    values = np.asarray(values)
    single = np.asarray(x).ndim == 1
    pts = grid.fold(x)
    m = pts.shape[0]
    i0 = np.empty((m, grid.dims), dtype=np.int64)
    i1 = np.empty((m, grid.dims), dtype=np.int64)
    frac = np.empty((m, grid.dims))
    for k in range(grid.dims):
        lo, hi = grid.extent[k]
        n = grid.points[k]
        dx = (hi - lo) / n
        if grid.boundary[k] == "periodic":
            f = (pts[:, k] - lo) / dx
        else:
            f = np.clip((pts[:, k] - lo) / dx - 0.5, 0.0, n - 1.0)
        r = np.round(f)
        f = np.where(np.abs(f - r) <= 1e-9, r, f)
        if grid.boundary[k] == "periodic":
            base = np.floor(f)
            i0[:, k] = base.astype(np.int64) % n
            i1[:, k] = (i0[:, k] + 1) % n
        else:
            base = np.minimum(np.floor(f), n - 2)
            i0[:, k] = base.astype(np.int64)
            i1[:, k] = i0[:, k] + 1
        frac[:, k] = f - base
    vec = values.ndim == grid.dims + 1
    out = np.zeros((m, values.shape[-1]) if vec else (m,), dtype=values.dtype)
    for corner in range(2**grid.dims):
        idx = []
        w = np.ones(m)
        for k in range(grid.dims):
            hi_side = (corner >> k) & 1
            idx.append(i1[:, k] if hi_side else i0[:, k])
            w = w * (frac[:, k] if hi_side else 1.0 - frac[:, k])
        v = values[tuple(idx)]
        out += v * (w[:, None] if vec else w)
    return out[0] if single else out


@st.composite
def grids(draw):
    dims = draw(st.integers(1, 3))
    points = tuple(draw(st.integers(8, 13)) for _ in range(dims))
    extent = []
    for _ in range(dims):
        lo = draw(st.floats(-50.0, 50.0, allow_subnormal=False))
        extent.append((lo, lo + draw(st.floats(0.01, 100.0))))
    boundary = tuple(draw(st.sampled_from(["periodic", "reflecting"])) for _ in range(dims))
    return Grid(points, tuple(extent), boundary)


@st.composite
def queries(draw, grid, m):
    """Points on nodes, on walls, inside and outside the box, per axis."""
    cols = []
    for k in range(grid.dims):
        lo, hi = grid.extent[k]
        span = hi - lo
        node = st.sampled_from(list(grid.coords(k)))
        cols.append(draw(st.lists(
            st.one_of(node, st.sampled_from([lo, hi]), st.floats(lo, hi),
                      st.floats(lo - 3 * span, hi + 3 * span)),
            min_size=m, max_size=m)))
    return np.array(cols, dtype=float).T


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_interpolate_bit_identical_to_per_corner_indexing(data):
    grid = data.draw(grids())
    shape = grid.points + data.draw(st.sampled_from([(), (1,), (3,)]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).standard_normal(shape)
    values[np.abs(values) < 0.3] = -0.0   # signed zeros must survive
    x = data.draw(queries(grid, data.draw(st.integers(1, 6))))
    for q in (x, x[0]):
        new, old = interpolate(grid, values, q), parent_interpolate(grid, values, q)
        assert new.shape == old.shape
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))


def in_box(grid, x):
    ok = np.ones(x.shape[0], dtype=bool)
    for k, ((lo, hi), b) in enumerate(zip(grid.extent, grid.boundary)):
        ok &= (x[:, k] >= lo) & ((x[:, k] < hi) if b == "periodic" else (x[:, k] <= hi))
    return ok


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fold_lands_in_box_idempotently_and_keeps_inside_points(data):
    grid = data.draw(grids())
    x = data.draw(queries(grid, data.draw(st.integers(1, 6))))
    folded = grid.fold(x)
    assert np.all(in_box(grid, folded))
    assert np.array_equal(grid.fold(folded), folded)
    inside = in_box(grid, x)
    assert np.array_equal(folded[inside], x[inside])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_returns_an_in_box_float64_array_itself(data):
    # The walker kernel skips its finiteness scan when ``fold`` hands back its
    # own input, so every in-box 2-d float64 array must come back as itself,
    # on either wall kind and in either memory order; anything else is a copy.
    grid = data.draw(grids())
    x = data.draw(queries(grid, data.draw(st.integers(1, 6))))
    x = x[in_box(grid, x)]
    if data.draw(st.booleans()):
        x = np.asfortranarray(x)
    assert grid.fold(x) is x
    outside = np.array([[hi + 0.5 * (hi - lo) for lo, hi in grid.extent]])
    assert grid.fold(outside) is not outside
    assert grid.fold(outside.astype(np.float32)).dtype == np.float64


@pytest.mark.parametrize("extent", [(-8.0, 8.0), (0.0, 1.0), (-3.0, 7.0), (-1.1, 2.3), (0.1, 0.7)])
@pytest.mark.parametrize("n", [8, 12, 64])
def test_top_edge_queries_on_periodic_axes(extent, n):
    # x = nextafter(hi, lo) is in the box, yet (x - lo) / dx is, or snaps to,
    # n: interpolation reads node 0's wrapped copy with weight 1, and the
    # kernel's basin lookup reads the padded slice that repeats node 0.
    from psiwalk import NodeBasinMap

    lo, hi = extent
    grid = Grid((n, 9), (extent, (-1.0, 2.0)), ("periodic", "reflecting"))
    top = np.nextafter(hi, lo)
    assert np.floor((top - lo) / grid.spacing[0] + 0.5) == n
    x = np.array([[top, -1.0], [top, 2.0], [top, 0.37], [top, np.nextafter(2.0, 0.0)],
                  [lo, 2.0], [0.5 * (lo + hi), 0.1]])
    rng = np.random.default_rng(n)
    values = rng.standard_normal(grid.points + (2,))
    assert np.array_equal(interpolate(grid, values, x), parent_interpolate(grid, values, x))
    for g in (grid, Grid((n,), (extent,), ("periodic",))):
        labels = rng.integers(-1, 40, g.points)
        pts = x[:, : g.dims]
        idx = g.cell_index(pts)
        basins = NodeBasinMap(g, labels)
        out = basins.lookup(pts, np.empty(len(pts), dtype=basins.table.dtype))
        assert np.array_equal(out, labels[tuple(idx.T)])
        vals = values[..., 0] if g.dims == 2 else values[:, 0, 0]
        assert np.array_equal(interpolate(g, vals, pts), parent_interpolate(g, vals, pts))


def test_step_count_rule():
    assert step_count(0.0, 0.0105, 1.5e-3) == 7
    assert step_count(0.25, 0.25, 0.1) == 0
    # within 1e-9 of step 500, and within 1e-9 * span of 2e6 steps
    assert step_count(0.0, 0.0050000005, 1e-5) == 500
    assert step_count(1.0, 21.0 + 1e-8, 1e-5) == 2_000_000
    for t0, t1, dt in [(0.0, 0.0105, 1e-3), (0.0, 1e-12, 1e-3), (1.0, 21.0 + 3e-8, 1e-5)]:
        with pytest.raises(ValueError, match="does not divide the interval"):
            step_count(t0, t1, dt)
    with pytest.raises(ValueError, match=r"the interval \[0.5, 0.2\] ends before it starts"):
        step_count(0.5, 0.2, 0.1)


def test_step_count_refuses_a_span_that_ends_before_it_starts():
    # within the 1e-9 tolerance of 0 it counted 0 steps, while evolve to that
    # horizon raised
    for t0, t1 in [(0.0, -1e-11), (0.0, -1e-300), (1.0, 1.0 - 2.0**-52)]:
        with pytest.raises(ValueError, match=rf"the interval \[{t0}, {t1}\] ends before it starts"):
            step_count(t0, t1, 1e-3)
    assert step_count(1.0, 1.0, 1e-3) == 0


def test_checkpoint_steps_compares_step_counts_not_times():
    # 9 * 0.001 lies an ulp past 0.009, and is the run's last step
    assert checkpoint_steps([9 * 0.001, 0.0, 0.004, 0.004], 0.0, 0.009, 1e-3, 9) == [9, 0, 4, 4]
    assert checkpoint_steps([], 0.0, 0.009, 1e-3, 9) == []
    for tc in (0.01, -1e-3, -1e-12):
        with pytest.raises(ValueError, match=rf"checkpoint time {tc} outside \[0.0, 0.009\]"):
            checkpoint_steps([0.004, tc], 0.0, 0.009, 1e-3, 9)
    with pytest.raises(ValueError, match="does not divide the interval"):
        checkpoint_steps([0.0045], 0.0, 0.009, 1e-3, 9)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_every_engine_rejects_a_dt_that_is_not_positive_and_finite(dt):
    # 0 raised ZeroDivisionError and NaN "cannot convert float NaN to integer";
    # a zero-length evolve returned its input, and first passage with an
    # infinite dt censored every walker
    g = Grid.make(32, (-4.0, 4.0), "periodic")
    psi = make_packet(g, [0.0], 1.0)
    p0 = DensityField(g, np.abs(psi.values) ** 2)
    params = GuidanceParams(lam=1.0)
    for run in (lambda: step_count(0.0, 1.0, dt), lambda: step_plan([psi], 0.0, 1.0, dt),
                lambda: evolve(psi, HamiltonianSpec(), 0.01, dt),
                lambda: evolve(psi, HamiltonianSpec(), psi.time, dt),
                lambda: fp_evolve(p0, psi, params, dt, 0.01),
                lambda: run_ensemble(4, PointSampler([0.0]), psi, params, dt, 0.01),
                lambda: run_first_passage_ensemble(4, [0.0], psi, params, dt,
                                                   PlaneCrossing(at=1.0), 0.01)):
        with pytest.raises(ValueError, match=r"dt=\S+ must be a positive finite number"):
            run()


@pytest.mark.parametrize("t0, t1, dt", [(0.0, np.inf, 0.01), (0.0, np.nan, 0.01),
                                         (0.0, 1e308, 1e-300)])
def test_every_engine_rejects_a_horizon_of_no_finite_step_count(t0, t1, dt):
    # an infinite step ratio raised OverflowError ("cannot convert float
    # infinity to integer"), and a NaN one numpy's "cannot convert float NaN"
    g = Grid.make(32, (-4.0, 4.0), "periodic")
    psi = make_packet(g, [0.0], 1.0)
    p0 = DensityField(g, np.abs(psi.values) ** 2)
    params = GuidanceParams(lam=1.0)
    for run in (lambda: step_count(t0, t1, dt), lambda: step_plan([psi], t0, t1, dt),
                lambda: evolve(psi, HamiltonianSpec(), t1, dt),
                lambda: fp_evolve(p0, psi, params, dt, t1),
                lambda: run_ensemble(4, PointSampler([0.0]), psi, params, dt, t1)):
        with pytest.raises(ValueError, match=r"dt=\S+ does not divide the interval"):
            run()


def test_every_engine_refuses_a_t_final_before_its_start_before_any_step():
    # by step_count's message; each engine had a "t_final=... precedes" check
    # of its own, as step_count said "does not divide" such a span
    g = Grid.make(32, (-4.0, 4.0), "periodic")
    psi = make_packet(g, [0.0], 1.0)
    late, p0 = WaveField(g, psi.values, 1.0), DensityField(g, np.abs(psi.values) ** 2, 1.0)
    params = GuidanceParams(lam=1.0)
    with (mock.patch.object(schrodinger, "_apply_step") as propagator,
          mock.patch.object(langevin, "_advance_block") as kernel,
          mock.patch.object(smoluchowski, "fp_step") as explicit,
          mock.patch.object(smoluchowski, "fp_step_implicit") as implicit):
        for run in (lambda: evolve(late, HamiltonianSpec(), 0.5, 0.01),
                    lambda: run_ensemble(4, PointSampler([0.0]), late, params, 0.01, 0.5),
                    lambda: fp_evolve(p0, late, params, 0.01, 0.5, method="explicit"),
                    lambda: fp_evolve(p0, late, params, 0.01, 0.5, method="implicit")):
            with pytest.raises(ValueError, match=r"the interval \[1.0, 0.5\] ends before it starts"):
                run()
    assert not any(m.called for m in (propagator, kernel, explicit, implicit))


@settings(max_examples=300, deadline=None)
@given(dt=st.sampled_from([0.3, 0.25, 0.1, 0.01, 1e-3]),
       ks=st.lists(st.integers(0, 60), min_size=1, max_size=8),
       start=st.integers(0, 60), steps=st.integers(0, 60))
def test_step_plan_matches_the_per_step_rule(dt, ks, start, steps):
    # Snapshots on the dt lattice, some before t0, some after t1, some sharing
    # a time: each step's snapshot is the latest one at or before the step's
    # start (the later of equal times), or the first; looked up step by step.
    snaps = [SimpleNamespace(time=k * dt) for k in ks]
    t0, t1 = start * dt, (start + steps) * dt
    plan = step_plan(snaps, t0, t1, dt)
    assert all(n > 0 for _, n in plan)
    per_step = [snap for snap, n in plan for _ in range(n)]
    assert len(per_step) == step_count(t0, t1, dt)
    ordered = sorted(snaps, key=lambda s: s.time)
    times = np.array([s.time for s in ordered])
    for s, snap in enumerate(per_step):
        i = int(np.searchsorted(times, t0 + s * dt + 1e-12, side="right") - 1)
        assert snap is ordered[max(i, 0)]
