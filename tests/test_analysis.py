import numpy as np
import pytest

from psiwalk import (
    DensityField,
    DoubleGaussianParams,
    FirstPassage,
    Grid,
    coarsen,
    histogram,
    independence_test,
    kramers_prediction,
    mfpt_estimate,
    total_variation,
)
from psiwalk.analysis import CorrelationStats
from psiwalk.langevin import substream

from _memory import traced_peak


# -- histogram ---------------------------------------------------------------

def test_histogram_single_cell():
    g = Grid.make(10, (0.0, 1.0), "reflecting")
    f = histogram(np.full((50, 1), 0.55), g)
    assert f.values[5] == pytest.approx(1.0 / g.cell_volume)
    assert np.count_nonzero(f.values) == 1
    assert f.total() == pytest.approx(1.0, abs=1e-9)


def test_histogram_uniform_poisson_band():
    g = Grid.make(100, (0.0, 1.0), "reflecting")
    rng = np.random.default_rng(12)
    pts = rng.random((1_000_000, 1))
    f = histogram(pts, g)
    sigma = np.sqrt(100.0 / 1_000_000)  # relative per-cell fluctuation
    assert np.max(np.abs(f.values - 1.0)) < 5 * sigma * 1.0 / 1.0


def test_histogram_empty_cells_exactly_zero():
    g = Grid.make(16, (0.0, 1.0), "reflecting")
    f = histogram(np.full((5, 1), 0.03), g)
    assert np.count_nonzero(f.values) == 1
    assert np.all(f.values[1:] == 0.0)


def test_histogram_outside_points_clip_with_warning():
    g = Grid.make(8, (0.0, 1.0), "reflecting")
    with pytest.warns(UserWarning, match="outside"):
        f = histogram(np.array([[-0.2], [1.7], [0.5]]), g)
    assert f.total() == pytest.approx(1.0, abs=1e-9)
    assert f.values[0] > 0 and f.values[-1] > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_histogram_rejects_nonfinite_points(bad):
    # a NaN used to drop out of the counts, leaving a density of mass 1/2 here
    g = Grid.make(8, (0.0, 1.0), "periodic")
    with pytest.raises(ValueError, match="finite"):
        histogram(np.array([[0.5], [bad]]), g)


def test_histogram_periodic_wrap():
    g = Grid.make(8, (0.0, 8.0), "periodic")
    # 8.2 wraps to 0.2, inside the cell centered at 0
    f = histogram(np.array([[8.2]]), g)
    assert f.values[0] == pytest.approx(1.0 / g.cell_volume)


@pytest.mark.parametrize("boundary", ["reflecting", "periodic"])
def test_histogram_bins_by_cell_index_at_cell_edges(boundary):
    # Every 4th cell edge of the default double_well grid and its 1-ulp
    # neighbours (the in-box ones): with its own bin edges, histogram put 92 of
    # the 385 reflecting points one cell away from Grid.cell_index.
    g = Grid.make(512, (-9.0, 9.0), boundary)
    edges = -9.0 + g.spacing[0] * np.arange(0, 513, 4)
    pts = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    pts = pts[(pts >= -9.0) & (pts <= 9.0)]
    assert pts.size == 385
    for x in pts:
        (cell,) = np.flatnonzero(histogram([x], g).values)
        assert cell == g.cell_index([[x]])[0, 0], x


def test_histogram_convergence_rate():
    # TV against the sampled density decays ~ n^(-1/2)
    g = Grid.make(64, (-6.0, 6.0), "periodic")
    x = g.coords(0)
    dens = DensityField(g, np.exp(-(x**2))).normalized()
    from psiwalk import DensitySampler

    sampler = DensitySampler(dens)
    tvs = []
    for n, seed in ((1000, 1), (10_000, 2), (100_000, 3)):
        draws = sampler.sample([substream(seed, i) for i in range(n)])
        tvs.append(total_variation(histogram(draws, g), dens))
    for a, b in zip(tvs[:-1], tvs[1:]):
        assert np.sqrt(10.0) / 2.0 < a / b < np.sqrt(10.0) * 2.0


# -- total variation -----------------------------------------------------------

def grid8():
    return Grid.make(8, (0.0, 8.0), "reflecting")


def test_tv_identity_and_disjoint():
    g = grid8()
    p = DensityField(g, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    q = DensityField(g, np.array([0, 0, 0, 0, 0, 0, 0, 1.0]))
    assert total_variation(p, p) == 0.0
    assert total_variation(p, q) == pytest.approx(1.0)


def test_tv_two_cell_value():
    g = grid8()
    p = DensityField(g, np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0]))
    q = DensityField(g, np.array([0.3, 0.7, 0, 0, 0, 0, 0, 0]))
    assert total_variation(p, q) == pytest.approx(0.2)


def test_tv_requires_same_grid_and_normalization():
    g = grid8()
    p = DensityField(g, np.full(8, 1.0 / 8.0))
    other = Grid.make(8, (0.0, 4.0), "reflecting")
    with pytest.raises(ValueError):
        total_variation(p, DensityField(other, np.full(8, 0.25)))
    with pytest.raises(ValueError):
        total_variation(p, DensityField(g, np.full(8, 1.0)))


def test_tv_is_a_metric_on_random_densities():
    g = Grid.make(32, (0.0, 1.0), "reflecting")
    rng = np.random.default_rng(7)
    fields = []
    for _ in range(3):
        v = rng.random(32)
        fields.append(DensityField(g, v / (v.sum() * g.cell_volume)))
    p, q, r = fields
    assert total_variation(p, q) == pytest.approx(total_variation(q, p), abs=1e-15)
    assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12


def test_coarsen_preserves_mass():
    g = Grid.make(64, (-2.0, 2.0), "periodic")
    rng = np.random.default_rng(1)
    v = rng.random(64)
    f = DensityField(g, v).normalized()
    c = coarsen(f, 8)
    assert c.grid.points == (8,)
    assert c.total() == pytest.approx(1.0, abs=1e-12)


# -- escape-time formula ---------------------------------------------------------

def test_escape_formula_value():
    t = kramers_prediction(DoubleGaussianParams(a=1.0, b=3.0), lam=1.0)
    assert t == pytest.approx(2701.028, abs=0.1)


def test_escape_formula_scales_with_lambda():
    p = DoubleGaussianParams(a=1.0, b=3.0)
    assert kramers_prediction(p, 2.0) == pytest.approx(kramers_prediction(p, 1.0) / 2)


def test_escape_formula_warns_outside_validity():
    with pytest.warns(UserWarning, match="validity"):
        t = kramers_prediction(DoubleGaussianParams(a=1.0, b=1.0), lam=1.0)
    assert t == pytest.approx(np.e, rel=1e-12)


def test_escape_formula_monotonicity():
    lams = [0.5, 1.0, 2.0, 4.0]
    bs = [2.0, 2.5, 3.0, 3.5]
    vals_b = [kramers_prediction(DoubleGaussianParams(a=1.0, b=b), 1.0) for b in bs]
    assert all(x < y for x, y in zip(vals_b[:-1], vals_b[1:]))
    vals_l = [kramers_prediction(DoubleGaussianParams(a=1.0, b=3.0), l) for l in lams]
    assert all(x > y for x, y in zip(vals_l[:-1], vals_l[1:]))


# -- MFPT estimates ----------------------------------------------------------------

def test_mfpt_estimate_arithmetic():
    est = mfpt_estimate([FirstPassage(0, 2.0, False), FirstPassage(1, 4.0, False)])
    assert est.mean == pytest.approx(3.0)
    assert est.standard_error == pytest.approx(1.0)
    assert est.censored_fraction == 0.0


def test_mfpt_estimate_all_censored():
    est = mfpt_estimate([FirstPassage(0, 5.0, True), FirstPassage(1, 5.0, True)])
    assert est.censored_fraction == 1.0
    assert not est.defined


# -- independence -------------------------------------------------------------------

def test_independence_null_case():
    rng = np.random.default_rng(21)
    paths = np.cumsum(rng.standard_normal((4, 5000, 2)), axis=1)
    stats = independence_test(paths)
    assert abs(stats.rho_increments) < 3.0 / np.sqrt(stats.n_increments)
    assert not stats.degenerate


def test_independence_identical_series():
    rng = np.random.default_rng(22)
    one = np.cumsum(rng.standard_normal((2, 400, 1)), axis=1)
    paths = np.concatenate([one, one], axis=2)
    stats = independence_test(paths)
    assert stats.rho_increments == pytest.approx(1.0)


def test_independence_degenerate_flagged():
    paths = np.zeros((1, 100, 2))
    stats = independence_test(paths)
    assert stats.degenerate


def pearson_reference(u, v):
    su, sv = u.std(), v.std()
    if su == 0 or sv == 0:
        return np.nan, True
    return float(np.mean((u - u.mean()) * (v - v.mean())) / (su * sv)), False


def independence_reference(paths, split=0.0):
    """The test as it was computed on full-size copies: every increment at
    once, each coordinate raveled from them, centred out of place."""
    inc = np.diff(paths, axis=1)
    dx = inc[:, :, 0].ravel()
    dy = inc[:, :, 1].ravel()
    rho_inc, degenerate_inc = pearson_reference(dx, dy)
    occ_x = (paths[:, :, 0] > split).astype(float).ravel()
    occ_y = (paths[:, :, 1] > split).astype(float).ravel()
    rho_occ, degenerate_occ = pearson_reference(occ_x, occ_y)
    n = dx.size
    return CorrelationStats(
        rho_increments=rho_inc,
        z_increments=rho_inc * np.sqrt(n) if np.isfinite(rho_inc) else np.nan,
        rho_occupancy=rho_occ,
        z_occupancy=rho_occ * np.sqrt(occ_x.size) if np.isfinite(rho_occ) else np.nan,
        n_increments=n,
        degenerate=degenerate_inc or degenerate_occ,
    )


def _independence_cases():
    rng = np.random.default_rng(23)
    walk = np.cumsum(rng.standard_normal((5, 301, 2)), axis=1)
    one = walk[:, :, :1]
    flat_y = walk.copy()
    flat_y[:, :, 1] = 0.25
    return {"random": walk, "identical": np.concatenate([one, one], axis=2),
            "constant": np.full((3, 40, 2), 1.5), "one_constant_coordinate": flat_y,
            "one_row_pair": walk[:1, :2]}


@pytest.mark.parametrize("case", list(_independence_cases()))
@pytest.mark.parametrize("split", [0.0, 0.7])
def test_independence_equals_the_full_copy_formula_bit_for_bit(case, split):
    paths = _independence_cases()[case]
    got, ref = independence_test(paths, split), independence_reference(paths, split)
    for name, a in vars(got).items():
        b = getattr(ref, name)
        assert a == b or (np.isnan(a) and np.isnan(b)), name


@pytest.mark.parametrize("shape", [(3, 1, 2), (0, 5, 2), (2, 0, 2)])
def test_independence_needs_a_path_and_two_rows(shape):
    # below that, each reduction would average an empty array: numpy warns
    # "Degrees of freedom <= 0" and the statistics come out NaN
    with pytest.raises(ValueError, match="a path and two rows"):
        independence_test(np.zeros(shape))


def test_independence_adds_at_most_one_and_a_half_copies_of_its_paths():
    # one coordinate's increments (or indicators) and std's temporary
    rng = np.random.default_rng(24)
    paths = np.cumsum(rng.standard_normal((64, 2001, 2)), axis=1)
    before = paths.copy()
    _, peak = traced_peak(independence_test, paths)
    assert np.array_equal(paths, before)
    assert peak <= 1.6 * paths.nbytes, peak / paths.nbytes
