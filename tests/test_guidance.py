import numpy as np
import pytest

from psiwalk import (
    FPOperator,
    Grid,
    GuidanceParams,
    WaveField,
    drift_field,
    gradient,
    log_density,
    regularized_density,
)
from psiwalk.guidance import _cap_vectors

from _interpolate import interpolate


def potential(psi, params):
    """The walker's potential V = -ln(|Psi|^2 + eps)."""
    return -np.log(regularized_density(psi, params).values)


def test_guidance_params_validation():
    GuidanceParams(lam=0.0)  # deterministic limit is allowed
    with pytest.raises(ValueError):
        GuidanceParams(lam=-1.0)
    with pytest.raises(ValueError):
        GuidanceParams(lam=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        GuidanceParams(lam=1.0, drift_cap=-2.0)
    # a NaN cap never bound (mag > nan is False), and NaN or inf passed every check
    for bad in (np.nan, np.inf):
        for kw in ({"lam": bad}, {"lam": 1.0, "epsilon": bad}, {"lam": 1.0, "drift_cap": bad}):
            with pytest.raises(ValueError, match="finite"):
                GuidanceParams(**kw)


def gaussian_field(n=192, half=6.0):
    g = Grid.make(n, (-half, half), "periodic")
    x = g.coords(0)
    return g, x, WaveField(g, np.exp(-x**2 / 2))


def test_potential_values():
    g, x, psi = gaussian_field()
    params = GuidanceParams(lam=1.0, epsilon=1e-12)
    v = potential(psi, params)
    i0 = np.flatnonzero(x == 0.0)[0]
    # at the maximum |Psi|^2 = 1: V = -ln(1 + eps) ~ 0
    assert v[i0] == pytest.approx(0.0, abs=1e-9)
    # V(x) ~ x^2 + const away from the regularized floor
    ihalf = np.flatnonzero(x == 1.5)[0]
    assert v[ihalf] - v[i0] == pytest.approx(1.5**2, rel=1e-9)


def test_potential_at_node_is_regularized_barrier():
    g = Grid.make(64, (0.0, 8.0), "reflecting")
    values = np.ones(64)
    values[10] = 0.0  # a node
    psi = WaveField(g, values)
    v = potential(psi, GuidanceParams(lam=1.0, epsilon=1e-12))
    assert v[10] == pytest.approx(-np.log(1e-12), rel=1e-9)  # ~27.631


def test_drift_matches_analytic():
    g, x, psi = gaussian_field()
    d = drift_field(psi, GuidanceParams(lam=1.0))
    ihalf = np.flatnonzero(x == 0.5)[0]
    assert d[ihalf, 0] == pytest.approx(-1.0, abs=2e-3)


def test_drift_linear_in_lambda():
    g, x, psi = gaussian_field()
    d1 = drift_field(psi, GuidanceParams(lam=1.0))
    d2 = drift_field(psi, GuidanceParams(lam=2.0))
    assert np.array_equal(d2, 2.0 * d1)


def test_drift_scale_invariance():
    # |Psi|^2 need not be normalized: rescaling Psi leaves the drift unchanged
    g, x, psi = gaussian_field()
    params = GuidanceParams(lam=1.0)
    d1 = drift_field(psi, params)
    scaled = WaveField(g, (1.7 - 0.4j) * psi.values)
    d2 = drift_field(scaled, params)
    assert np.max(np.abs(d1 - d2)) < 1e-12


def test_drift_cap_dominates():
    g, x, psi = gaussian_field()
    d = drift_field(psi, GuidanceParams(lam=100.0, drift_cap=3.0))
    mags = np.abs(d[..., 0])
    assert mags.max() <= 3.0 + 1e-12


def test_cap_reaches_vectors_whose_squared_length_overflows():
    # |v| > ~1.3e154 squares to inf: such a vector must still be scaled to the
    # cap, not to 0, and every other row keeps the bits of cap / |v| scaling.
    assert np.array_equal(_cap_vectors(np.array([[1e200], [-3e300], [2.0]]), 10.0),
                          [[10.0], [-10.0], [2.0]])
    v = np.array([[1e200, -1e200], [3.0, 4.0], [30.0, -40.0], [-1e300, 0.0], [0.0, 0.0]])
    capped = _cap_vectors(v.copy(), 10.0)
    assert np.allclose(capped[0], [10 / np.sqrt(2), -10 / np.sqrt(2)], rtol=1e-15)
    assert np.array_equal(capped[3], [-10.0, 0.0])
    small = v[[1, 2, 4]]
    norm = np.sqrt(np.sum(small * small, axis=-1, keepdims=True))
    assert np.array_equal(capped[[1, 2, 4]], small * (10.0 / np.maximum(norm, 10.0)))
    # lam = 1e160 passes validation; its drift overflows when squared
    g, x, psi = gaussian_field(n=64, half=8.0)
    params = GuidanceParams(lam=1e160, drift_cap=5.0)
    raw = params.lam * gradient(g, log_density(psi, params))[..., 0]
    d = drift_field(psi, params)[..., 0]
    assert np.abs(raw).max() > 1e155
    assert np.allclose(d, np.where(np.abs(raw) > 5.0, 5.0 * np.sign(raw), raw), rtol=1e-15, atol=0)


def test_density_that_underflows_to_zero_everywhere_is_rejected():
    # |Psi| ~ 1e-170 is a valid WaveField, but |Psi|^2 is 0 in every cell:
    # there is no relative regularizer, and ln rho_eps would be -inf.
    g, x, _ = gaussian_field()
    psi = WaveField(g, 1e-170 * np.exp(-x**2))
    params = GuidanceParams(lam=1.0)
    for build in (regularized_density, log_density, drift_field, FPOperator.from_wavefield):
        with pytest.raises(ValueError, match="underflows"):
            build(psi, params)
    # a small field whose density stays normal is accepted
    assert np.allclose(drift_field(WaveField(g, 1e-100 * np.exp(-x**2)), params),
                       drift_field(WaveField(g, np.exp(-x**2)), params), rtol=1e-9, atol=1e-9)


def test_product_state_separates():
    # The log potential is additive for product states, so the x-drift is
    # independent of y.  A strictly positive field keeps the regularizer
    # floor out of play everywhere (its perturbation scales as eps/rho and is
    # exercised separately in the Gaussian-tail tests).
    g = Grid.make((64, 48), [(-6.0, 6.0), (-6.0, 6.0)], "periodic")
    xs, ys = g.meshgrid()
    fx = np.exp(0.3 * np.cos(2 * np.pi * xs / 12.0))
    fy = np.exp(0.3 * np.sin(2 * np.pi * ys / 12.0))
    psi = WaveField(g, fx * fy)
    d = drift_field(psi, GuidanceParams(lam=1.0))
    x_component = d[..., 0]
    spread = np.max(np.abs(x_component - x_component[:, :1]))
    assert spread < 1e-10


def test_regularizer_floor_perturbs_tails_only():
    # For Gaussian tails the eps floor bends the drift only where rho ~ eps
    g = Grid.make((64, 48), [(-6.0, 6.0), (-6.0, 6.0)], "periodic")
    xs, ys = g.meshgrid()
    fx = np.exp(-((xs - 1.0) ** 2) / 2) + np.exp(-((xs + 1.0) ** 2) / 2)
    fy = np.exp(-(ys**2) / 4)
    psi = WaveField(g, fx * fy)
    d = drift_field(psi, GuidanceParams(lam=1.0))
    x_component = d[..., 0]
    rho = np.abs(psi.values) ** 2
    bulk = rho > 1e-2 * rho.max()
    worst = 0.0
    for i in range(rho.shape[0]):
        row = x_component[i, bulk[i]]
        if row.size > 1:
            worst = max(worst, float(np.ptp(row)))
    assert worst < 1e-9


def test_drift_at_node_and_zero():
    g, x, psi = gaussian_field()
    params = GuidanceParams(lam=1.0)
    d0 = drift_field(psi, params)
    i = 17
    assert interpolate(g, d0, np.array([x[i]]))[0] == d0[i, 0]
    zero = WaveField(g, np.ones_like(psi.values))
    dz = drift_field(zero, params)
    assert np.all(interpolate(g, dz, np.array([0.3])) == 0.0)


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_walkers_and_density_solver_read_one_log_density(boundary):
    # The drift, the face drifts and the stationary density all come from
    # log_density, bit for bit, node cells included.
    g = Grid.make((24, 20), [(-3.0, 3.0), (-2.0, 2.5)], boundary)
    rng = np.random.default_rng(7)
    values = rng.normal(size=g.points) + 1j * rng.normal(size=g.points)
    values[5, :] = 0.0
    psi = WaveField(g, values)
    for params in (GuidanceParams(lam=1.3), GuidanceParams(lam=40.0, epsilon=1e-6, drift_cap=5.0)):
        log_rho = log_density(psi, params)
        assert np.array_equal(np.log(regularized_density(psi, params).values), log_rho)
        assert np.array_equal(drift_field(psi, params),
                              _cap_vectors(params.lam * gradient(g, log_rho), params.drift_cap))
        face_w = FPOperator.from_wavefield(psi, params).face_w
        for k in range(g.dims):
            cells = np.moveaxis(log_rho, k, 0)
            if boundary == "periodic":   # the last face wraps to cell 0
                cells = np.concatenate([cells, cells[:1]])
            assert np.array_equal(np.moveaxis(face_w[k], k, 0), cells[:-1] - cells[1:])
