import numpy as np
import pytest

from psiwalk import (
    Grid,
    GuidanceParams,
    WaveField,
    drift_field,
    regularized_density,
)

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
