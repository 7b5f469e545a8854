"""The guidance law: how a wave field becomes the walker's drift and density.

This module is the one place that turns Psi into the regularized density
``rho_eps = |Psi|^2 + eps``; the walkers' drift and the density solver's face
drifts both read its logarithm.  The walker feels the potential
``V = -ln rho_eps`` and drifts with velocity ``lambda * grad ln rho_eps``.  The
additive regularizer is RELATIVE: ``eps = epsilon * max|Psi|^2``, which caps
the barrier height at nodes near ``-ln(epsilon)`` (about 27.6 for the default
1e-12) and makes the drift exactly invariant under rescaling of Psi.
``rho_eps`` is then the exact stationary density of the walker for a static
field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DensityField, WaveField, gradient


@dataclass(frozen=True)
class GuidanceParams:
    """Diffusion constant, relative node regularizer, optional drift cap.

    ``drift_cap`` bounds the Euclidean magnitude of the drift vector
    (length/time); None leaves the regularized drift uncapped.
    """

    lam: float
    epsilon: float = 1e-12
    drift_cap: float | None = None

    def __post_init__(self):
        # lam = 0 is the deterministic limit (no noise, no guidance drift), useful
        # for exercising the integrator; negative diffusion is not, nor NaN or inf.
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam={self.lam} must be nonnegative and finite")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon={self.epsilon} must be positive and finite")
        if self.drift_cap is not None and not 0 < self.drift_cap < np.inf:
            raise ValueError(f"drift_cap={self.drift_cap} must be positive and finite when set")


def regularized_density(psi: WaveField, params: GuidanceParams) -> DensityField:
    """|Psi|^2 + eps, the walker's exact stationary density for static Psi."""
    return DensityField(psi.grid, _rho_eps(psi, params), psi.time)


def log_density(psi: WaveField, params: GuidanceParams) -> np.ndarray:
    """ln(|Psi|^2 + eps) as a raw array: minus the walker's potential."""
    rho = _rho_eps(psi, params)
    return np.log(rho, out=rho)


def drift_field(psi: WaveField, params: GuidanceParams) -> np.ndarray:
    """``lam * grad ln(|Psi|^2 + eps)`` on psi's grid, shape ``(*points, dims)``,
    clipped to ``drift_cap`` when set."""
    vectors = _cap_vectors(params.lam * gradient(psi.grid, log_density(psi, params)),
                           params.drift_cap)
    if not np.all(np.isfinite(vectors)):
        raise ValueError("drift vectors must be finite")
    return vectors


def _rho_eps(psi: WaveField, params: GuidanceParams) -> np.ndarray:
    """|Psi|^2 + epsilon * max|Psi|^2, the only place the regularizer is added."""
    rho = np.abs(psi.values) ** 2
    if not (top := rho.max()) > 0:   # eps would be 0 too, and ln rho_eps -inf
        raise ValueError("|Psi|^2 underflows to zero everywhere")
    rho += params.epsilon * top
    return rho


def _cap_vectors(v: np.ndarray, cap: float | None) -> np.ndarray:
    """Scale vectors (last axis) longer than ``cap`` down to that length, in place."""
    if cap is None:
        return v
    if v.shape[-1] == 1:
        mag = np.abs(v)
    else:
        with np.errstate(over="ignore"):   # rows whose squares overflow are measured again
            mag = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
        if np.count_nonzero(inf := np.isinf(mag)):
            mag[inf] = np.hypot.reduce(v[inf[..., 0]], axis=-1)
    if np.count_nonzero(mag > cap):   # vectors within the cap get cap / cap = 1
        np.maximum(mag, cap, out=mag)
        v *= np.divide(cap, mag, out=mag)
    return v
