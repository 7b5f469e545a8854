"""Conversion of a wave field into the particle's potential and drift.

The walker feels the potential ``V = -ln(|Psi|^2 + eps)`` and drifts with
velocity ``lambda * grad ln(|Psi|^2 + eps)``.  The additive regularizer
``eps`` is RELATIVE: the value added to |Psi|^2 is ``epsilon * max|Psi|^2``,
which caps the barrier height at nodes near ``-ln(epsilon)`` (about 27.6 for
the default 1e-12) and makes the drift exactly invariant under rescaling of
Psi.  The regularized density ``|Psi|^2 + eps`` is then the exact stationary
density of the walker for a static field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DensityField, WaveField, gradient_log


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
        # lam = 0 is the deterministic limit (no noise, no guidance drift),
        # useful for exercising the integrator; negative diffusion is not.
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.drift_cap is not None and self.drift_cap <= 0:
            raise ValueError("drift_cap must be positive when set")

    def effective_epsilon(self, density_max: float) -> float:
        scale = density_max if density_max > 0 else 1.0
        return self.epsilon * scale


def regularized_density(psi: WaveField, params: GuidanceParams) -> DensityField:
    """|Psi|^2 + eps, the walker's exact stationary density for static Psi."""
    rho = np.abs(psi.values) ** 2
    eps = params.effective_epsilon(float(rho.max()))
    return DensityField(psi.grid, rho + eps, psi.time)


def drift_field(psi: WaveField, params: GuidanceParams) -> np.ndarray:
    """``lam * grad ln(|Psi|^2 + eps)`` on psi's grid, shape ``(*points, dims)``,
    clipped to ``drift_cap`` when set."""
    rho = DensityField(psi.grid, np.abs(psi.values) ** 2, psi.time)
    eps = params.effective_epsilon(float(rho.values.max()))
    vectors = _cap_vectors(params.lam * gradient_log(rho, eps), params.drift_cap)
    if not np.all(np.isfinite(vectors)):
        raise ValueError("drift vectors must be finite")
    return vectors


def _cap_vectors(v: np.ndarray, cap: float | None) -> np.ndarray:
    """Scale vectors (last axis) longer than ``cap`` down to that length, in place."""
    if cap is None:
        return v
    mag = v * v if v.shape[-1] == 1 else np.sum(v * v, axis=-1, keepdims=True)
    if (np.sqrt(mag, out=mag) > cap).any():   # vectors within the cap get cap / cap = 1
        np.maximum(mag, cap, out=mag)
        v *= np.divide(cap, mag, out=mag)
    return v
