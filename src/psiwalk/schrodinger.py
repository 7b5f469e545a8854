"""Wave-field propagation by the split-step Fourier method, plus initial states.

The field obeys  i hbar dPsi/dt = [ -hbar^2/(2m) Laplacian + U(X) ] Psi  on a
periodic grid.  One step of size ``dt`` applies the symmetric Strang splitting

    exp(-i U dt / 2 hbar) . IFFT exp(-i hbar k^2 dt / 2m) FFT . exp(-i U dt / 2 hbar)

which preserves the squared norm to rounding error and is second-order
accurate in ``dt``.  Initial states cover Gaussian packets, the symmetric
two-Gaussian superposition, and eigenstate superpositions obtained by dense
diagonalization of the discretized Hamiltonian (spectral kinetic matrix, so
smooth eigenstates converge far below grid-difference accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PERIODIC, Grid, WaveField, step_count


class UnsupportedPropagatorError(ValueError):
    """Raised when the split-step propagator cannot handle the grid."""


@dataclass(eq=False)
class HamiltonianSpec:
    """Kinetic term plus a local external potential on the grid.

    ``mass`` is one scalar for every axis; ``potential`` is an ndarray on the
    grid (or None for free motion).
    """

    hbar: float = 1.0
    mass: float = 1.0
    potential: np.ndarray | None = None

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.potential is not None:
            self.potential = np.asarray(self.potential, dtype=float)
            if not np.all(np.isfinite(self.potential)):
                raise ValueError("potential must be finite on all grid points")


@dataclass(frozen=True)
class DoubleGaussianParams:
    """Width and half-separation of the symmetric two-Gaussian state."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")


def _require_periodic(grid: Grid):
    if any(b != PERIODIC for b in grid.boundary):
        raise UnsupportedPropagatorError(
            "split-step propagation requires periodic boundaries on every axis"
        )


def _phase_tables(grid: Grid, h: HamiltonianSpec, dt: float):
    """Potential half-step and kinetic full-step phase factors."""
    k2_over_m = np.zeros(grid.points)
    for axis in range(grid.dims):
        k = 2.0 * np.pi * np.fft.fftfreq(grid.points[axis], d=grid.spacing[axis])
        shape = [1] * grid.dims
        shape[axis] = grid.points[axis]
        k2_over_m = k2_over_m + (k**2 / h.mass).reshape(shape)
    exp_kin = np.exp(-0.5j * h.hbar * dt * k2_over_m)
    if h.potential is not None:
        if h.potential.shape != grid.points:
            raise ValueError("potential shape does not match the grid")
        exp_half_pot = np.exp(-0.5j * dt / h.hbar * h.potential)
    else:
        exp_half_pot = None
    return exp_half_pot, exp_kin


def _apply_step(values, exp_half_pot, exp_kin, out):
    if exp_half_pot is not None:
        values = np.multiply(exp_half_pot, values, out=out)
    np.fft.fftn(values, out=out)
    np.multiply(exp_kin, out, out=out)
    np.fft.ifftn(out, out=out)
    if exp_half_pot is not None:
        np.multiply(exp_half_pot, out, out=out)
    return out


def evolve(
    psi: WaveField,
    h: HamiltonianSpec,
    t_final: float,
    dt: float,
    snapshot_stride: int = 1,
) -> list[WaveField]:
    """Propagate from ``psi.time`` to the absolute time ``t_final``, returning
    snapshots every ``snapshot_stride`` steps.

    The snapshot list always includes the initial state and the final state,
    so it has ``ceil(steps / stride) + 1`` entries.  The step count from
    ``psi.time`` to ``t_final`` follows ``grids.step_count``.
    """
    if t_final < psi.time:
        raise ValueError(f"t_final={t_final} precedes the initial time {psi.time}")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    steps = step_count(psi.time, t_final, dt)
    _require_periodic(psi.grid)
    exp_half_pot, exp_kin = _phase_tables(psi.grid, h, dt)

    t0 = psi.time
    snaps = [psi]
    values, out = psi.values, np.empty_like(psi.values)
    for s in range(1, steps + 1):
        values = _apply_step(values, exp_half_pot, exp_kin, out)
        if s % snapshot_stride == 0 or s == steps:
            snaps.append(WaveField(psi.grid, values, t0 + s * dt))
    return snaps


def make_double_gaussian(grid: Grid, p: DoubleGaussianParams) -> WaveField:
    """Unnormalized exp(-(x-b)^2/2a^2) + exp(-(x+b)^2/2a^2) on a 1-d grid.

    The grid extent must cover [-b - 6a, b + 6a]; a tighter box would truncate
    the tails that control escape statistics.
    """
    if grid.dims != 1:
        raise ValueError("the two-Gaussian state is one-dimensional")
    lo, hi = grid.extent[0]
    if lo > -(p.b + 6 * p.a) or hi < p.b + 6 * p.a:
        raise ValueError(
            f"grid extent [{lo}, {hi}] does not cover [-{p.b + 6 * p.a}, {p.b + 6 * p.a}]"
        )
    x = grid.coords(0)
    values = np.exp(-((x - p.b) ** 2) / (2 * p.a**2)) + np.exp(-((x + p.b) ** 2) / (2 * p.a**2))
    return WaveField(grid, values.astype(np.complex128), 0.0)


def make_packet(grid: Grid, center, width: float, momentum=None) -> WaveField:
    """Normalized Gaussian packet exp(-(x-c)^2 / 2 w^2 + i k.x)."""
    if width <= 0:
        raise ValueError("width must be positive (state would not be normalizable)")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dims:
        raise ValueError("center must have one component per dimension")
    if momentum is None:
        momentum = np.zeros(grid.dims)
    momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
    mesh = grid.meshgrid()
    phase = np.zeros(grid.points)
    r2 = np.zeros(grid.points)
    for k in range(grid.dims):
        r2 = r2 + (mesh[k] - center[k]) ** 2
        phase = phase + momentum[k] * mesh[k]
    values = np.exp(-r2 / (2 * width**2) + 1j * phase)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    return WaveField(grid, values / norm, 0.0)


def hamiltonian_matrix(grid: Grid, h: HamiltonianSpec) -> np.ndarray:
    """Dense real-symmetric matrix of the discretized Hamiltonian (1-d).

    The kinetic block is assembled spectrally (FFT of the identity), so its
    eigenvectors carry spectral rather than finite-difference accuracy.
    """
    if grid.dims != 1:
        raise ValueError("dense diagonalization is supported on 1-d grids only")
    _require_periodic(grid)
    n = grid.points[0]
    if n > 4096:
        raise ValueError("grid too large for dense diagonalization")
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[0])
    kin = np.fft.ifft(
        (0.5 * h.hbar**2 * k**2 / h.mass)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0
    )
    mat = np.real(kin)
    mat = 0.5 * (mat + mat.T)
    if h.potential is not None:
        mat = mat + np.diag(h.potential)
    return mat


def eigenbasis(grid: Grid, h: HamiltonianSpec, count: int | None = None):
    """Lowest ``count`` eigenpairs of the grid Hamiltonian.

    States are normalized to unit integral of |phi|^2 and sign-fixed so the
    largest-magnitude component is positive.
    """
    mat = hamiltonian_matrix(grid, h)
    energies, vectors = np.linalg.eigh(mat)
    if count is not None:
        energies, vectors = energies[:count], vectors[:, :count]
    vectors = vectors / np.sqrt(grid.cell_volume)
    for j in range(vectors.shape[1]):
        peak = np.argmax(np.abs(vectors[:, j]))
        if vectors[peak, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return energies, vectors


def make_superposition(grid: Grid, h: HamiltonianSpec, terms) -> WaveField:
    """Sum of eigenstates ``sum_j c_j phi_{n_j}`` from dense diagonalization.

    ``terms`` is an iterable of (coefficient, eigenindex) pairs.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("superposition needs at least one term")
    top = max(idx for _, idx in terms)
    if any(idx < 0 for _, idx in terms):
        raise ValueError("eigenindex must be nonnegative")
    _, vectors = eigenbasis(grid, h, count=top + 1)
    values = np.zeros(grid.points[0], dtype=np.complex128)
    for coef, idx in terms:
        values += coef * vectors[:, idx]
    return WaveField(grid, values, 0.0)
