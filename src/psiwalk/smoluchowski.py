"""Finite-volume solver for the walker's position density.

Solves  dp/dt = lam * div( -grad(ln rho_eps) p + grad p )  in flux form on
the same grids as the Langevin engine, as its deterministic oracle; ln rho_eps
is ``guidance.log_density``, the log-density the walkers' drift is built from.

Scheme.  Per axis face between cells i and i+1 define the dimensionless drift

    w = ln rho_eps(x_i) - ln rho_eps(x_{i+1})

and the flux  G = (lam/dx) * [ gp(w) p_{i+1} - gm(w) p_i ]  with the
Chang-Cooper weights gm(w) = w / (e^w - 1), gp(w) = gm(w) + w.  Because the
face drift is the exact log-density difference of the adjacent cells, the
discrete flux vanishes identically when p is proportional to rho_eps at the
cell centers: the regularized density is the exact stationary state, to
rounding error.  All updates are flux differences, so mass is conserved to
rounding regardless of time step.  The explicit step is positivity-preserving
under its stability bound; backward Euler with per-axis operator splitting
(an M-matrix solve) handles stiff large-lambda runs at any dt.

Time steps.  ``fp_evolve`` follows ``grids.step_plan``, as the walkers do, so
a dt that does not divide a snapshot interval is rejected.

Cost.  An ``FPOperator`` computes its face weights when it is built and its
explicit stability bound on first use.  The first implicit step at a given dt
factors each axis once: all pencils of the axis are laid end to end as one
tridiagonal system with zero coupling between pencils, factored by ``dgttrf``.
A periodic axis also keeps its Sherman-Morrison vector.  Every implicit step
is then one ``dgttrs`` solve per axis, plus a vectorized rank-one correction
on periodic axes.  The operator keeps only the factors of the last dt it was
stepped with.  LAPACK comes from scipy, imported when the first axis is
factored, so explicit steps do not need it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import PERIODIC, DensityField, Grid, WaveField, _shift, step_plan
from .guidance import GuidanceParams, log_density


class StepSizeError(ValueError):
    """Explicit step rejected; carries a suggested stable dt."""

    def __init__(self, dt, suggested_dt):
        self.dt = dt
        self.suggested_dt = suggested_dt
        super().__init__(
            f"dt={dt} violates the explicit stability bound; use dt <= {suggested_dt:.3e} "
            "or the implicit stepper"
        )


def _gm(w: np.ndarray) -> np.ndarray:
    """w / (e^w - 1), stable through w = 0 and for large |w|."""
    wc = np.clip(w, -700.0, 700.0)
    small = np.abs(wc) < 1e-5
    safe = np.where(small, 1.0, wc)
    with np.errstate(over="ignore"):
        out = np.where(small, 1.0 - 0.5 * wc + wc * wc / 12.0, safe / np.expm1(safe))
    return out


def _lo_hi(dims: int, axis: int):
    """Index tuples selecting the low and the high cell of every interior face."""
    lo = [slice(None)] * dims
    hi = [slice(None)] * dims
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


@dataclass(eq=False)
class FPOperator:
    """Discrete drift-diffusion operator for one wave-field snapshot.

    ``face_w[axis]`` holds the dimensionless face drifts; periodic axes have
    one face per cell (the last wraps around), reflecting axes only interior
    faces (wall fluxes vanish).
    """

    grid: Grid
    lam: float
    face_w: list[np.ndarray]
    # (cp, cm) per axis: the weights of (p_hi, p_lo) in the face flux.
    _coeffs: list = field(init=False, repr=False)
    _stable_dt: float | None = field(init=False, repr=False, default=None)
    # (dt, one _AxisSolver per axis) of the last implicit dt, or None.
    _factors: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self._coeffs = []
        for w in self.face_w:
            cm = _gm(w)
            self._coeffs.append((cm + w, cm))

    @classmethod
    def from_log_density(cls, grid: Grid, log_rho: np.ndarray, lam: float) -> "FPOperator":
        if lam <= 0:
            raise ValueError("lam must be positive")
        face_w = []
        for axis in range(grid.dims):
            if grid.boundary[axis] == PERIODIC:
                face_w.append(log_rho - _shift(log_rho, -1, axis))
            else:
                lo, hi = _lo_hi(grid.dims, axis)
                face_w.append(log_rho[lo] - log_rho[hi])
        return cls(grid=grid, lam=lam, face_w=face_w)

    @classmethod
    def from_wavefield(cls, psi: WaveField, params: GuidanceParams) -> "FPOperator":
        return cls.from_log_density(psi.grid, log_density(psi, params), params.lam)

    def _face_flux(self, axis: int, p: np.ndarray) -> np.ndarray:
        """(lam/dx) * (cp p_hi - cm p_lo) through every face of ``axis``."""
        cp, cm = self._coeffs[axis]
        dx = self.grid.spacing[axis]
        if self.grid.boundary[axis] == PERIODIC:
            return (self.lam / dx) * (cp * _shift(p, -1, axis) - cm * p)
        lo, hi = _lo_hi(self.grid.dims, axis)
        return (self.lam / dx) * (cp * p[hi] - cm * p[lo])

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Flux divergence: the right-hand side of dp/dt."""
        out = np.zeros_like(p)
        for axis in range(self.grid.dims):
            dx = self.grid.spacing[axis]
            flux = self._face_flux(axis, p)
            if self.grid.boundary[axis] == PERIODIC:
                out += (flux - _shift(flux, 1, axis)) / dx
            else:
                lo, hi = _lo_hi(self.grid.dims, axis)
                out[lo] += flux / dx
                out[hi] -= flux / dx
        return out

    def flux_max(self, p: np.ndarray) -> float:
        """Largest face-flux magnitude; zero at the discrete equilibrium."""
        return max(float(np.max(np.abs(self._face_flux(axis, p))))
                   for axis in range(self.grid.dims))

    def stable_dt(self) -> float:
        """Largest explicit dt keeping the update a nonnegative combination."""
        if self._stable_dt is None:
            diag = np.zeros(self.grid.points)
            for axis, (cp, cm) in enumerate(self._coeffs):
                c = self.lam / self.grid.spacing[axis] ** 2
                if self.grid.boundary[axis] == PERIODIC:
                    diag += c * (cm + _shift(cp, 1, axis))
                else:
                    lo, hi = _lo_hi(self.grid.dims, axis)
                    contrib = np.zeros(self.grid.points)
                    contrib[lo] += c * cm
                    contrib[hi] += c * cp
                    diag += contrib
            peak = float(diag.max())
            self._stable_dt = np.inf if peak == 0 else 1.0 / peak
        return self._stable_dt

    def _solvers(self, dt: float) -> list["_AxisSolver"]:
        """Per-axis backward-Euler factors for ``dt``, built on first use."""
        if self._factors is None or self._factors[0] != dt:
            self._factors = (dt, [_AxisSolver(self, axis, dt) for axis in range(self.grid.dims)])
        return self._factors[1]


class _AxisSolver:
    """Backward-Euler matrix of one axis, factored once for all its pencils.

    The pencils (the 1-d lines of cells along the axis) are laid end to end as
    one tridiagonal system whose entries between pencils are zero, so a single
    ``dgttrs`` call solves every pencil.  A periodic pencil is cyclic: its
    tridiagonal part is modified as in the Sherman-Morrison method, and the
    rank-one correction ``z`` and ``1 + v.z`` are kept per pencil.
    """

    def __init__(self, op: FPOperator, axis: int, dt: float):
        from scipy.linalg.lapack import dgttrf, dgttrs

        grid = op.grid
        cp, cm = op._coeffs[axis]
        self.axis = axis
        scale = dt * op.lam / grid.spacing[axis] ** 2
        # Pencil layout: the axis swapped to the end, one pencil per row.
        cp = cp.swapaxes(axis, -1)
        cp = cp.reshape(-1, cp.shape[-1])
        cm = cm.swapaxes(axis, -1).reshape(cp.shape[0], -1)
        m, n = cp.shape[0], grid.points[axis]
        self.periodic = grid.boundary[axis] == PERIODIC
        sub = np.zeros((m, n))      # entry (i, i-1) of each pencil
        sup = np.zeros((m, n))      # entry (i, i+1)
        if self.periodic:
            sup[:, :-1] = -scale * cp[:, :-1]           # face i couples cell i to i+1
            sub[:, 1:] = -scale * cm[:, :-1]
            diag = 1.0 + scale * (cm + _shift(cp, 1, 1))
            corner_lo = -scale * cm[:, -1]              # (0, n-1): inflow through wrap face
            corner_hi = -scale * cp[:, -1]              # (n-1, 0)
            gamma = -diag[:, 0]
            diag[:, 0] -= gamma
            diag[:, -1] -= corner_lo * corner_hi / gamma
        else:
            diag = np.ones((m, n))
            diag[:, :-1] += scale * cm
            diag[:, 1:] += scale * cp
            sup[:, :-1] = -scale * cp
            sub[:, 1:] = -scale * cm
        # The last row of each pencil couples to nothing in the next pencil.
        # Each column is diagonally dominant, so dgttrf never swaps rows and
        # performs the same operations as a separate tridiagonal solve per pencil.
        *self.lu, info = dgttrf(sub.ravel()[1:], diag.ravel(), sup.ravel()[:-1])
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        self.dgttrs = dgttrs
        if self.periodic:
            u = np.zeros((m, n))
            u[:, 0] = gamma
            u[:, -1] = corner_hi
            self.z = self._solve(u)
            self.ratio = corner_lo / gamma
            self.denom = 1.0 + (self.z[:, 0] + self.ratio * self.z[:, -1])

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Tridiagonal solve of every pencil; ``rhs`` has shape (m, n)."""
        x, _ = self.dgttrs(*self.lu, rhs.reshape(-1, 1))
        return x.reshape(rhs.shape)

    def solve(self, values: np.ndarray) -> np.ndarray:
        moved = values.swapaxes(self.axis, -1)
        y = self._solve(moved.reshape(-1, moved.shape[-1]))
        if self.periodic:
            v_dot_y = y[:, 0] + self.ratio * y[:, -1]
            y -= (v_dot_y / self.denom)[:, None] * self.z
        return y.reshape(moved.shape).swapaxes(self.axis, -1)


def fp_step(p: DensityField, op: FPOperator, dt: float) -> DensityField:
    """One explicit step; rejects dt beyond the positivity/stability bound."""
    if p.grid != op.grid:
        raise ValueError("density and operator grids differ")
    bound = op.stable_dt()
    if dt > bound * (1.0 + 1e-12):
        raise StepSizeError(dt, 0.9 * bound)
    values = p.values + dt * op.apply(p.values)
    if values.min() < 0:
        values = np.maximum(values, 0.0)  # rounding dust only, under the bound
    return DensityField(p.grid, values, p.time + dt)


def fp_step_implicit(p: DensityField, op: FPOperator, dt: float) -> DensityField:
    """Backward-Euler step split per axis; stable and positive at any dt.

    The per-axis solves run in a fixed dimension order so the result is
    schedule-independent.
    """
    if p.grid != op.grid:
        raise ValueError("density and operator grids differ")
    values = p.values
    for solver in op._solvers(dt):
        values = solver.solve(values)
    if values.min() < 0:
        values = np.maximum(values, 0.0)
    return DensityField(op.grid, values, p.time + dt)


def fp_evolve(
    p0: DensityField,
    psi_snapshots,
    params: GuidanceParams,
    dt: float,
    t_final: float,
    method: str = "auto",
    snapshot_stride: int = 1,
) -> list[DensityField]:
    """Evolve the density against a sequence of wave-field snapshots.

    Steps follow ``grids.step_plan`` from ``p0.time`` to ``t_final``; each
    segment's operator is built from its governing snapshot, and only the
    current one and its factors are held.  ``method`` is "explicit",
    "implicit", or "auto" (explicit when dt is within the stability bound).
    Returns density snapshots every ``snapshot_stride`` steps, always
    including the initial and final states.
    """
    if method not in ("explicit", "implicit", "auto"):
        raise ValueError(f"unknown stepping method {method!r}")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    if t_final < p0.time:
        raise ValueError(f"t_final={t_final} precedes the initial time {p0.time}")
    plan = step_plan(psi_snapshots, p0.time, t_final, dt)
    total = sum(steps for _, steps in plan)
    out, p, done = [p0], p0, 0   # done: steps taken
    for psi, steps in plan:
        op = FPOperator.from_wavefield(psi, params)
        explicit = method == "explicit" or method == "auto" and dt <= op.stable_dt()
        step = fp_step if explicit else fp_step_implicit
        for _ in range(steps):
            p = step(p, op, dt)
            done += 1
            if done % snapshot_stride == 0 or done == total:
                out.append(p)
    return out
