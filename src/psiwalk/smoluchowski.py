"""Finite-volume solver for the walker's position density.

Solves  dp/dt = lam * div( -grad(ln rho_eps) p + grad p )  in flux form on
the same grids as the Langevin engine, as its deterministic oracle; ln rho_eps
is ``guidance.log_density``, the log-density the walkers' drift is built from.

Scheme.  Per axis face between cells i and i+1 define the dimensionless drift

    w = ln rho_eps(x_i) - ln rho_eps(x_{i+1})

and the flux  G = (lam/dx) * [ gp(w) p_{i+1} - gm(w) p_i ]  with the
Chang-Cooper weights gm(w) = w / (e^w - 1), gp(w) = gm(w) + w.  Each axis
has one face per cell, past cell i.  On a periodic axis the last face wraps
to cell 0; on a reflecting axis it is the wall, whose weights are zero, so
both boundaries share one flux, divergence and stability bound.  Because the
face drift is the exact log-density difference of the adjacent cells, the
discrete flux vanishes identically when p is proportional to rho_eps at the
cell centers: the regularized density is the exact stationary state, to
rounding error.  All updates are flux differences, so mass is conserved to
rounding regardless of time step.  The explicit step is positivity-preserving
under its stability bound; backward Euler with per-axis operator splitting
(an M-matrix solve) handles stiff large-lambda runs at any dt.

Time steps.  ``fp_evolve`` steps by ``grids.step_plan`` and checkpoints by
``grids.checkpoint_steps``, as the walkers do.

Cost.  An ``FPOperator`` computes its face weights when it is built and its
explicit stability bound on first use.  The first implicit step at a given dt
factors each axis once: all pencils of the axis are laid end to end as one
tridiagonal system with zero coupling between pencils, factored by ``dgttrf``.
A periodic axis also keeps its Sherman-Morrison vector.  Every implicit step
is then one ``dgttrs`` solve per axis, plus a vectorized rank-one correction
on periodic axes.  The operator keeps only the factors of the last dt it was
stepped with.  LAPACK comes from scipy, imported when the first axis is
factored, so explicit steps do not need it.

A lambda sweep (one epsilon, several lambda) steps in lockstep.  None of the
log density, the face drifts or the Chang-Cooper weights depends on lambda,
so each snapshot builds them once and every lambda's operator shares them.
The implicit lambda values are factored together: every lambda's pencils are
laid end to end in one system per axis, each block scaled by its own
dt * lambda / dx^2, so one ``dgttrs`` solve and one rank-one correction per
axis step them all, with the same operations as separate solves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .grids import PERIODIC, DensityField, Grid, WaveField, _check_finite, _shift, checkpoint_steps, step_plan
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


@dataclass(eq=False)
class FPOperator:
    """Discrete drift-diffusion operator for one wave-field snapshot.

    ``face_w[axis]`` holds the dimensionless face drifts: one face per cell on
    a periodic axis (the last wraps around), the interior faces on a reflecting
    one, whose wall face past the last cell gets zero weights in ``_coeffs``.
    """

    grid: Grid
    lam: float
    face_w: list[np.ndarray]
    # (cp, cm) per axis: the weights of (p_hi, p_lo) in the face flux, one face
    # per cell; a reflecting axis appends its wall face, whose weights are zero.
    _coeffs: list = field(init=False, repr=False)
    _stable_dt: float | None = field(init=False, repr=False, default=None)
    # ((dt, the lam of each operator solved with), one _AxisSolver per axis)
    # of the last implicit step, or None.
    _factors: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self._coeffs = []
        for axis, w in enumerate(self.face_w):
            cm = _gm(w)
            coeffs = (cm + w, cm)
            if self.grid.boundary[axis] != PERIODIC:
                wall = np.zeros(w.shape[:axis] + (1,) + w.shape[axis + 1:])
                coeffs = tuple(np.concatenate((c, wall), axis=axis) for c in coeffs)
            self._coeffs.append(coeffs)

    @classmethod
    def from_log_density(cls, grid: Grid, log_rho: np.ndarray, lam: float) -> "FPOperator":
        if lam <= 0:
            raise ValueError("lam must be positive")
        face_w = []
        for axis in range(grid.dims):
            w = log_rho - _shift(log_rho, -1, axis)
            if grid.boundary[axis] != PERIODIC:   # the wrap face is a wall
                w = w[(slice(None),) * axis + (slice(None, -1),)]
            face_w.append(w)
        return cls(grid=grid, lam=lam, face_w=face_w)

    @classmethod
    def from_wavefield(cls, psi: WaveField, params: GuidanceParams) -> "FPOperator":
        return cls.from_log_density(psi.grid, log_density(psi, params), params.lam)

    def _with_lam(self, lam: float) -> "FPOperator":
        """This operator at another lam, sharing its face drifts and weights."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        op = copy.copy(self)
        op.lam, op._stable_dt, op._factors = lam, None, None
        return op

    def _face_flux(self, axis: int, p: np.ndarray) -> np.ndarray:
        """(lam/dx) * (cp p_hi - cm p_lo) through every face of ``axis``."""
        cp, cm = self._coeffs[axis]
        return (self.lam / self.grid.spacing[axis]) * (cp * _shift(p, -1, axis) - cm * p)

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Flux divergence: the right-hand side of dp/dt."""
        out = np.zeros_like(p)
        for axis in range(self.grid.dims):
            flux = self._face_flux(axis, p)
            out += (flux - _shift(flux, 1, axis)) / self.grid.spacing[axis]
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
                diag += c * (cm + _shift(cp, 1, axis))
            peak = float(diag.max())
            self._stable_dt = np.inf if peak == 0 else 1.0 / peak
        return self._stable_dt

    def _solvers(self, dt: float, ops: list | None = None) -> list["_AxisSolver"]:
        """Per-axis backward-Euler factors for ``dt``, built on first use.

        ``ops`` is a lambda sweep led by this operator, whose weights every
        member shares; its factors solve every member's pencils at once.
        """
        ops = ops or [self]
        key = (dt, [op.lam for op in ops])
        if self._factors is None or self._factors[0] != key:
            self._factors = (key, [_AxisSolver(ops, axis, dt) for axis in range(self.grid.dims)])
        return self._factors[1]


class _AxisSolver:
    """Backward-Euler matrix of one axis, factored once for all its pencils.

    The pencils (the 1-d lines of cells along the axis) are laid end to end as
    one tridiagonal system whose entries between pencils are zero, so a single
    ``dgttrs`` call solves every pencil.  The pencils of a lambda sweep's
    operators follow one another, operator by operator, each scaled by its
    own lambda.  A periodic pencil is cyclic: its tridiagonal part is
    modified as in the Sherman-Morrison method, and the rank-one correction
    ``z`` and ``1 + v.z`` are kept per pencil.
    """

    def __init__(self, ops: list[FPOperator], axis: int, dt: float):
        from scipy.linalg.lapack import dgttrf, dgttrs

        grid = ops[0].grid
        cp, cm = ops[0]._coeffs[axis]
        # counted from the end, so a sweep's values may stack their lambda first
        self.axis = axis - grid.dims
        # Pencil layout: the axis swapped to the end, one pencil per row,
        # repeated once per operator.
        cp = cp.swapaxes(axis, -1)
        cp = cp.reshape(-1, cp.shape[-1])
        cm = cm.swapaxes(axis, -1).reshape(cp.shape)
        scale = np.repeat([dt * op.lam / grid.spacing[axis] ** 2 for op in ops],
                          cp.shape[0])[:, None]
        cp, cm = np.tile(cp, (len(ops), 1)), np.tile(cm, (len(ops), 1))
        m, n = cp.shape
        self.periodic = grid.boundary[axis] == PERIODIC
        sub = np.zeros((m, n))      # entry (i, i-1) of each pencil
        sup = np.zeros((m, n))      # entry (i, i+1)
        sup[:, :-1] = -scale * cp[:, :-1]               # face i couples cell i to i+1
        sub[:, 1:] = -scale * cm[:, :-1]
        cp_prev = _shift(cp, 1, 1)                      # the face below each cell
        if self.periodic:
            diag = 1.0 + scale * (cm + cp_prev)
            corner_lo = -scale[:, 0] * cm[:, -1]        # (0, n-1): inflow through wrap face
            corner_hi = -scale[:, 0] * cp[:, -1]        # (n-1, 0)
            gamma = -diag[:, 0]
            diag[:, 0] -= gamma
            diag[:, -1] -= corner_lo * corner_hi / gamma
        else:   # summed term by term, as a tridiagonal solve per pencil sums it
            diag = 1.0 + scale * cm + scale * cp_prev
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
        """Every pencil of ``values``: one grid's, or a sweep's stacked along a
        leading axis in operator order."""
        moved = values.swapaxes(self.axis, -1)
        y = self._solve(moved.reshape(-1, moved.shape[-1]))
        if self.periodic:
            v_dot_y = y[:, 0] + self.ratio * y[:, -1]
            y -= (v_dot_y / self.denom)[:, None] * self.z
        return y.reshape(moved.shape).swapaxes(self.axis, -1)


def _densities(grid: Grid, values: np.ndarray, times) -> list[DensityField]:
    """Fresh step results, one per row of ``values``, as DensityFields without a copy."""
    if _check_finite(values, "density values")[0] < 0:
        for row in values:
            if row.min() < 0:
                np.maximum(row, 0.0, out=row)   # rounding dust only
    return [DensityField._adopt(grid, row, t) for row, t in zip(values, times)]


def fp_step(p: DensityField, op: FPOperator, dt: float) -> DensityField:
    """One explicit step; rejects dt beyond the positivity/stability bound."""
    if p.grid != op.grid:
        raise ValueError("density and operator grids differ")
    bound = op.stable_dt()
    if dt > bound * (1.0 + 1e-12):
        raise StepSizeError(dt, 0.9 * bound)
    return _densities(p.grid, (p.values + dt * op.apply(p.values))[None], [p.time + dt])[0]


def fp_step_implicit(p: DensityField | list[DensityField], op: FPOperator | list[FPOperator],
                     dt: float) -> DensityField | list[DensityField]:
    """Backward-Euler step split per axis; stable and positive at any dt.

    ``p`` and ``op`` are one DensityField and its FPOperator, or equal-length
    sequences of them: a lambda sweep, whose operators are built from one
    snapshot and differ only in lambda.  A sweep takes one solve per axis for
    all its densities and returns the list of stepped densities, each
    bit-identical to a step of its own.  The per-axis solves run in a fixed
    dimension order so the result is schedule-independent.
    """
    single = isinstance(p, DensityField)
    ps, ops = ([p], [op]) if single else (list(p), list(op))
    if not ops or len(ps) != len(ops):
        raise ValueError(f"a sweep needs one operator per density, got {len(ps)} densities "
                         f"and {len(ops)} operators")
    first = ops[0]
    for q, o in zip(ps, ops):
        if q.grid is not o.grid and q.grid != o.grid:
            raise ValueError("density and operator grids differ")
        if o._coeffs is not first._coeffs and not (
                o.grid == first.grid and all(map(np.array_equal, o.face_w, first.face_w))):
            raise ValueError("the operators of a sweep must differ only in lam")
    values = np.array([q.values for q in ps])
    for solver in first._solvers(dt, ops):
        values = solver.solve(values)
    out = _densities(first.grid, values, [q.time + dt for q in ps])
    return out[0] if single else out


def fp_evolve(
    p0: DensityField,
    psi_snapshots,
    params: GuidanceParams | list[GuidanceParams],
    dt: float,
    t_final: float,
    method: str = "auto",
    checkpoint_times=None,
) -> list[DensityField] | list[list[DensityField]]:
    """Evolve the density against a sequence of wave-field snapshots.

    Steps follow ``grids.step_plan`` from ``p0.time`` to ``t_final``; each
    segment's operator is built from its governing snapshot, and only the
    current one and its factors are held.  ``method`` is "explicit",
    "implicit", or "auto" (explicit when dt is within the stability bound).
    Returns the density, timed by its accumulated steps, at each of
    ``checkpoint_times`` (None: ``t_final`` alone) in the order given, repeats
    allowed, placed by the walkers' rule ``grids.checkpoint_steps`` (``p0``
    itself at ``p0.time``); it holds only those and the current density.

    ``params`` is one GuidanceParams, or a sequence of them sharing one
    epsilon: a lambda sweep from the common ``p0``.  A sweep returns one
    density list per lambda, in order, each bit-identical to a run of its own;
    each lambda picks its method as its own run would.  Its lambda values step
    in lockstep: every snapshot builds the face weights once for all, and each
    step makes one ``fp_step_implicit`` call for every implicit lambda.
    """
    single = isinstance(params, GuidanceParams)
    sweep = [params] if single else list(params)
    if not sweep:
        raise ValueError("a lam sweep needs at least one GuidanceParams")
    if len({q.epsilon for q in sweep}) > 1:
        raise ValueError("the GuidanceParams of a lam sweep must share one epsilon, got "
                         f"{[q.epsilon for q in sweep]}")
    if method not in ("explicit", "implicit", "auto"):
        raise ValueError(f"unknown stepping method {method!r}")
    plan = step_plan(psi_snapshots, p0.time, t_final, dt)
    marks = checkpoint_steps((t_final,) if checkpoint_times is None else checkpoint_times,
                             p0.time, t_final, dt, sum(steps for _, steps in plan))
    wanted, ps, done = set(marks), [p0] * len(sweep), 0   # done: steps taken
    kept = {0: list(ps)} if 0 in wanted else {}   # step -> the densities then
    for psi, steps in plan:
        first = FPOperator.from_wavefield(psi, sweep[0])
        ops = [first] + [first._with_lam(q.lam) for q in sweep[1:]]
        explicit = [k for k, op in enumerate(ops)
                    if method == "explicit" or method == "auto" and dt <= op.stable_dt()]
        implicit = [k for k in range(len(ops)) if k not in explicit]
        implicit_ops = [ops[k] for k in implicit]
        for _ in range(steps):
            if implicit:
                stepped = fp_step_implicit([ps[k] for k in implicit], implicit_ops, dt)
                for k, q in zip(implicit, stepped):
                    ps[k] = q
            for k in explicit:
                ps[k] = fp_step(ps[k], ops[k], dt)
            done += 1
            if done in wanted:
                kept[done] = list(ps)
    outs = [[kept[k][j] for k in marks] for j in range(len(sweep))]
    return outs[0] if single else outs
