"""Uniform rectangular grids and the density and wave fields living on them.

Conventions
-----------
A grid covers a box in 1 to 3 dimensions with ``n_k`` points per axis and
spacing ``dx_k = (hi_k - lo_k) / n_k``.  Coordinate placement depends on the
boundary type of the axis:

* periodic axes place points at ``lo + i*dx`` (no duplicated endpoint, so
  FFT wave numbers are exact),
* reflecting axes place points at cell centers ``lo + (i + 1/2)*dx`` (the
  walls sit exactly on the extent edges, natural for finite volumes).

Either way every point owns one cell of volume ``prod(dx)``, so quadrature
is a plain sum times the cell volume and is exact for constants.  A field
checks its values with one min and one max reduction when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PERIODIC = "periodic"
REFLECTING = "reflecting"

# Construction-time guard: a complex field on this many points is ~1 GiB.
_MAX_TOTAL_POINTS = 2**26


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular discretization of a boxed configuration space."""

    points: tuple[int, ...]
    extent: tuple[tuple[float, float], ...]
    boundary: tuple[str, ...]

    def __post_init__(self):
        dims = len(self.points)
        if not 1 <= dims <= 3:
            raise ValueError(f"grid must have 1..3 dimensions, got {dims}")
        if len(self.extent) != dims or len(self.boundary) != dims:
            raise ValueError("points, extent and boundary must have equal length")
        for n in self.points:
            if int(n) != n or n < 8:
                raise ValueError(f"need at least 8 points per axis, got {n}")
        for lo, hi in self.extent:
            if not (hi > lo and math.isfinite(hi - lo)):   # an infinite end or width fails
                raise ValueError(f"extent must be finite with hi > lo, got ({lo}, {hi})")
        for b in self.boundary:
            if b not in (PERIODIC, REFLECTING):
                raise ValueError(f"boundary must be '{PERIODIC}' or '{REFLECTING}', got {b!r}")
        total = int(np.prod(self.points))
        if total > _MAX_TOTAL_POINTS:
            raise ValueError(f"grid has {total} points, exceeding the {_MAX_TOTAL_POINTS} limit")

    @classmethod
    def make(cls, points, extent, boundary=PERIODIC) -> "Grid":
        """Build a grid, broadcasting scalar arguments across dimensions.

        ``points`` may be an int or sequence; ``extent`` a (lo, hi) pair or a
        sequence of pairs; ``boundary`` a string or sequence of strings.
        """
        if np.isscalar(points):
            points = (points,)
        points = tuple(int(n) for n in points)
        dims = len(points)
        extent = np.asarray(extent, dtype=float)
        if extent.ndim == 1:
            extent = np.tile(extent, (dims, 1))
        extent = tuple((float(lo), float(hi)) for lo, hi in extent)
        if isinstance(boundary, str):
            boundary = (boundary,) * dims
        return cls(points=points, extent=extent, boundary=tuple(boundary))

    @property
    def dims(self) -> int:
        return len(self.points)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.extent, self.points))

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for dx in self.spacing:
            vol *= dx
        return vol

    def coords(self, axis: int) -> np.ndarray:
        """Coordinate array along one axis (placement depends on boundary)."""
        lo, hi = self.extent[axis]
        n = self.points[axis]
        dx = (hi - lo) / n
        offset = 0.0 if self.boundary[axis] == PERIODIC else 0.5
        return lo + (np.arange(n) + offset) * dx

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[self.coords(k) for k in range(self.dims)], indexing="ij"))

    def fold(self, x: np.ndarray) -> np.ndarray:
        """Map arbitrary positions back into the box.

        Periodic axes wrap; reflecting axes mirror-fold, so a proposed move
        past a wall bounces back by the overshoot distance.  Positions already
        inside the box are returned bitwise unchanged, and a 2-d float64 array
        whose every row is inside is returned itself; a non-finite coordinate
        folds to NaN.
        """
        if not (type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64):
            x = np.atleast_2d(np.asarray(x, dtype=float))
        out = None
        for k, lo, hi, periodic in self._walls:
            col = x[:, k]
            # NaN propagates through min/max and fails these tests, as it fails ``inside``.
            top = col.max(initial=lo)
            if col.min(initial=lo) >= lo and (top < hi if periodic else top <= hi):
                continue
            if out is None:
                out = x.copy(order="K")   # keeps a column-major caller's layout
            span = hi - lo
            with np.errstate(invalid="ignore"):   # inf % span is NaN
                if periodic:
                    inside = (col >= lo) & (col < hi)
                    # The wrap can round up onto hi itself, which is lo's image.
                    wrapped = (col - lo) % span + lo
                    out[:, k] = np.where(inside, col, np.where(wrapped < hi, wrapped, lo))
                else:
                    inside = (col >= lo) & (col <= hi)
                    y = (col - lo) % (2.0 * span)
                    folded = lo + np.where(y > span, 2.0 * span - y, y)
                    out[:, k] = np.where(inside, col, folded)
        return x if out is None else out

    @cached_property
    def _walls(self) -> tuple:
        """``(axis, lo, hi, periodic)`` of each axis, as ``fold`` reads them."""
        return tuple((k, lo, hi, b == PERIODIC)
                     for k, ((lo, hi), b) in enumerate(zip(self.extent, self.boundary)))

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Index of the cell owning each (already folded) position, shape (m, dims)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        idx = np.empty(x.shape, dtype=np.int64)
        for k in range(self.dims):
            lo, hi = self.extent[k]
            n = self.points[k]
            dx = (hi - lo) / n
            if self.boundary[k] == PERIODIC:
                idx[:, k] = np.floor((x[:, k] - lo) / dx + 0.5).astype(np.int64) % n
            else:
                idx[:, k] = np.clip(np.floor((x[:, k] - lo) / dx).astype(np.int64), 0, n - 1)
        return idx


def _check_finite(values, what):
    """The smallest and largest of ``values``, which NaN and infinities make non-finite."""
    lo, hi = np.minimum.reduce(values, axis=None), np.maximum.reduce(values, axis=None)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} must be finite everywhere")
    return lo, hi


def _shift(values: np.ndarray, step: int, axis: int) -> np.ndarray:
    """``np.roll(values, step, axis)`` as one concatenation of two slices."""
    head = (slice(None),) * axis
    return np.concatenate((values[head + (slice(-step, None),)],
                           values[head + (slice(None, -step),)]), axis=axis)


class DensityField:
    """Nonnegative real field (a probability density, possibly unnormalized)
    sampled on a grid; immutable after construction."""

    kind = "density"

    def __init__(self, grid: Grid, values, time: float = 0.0):
        values = np.array(values, dtype=np.float64, copy=True)
        if values.shape != grid.points:
            raise ValueError(f"values shape {values.shape} does not match grid points {grid.points}")
        if _check_finite(values, "density values")[0] < 0:
            raise ValueError("density values must be nonnegative")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.time = float(time)

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray, time: float) -> "DensityField":
        """Wrap a fresh float64 array of ``grid.points``, which the caller has
        checked finite and nonnegative, without copying it."""
        field = cls.__new__(cls)
        values.setflags(write=False)
        field.grid, field.values, field.time = grid, values, float(time)
        return field

    def total(self) -> float:
        """Quadrature: the sum of the values times the cell volume.

        Exact for constants on any grid (every point owns one equal cell).
        """
        return float(self.values.sum()) * self.grid.cell_volume

    def normalized(self) -> "DensityField":
        z = self.total()
        if z <= 0:
            raise ValueError("cannot normalize a density with zero mass")
        return DensityField(self.grid, self.values / z, self.time)


class WaveField:
    """Complex field on a grid at a given time; immutable after construction."""

    kind = "wave"

    def __init__(self, grid: Grid, values, time: float = 0.0):
        values = np.array(values, dtype=np.complex128, copy=True)
        if values.shape != grid.points:
            raise ValueError(f"values shape {values.shape} does not match grid points {grid.points}")
        if _check_finite(values.view(np.float64), "wave values") == (0, 0):
            raise ValueError("wave field must have positive squared norm")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.time = float(time)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2)) * self.grid.cell_volume


def _check_dt(dt: float) -> None:
    """Reject a step size that is not positive and finite, as every engine does."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt={dt} must be a positive finite number")


def step_count(t0: float, t1: float, dt: float) -> int:
    """Number of ``dt`` steps from ``t0`` to ``t1``: the one step rule of every engine.

    ``dt`` must be positive and finite, the steps must be finitely many and span
    ``t1 - t0`` to within ``1e-9 * max(1, |t1 - t0|)``, and a positive span takes
    at least one step; anything else raises ValueError.
    """
    _check_dt(dt)
    span = t1 - t0
    steps = int(round(ratio)) if math.isfinite(ratio := span / dt) else -1   # -1 fails below
    if steps < 0 or abs(steps * dt - span) > 1e-9 * max(1.0, abs(span)) or (span > 0 and not steps):
        raise ValueError(f"dt={dt} does not divide the interval [{t0}, {t1}]")
    return steps


def step_plan(snapshots, t0: float, t1: float, dt: float) -> list:
    """``[(snapshot, steps)]`` stepping ``dt`` from ``t0`` to ``t1`` through
    piecewise-constant snapshots (anything with a ``time``, or one WaveField).

    Each step uses the latest snapshot at or before its start (1e-12 slack),
    or else the first.  Every stretch between ``t0``, the snapshot times
    inside (t0, t1) and ``t1`` takes the :func:`step_count` of its steps.
    """
    snapshots = sorted([snapshots] if isinstance(snapshots, WaveField) else snapshots,
                       key=lambda s: s.time)
    if not snapshots:
        raise ValueError("need at least one wave-field snapshot")
    plan, start, current = [], t0, snapshots[0]
    for snap in snapshots[1:]:
        if snap.time >= t1 - 1e-12:
            break
        if snap.time > t0 + 1e-12:
            plan.append((current, step_count(start, snap.time, dt)))
            start = snap.time
        current = snap
    plan.append((current, step_count(start, t1, dt)))
    return [(snap, steps) for snap, steps in plan if steps]


def gradient(grid: Grid, values) -> np.ndarray:
    """Gradient of ``values`` on ``grid``, shape ``(*points, dims)``.

    Central differences in the interior; periodic axes wrap, reflecting axes
    use second-order one-sided stencils at the walls.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(grid.points + (grid.dims,))
    for k in range(grid.dims):
        # Both views put axis k first, so one set of stencils serves every axis.
        v, g = np.moveaxis(values, k, 0), np.moveaxis(out[..., k], k, 0)
        g[1:-1] = v[2:] - v[:-2]
        if grid.boundary[k] == PERIODIC:
            g[0] = v[1] - v[-1]
            g[-1] = v[0] - v[-2]
        else:
            g[0] = -3.0 * v[0] + 4.0 * v[1] - v[2]
            g[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
        g /= 2.0 * grid.spacing[k]
    return out


class _Interpolant:
    """Multilinear interpolation of grid data, ``(*points,)`` or ``(*points, v)``,
    at ``(m, dims)`` in-box points, returning ``(m, v)``.  Reflecting axes use
    the edge value in their outer half-cells, never extrapolation; a query on
    a grid point returns the stored value bit-for-bit.

    The data is stored as one contiguous C-order table per component, and
    periodic axes carry copies of their first two slices at the end, so an
    in-box query's lower node is in [0, n] without a modulo (n, node 0's copy,
    takes weight 1 when a query rounds onto hi) and the upper neighbour along
    every axis is the lower flat index plus that axis's stride.

    A call works on every axis at once, with the axes as rows, ``(dims, m)``:
    queries whose columns are contiguous (a transposed array, as the walker
    kernel keeps them) are read contiguously, and the result is the transpose
    of a ``(v, m)`` array.  The per-axis constants are ``(dims, 1)`` columns
    built here (0-d arrays on a 1-d grid), and one gather reads every corner
    of every component.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        if values.ndim == grid.dims:
            values = values[..., None]
        for k in range(grid.dims):
            if grid.boundary[k] == PERIODIC:
                values = np.concatenate([values, np.take(values, [0, 1], axis=k)], axis=k)
        self.table = np.ascontiguousarray(values.reshape(-1, values.shape[-1]).T)
        offsets = [0]   # flat offset of each corner from the lower one
        for k in range(grid.dims):
            offsets = offsets + [o + math.prod(values.shape[k + 1 : grid.dims]) for o in offsets]
        self.offsets = np.array(offsets)[:, None]
        self.sizes = [np.array(n) for n in values.shape[1 : grid.dims]]

        def column(per_axis):   # 0-d on one axis, where numpy takes its scalar path
            a = np.array(per_axis, dtype=float)
            return a.reshape(()) if grid.dims == 1 else a[:, None]

        periodic = [b == PERIODIC for b in grid.boundary]
        self.lo = column([lo for lo, _ in grid.extent])
        self.dx = column(grid.spacing)
        # Reflecting axes are offset by half a cell and clamped; periodic axes
        # take no offset and infinite clamps, which leave every value as it is.
        self.walls = None if all(periodic) else tuple(column(c) for c in zip(*(
            (0.0, -np.inf, np.inf, np.inf) if p else (0.5, 0.0, n - 1.0, n - 2.0)
            for p, n in zip(periodic, grid.points))))
        self.snap, self.one, self.zero = np.array(1e-9), np.array(1.0), np.array(0.0)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        m = pts.shape[0]
        factors = np.empty((2, pts.shape[1], m))   # per axis: the lower and upper weight
        f = np.subtract(pts.T, self.lo, factors[1])
        f /= self.dx
        if self.walls is not None:
            half, bottom, top, top_base = self.walls
            f -= half
            np.maximum(f, bottom, out=f)
            np.minimum(f, top, out=f)
        # Snap queries that are a rounding error away from a node, so
        # values stored on grid points are reproduced bit-for-bit.
        base = np.rint(f)
        gap = f - base
        np.abs(gap, gap)
        np.copyto(f, base, where=gap <= self.snap)
        np.floor(f, base)
        if self.walls is not None:
            np.minimum(base, top_base, out=base)
        f -= base   # the fraction towards the upper node
        np.subtract(self.one, f, factors[0])
        # Corner c takes the upper side of axis k when bit k of c is set; its
        # weight multiplies the axis factors in axis order.
        weights = factors[:, 0]
        index = base.astype(np.int64)
        flat = index[0]
        for k, size in enumerate(self.sizes, 1):   # the lower corner's flat index, by Horner's rule
            weights = (factors[:, None, k] * weights).reshape(-1, m)
            flat *= size
            flat += index[k]
        corners = self.table.take(np.add(flat, self.offsets), axis=1)
        for component in corners:
            component *= weights
        out = np.add(self.zero, corners[:, 0])   # summed from 0 in corner order
        for c in range(1, len(self.offsets)):
            out += corners[:, c]
        return out.T
