"""Statistics over trajectories and densities: histograms, residuals,
escape-time estimates and independence diagnostics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import PERIODIC, DensityField, Grid
from .schrodinger import DoubleGaussianParams


def histogram(points, grid: Grid) -> DensityField:
    """Normalized cell-count density of sample points on a grid.

    The cells are ``Grid.cell_index``'s, centered on the grid coordinates.  On
    periodic axes samples wrap; on reflecting axes samples outside the extent
    are counted in the nearest boundary cell and reported via a warning.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and grid.dims == 1:
        pts = pts[:, None]
    pts = np.atleast_2d(pts)
    if pts.shape[0] < 1:
        raise ValueError("histogram needs at least one point")
    if pts.shape[1] != grid.dims:
        raise ValueError(f"points have {pts.shape[1]} components for a {grid.dims}-d grid")
    if not np.isfinite(pts).all():   # a cell index cast from NaN or inf is arbitrary
        raise ValueError("histogram points must be finite")
    outside = np.zeros(pts.shape[0], dtype=bool)
    for k, (lo, hi) in enumerate(grid.extent):
        if grid.boundary[k] != PERIODIC:
            outside |= (pts[:, k] < lo) | (pts[:, k] > hi)
    n_out = int(outside.sum())
    if n_out:
        warnings.warn(f"{n_out} sample(s) outside the grid were counted in boundary cells")
    cells = np.ravel_multi_index(tuple(grid.cell_index(pts).T), grid.points)
    counts = np.bincount(cells, minlength=int(np.prod(grid.points))).reshape(grid.points)
    density = counts / (pts.shape[0] * grid.cell_volume)
    return DensityField(grid, density, 0.0)


def total_variation(p: DensityField, q: DensityField) -> float:
    """0.5 * integral |p - q|; both fields normalized, on the same grid."""
    if p.grid != q.grid:
        raise ValueError("total variation requires densities on the same grid")
    for name, f in (("p", p), ("q", q)):
        mass = f.total()
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"{name} is not normalized (integral {mass})")
    return 0.5 * float(np.sum(np.abs(p.values - q.values))) * p.grid.cell_volume


def coarsen(field: DensityField, factor) -> DensityField:
    """Block-average a density onto a grid coarser by an integer factor per axis."""
    factors = (factor,) * field.grid.dims if np.isscalar(factor) else tuple(factor)
    points = []
    for n, f in zip(field.grid.points, factors):
        if n % f:
            raise ValueError(f"{n} cells do not divide into blocks of {f}")
        points.append(n // f)
    coarse = Grid(points=tuple(points), extent=field.grid.extent, boundary=field.grid.boundary)
    values = field.values
    for axis, f in enumerate(factors):
        shape = values.shape[:axis] + (values.shape[axis] // f, f) + values.shape[axis + 1 :]
        values = values.reshape(shape).mean(axis=axis + 1)
    return DensityField(coarse, values, field.time)


def kramers_prediction(p: DoubleGaussianParams, lam: float) -> float:
    """Escape-time estimate (a^3 / (lam b)) * exp(b^2 / a^2) for the
    double-Gaussian log-potential; an order-of-magnitude formula valid for
    b >> a."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if p.b / p.a < 2.0:
        warnings.warn(
            f"b/a = {p.b / p.a:.2f} < 2: the escape-time formula is outside its validity range"
        )
    return (p.a**3 / (lam * p.b)) * float(np.exp((p.b / p.a) ** 2))


@dataclass(frozen=True)
class EscapeTimeEstimate:
    """Mean first-passage time over uncensored runs, with sampling error."""

    mean: float
    standard_error: float
    censored_fraction: float
    n: int

    @property
    def defined(self) -> bool:
        return np.isfinite(self.mean)


def mfpt_estimate(results) -> EscapeTimeEstimate:
    """Summarize first-passage results (objects with .time and .censored)."""
    times = np.array([r.time for r in results], dtype=float)
    censored = np.array([r.censored for r in results], dtype=bool)
    n = times.size
    if n == 0:
        raise ValueError("no first-passage results")
    ok = times[~censored]
    cfrac = float(censored.mean())
    if ok.size == 0:
        est_mean, se = np.nan, np.nan
    else:
        est_mean = float(ok.mean())
        se = float(ok.std(ddof=1) / np.sqrt(ok.size)) if ok.size >= 2 else np.nan
    return EscapeTimeEstimate(mean=est_mean, standard_error=se, censored_fraction=cfrac, n=n)


@dataclass(frozen=True)
class CorrelationStats:
    rho_increments: float
    z_increments: float
    rho_occupancy: float
    z_occupancy: float
    n_increments: int
    degenerate: bool


def _pearson(u: np.ndarray, v: np.ndarray):
    su, sv = u.std(), v.std()
    if su == 0 or sv == 0:
        return np.nan, True
    return float(np.mean((u - u.mean()) * (v - v.mean())) / (su * sv)), False


def independence_test(paths: np.ndarray, split: float = 0.0) -> CorrelationStats:
    """Correlation between the two coordinates of 2-d trajectory records.

    ``paths`` has shape (n_traj, n_times, 2).  Correlates pooled per-step
    increments, and the occupancy indicators x > split, y > split.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 3 or paths.shape[2] != 2:
        raise ValueError("paths must have shape (n_traj, n_times, 2)")
    inc = np.diff(paths, axis=1)
    dx = inc[:, :, 0].ravel()
    dy = inc[:, :, 1].ravel()
    rho_inc, degenerate_inc = _pearson(dx, dy)
    occ_x = (paths[:, :, 0] > split).astype(float).ravel()
    occ_y = (paths[:, :, 1] > split).astype(float).ravel()
    rho_occ, degenerate_occ = _pearson(occ_x, occ_y)
    n = dx.size
    return CorrelationStats(
        rho_increments=rho_inc,
        z_increments=rho_inc * np.sqrt(n) if np.isfinite(rho_inc) else np.nan,
        rho_occupancy=rho_occ,
        z_occupancy=rho_occ * np.sqrt(occ_x.size) if np.isfinite(rho_occ) else np.nan,
        n_increments=n,
        degenerate=degenerate_inc or degenerate_occ,
    )


def well_jumps(paths: np.ndarray, wells, axis: int = 0) -> np.ndarray:
    """Number of jumps between wells of each path in ``paths``, shape (n, rows, dims).

    ``wells`` is a list of (lo, hi) intervals on one axis; a row in no well
    keeps the well of the path's last row in one, so a jump is counted only
    when the path actually reaches a different well.
    """
    x = np.asarray(paths, dtype=float)[..., axis]
    labels = np.full(x.shape, -1, dtype=np.int64)
    for j, (lo, hi) in enumerate(wells):
        labels[(x >= lo) & (x <= hi)] = j
    # Forward-fill the gaps: each row reads the label of its last row in a well.
    last = np.where(labels >= 0, np.arange(x.shape[1]), 0)
    np.maximum.accumulate(last, axis=1, out=last)
    filled = np.take_along_axis(labels, last, axis=1)
    return ((filled[:, 1:] != filled[:, :-1]) & (filled[:, :-1] >= 0)).sum(axis=1)
