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


def coarsen(field: DensityField, factor: int) -> DensityField:
    """Block-average a density onto a grid coarser by one integer factor on every axis."""
    if any(n % factor for n in field.grid.points):
        raise ValueError(f"{field.grid.points} cells do not divide into blocks of {factor}")
    points = tuple(n // factor for n in field.grid.points)
    coarse = Grid(points=points, extent=field.grid.extent, boundary=field.grid.boundary)
    values = field.values
    for axis, n in enumerate(points):
        shape = values.shape[:axis] + (n, factor) + values.shape[axis + 1 :]
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
    try:
        return (p.a**3 / (lam * p.b)) * float(np.exp((p.b / p.a) ** 2))
    except OverflowError:   # a float power past 1.8e308, where np.exp gives inf
        return np.inf


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
    """Pearson correlation of two equal 1-d arrays, and whether either is
    constant; centres ``u`` and ``v`` and overwrites ``u`` with the products."""
    su, sv = u.std(), v.std()
    if su == 0 or sv == 0:
        return np.nan, True
    u -= u.mean()
    v -= v.mean()
    u *= v
    return float(u.mean() / (su * sv)), False


def independence_test(paths: np.ndarray, split: float = 0.0) -> CorrelationStats:
    """Correlation between the two coordinates of 2-d trajectory records.

    ``paths`` has shape (n_traj, n_times, 2), with n_traj >= 1 and
    n_times >= 2.  Correlates pooled per-step increments, then, with those
    freed, the occupancy indicators x > split, y > split: the test holds
    about one and a half copies of ``paths`` more.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 3 or paths.shape[2] != 2:
        raise ValueError("paths must have shape (n_traj, n_times, 2)")
    if paths.shape[0] < 1 or paths.shape[1] < 2:
        raise ValueError(f"independence_test needs a path and two rows, got shape {paths.shape}")
    dx, dy = (np.diff(paths[:, :, k], axis=1).ravel() for k in (0, 1))
    n = dx.size
    rho_inc, degenerate_inc = _pearson(dx, dy)
    del dx, dy
    occ_x, occ_y = ((paths[:, :, k] > split).astype(float).ravel() for k in (0, 1))
    rho_occ, degenerate_occ = _pearson(occ_x, occ_y)
    return CorrelationStats(
        rho_increments=rho_inc,
        z_increments=rho_inc * np.sqrt(n) if np.isfinite(rho_inc) else np.nan,
        rho_occupancy=rho_occ,
        z_occupancy=rho_occ * np.sqrt(occ_x.size) if np.isfinite(rho_occ) else np.nan,
        n_increments=n,
        degenerate=degenerate_inc or degenerate_occ,
    )

