"""Multilinear interpolation at arbitrary points, as the tests query it.

The library interpolates only in-box walker positions, through
``grids._Interpolant``; this wrapper folds arbitrary queries into the box
first and accepts a single point or a batch.
"""

import numpy as np

from psiwalk.grids import _Interpolant


def interpolate(grid, values, x):
    """``values`` of shape ``(*points,)`` or ``(*points, v)`` at one point
    ``(dims,)`` or a batch ``(m, dims)``."""
    values = np.asarray(values)
    out = _Interpolant(grid, values)(grid.fold(x))
    if values.ndim == grid.dims:
        out = out[:, 0]
    return out[0] if np.asarray(x).ndim == 1 else out
