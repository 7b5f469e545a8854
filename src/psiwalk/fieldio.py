"""Binary field snapshots with a JSON sidecar header.

Two kinds of field are written: ``wave`` and ``density``.  ``<name>.f64``
holds flat little-endian 64-bit floats in row-major order over the grid axes;
wave fields interleave re/im per point.  ``<name>.json`` holds
``{dims, points, extent, boundary, time, kind}``.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grids import DensityField, Grid, WaveField

# kind -> (field type, on-disk dtype)
_KINDS = {"wave": (WaveField, "<c16"), "density": (DensityField, "<f8")}


def _header(grid: Grid, time: float, kind: str) -> dict:
    return {
        "dims": grid.dims,
        "points": list(grid.points),
        "extent": [list(e) for e in grid.extent],
        "boundary": list(grid.boundary),
        "time": time,
        "kind": kind,
    }


def write_field(field, path) -> Path:
    """Write a wave or density field as binary + sidecar.

    ``path`` may omit the ``.f64`` suffix.  Returns the binary path.
    """
    kind = getattr(field, "kind", None)
    if kind not in _KINDS:
        raise ValueError(f"cannot serialize object of kind {kind!r}")
    path = Path(path)
    if path.suffix != ".f64":
        path = path.with_suffix(".f64")
    raw = np.ascontiguousarray(field.values, dtype=_KINDS[kind][1]).tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw)
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(_header(field.grid, field.time, kind), indent=1))
    return path


def read_field(path):
    """Read a snapshot back; the sidecar decides the concrete field type."""
    path = Path(path)
    if path.suffix != ".f64":
        path = path.with_suffix(".f64")
    header = json.loads(path.with_suffix(".json").read_text())
    grid = Grid(
        points=tuple(header["points"]),
        extent=tuple((lo, hi) for lo, hi in header["extent"]),
        boundary=tuple(header["boundary"]),
    )
    kind = header["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown snapshot kind {kind!r}")
    field_type, dtype = _KINDS[kind]
    values = np.frombuffer(path.read_bytes(), dtype=dtype).reshape(grid.points)
    return field_type(grid, values, header["time"])
