import json

import numpy as np

from psiwalk import DensityField, Grid, WaveField, read_field, write_field


def test_density_roundtrip_bit_exact(tmp_path):
    g = Grid.make((16, 12), [(-1.0, 1.0), (0.0, 3.0)], ("periodic", "reflecting"))
    rng = np.random.default_rng(0)
    f = DensityField(g, rng.random((16, 12)), time=1.25)
    write_field(f, tmp_path / "dens")
    back = read_field(tmp_path / "dens.f64")
    assert isinstance(back, DensityField)
    assert np.array_equal(back.values, f.values)
    assert back.grid == f.grid
    assert back.time == f.time


def test_wave_roundtrip_bit_exact(tmp_path):
    g = Grid.make(32, (-4.0, 4.0), "periodic")
    x = g.coords(0)
    f = WaveField(g, np.exp(-x**2 + 0.3j * x), time=0.5)
    write_field(f, tmp_path / "wave")
    back = read_field(tmp_path / "wave")
    assert isinstance(back, WaveField)
    assert np.array_equal(back.values, f.values)


def test_sidecar_contents(tmp_path):
    g = Grid.make(16, (0.0, 2.0), "reflecting")
    write_field(DensityField(g, np.ones(16), time=3.0), tmp_path / "f")
    header = json.loads((tmp_path / "f.json").read_text())
    assert header == {
        "dims": 1,
        "points": [16],
        "extent": [[0.0, 2.0]],
        "boundary": ["reflecting"],
        "time": 3.0,
        "kind": "density",
    }


def test_binary_is_little_endian_f64(tmp_path):
    g = Grid.make(8, (0.0, 1.0), "periodic")
    values = np.arange(8.0)
    write_field(DensityField(g, values), tmp_path / "raw")
    raw = (tmp_path / "raw.f64").read_bytes()
    assert raw == values.astype("<f8").tobytes()
