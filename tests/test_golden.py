"""Bit-identity gate: sha256 of every metric CSV of each shipped config.

Each ``configs/*.json`` runs through ``run_scenario`` at a reduced size (the
overrides below).  The bytes of every ``metrics/*.csv`` it writes, and the
manifest's metrics (the only output of ``double_well_equilibrium``), must hash
to the stored values, whether the walkers step in this process or in a fork
pool.  A pure refactor of an engine keeps these hashes; a change
that moves the numerics on purpose re-stores them and says so.  The reduced
sizes still cover what the engines branch on: two chunks and noise
refills inside drift-snapshot segments (interference), checkpoints and the
density-solver cross-check on both its explicit and implicit branch, on
periodic and on reflecting axes (harmonic_ground with an oracle, and
``EXTRA``), per-step path recording in 2-d
(product_separation), retiring first-passage walkers (double_well_mfpt) and the
implicit density solver on moving operators (adiabatic_tracking).

The hashes depend on floating-point results of numpy's FFT and Philox
generator, so they hold for the numpy/scipy versions the suite runs with.
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from psiwalk import langevin
from psiwalk.scenarios import SCENARIO_NAMES, run_scenario, validate_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

REDUCED = {
    "adiabatic_tracking": {"time": {"t_final": 0.05}},
    "double_well_equilibrium": {"time": {"t_final": 1.0}, "ensemble": {"n_trajectories": 300}},
    "double_well_mfpt": {"params": {"mfpt": {"n": 60, "t_max_factor": 0.25}}},
    "free_packet": {"time": {"t_final": 0.5}},
    "harmonic_ground": {
        "time": {"t_final": 1.5},
        "ensemble": {"n_trajectories": 4100},
        "params": {"oracle": {"checkpoints": [0.3, 1.0], "fp_dt": 1e-3}},
    },
    "interference": {
        "time": {"t_final": 0.6, "dt_langevin": 1e-3},
        "ensemble": {"n_trajectories": 4100},
    },
    "product_separation": {"time": {"t_final": 42.0}},
}

# Cases beyond the shipped configs: name -> (shipped config, overrides).  The
# harmonic oracle case checks the density solver at unsorted and repeated
# checkpoints on its implicit branch (lam 10 puts fp_dt above the explicit
# bound); the double-well one takes explicit steps on a reflecting axis (fp_dt
# 5e-4 is under the bound 6.1e-4 of its 512-cell grid).
EXTRA = {
    "double_well_oracle": ("double_well_equilibrium", {
        **REDUCED["double_well_equilibrium"],
        "params": {"oracle": {"checkpoints": [0.25, 1.0], "fp_dt": 5e-4}},
    }),
    "harmonic_ground_oracle": ("harmonic_ground", {
        "guidance": {"lam": 10.0},
        "time": {"t_final": 1.0},
        "ensemble": {"n_trajectories": 2000},
        "params": {"oracle": {"checkpoints": [1.0, 0.25, 0.5, 0.25], "fp_dt": 1e-3}},
    }),
}
CASES = {**{name: (name, over) for name, over in REDUCED.items()}, **EXTRA}

GOLDEN = {
    "adiabatic_tracking": {
        "tracking.csv": "be599e83ff0dfc561f54738e0f86c90dea243e403ad6995774d2eb6661ab2e22",
        "tracking_series.csv": "ef3960143ec749c8f1536df5612aba3c9a7b98a0dd2bd250baff8815bd09bb45",
        "manifest metrics": "6367fe95b13bff09ffa379805f26154fcae8c090b7a8d187b1dcd9b761f04dfb",
    },
    "double_well_equilibrium": {
        "manifest metrics": "d89a25d31f7e008ac074c019baf94c847bab0e688ce2c4c45b9d529f2914fa55",
    },
    "double_well_oracle": {
        "oracle_tv.csv": "6ded290b7c24d8ab07ee37d035c0638697f145cece060859339d47e2b5800642",
        "manifest metrics": "69ca7475d97e2c4fce394af48abbe9e316d7795685a2c7eb4ca1f3a9abe29f3f",
    },
    "double_well_mfpt": {
        "mfpt.csv": "3f0fa4f100cd228f65ff8fb3484c76501ae0e27a6f62a4d6e5a9e3ebc345570b",
        "manifest metrics": "169e06586b3761cddff9e5fa51ab4968bf982e8ae6b2e69f69d600dcf604dc3b",
    },
    "free_packet": {
        "dispersion.csv": "c6902318f7fa5b7fe4b7f31a4f68faeb10abd53c5b03f7c36afcac953be8ea7d",
        "manifest metrics": "6b5af40154731be000159bd30f1b6751b86f58f3212cee0cd5c19ae1bcd7a601",
    },
    "harmonic_ground": {
        "equilibrium.csv": "6a886cec11b5c04b1cae185cc153e2526d5a45df5c0785fe57798471e2012014",
        "oracle_tv.csv": "fd288563197db0702a07c22a510cef9288be4ba23471b11e02f1a48099866157",
        "manifest metrics": "8f94f69f9b03f3f0d33e1a453072fda42f4d9bb65350c2b5ec3fe4348b318f7a",
    },
    "harmonic_ground_oracle": {
        "equilibrium.csv": "6ca755ec65533554491128da1ffe99694c99e843e38819b5da40914faa718af1",
        "oracle_tv.csv": "9b69040a6dc59b2b650337de2f71e9ddd11fa62c41aefbbcc3baed795d9e2fff",
        "manifest metrics": "2be35b7d8e6e13b642595b5040dbd5b14579f29232efb115c6a43ba1472e83e0",
    },
    "interference": {
        "interference.csv": "f77f7e9ffcb8086b48aa42cb88d5b1fe3a04b7cd129c16fff4fc4217d5556827",
        "manifest metrics": "5ab9ec756fb146114d0125dbe3823e6a690cdba126cce99f2bc42beffccc2e48",
    },
    "product_separation": {
        "correlation.csv": "3b179fb2f0543bb64ed0aa88c3a95fa502bdd6ad308a9dd7bec18fb4e869aedf",
        "manifest metrics": "2167e1a04f6da42eef207fddbc6b04a6ea35e964ac22e691d27f41200b5d3b52",
    },
}


def _deep_merge(dst: dict, src: dict) -> dict:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = copy.deepcopy(value)
    return dst


def test_every_shipped_config_is_covered():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(REDUCED)


def test_every_scenario_has_a_shipped_config():
    # so a new scenario cannot land without a golden hash
    shipped = {json.loads(p.read_text())["scenario"] for p in CONFIGS.glob("*.json")}
    assert set(SCENARIO_NAMES) <= shipped


def _hashes(name, tmp_path, workers):
    config, overrides = CASES[name]
    source = _deep_merge(json.loads((CONFIGS / f"{config}.json").read_text()), overrides)
    cfg, errors = validate_config({**source, "workers": workers})
    assert errors == []
    manifest = run_scenario(cfg, out_dir=tmp_path)
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "metrics").glob("*.csv"))
    }
    metrics = json.dumps(manifest.metrics, sort_keys=True).encode()
    hashes["manifest metrics"] = hashlib.sha256(metrics).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(CASES))
def test_metric_csv_hashes(name, tmp_path):
    assert _hashes(name, tmp_path, workers=1) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_metric_csv_hashes_through_a_fork_pool(name, tmp_path, monkeypatch):
    # every ensemble of two or more walkers steps its chunks in two processes;
    # first passage (double_well_mfpt) still steps in this one
    monkeypatch.setattr(langevin, "_POOL_MIN_TRAJ_STEPS", 0)
    monkeypatch.setattr(langevin, "_cpus", lambda: 2)
    assert _hashes(name, tmp_path, workers=2) == GOLDEN[name]
