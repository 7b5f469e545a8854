"""Workload definitions and the closed-loop pass runner.

A pass runs a workload's scenarios one after another through the public
entry point ``psiwalk.cli.main(["run", ...])``, in this process, with the
workload seed passed as ``--seed``.  A scenario run fails when it raises,
returns a nonzero exit code (1: error, 2: an embedded threshold failed) or
writes metric CSVs whose bytes differ from another repeat at the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

DEFAULT_SEED = 1   # golden CSV hashes are stored for this seed
CHECK_SEED = 2     # second seed: a claimed gain must also hold here


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    why: str

    def config(self, scenario: str) -> Path:
        return CONFIGS / f"{self.name}_{scenario}.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fringes", ("interference",),
            "8192 walkers in two chunks on 125 moving drift snapshots with 2 workers: "
            "per-trajectory-step cost and chunk parallelism; FP never runs",
        ),
        Workload(
            "few_walkers", ("product_separation", "double_well_mfpt"),
            "64 recorded 2-d walkers, then 220 retiring first-passage walkers: "
            "fixed per-step overhead, path recording, 2-d interpolate",
        ),
        Workload(
            "density_oracle", ("adiabatic_tracking", "harmonic_ground"),
            "implicit FP on changing operators, then an explicit-FP oracle cross-check "
            "with three checkpoints: the density solver's two paths",
        ),
    )
}


@dataclass
class ScenarioRun:
    scenario: str
    exit_code: int | None
    error: str | None
    csv_sha256: dict = field(default_factory=dict)   # "<scenario>/metrics/x.csv" -> hex

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.error is None


@dataclass
class Pass:
    workload: str
    seed: int
    workers: int | None
    seconds: float
    runs: list[ScenarioRun]

    def digests(self) -> dict:
        out = {}
        for r in self.runs:
            out.update(r.csv_sha256)
        return out


def run_pass(workload: Workload, seed: int, out_root: Path, workers: int | None = None) -> Pass:
    """Run every scenario of the workload once; only the scenario runs are timed."""
    cli = importlib.import_module("psiwalk.cli")
    dirs = [out_root / workload.name / s for s in workload.scenarios]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    runs = []
    t0 = time.perf_counter()
    for scenario, out in zip(workload.scenarios, dirs):
        argv = ["run", "--config", str(workload.config(scenario)), "--out", str(out),
                "--seed", str(seed)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)   # looked up per call, so a traced main is used
            runs.append(ScenarioRun(scenario, code, None if code == 0 else sink.getvalue()))
        except Exception:
            runs.append(ScenarioRun(scenario, None, traceback.format_exc()))
    seconds = time.perf_counter() - t0
    for r, out in zip(runs, dirs):
        for csv in sorted(out.glob("metrics/*.csv")):
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            r.csv_sha256[f"{r.scenario}/metrics/{csv.name}"] = digest
    return Pass(workload.name, seed, workers, seconds, runs)


def count_failures(passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over a list of passes.

    Each run is compared with the first run of the same scenario at the same
    seed; CSV bytes that differ break the determinism contract and count as
    a failure.
    """
    attempted = failed = 0
    reasons = []
    reference = {}
    for p in passes:
        for r in p.runs:
            attempted += 1
            if not r.ok:
                failed += 1
                reasons.append(f"{p.workload}/{r.scenario} seed {p.seed}: exit {r.exit_code}: "
                               f"{(r.error or '').strip()[-400:]}")
                continue
            ref = reference.setdefault((p.workload, r.scenario, p.seed), r.csv_sha256)
            if r.csv_sha256 != ref:
                failed += 1
                reasons.append(f"{p.workload}/{r.scenario} seed {p.seed}: metric CSV bytes differ "
                               f"between repeats (workers {p.workers})")
    return attempted, failed, reasons
