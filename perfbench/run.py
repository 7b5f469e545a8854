"""psiwalk benchmark: three closed-loop workloads and a traced per-module split.

Usage (from the repository root):

    python3 perfbench/run.py --workload fringes --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fringes --seed 1 --trace 1
    python3 perfbench/run.py --write-golden

One client runs one scenario at a time in this process, through
``psiwalk.cli.main(["run", ...])`` on the sources in ``src/``; BLAS and
OpenMP pools are pinned to one thread and numpy's huge-page advice is off.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of the chosen workload:
``setup_s`` (median over fresh interpreters of ``import psiwalk`` plus
``validate_config`` of the workload's configs), ``wall_s`` (median time of a
pass over the workload's scenarios, repeated for about ``--seconds``) and
``peak_rss_mb`` (peak resident set of this process after the first pass plus
that of the largest child).

``--trace 1`` runs every workload once with span tracing, once without, and
at the default seed to compare metric CSVs with the stored golden hashes; it
adds the 1-vs-2-worker ratio on ``fringes`` and a calibration sweep, and
reports the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES, Summary, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, count_failures, run_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Set before numpy is imported.  One BLAS/OpenMP thread; no transparent huge
# page advice from numpy, since whether the kernel grants (and compacts memory
# for) huge pages depends on the host's free memory, not on the program.
PINNED_ENV = {
    **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
SETUP_REPS = 5
MIN_PASSES = 3

SETUP_CODE = """
import sys
from pathlib import Path
import psiwalk
from psiwalk.scenarios import validate_config
for path in sys.argv[1:]:
    cfg, errors = validate_config(Path(path).read_text())
    if errors:
        sys.exit(f"{path}: {errors}")
"""

# Per-layer metrics per workload: (name, unit, how it is computed from the
# trace Summary ``s`` of the workload's traced pass).  Layers that a workload
# never calls are left out of its list.
LAYER = {
    "langevin.run_ensemble.self_s": ("s", lambda s: s.self_s["langevin.run_ensemble"]),
    "langevin.run_ensemble.traj_steps": ("count", lambda s: s.work["langevin.run_ensemble"]),
    "langevin.run_ensemble.ns_per_traj_step": (
        "ns", lambda s: 1e9 * s.incl["langevin.run_ensemble"] / s.work["langevin.run_ensemble"]),
    "langevin.run_ensemble.share": ("ratio", lambda s: s.incl["langevin.run_ensemble"] / s.wall),
    "langevin.run_first_passage_ensemble.self_s": (
        "s", lambda s: s.self_s["langevin.run_first_passage_ensemble"]),
    "langevin.run_first_passage_ensemble.traj_steps": (
        "count", lambda s: s.work["langevin.run_first_passage_ensemble"]),
    "langevin.run_first_passage_ensemble.ns_per_traj_step": (
        "ns", lambda s: 1e9 * s.incl["langevin.run_first_passage_ensemble"]
        / s.work["langevin.run_first_passage_ensemble"]),
    "langevin.share": ("ratio", lambda s: s.module_outer["langevin"] / s.wall),
    "grids.fold.calls": ("count", lambda s: s.calls["grids.fold"]),
    "grids.fold.self_s": ("s", lambda s: s.self_s["grids.fold"]),
    "grids.cell_index.calls": ("count", lambda s: s.calls["grids.cell_index"]),
    "grids.cell_index.self_s": ("s", lambda s: s.self_s["grids.cell_index"]),
    "grids.interpolate.calls": ("count", lambda s: s.calls["grids.interpolate"]),
    "grids.interpolate.self_s": ("s", lambda s: s.self_s["grids.interpolate"]),
    "guidance.drift_field.calls": ("count", lambda s: s.calls["guidance.drift_field"]),
    "guidance.drift_field.self_s": ("s", lambda s: s.self_s["guidance.drift_field"]),
    "schrodinger.evolve.self_s": ("s", lambda s: s.self_s["schrodinger.evolve"]),
    "schrodinger.evolve.ns_per_point_step": (
        "ns", lambda s: 1e9 * s.incl["schrodinger.evolve"] / s.work["schrodinger.evolve"]),
    "smoluchowski.fp_step_implicit.calls": (
        "count", lambda s: s.calls["smoluchowski.fp_step_implicit"]),
    "smoluchowski.fp_step_implicit.us_per_call": (
        "us", lambda s: 1e6 * s.incl["smoluchowski.fp_step_implicit"]
        / s.calls["smoluchowski.fp_step_implicit"]),
    "smoluchowski.fp_step.calls": ("count", lambda s: s.calls["smoluchowski.fp_step"]),
    "smoluchowski.fp_step.us_per_call": (
        "us", lambda s: 1e6 * s.incl["smoluchowski.fp_step"] / s.calls["smoluchowski.fp_step"]),
    "smoluchowski.fp_evolve.steps": ("count", lambda s: s.work["smoluchowski.fp_evolve"]),
    "smoluchowski.fp_evolve.self_s": ("s", lambda s: s.self_s["smoluchowski.fp_evolve"]),
    "smoluchowski.share": ("ratio", lambda s: s.module_outer["smoluchowski"] / s.wall),
    "fieldio.write_field.bytes": ("B", lambda s: s.work["fieldio.write_field"]),
    "fieldio.write_field.self_s": ("s", lambda s: s.self_s["fieldio.write_field"]),
    "scenarios.output_bytes": ("B", lambda s: s.work["scenarios.run_scenario"]),
    "scenarios.run_scenario.self_s": ("s", lambda s: s.self_s["scenarios.run_scenario"]),
}
for _module in ("grids", "guidance", "schrodinger", "langevin", "smoluchowski", "analysis"):
    LAYER[f"{_module}.self_s"] = ("s", lambda s, m=_module: s.module_self(m))

EXTRA = {  # measured outside the trace summary, for every workload
    "trace.overhead_s": "s",
    "scenarios.csv_hash_mismatches": "count",
    "failed_fraction": "fraction",
}

_OUTPUT = ["fieldio.write_field.bytes", "fieldio.write_field.self_s",
           "scenarios.output_bytes", "scenarios.run_scenario.self_s"]
LAYERS_BY_WORKLOAD = {
    "fringes": [
        "langevin.run_ensemble.self_s", "langevin.run_ensemble.traj_steps",
        "langevin.run_ensemble.ns_per_traj_step", "langevin.run_ensemble.share",
        "grids.fold.calls", "grids.fold.self_s", "grids.cell_index.calls",
        "grids.cell_index.self_s", "guidance.drift_field.calls", "guidance.drift_field.self_s",
        "schrodinger.evolve.self_s", "schrodinger.evolve.ns_per_point_step",
        "grids.self_s", "guidance.self_s", "schrodinger.self_s", "langevin.self_s",
        "analysis.self_s", *_OUTPUT,
    ],
    "few_walkers": [
        "langevin.run_ensemble.self_s", "langevin.run_ensemble.traj_steps",
        "langevin.run_ensemble.ns_per_traj_step",
        "langevin.run_first_passage_ensemble.self_s",
        "langevin.run_first_passage_ensemble.traj_steps",
        "langevin.run_first_passage_ensemble.ns_per_traj_step", "langevin.share",
        "grids.fold.calls", "grids.fold.self_s", "grids.interpolate.calls",
        "grids.interpolate.self_s", "grids.self_s", "guidance.self_s", "langevin.self_s",
        "analysis.self_s", *_OUTPUT,
    ],
    "density_oracle": [
        "langevin.run_ensemble.self_s", "langevin.run_ensemble.traj_steps",
        "langevin.run_ensemble.ns_per_traj_step", "grids.fold.calls", "grids.fold.self_s",
        "schrodinger.evolve.self_s", "schrodinger.evolve.ns_per_point_step",
        "smoluchowski.fp_step_implicit.calls", "smoluchowski.fp_step_implicit.us_per_call",
        "smoluchowski.fp_step.calls", "smoluchowski.fp_step.us_per_call",
        "smoluchowski.fp_evolve.steps", "smoluchowski.fp_evolve.self_s", "smoluchowski.share",
        "grids.self_s", "guidance.self_s", "schrodinger.self_s", "langevin.self_s",
        "smoluchowski.self_s", "analysis.self_s", *_OUTPUT,
    ],
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    import calibrate

    units = {}
    for wl, names in LAYERS_BY_WORKLOAD.items():
        for name in names:
            units[f"{wl}.{name}"] = LAYER[name][0]
        for name, unit in EXTRA.items():
            units[f"{wl}.{name}"] = unit
    units["fringes.langevin.speedup_2w"] = "ratio"
    units.update(calibrate.UNITS)
    return units


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(workload) -> float:
    """Seconds from starting a fresh interpreter to validated configs."""
    configs = [str(workload.config(s)) for s in workload.scenarios]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, *configs], env=_child_env(), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "unknown"
    sources = sorted((SRC / "psiwalk").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": PINNED_ENV,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def untraced(workload, seed: int, seconds: float, out_root: Path):
    setup = [measure_setup(workload) for _ in range(SETUP_REPS)]
    start = time.perf_counter()
    passes = [run_pass(workload, seed, out_root)]
    # Peak memory as one run of each scenario leaves it, as fresh `psiwalk run`
    # processes see it.  Repeats only re-use freed memory, but whether glibc
    # returned it to the system in between varies from run to run.
    rss_mb = peak_rss_mb()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p.seconds for p in passes) <= seconds
    ):
        passes.append(run_pass(workload, seed, out_root))
    attempted, failed, reasons = count_failures(passes)
    walls = [p.seconds for p in passes]
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"wall_s samples ({len(walls)} passes of {', '.join(workload.scenarios)}): "
          f"{' '.join(f'{t:.4f}' for t in walls)}")
    print(f"failed_fraction: {failed / attempted} ({failed} of {attempted} scenario runs)")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return attempted, failed, reasons, metrics


def traced(seed: int, out_root: Path):
    import calibrate

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tracer = Tracer()
    metrics = {}
    all_passes = []
    for wl in WORKLOADS.values():
        plain = run_pass(wl, seed, out_root)
        first = len(tracer.spans)
        with tracer.installed():
            traced_pass = run_pass(wl, seed, out_root)
        summary = Summary(tracer.spans[first:], traced_pass.seconds)
        passes = [plain, traced_pass]
        values = {"trace.overhead_s": traced_pass.seconds - plain.seconds}
        if wl.name == "fringes":
            one = run_pass(wl, seed, out_root, workers=1)
            passes.append(one)
            values["langevin.speedup_2w"] = one.seconds / plain.seconds
        reference = plain
        if seed != DEFAULT_SEED:
            reference = run_pass(wl, DEFAULT_SEED, out_root)
            passes.append(reference)
        expected, actual = golden.get(wl.name, {}), reference.digests()
        values["scenarios.csv_hash_mismatches"] = sum(
            expected.get(k) != actual.get(k) for k in set(expected) | set(actual))
        attempted, failed, _ = count_failures(passes)
        values["failed_fraction"] = failed / attempted
        for name in LAYERS_BY_WORKLOAD[wl.name]:
            values[name] = LAYER[name][1](summary)
        print(f"{wl.name}: traced pass {traced_pass.seconds:.4f} s, untraced "
              f"{plain.seconds:.4f} s, {len(tracer.spans) - first} spans")
        print(f"{wl.name} module split (self s / share of traced pass): " + ", ".join(
            f"{m} {summary.module_self(m):.4f}/{summary.module_self(m) / summary.wall:.3f}"
            for m in MODULES))
        metrics.update({f"{wl.name}.{k}": v for k, v in values.items()})
        all_passes += passes
    metrics.update(calibrate.sweep(seed))
    tracer.write(OUT / f"spans_seed{seed}.csv")

    checks = [
        ("fringes run_ensemble share >= 0.9", metrics["fringes.langevin.run_ensemble.share"] >= 0.9),
        ("few_walkers langevin share >= 0.9", metrics["few_walkers.langevin.share"] >= 0.9),
        ("few_walkers ensemble ns/traj-step >= 5x fringes",
         metrics["few_walkers.langevin.run_ensemble.ns_per_traj_step"]
         >= 5 * metrics["fringes.langevin.run_ensemble.ns_per_traj_step"]),
        ("density_oracle smoluchowski share >= 0.5",
         metrics["density_oracle.smoluchowski.share"] >= 0.5),
    ]
    for text, ok in checks:
        print(f"rationale: {text}: {'yes' if ok else 'NO'}")

    attempted, failed, reasons = count_failures(all_passes)
    units = per_layer_units()
    return attempted, failed, reasons, {k: (metrics[k], units[k]) for k in units}


def write_golden(out_root: Path) -> int:
    golden, passes = {}, []
    for wl in WORKLOADS.values():
        p = run_pass(wl, DEFAULT_SEED, out_root)
        passes.append(p)
        golden[wl.name] = dict(sorted(p.digests().items()))
    _, failed, reasons = count_failures(passes)
    for r in reasons:
        print(f"failure: {r}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)} at seed {DEFAULT_SEED}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store the metric-CSV hashes of every workload at the default seed")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "psiwalk" / "__init__.py").is_file():
        print(f"error: no psiwalk sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import psiwalk

    if Path(psiwalk.__file__).resolve().parent != SRC / "psiwalk":
        print(f"error: imported psiwalk from {psiwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_root = OUT / "runs"
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        if args.write_golden:
            return write_golden(out_root)
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            attempted, failed, reasons, metrics = traced(args.seed, out_root)
        else:
            attempted, failed, reasons, metrics = untraced(
                WORKLOADS[args.workload], args.seed, args.seconds, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for r in reasons:
        print(f"failure: {r}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
