"""Command-line entry points.

Exit codes: 0 when every embedded threshold passed, 2 when the run completed
but a threshold failed, 1 on configuration or execution errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenarios import RunManifest, run_scenario, validate_config


def _worker_count(text: str) -> int:
    """An ``--workers`` value: an integer >= 1, as the config's key."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _load_config(path, seed=None, workers=None):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        cfg, errors = None, [f"cannot read {path}: {exc.strerror}"]
    else:
        cfg, errors = validate_config(text)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return None
    if seed is not None:
        cfg.master_seed = seed
    if workers is not None:
        cfg.workers = workers
    return cfg


def _print_manifest_summary(manifest: RunManifest):
    print(f"scenario: {manifest.scenario} (psiwalk {manifest.version})")
    for check in manifest.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.value:.6g} (required {check.requirement})")
    if not manifest.checks:
        print("  (no thresholds evaluated)")
    print(f"overall: {'PASS' if manifest.passed else 'FAIL'}")


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed, args.workers)
    if cfg is None:
        return 1
    try:
        manifest = run_scenario(cfg, out_dir=args.out)
    except Exception as exc:  # execution failure, not a threshold failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_manifest_summary(manifest)
    return 0 if manifest.passed else 2


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 1
    print(json.dumps(cfg.to_dict(), indent=1, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    path = Path(args.manifest)
    try:
        manifest = RunManifest.load(path)
    except Exception as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 1
    problems = manifest.verify_files(path.parent)
    for p in problems:
        print(f"verification: {p}", file=sys.stderr)
    _print_manifest_summary(manifest)
    if problems:
        return 1
    return 0 if manifest.passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="psiwalk",
        description="Guided-walker simulations: wave-field propagation, "
        "Langevin ensembles, and their density-solver oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp_run = sub.add_parser("run", help="run a scenario end to end")
    sp_run.add_argument("--config", required=True, help="scenario config JSON file")
    sp_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    sp_run.add_argument("--workers", type=_worker_count, default=None,
                        help="override workers: the processes that step walker chunks")
    sp_run.add_argument("--out", default=None, help="output directory")

    sp_val = sub.add_parser("validate", help="validate a config and print it with defaults")
    sp_val.add_argument("--config", required=True)

    sp_rep = sub.add_parser("report", help="re-verify and summarize a run manifest")
    sp_rep.add_argument("--manifest", required=True, help="path to manifest.json")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "report":
        return _cmd_report(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
