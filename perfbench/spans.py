"""Span tracing of psiwalk's public functions, installed from outside ``src/``.

While installed, every public function of each psiwalk module (plus the
``Grid.fold`` and ``Grid.cell_index`` methods) is replaced by a wrapper that
records one span per call: name, parent, start, end, thread and an optional
work count.  Every module attribute that refers to a wrapped function is
patched, so ``from .grids import interpolate`` style imports are traced too.
Spans stay in memory until :meth:`Tracer.write` at the end of the run.

A worker thread with no open span of its own takes the main thread's
innermost open span as parent, so chunk work done in an ensemble's thread pool
is charged to the ``run_ensemble`` call that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "scenarios", "langevin", "guidance", "schrodinger",
           "smoluchowski", "grids", "analysis", "fieldio")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "thread", "work")

    def __init__(self, id, name, parent):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.thread = threading.get_ident()
        self.work = None


# Work counts recorded at a layer boundary, from the call's bound arguments
# and its result.

def _ensemble_traj_steps(args, result):
    return result.metadata["n"] * result.metadata["steps"]


def _first_passage_traj_steps(args, result):
    dt, t0, t_max = args["dt_L"], args["t0"], args["t_max"]
    max_steps = math.ceil((t_max - t0) / dt - 1e-12)
    return sum(max_steps if r.censored else round((r.time - t0) / dt) for r in result)


def _evolve_point_steps(args, result):
    points = math.prod(args["psi"].grid.points)
    return points * round(args["t_final"] / args["dt"]) if args["t_final"] > 0 else 0


def _fp_evolve_steps(args, result):
    return round((args["t_final"] - args["p0"].time) / args["dt"])


def _write_field_bytes(args, result):
    return result.stat().st_size + result.with_suffix(".json").stat().st_size


def _run_scenario_bytes(args, result):   # the benchmark always passes --out
    manifest = Path(args["out_dir"]) / "manifest.json"
    return sum(f["bytes"] for f in result.files) + manifest.stat().st_size


WORK = {
    "langevin.run_ensemble": _ensemble_traj_steps,
    "langevin.run_first_passage_ensemble": _first_passage_traj_steps,
    "schrodinger.evolve": _evolve_point_steps,
    "smoluchowski.fp_evolve": _fp_evolve_steps,
    "fieldio.write_field": _write_field_bytes,
    "scenarios.run_scenario": _run_scenario_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = iter(range(1, 1 << 62))
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            span = Span(next(self._ids), name, outer[-1].id if outer else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        mods = [importlib.import_module(f"psiwalk.{m}") for m in MODULES]
        package = importlib.import_module("psiwalk")
        grid_cls = importlib.import_module("psiwalk.grids").Grid
        replacements = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replacements[obj] = self._wrap(f"{short}.{attr}", obj)
        patches = []
        for owner in [package, *mods]:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    patches.append((owner, attr, obj))
        for method in ("fold", "cell_index"):
            original = vars(grid_cls)[method]
            patches.append((grid_cls, method, original))
            replacements[original] = self._wrap(f"grids.{method}", original)
        for owner, attr, obj in patches:
            setattr(owner, attr, replacements[obj])
        try:
            yield self
        finally:
            for owner, attr, obj in patches:
                setattr(owner, attr, obj)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,parent,start,end,thread,work\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.name},{s.parent or ''},{s.start!r},{s.end!r},"
                         f"{s.thread},{'' if s.work is None else s.work}\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Summary:
    """Per-name call counts, inclusive/self time and work over a set of spans.

    A span's self time is its duration minus the part of it that its child
    spans cover (children on two threads may overlap; the union is taken).
    """

    def __init__(self, spans, wall: float):
        self.wall = wall   # seconds of the traced pass the spans belong to
        by_id = {s.id: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s.parent in by_id:
                children[s.parent].append(s)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.module_outer = defaultdict(float)
        for s in spans:
            dur = s.end - s.start
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
            self.calls[s.name] += 1
            self.incl[s.name] += dur
            self.self_s[s.name] += dur - _covered(k for k in kids if k[1] > k[0])
            if s.work is not None:
                self.work[s.name] += s.work
            module = s.name.split(".", 1)[0]
            parent = by_id.get(s.parent)
            if parent is None or parent.name.split(".", 1)[0] != module:
                self.module_outer[module] += dur

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == module)
