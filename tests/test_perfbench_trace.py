"""The benchmark's traced run keeps working on the current sources.

``perfbench/run.py --trace 1`` traces one pass of each workload with
``perfbench/spans.py`` and computes the workload's per-layer metrics from the
spans.  A change that renames a traced function, or stops calling one whose
work count a metric divides by, breaks that run with a ``ZeroDivisionError``
or a missing name.  Each workload's scenarios run once here, traced, and
every ``LAYER`` entry listed for the workload must give a finite number.
Only ``perfbench/`` is imported; the calibration sweep does not run.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))   # run.py imports spans and workloads by name

from spans import Summary, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, run_pass

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("name", list(bench.LAYERS_BY_WORKLOAD))
def test_every_per_layer_metric_of_a_traced_pass_is_defined(name, tmp_path):
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(WORKLOADS[name], DEFAULT_SEED, tmp_path)
    assert [r.error for r in traced.runs if not r.ok] == []
    summary = Summary(tracer.spans, traced.seconds)
    values = {layer: bench.LAYER[layer][1](summary) for layer in bench.LAYERS_BY_WORKLOAD[name]}
    assert [layer for layer, v in values.items() if not math.isfinite(v)] == []
