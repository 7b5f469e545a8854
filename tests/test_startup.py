"""scipy and ``numpy.random`` are loaded on first use only.

The implicit density step (LAPACK ``dgttrf``/``dgttrs``) and the node-basin
map (``ndimage.label``) are the only users of scipy, and importing it costs
more than the rest of ``import psiwalk``; ``numpy.random`` is first needed by
a walker's noise stream.  Each test runs a fresh interpreter, so modules
loaded by earlier tests in this process do not count, and checks which
``scipy`` (or ``numpy.random``) modules that interpreter ended with.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import psiwalk

from test_golden import CONFIGS, REDUCED, _deep_merge

SRC = Path(psiwalk.__file__).resolve().parent.parent

# The last line a cold run prints: the modules it loaded from PACKAGE.
REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + "."))))
"""

# Validate, run and report each reduced config given on the command line.  The
# report must verify the run's files; exit code 2 only says a reduced run missed
# one of its thresholds.
RUN = """
from pathlib import Path
from psiwalk import cli
from psiwalk.scenarios import run_scenario, validate_config
for path in sys.argv[1:]:
    cfg, errors = validate_config(Path(path).read_text())
    assert errors == [], errors
    run_scenario(cfg, out_dir=Path(path).stem)
    assert cli.main(["report", "--manifest", f"{Path(path).stem}/manifest.json"]) != 1
"""


def _loaded_modules(code, *args, cwd, package="scipy"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    report = REPORT.replace("PACKAGE", repr(package))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + report, *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _reduced_configs(tmp_path, *names):
    paths = []
    for name in names:
        source = json.loads((CONFIGS / f"{name}.json").read_text())
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_deep_merge(source, REDUCED[name])))
        paths.append(str(path))
    return paths


def test_import_and_validate_load_no_scipy(tmp_path):
    code = """
import psiwalk
from pathlib import Path
from psiwalk import cli
from psiwalk.scenarios import validate_config
for path in sys.argv[1:]:
    cfg, errors = validate_config(Path(path).read_text())
    assert errors == [], errors
    assert cli.main(["validate", "--config", path]) == 0
"""
    configs = sorted(str(p) for p in CONFIGS.glob("*.json"))
    assert _loaded_modules(code, *configs, cwd=tmp_path) == []
    assert _loaded_modules(code, *configs, cwd=tmp_path, package="numpy.random") == []


def test_walker_and_propagator_runs_and_report_load_no_scipy(tmp_path):
    configs = _reduced_configs(tmp_path, "free_packet", "double_well_mfpt")
    assert _loaded_modules(RUN, *configs, cwd=tmp_path) == []


def test_node_basins_and_implicit_density_steps_load_scipy_on_first_use(tmp_path):
    # interference labels node basins; adiabatic_tracking takes implicit steps
    for name, needed in [("interference", "scipy.ndimage"), ("adiabatic_tracking", "scipy.linalg")]:
        loaded = _loaded_modules(RUN, *_reduced_configs(tmp_path, name), cwd=tmp_path)
        assert needed in loaded
