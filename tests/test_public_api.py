"""Every name the package exports is used by the program, or says why it stays.

Public API that no scenario or CLI path reaches tends to live on through its
tests alone.  This test parses ``src/psiwalk/*.py`` and requires each name
exported by ``psiwalk/__init__.py`` to be imported or referenced as
``module.name`` by a module other than the one that defines it, or to be in
``KEEP`` with a one-line reason.
"""

import ast
from pathlib import Path

import psiwalk

SRC = Path(psiwalk.__file__).parent

KEEP = {
    # kept for the planned tunnelling-jumps scenario
    "eigenbasis": "the eigenstates the tunnelling-jumps scenario superposes",
    "make_superposition": "builds the tunnelling-jumps scenario's (phi0 + phi1)/sqrt(2)",
    "RegionEntry": "first-passage target of the tunnelling-jumps first-jump times",
    # called by the benchmark's calibration
    "FPOperator": "perfbench/calibrate.py builds one; tests check from_log_density and flux_max",
    "fp_step": "perfbench/calibrate.py times the explicit density step",
    "fp_step_implicit": "perfbench/calibrate.py times the implicit density step",
    # references the tests compare against
    "NodeBasinMap": "basins_at is the reference for the kernel's node-crossing count",
    "read_field": "reads back the wave and density snapshots that run_scenario writes",
    "substream": "the per-walker noise stream that the one-draw-per-step references replay",
    # types callers meet through an entry point that is used
    "ScenarioConfig": "returned by validate_config",
    "EnsembleResult": "returned by run_ensemble",
    "FirstPassage": "returned by run_first_passage_ensemble",
    "CorrelationStats": "returned by independence_test",
    "EscapeTimeEstimate": "returned by mfpt_estimate",
    "UnsupportedPropagatorError": "raised by evolve on a non-periodic grid",
    "IntegratorFailure": "raised by the ensembles on a non-finite step",
    "StepSizeError": "raised by fp_step beyond its stability bound",
}


def _exports():
    """{exported name: defining module} from the package's relative imports."""
    out = {}
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.update({a.asname or a.name: node.module for a in node.names})
    return out


def _references(tree):
    """Names a module imports from the package or reads as ``module.name``."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.update(a.name for a in node.names)
            else:
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(node.attr)
    return names


def _used_elsewhere():
    exports = _exports()
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        refs = _references(ast.parse(path.read_text()))
        used |= {name for name, mod in exports.items() if mod != path.stem and name in refs}
    return exports, used


def test_every_export_is_used_by_the_program_or_kept_with_a_reason():
    exports, used = _used_elsewhere()
    unexplained = sorted(set(exports) - used - set(KEEP))
    assert unexplained == [], (
        "exported but used by no other src module and not in KEEP: "
        f"{unexplained}; delete them or add a reason to KEEP")


def test_keep_list_names_only_exports_nothing_else_uses():
    exports, used = _used_elsewhere()
    assert sorted(set(KEEP) - set(exports)) == []
    assert sorted(set(KEEP) & used) == []
    assert all(reason.strip() for reason in KEEP.values())
