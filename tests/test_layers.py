"""Each module imports only the psiwalk modules of the layers below it.

The engines (the propagator, the walkers and the density solver) stand on
the grids and the guidance law alone, the analysis layer on the grids and
the propagator's parameters, and the scenarios and the CLI above all of
them.  This test parses the relative imports of ``src/psiwalk/*.py``,
function-level ones included, and checks each module against ``LAYERS``.
"""

import ast
from pathlib import Path

import psiwalk

SRC = Path(psiwalk.__file__).parent

_BELOW_SCENARIOS = {
    "version": set(),
    "grids": set(),
    "guidance": {"grids"},
    "fieldio": {"grids"},
    "schrodinger": {"grids"},
    "langevin": {"grids", "guidance"},
    "smoluchowski": {"grids", "guidance"},
    "analysis": {"grids", "schrodinger"},
}
LAYERS = {   # module -> the psiwalk modules it may import
    **_BELOW_SCENARIOS,
    "scenarios": set(_BELOW_SCENARIOS),
    "cli": {"scenarios", *_BELOW_SCENARIOS},
    "__init__": {"scenarios", *_BELOW_SCENARIOS},
}


def _imports(source: str) -> set[str]:
    """The psiwalk modules ``source`` imports relatively, wherever the
    import statement stands."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def test_every_module_is_declared():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS)


def test_each_module_imports_only_the_layers_below_it():
    breaches = {p.stem: sorted(_imports(p.read_text()) - LAYERS[p.stem]) for p in SRC.glob("*.py")}
    assert {m: found for m, found in breaches.items() if found} == {}


def test_imports_inside_functions_count():
    source = "from .grids import Grid\nfrom . import guidance\n\ndef f():\n    from .analysis import histogram\n"
    assert _imports(source) == {"grids", "guidance", "analysis"}
