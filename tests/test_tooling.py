"""Names that other code reaches by string still exist.

``perfbench/tracer.py`` wraps each ``module.attr`` in its ``LAYERS`` by
name, so a rename in metacrit would otherwise only surface as a failed
``--trace 1`` run.  The tracer file is parsed, not imported or changed.
Each module's ``__all__`` names only attributes it defines, so a deletion
cannot leave a stale export behind.  The runtime imports nothing but numpy
and the standard library: scipy and mpmath are test oracles only.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import metacrit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SOURCES = sorted(Path(metacrit.__file__).parent.glob("*.py"))


def traced_layers():
    for node in ast.parse(TRACER.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no LAYERS")


@pytest.mark.parametrize("layer", traced_layers())
def test_layer_names_a_metacrit_callable(layer):
    module, attr = layer.split(".")
    assert callable(getattr(importlib.import_module(f"metacrit.{module}"), attr, None))


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(metacrit.__path__)])
def test_exports_name_attributes(module):
    mod = importlib.import_module(f"metacrit.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"metacrit.{module}.__all__ names missing {missing}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_numpy_and_stdlib(source):
    # every absolute import, including those inside functions
    roots = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    foreign = sorted(roots - {"numpy"} - sys.stdlib_module_names)
    assert not foreign, f"{source.name} imports {foreign}"
