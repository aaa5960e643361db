"""Names that other code reaches by string still exist.

``perfbench/tracer.py`` wraps each ``module.attr`` in its ``LAYERS`` by
name, so a rename in metacrit would otherwise only surface as a failed
``--trace 1`` run.  The tracer file is parsed, not imported or changed.
Each module's ``__all__`` names only attributes it defines, so a deletion
cannot leave a stale export behind.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import metacrit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
