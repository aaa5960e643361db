"""The benchmark's layer tracer still names functions that exist.

``perfbench/tracer.py`` wraps each ``module.attr`` in its ``LAYERS`` by
name, so a rename in metacrit would otherwise only surface as a failed
``--trace 1`` run.  The tracer file is parsed, not imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
