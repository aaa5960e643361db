"""Names that other code reaches by string still exist.

``perfbench/tracer.py`` wraps each ``module.attr`` in its ``LAYERS`` by
name, so a rename in metacrit would otherwise only surface as a failed
``--trace 1`` run.  The tracer file is parsed, not imported or changed.
Each module's ``__all__`` names only attributes it defines, so a deletion
cannot leave a stale export behind, and only names that code outside the
tests reaches, so no public name exists only for its tests.  The runtime
imports nothing but numpy and the standard library: scipy and mpmath are
test oracles only.  numpy is imported inside the functions that use arrays,
never when a module loads, so exact and table lookups run without it, and
no module imports ``dataclasses``, whose own imports would dominate a cold
start.  Each input rule is raised from one place only.
"""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import metacrit

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = Path(metacrit.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [m.name for m in pkgutil.iter_modules(metacrit.__path__)]
# callers outside the tests: the package's modules but for the re-exporting
# __init__, the demos, the benchmark, and the acceptance suite
CALLERS = ([path for path in SOURCES if path.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


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


@pytest.mark.parametrize("module", MODULES)
def test_exports_name_attributes(module):
    mod = importlib.import_module(f"metacrit.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"metacrit.{module}.__all__ names missing {missing}"


def test_lazy_names_resolve_to_their_modules():
    # metacrit/__init__ loads each public name from the module its map
    # names, so a rename there would leave a dangling name
    lazy = metacrit._LAZY
    assert metacrit.__all__ == list(lazy)
    for name, module in lazy.items():
        mod = importlib.import_module(f"metacrit.{module}")
        assert name in mod.__all__, f"metacrit.{module}.__all__ does not list {name}"
        assert getattr(metacrit, name) is getattr(mod, name)


def identifiers(path):
    # names, attributes and imported names the file mentions, not its
    # strings or comments
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_reached_outside_the_tests(module):
    # the tracer reaches its layers by string, and a module's own uses of a
    # name do not make it public
    reached = {layer.split(".")[1] for layer in traced_layers() if layer.startswith(f"{module}.")}
    for path in CALLERS:
        if path != PACKAGE / f"{module}.py":
            reached |= identifiers(path)
    mod = importlib.import_module(f"metacrit.{module}")
    unused = [name for name in getattr(mod, "__all__", ()) if name not in reached]
    assert not unused, f"metacrit.{module}.__all__ names {unused}, reached only by tests"


def imported_roots(nodes):
    # the top-level package of every absolute import among ``nodes``
    roots = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_numpy_and_stdlib(source):
    # every absolute import, including those inside functions
    roots = imported_roots(ast.walk(ast.parse(source.read_text())))
    foreign = sorted(roots - {"numpy"} - sys.stdlib_module_names)
    assert not foreign, f"{source.name} imports {foreign}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_records_need_no_dataclasses(source):
    # dataclasses pulls inspect, ast, dis and tokenize into every cold start
    assert "dataclasses" not in imported_roots(ast.walk(ast.parse(source.read_text())))


def import_time_nodes(tree):
    # every node that runs when the module loads: all but function bodies
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_numpy_is_imported_only_inside_functions(source):
    roots = imported_roots(import_time_nodes(ast.parse(source.read_text())))
    assert "numpy" not in roots, f"{source.name} imports numpy when it loads"


def raised_strings(tree):
    # (line, text) of every string literal, f-string parts included, inside
    # the exception expression of a raise statement
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield node.lineno, part.value


# each input rule, by a pattern its message, and the drifted copies it
# replaced, match: the cell rule (methods.check_cell), the three parts of
# the level-list rule (special.check_levels), N and R
# (sampling.check_counts), the seed (sampling.check_seed), the worker count
# (estimation.check_workers), a test's alpha (special.check_alpha), a CDF's
# finite argument (special.check_finite), and the four rules a table row
# keeps beyond its key's (tables.read_csv).  An empty p-value vector is a
# rule of its own, so "non-empty" is matched on the level list's name
RULES = {"cell": r"n_f <= n", "level": r"quantile levels? must lie",
         "levels non-empty": r"q_list must be non-empty",
         "levels increasing": r"strictly increasing",
         "N/R": r">= 1; got|N and R|sample size", "seed": r"seed.*nonnegative",
         "workers": r"workers must", "alpha": r"alpha must", "finite": r"^x must be finite",
         "provenance": r"unknown provenance", "estimate": r"estimate must be finite",
         "stderr": r"stderr must be finite", "exact stderr": r"carry no standard error"}


@pytest.mark.parametrize("pattern", RULES.values(), ids=RULES.keys())
def test_each_rule_is_raised_from_one_place(pattern):
    # a second copy of a rule would drift from the first, in its message or
    # in its exit code
    sites = {(source.name, line) for source in SOURCES
             for line, text in raised_strings(ast.parse(source.read_text()))
             if re.search(pattern, text)}
    assert len(sites) == 1, f"{pattern!r} is raised at {sorted(sites)}"
