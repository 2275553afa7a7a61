"""The library's export list and the names the benchmark harness in perfbench/ relies on.

The harness imports them lazily, inside its check functions, and its
tracer finds layers and spans by name, so a renamed or removed name
would otherwise surface only as failed benchmark calls.  Both files are
read as source, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import logipure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def tracer_constant(name):
    for node in parse("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py defines no {name}")


def from_logipure_imports(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "logipure" and node.level == 0
        for alias in node.names
    }


def layer_module(layer):
    # Metric names drop the underscore of ``_kernels``.
    return importlib.import_module(f"logipure.{'_kernels' if layer == 'kernels' else layer}")


def is_traced_callable(module, name):
    """A public function of ``module``, or a public method of one of its public classes."""
    if name.startswith("_"):
        return False
    obj = vars(module).get(name)
    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
        return True
    return any(
        inspect.isfunction(vars(cls).get(name))
        for attr, cls in vars(module).items()
        if not attr.startswith("_") and inspect.isclass(cls) and cls.__module__ == module.__name__
    )


def test_all_names_resolve_once():
    missing = [name for name in logipure.__all__ if not hasattr(logipure, name)]
    assert not missing, f"logipure.__all__ names {missing}, which the package does not define"
    assert len(set(logipure.__all__)) == len(logipure.__all__)


def test_harness_imports_resolve():
    names = from_logipure_imports(parse("workloads.py")) | from_logipure_imports(parse("tracer.py"))
    assert "run_emr" in names  # the parse found the import blocks
    missing = sorted(n for n in names if not hasattr(logipure, n))
    assert not missing, f"perfbench imports {missing} from logipure"


def test_tracer_layers_import():
    layers = tracer_constant("LAYERS")
    assert layers
    for layer in layers:
        importlib.import_module(f"logipure.{layer}")


@pytest.mark.parametrize("group", ["TIMED", "SELF_TIMED"])
def test_tracer_spans_resolve(group):
    spans = tracer_constant(group)
    assert spans
    missing = [
        f"{layer}.{name}"
        for layer, name in (span.split(".") for span in spans)
        if not is_traced_callable(layer_module(layer), name)
    ]
    assert not missing, f"tracer.{group} names {missing}, which logipure no longer defines"
