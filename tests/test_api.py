"""The library's export list, its numpy-only dependency, and the names the
benchmark harness in perfbench/ relies on.

The harness imports them lazily, inside its check functions, and its
tracer finds layers and spans by name, so a renamed or removed name
would otherwise surface only as failed benchmark calls.  Both files are
read as source, not imported.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
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


# Packages the library must run without: neither is a declared dependency.
UNDECLARED = ("scipy", "numba")


def test_runs_without_scipy_or_numba(tmp_path):
    """A child process that cannot import scipy or numba still runs a table1 row."""
    script = textwrap.dedent(
        f"""
        import sys

        class Blocked:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] in {UNDECLARED!r}:
                    raise ImportError(f"import of {{name}} is blocked")

        sys.meta_path.insert(0, Blocked())
        for name in {UNDECLARED!r}:
            try:
                __import__(name)
            except ImportError:
                pass
            else:
                sys.exit(f"{{name}} was importable")
        import logipure
        from logipure.cli import main

        code = main(sys.argv[1:])
        loaded = sorted(m for m in sys.modules if m.partition(".")[0] in {UNDECLARED!r})
        sys.exit(f"loaded {{loaded}}" if loaded else code)
        """
    )
    cfg, out = tmp_path / "config.json", tmp_path / "table1.json"
    cfg.write_text(json.dumps({"rows": [1], "max_rounds": 5}))
    env = dict(os.environ)
    src = str(Path(logipure.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "table1", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["report"]["rows"][0]["row"] == 1
