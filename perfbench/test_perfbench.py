"""Tests of the benchmark harness on tiny configs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from logipure import cli  # noqa: E402

TINY = {
    "fig4-sweep": {"a_points": 8, "t_points": 8, "max_rounds": 100},
    "chain-table": {"rows": [1, 7], "max_rounds": 300},
    "fig2-dense": {"a_points": 20, "t_points": 20},
}


def _tiny(name: str, seed: int, tmp_path: Path) -> tuple[dict, str]:
    cfg = {**WORKLOADS[name].make_config(seed), **TINY[name]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg, str(path)


def _wrapped_functions() -> list[str]:
    """Names still bound to a tracer wrapper."""
    import numpy as np

    import logipure

    found = []
    for mod in [logipure, np.linalg, *(getattr(logipure, layer) for layer in tracer.LAYERS)]:
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj):
                members = vars(obj).values()
            else:
                members = obj.values() if isinstance(obj, dict) else [obj]
            for member in members:
                code = getattr(getattr(member, "__func__", member), "__code__", None)
                if code is not None and code.co_name in ("traced", "counted"):
                    found.append(f"{mod.__name__}.{attr}")
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_covers_wall(name, tmp_path):
    wl = WORKLOADS[name]
    cfg, config = _tiny(name, 0, tmp_path)
    plain, traced = str(tmp_path / "plain.out"), str(tmp_path / "traced.out")

    worker.run_once(cli, wl.experiment, config, plain)
    wall, _, tr = worker.traced_run(cli, wl.experiment, config, traced)

    assert Path(plain).read_bytes() == Path(traced).read_bytes()
    assert _wrapped_functions() == []
    metrics = tr.metrics(wall)
    assert tr.spans[0][0] == "cli.main"
    assert metrics["trace.self_coverage"] >= 0.9
    assert metrics["cli.self_s"] <= 0.1 * wall
    assert wl.check(cfg, plain) == []


def test_coverage_check_sees_an_unwrapped_layer(tmp_path, monkeypatch):
    """Time spent in functions without spans lands in the CLI's self time."""
    _, config = _tiny("fig4-sweep", 0, tmp_path)
    monkeypatch.setattr(tracer, "LAYERS", ("operators", "codes", "interaction", "thermal", "cli"))
    wall, _, tr = worker.traced_run(cli, "fig4", config, str(tmp_path / "out.csv"))
    metrics = tr.metrics(wall)
    assert metrics["cli.self_s"] > 0.1 * wall


def test_wrappers_reach_every_binding(tmp_path):
    _, config = _tiny("fig4-sweep", 0, tmp_path)
    _, _, tr = worker.traced_run(cli, "fig4", config, str(tmp_path / "out.csv"))
    names = {span[0] for span in tr.spans}
    # cli and emr bind fast_trajectory separately; emr binds the kernel from _kernels;
    # cli.main dispatches through its COMMANDS table.
    wanted = {"cli.main", "cli.cmd_fig4", "emr.fast_trajectory", "_kernels.trajectory_kernel", "operators.unitary"}
    assert wanted <= names
    metrics = tr.metrics(1.0)
    assert metrics["kernels.trajectory_kernel.calls"] == 64
    assert 0.0 < metrics["kernels.trajectory_kernel.useful_round_ratio"] <= 1.0
    assert metrics["operators.spectrum_solves"] >= metrics["operators.hermitian_eig.calls"]


@pytest.mark.parametrize("name", ["fig4-sweep", "fig2-dense"])
def test_checks_catch_a_wrong_cell(name, tmp_path):
    wl = WORKLOADS[name]
    cfg, config = _tiny(name, 3, tmp_path)
    out = tmp_path / "out.csv"
    worker.run_once(cli, wl.experiment, config, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    body = [i for i, line in enumerate(lines) if line[0].isdigit()]
    for i in body:  # corrupt the last column of every row
        cells = lines[i].split(",")
        cells[-1] = "7" if name == "fig4-sweep" else "0.5"
        lines[i] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert wl.check(cfg, str(out))
