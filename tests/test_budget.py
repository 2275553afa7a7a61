"""Eigensolve work each CLI command does, on tiny configs.

Every code solves its Hamiltonian at most once (a diagonal one not at
all) and every joint Hamiltonian is solved once.  A solve may split into
one call per block, so the budget is the summed dimension of the
distinct Hamiltonians a command needs, not a count of calls.  The
fast paths also run in one kernel pass and form no joint unitary.
"""

import json

import pytest

from logipure.cli import main

BUDGET = [
    # (command, config, summed dimension): the comment names what is solved
    ("fig2", {"a_points": 2, "t_points": 2}, 16),  # H_tot of the repetition code
    ("fig3", {"j_points": 2, "beta_points": 2}, 0),  # diagonal codes only
    ("fig4", {"a_points": 2, "t_points": 2, "max_rounds": 10}, 16),  # H_tot
    ("table1", {"rows": [1], "max_rounds": 20}, 4 + 8),  # the two-site chain, then its H_tot
    ("purify", {}, 16),  # H_tot
    ("decompose", {}, 0),  # no spectrum needed
]


@pytest.mark.parametrize("command,config,expected", BUDGET, ids=[row[0] for row in BUDGET])
def test_cli_eigensolve_budget(command, config, expected, tmp_path, eigensolves):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert sum(eigensolves) == expected, eigensolves


def test_fig4_plane_is_one_kernel_pass(tmp_path, monkeypatch):
    """The whole fig4 plane runs as one batched kernel pass with one block search."""
    from logipure import _kernels, emr

    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("trajectory_kernel", "batch_trajectory_kernel"):
        if hasattr(emr, name):
            counted(emr, name)
    counted(_kernels, "coupled_blocks")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"a_points": 3, "t_points": 3, "max_rounds": 10}))
    assert main(["fig4", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"batch_trajectory_kernel": 1, "coupled_blocks": 1}


@pytest.mark.parametrize(
    "command,config",
    [("fig4", {"a_points": 3, "t_points": 3, "max_rounds": 10}), ("table1", {"rows": [1], "max_rounds": 20})],
    ids=["fig4", "table1"],
)
def test_fast_paths_form_no_joint_unitary(command, config, tmp_path, monkeypatch):
    """fig4 and table1 build their round operators from the joint spectrum alone."""
    from logipure.operators import SpectralDecomposition

    calls = []
    unitary = SpectralDecomposition.unitary

    def counted(self, t):
        calls.append(t)
        return unitary(self, t)

    monkeypatch.setattr(SpectralDecomposition, "unitary", counted)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == []
