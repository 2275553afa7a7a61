"""Eigensolve work each CLI command does, on tiny configs.

Every code solves its Hamiltonian at most once (a diagonal one not at
all) and every joint Hamiltonian is solved once.  The one exception is a
chain whose table1 rows run in the reflection-adapted basis: its thermal
factor is solved once more, by the sector solver of the joint rows, as
the halves of its magnetization sectors, once per group of rows that
share a kernel pass.  A solve may split into one call
per block, or per half of a block, so the budget is the summed
dimension of the distinct Hamiltonians a command needs, not a count of
calls, and the largest single call is pinned too.  The
fast paths form no joint unitary and no dense joint eigenvector array;
fig2 takes its whole plane from one contraction of the joint spectrum,
without evolving or measuring a joint state; fig4 solves no joint
matrix at all, since the rank-one coupling reduces each of its cells to
a 2 x 2 recursion, and table1 runs in one kernel pass per group of rows
whose joint spectra split alike.
"""

import json

import pytest

from logipure.cli import main

BUDGET = [
    # (id, command, config, summed dimension, largest call): the comment names what is solved
    ("fig2", "fig2", {"a_points": 2, "t_points": 2}, 16, 16),  # H_tot of the repetition code
    ("fig3", "fig3", {"j_points": 2, "beta_points": 2}, 0, 0),  # diagonal codes only
    ("fig4", "fig4", {"a_points": 2, "t_points": 2, "max_rounds": 10}, 0, 0),  # the diagonal code only
    ("table1", "table1", {"rows": [1], "max_rounds": 20}, 4 + 8, 8),  # the two-site chain, then its H_tot
    # the eight-site chain, its H_tot by parity blocks halved by the reflection
    # (the largest, 512 rows, as 272 + 240), and the chain's reflection-adapted
    # thermal factor
    ("table1-row12", "table1", {"rows": [12], "max_rounds": 20}, 256 + 1024 + 256, 272),
    ("purify", "purify", {}, 16, 16),  # H_tot
    ("decompose", "decompose", {}, 0, 0),  # no spectrum needed
]


@pytest.mark.parametrize("command,config,expected,largest", [row[1:] for row in BUDGET], ids=[row[0] for row in BUDGET])
def test_cli_eigensolve_budget(command, config, expected, largest, tmp_path, eigensolves):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert sum(eigensolves) == expected, eigensolves
    assert max(eigensolves, default=0) <= largest, eigensolves


def test_fig4_plane_is_one_rank_one_call(tmp_path, monkeypatch):
    """The whole fig4 plane is one emr_rank_one call: no kernel pass, no round
    operators and no eigensolve of a joint matrix, even for two codes."""
    import inspect

    import logipure

    calls = {"emr_rank_one": 0, "batch_trajectory_kernel": 0, "round_contraction": 0}
    solved = []
    for module_name, name in (
        ("formulas", "emr_rank_one"),
        ("_kernels", "batch_trajectory_kernel"),
        ("emr", "round_contraction"),
        ("operators", "hermitian_eig"),
    ):
        original = getattr(getattr(logipure, module_name), name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            if _name == "hermitian_eig":
                solved.append(len(args[0]))
            else:
                calls[_name] += 1
            return _original(*args, **kwargs)

        for module in [logipure, *(v for v in vars(logipure).values() if inspect.ismodule(v))]:
            if vars(module).get(name) is original:  # every module that binds it
                monkeypatch.setattr(module, name, wrapper)
    cfg_path = tmp_path / "config.json"
    code = {"type": "heisenberg", "n": 2}  # solved by hermitian_eig, unlike the diagonal repetition code
    cfg_path.write_text(json.dumps({"code": code, "L": 2, "a_points": 3, "t_points": 3, "max_rounds": 10}))
    assert main(["fig4", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"emr_rank_one": 1, "batch_trajectory_kernel": 0, "round_contraction": 0}
    assert solved == [4], solved  # the chain's own 4 rows; the joint matrix would have 32


@pytest.mark.parametrize(
    "command,config",
    [
        ("fig2", {"a_points": 3, "t_points": 3}),
        ("fig4", {"a_points": 3, "t_points": 3, "max_rounds": 10}),
        ("table1", {"rows": [1], "max_rounds": 20}),
    ],
    ids=["fig2", "fig4", "table1"],
)
def test_fast_paths_form_no_joint_unitary(command, config, tmp_path, monkeypatch):
    """fig2, fig4 and table1 build their round operators from the joint spectrum alone."""
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


def test_fig2_plane_is_one_contraction(tmp_path, monkeypatch):
    """The whole fig2 plane comes from one round_contraction call: no joint state is
    prepared, evolved or measured."""
    import inspect

    import logipure

    calls = {}
    for module_name, name in (
        ("measurement", "measure_aq"),
        ("operators", "evolve"),
        ("thermal", "initial_state"),
        ("emr", "round_contraction"),
    ):
        original = getattr(getattr(logipure, module_name), name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        calls[name] = 0
        for module in [logipure, *(v for v in vars(logipure).values() if inspect.ismodule(v))]:
            if vars(module).get(name) is original:  # every module that binds it
                monkeypatch.setattr(module, name, wrapper)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"a_points": 3, "t_points": 3}))
    assert main(["fig2", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"measure_aq": 0, "evolve": 0, "initial_state": 0, "round_contraction": 1}


def test_table1_groups_rows_into_kernel_passes(tmp_path, monkeypatch):
    """Rows 1-6 (two sites) share one kernel pass and rows 7-8 (four sites) another."""
    from logipure import _kernels, emr

    calls = []
    original = _kernels.batch_trajectory_kernel

    def counted(k_first, *args, **kwargs):
        calls.append(len(k_first))
        return original(k_first, *args, **kwargs)

    monkeypatch.setattr(_kernels, "batch_trajectory_kernel", counted)
    monkeypatch.setattr(emr, "batch_trajectory_kernel", counted)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"rows": [1, 2, 3, 4, 5, 6, 7, 8], "max_rounds": 20}))
    assert main(["table1", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == [10, 2]  # cells: one per (row, policy)


@pytest.mark.parametrize(
    "command,config,joint_dims",
    [
        ("fig2", {"a_points": 3, "t_points": 3}, {16}),
        ("fig4", {"a_points": 3, "t_points": 3, "max_rounds": 10}, {16}),
        ("table1", {"rows": [1, 7], "max_rounds": 20}, {8, 64}),
    ],
    ids=["fig2", "fig4", "table1"],
)
def test_fast_paths_assemble_no_joint_eigenvectors(command, config, joint_dims, tmp_path, monkeypatch):
    """fig2, fig4 and table1 contract the joint spectrum block by block.

    The dense eigenvector array is assembled only for the codes' own
    spectra (dimension 8 for fig2 and fig4, 4 and 16 for table1), never
    for a joint one.
    """
    from logipure.operators import SpectralDecomposition

    sizes = []
    assemble = SpectralDecomposition.__dict__["eigenvectors"].func

    def counted(self):
        sizes.append(self.eigenvalues.size)
        return assemble(self)

    monkeypatch.setattr(SpectralDecomposition, "eigenvectors", property(counted))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert sizes  # the codes' spectra are read through the patched property
    assert not joint_dims & set(sizes), sizes


def test_table1_row12_forms_no_joint_matrix(tmp_path, monkeypatch):
    """Row 12 (1024 joint rows) is built sector by sector: the dense joint matrix is never formed,
    and no 1024-row pattern is searched for blocks, by the eigensolve or by the kernel."""
    import inspect

    import logipure
    from logipure import _kernels, emr, operators

    built, searched = [], []
    xy_hamiltonian, coupled_blocks = emr._xy_hamiltonian, operators.coupled_blocks

    def build(*args):
        built.append(args)
        return xy_hamiltonian(*args)

    def search(pattern):
        searched.append(len(pattern))
        return coupled_blocks(pattern)

    monkeypatch.setattr(emr, "_xy_hamiltonian", build)
    patched = []
    for module in [logipure, *(v for v in vars(logipure).values() if inspect.ismodule(v))]:
        if vars(module).get("coupled_blocks") is coupled_blocks:  # every module that binds it
            monkeypatch.setattr(module, "coupled_blocks", search)
            patched.append(module)
    assert {operators, _kernels} <= set(patched)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"rows": [12], "max_rounds": 20}))
    assert main(["table1", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert built == []
    assert all(rows < 1024 for rows in searched), searched
