"""Eigensolve work each CLI command does, on tiny configs.

Every code solves its Hamiltonian at most once (a diagonal one not at
all; a chain one magnetization sector at a time, with no complex matrix
of its size) and every joint Hamiltonian is solved once.  The one exception is a
chain whose table1 rows run in the reflection-adapted basis: its thermal
factor is solved once more, by the sector solver of the joint rows, as
the halves of its magnetization sectors, once per group of rows that
share a kernel pass.  A solve may split into one call
per block, or per half of a block, so the budget is the summed
dimension of the distinct Hamiltonians a command needs, not a count of
calls, and the largest single call is pinned too.  No command forms a
joint unitary, or prepares, evolves or measures a joint state, and the
fast paths assemble no dense joint eigenvector array: fig2 takes its
whole plane from one contraction of the joint spectrum; fig4 and purify
solve no joint matrix at all, since the rank-one coupling reduces each
of their cells to a 2 x 2 recursion, and table1 runs in one kernel pass
per group of rows whose joint spectra split alike.
"""

import json
import math

import pytest

from logipure.cli import COMMANDS, main

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
    ("purify", "purify", {}, 0, 0),  # the diagonal code only
    ("decompose", "decompose", {}, 0, 0),  # no spectrum needed
]

ONE_EACH = [row for row in BUDGET if row[0] in COMMANDS]  # every command once, at a tiny config


@pytest.mark.parametrize("command,config,expected,largest", [row[1:] for row in BUDGET], ids=[row[0] for row in BUDGET])
def test_cli_eigensolve_budget(command, config, expected, largest, tmp_path, eigensolves):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert sum(eigensolves) == expected, eigensolves
    assert max(eigensolves, default=0) <= largest, eigensolves


def spy(monkeypatch, functions, record):
    """Wrap every binding of each named ``(module, function)`` of logipure.

    Each call first passes the function's name and its positional
    arguments to ``record``, then runs the original.
    """
    import inspect

    import logipure

    for module_name, name in functions:
        original = getattr(getattr(logipure, module_name), name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            record(_name, args)
            return _original(*args, **kwargs)

        for module in [logipure, *(v for v in vars(logipure).values() if inspect.ismodule(v))]:
            if vars(module).get(name) is original:  # every module that binds it
                monkeypatch.setattr(module, name, wrapper)


def count_calls(monkeypatch, functions) -> dict[str, int]:
    """A live count of the calls of each named ``(module, function)``, from zero."""
    calls = {name: 0 for _, name in functions}
    spy(monkeypatch, functions, lambda name, args: calls.__setitem__(name, calls[name] + 1))
    return calls


def test_fig4_plane_is_one_rank_one_call(tmp_path, monkeypatch, eigensolves):
    """The whole fig4 plane, and a purify shot with its complement, is one emr_rank_one
    call: no kernel pass, no round operators and no eigensolve of a joint matrix, even
    for two codes."""
    code = {"type": "heisenberg", "n": 2}  # solved one magnetization sector at a time, unlike the diagonal repetition code
    for command, grid in (("fig4", {"a_points": 3, "t_points": 3, "max_rounds": 10}), ("purify", {})):
        eigensolves.clear()
        with monkeypatch.context() as patch:
            counted = [("formulas", "emr_rank_one"), ("_kernels", "batch_trajectory_kernel"), ("emr", "round_contraction")]
            calls = count_calls(patch, counted)
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps({"code": code, "L": 2, **grid}))
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"emr_rank_one": 1, "batch_trajectory_kernel": 0, "round_contraction": 0}, command
        # the chain's own 4 rows, as its sectors |00>, (|01>, |10>) and |11>; the joint matrix would have 32
        assert eigensolves == [1, 2, 1], (command, eigensolves)


@pytest.mark.parametrize("command,config", [row[1:3] for row in ONE_EACH], ids=[row[0] for row in ONE_EACH])
def test_fast_paths_form_no_joint_unitary(command, config, tmp_path, monkeypatch):
    """No command forms a joint unitary, or prepares, evolves or measures a joint state:
    fig2, fig4, purify and table1 build what they need from a spectrum alone."""
    from logipure.operators import SpectralDecomposition

    joint_state_steps = [("measurement", "measure_aq"), ("operators", "evolve"), ("thermal", "initial_state")]
    calls = count_calls(monkeypatch, joint_state_steps)
    unitary = SpectralDecomposition.unitary
    times = []

    def counted(self, t):
        times.append(t)
        return unitary(self, t)

    monkeypatch.setattr(SpectralDecomposition, "unitary", counted)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert times == []
    assert calls == {"measure_aq": 0, "evolve": 0, "initial_state": 0}


def test_fig2_plane_is_one_contraction(tmp_path, monkeypatch):
    """The whole fig2 plane comes from one round_contraction call."""
    calls = count_calls(monkeypatch, [("emr", "round_contraction")])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"a_points": 3, "t_points": 3}))
    assert main(["fig2", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"round_contraction": 1}


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
        ("fig4", {"a_points": 3, "t_points": 3, "max_rounds": 10}, set()),
        ("table1", {"rows": [1, 7], "max_rounds": 20}, {8, 64}),
    ],
    ids=["fig2", "fig4", "table1"],
)
def test_fast_paths_assemble_no_joint_eigenvectors(command, config, joint_dims, tmp_path, monkeypatch):
    """fig2 and table1 contract the joint spectrum block by block, and fig4 needs no spectrum.

    The dense eigenvector array is assembled only for the codes' own
    spectra (dimension 8 for fig2, 4 and 16 for table1), never for a
    joint one; fig4 reads the code's levels from its stabilizer group and
    assembles none.
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
    if not joint_dims:
        assert sizes == []
        return
    assert sizes  # the codes' spectra are read through the patched property
    assert not joint_dims & set(sizes), sizes


def test_a_25_qubit_code_allocates_no_array_of_its_size(tmp_path):
    """fig4 and purify read the d = 5 surface code's levels from its group: nothing of its 2^25
    rows is allocated (32 MB even as bytes), and a small plane peaks under 1 MB traced."""
    import tracemalloc

    from oracles import rotated_surface_code

    code = {"type": "stabilizer", "stabilizers": rotated_surface_code(5)}
    for command, grid in (("fig4", {"a_points": 3, "t_points": 3, "max_rounds": 10}), ("purify", {})):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps({"code": code, **grid}))
        tracemalloc.start()
        try:
            rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1 << 20, (command, peak)


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


def test_chain_code_is_solved_one_sector_at_a_time(eigensolves):
    """The 10-site chain's 1024 rows are solved as its magnetization sectors, in order, the largest
    C(10, 5) = 252 rows, and its build allocates no complex 1024 x 1024 array (16 MiB) traced: its
    float64 Hamiltonian is half that."""
    import tracemalloc

    from logipure.codes import HeisenbergSpec, build_heisenberg_code

    tracemalloc.start()
    try:
        build_heisenberg_code(HeisenbergSpec(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eigensolves == [math.comb(10, k) for k in range(11)]
    assert sum(eigensolves) == 1024 and max(eigensolves) == 252
    assert peak < 1024 * 1024 * 16, peak
