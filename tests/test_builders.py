"""Every Hamiltonian builder equals its ``embed`` construction bit for bit.

The builders add Pauli strings (``pauli_sum``) and Kronecker blocks in the
order the ``embed`` construction of ``tests/oracles.py`` adds its terms,
so the matrices must be identical to the last bit, not merely close.  The
chain code's Hamiltonian and the joint chain Hamiltonian are built in
float64: each must equal the real part of the complex construction,
whose imaginary part must be exactly zero.
"""

import numpy as np
import pytest

from logipure.codes import HeisenbergSpec, LogicalTarget, build_heisenberg_code, build_repetition_code
from logipure.emr import CALIBRATED_AUX_ENERGY, CHAIN_BENCHMARK, XYSetup, _xy_hamiltonian
from logipure.interaction import AuxiliarySpec, InteractionSpec, build_interaction, build_total
from oracles import heisenberg_hamiltonian_by_embed, total_hamiltonian_by_embed, xy_hamiltonian_by_embed


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("exchange", [1.0, 0.37])
def test_heisenberg_code_matches_embed(n, exchange):
    spec = HeisenbergSpec(n_qubits=n, exchange=exchange)
    want = heisenberg_hamiltonian_by_embed(spec)
    assert not want.imag.any()
    assert_bitwise(build_heisenberg_code(spec).hamiltonian, np.ascontiguousarray(want.real))


@pytest.mark.parametrize("row", CHAIN_BENCHMARK, ids=lambda r: f"row{r.index}")
def test_xy_hamiltonian_matches_embed(row):
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=row.n_sites))
    for j_1, aux_energy in ((1.0, CALIBRATED_AUX_ENERGY), (0.3, None)):
        setup = XYSetup(
            row.n_sites, len(row.settings), j_1=j_1, j_2=row.j_2, gamma=row.gamma, aux_energy=aux_energy
        )
        got, want = _xy_hamiltonian(setup, code), xy_hamiltonian_by_embed(setup, code)
        assert got.dtype == np.float64
        assert not want.imag.any()
        assert_bitwise(got, np.ascontiguousarray(want.real))


@pytest.mark.parametrize("n_codes", [1, 2])
@pytest.mark.parametrize("n_aux", [1, 2])
def test_build_total_matches_embed(n_codes, n_aux):
    codes = [build_repetition_code(1.0), build_heisenberg_code(HeisenbergSpec(n_qubits=2))][:n_codes]
    targets = (LogicalTarget(0.4, 1.1), LogicalTarget(1.2, 2.0))[:n_codes]
    h_sa = build_interaction(codes, InteractionSpec(coupling=0.7, targets=targets))
    for energy in (sum(c.gap for c in codes), 0.1):  # at 0.1, E_A x popcount rounds differently
        aux = AuxiliarySpec(count=n_aux, energy=energy)
        assert_bitwise(build_total(codes, h_sa, aux), total_hamiltonian_by_embed(codes, h_sa, aux))
