"""Code builders, spectral splitting and logical-state helpers."""

from unittest import mock

import numpy as np
import pytest

from logipure import codes
from logipure.codes import (
    CARDINAL_ANGLES,
    HeisenbergSpec,
    LogicalTarget,
    build_heisenberg_code,
    build_repetition_code,
    build_stabilizer_code,
    cardinal_state,
    code_from_hamiltonian,
    code_from_json,
    logical_operators,
    logical_state,
    spectral_split,
)
from logipure.operators import PauliString, kron_all, pauli_operator, require_hermitian
from oracles import reconstruct

GOLDEN_GAP_N6 = 0.3819660112501064  # exact-diagonalization value, N=6 chain
HADAMARDS = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)] * 3)


def test_repetition_spectrum_oracle():
    code = build_repetition_code(1.0)
    w = np.linalg.eigvalsh(code.hamiltonian)
    assert np.allclose(w, [0.0] * 2 + [4.0] * 6, atol=1e-12)
    assert abs(code.gap - 4.0) < 1e-12
    assert code.es_degeneracy == 6
    assert code.dimension == 8
    assert code.is_logical_qubit


def test_repetition_gap_scales_with_strength():
    code = build_repetition_code(0.7)
    assert abs(code.gap - 2.8) < 1e-12
    assert abs(np.linalg.eigvalsh(code.hamiltonian)[0]) < 1e-12  # operational shift


def test_repetition_logical_basis_ordering():
    code = build_repetition_code(1.0)
    assert np.allclose(code.ls_basis[0], np.eye(8)[0], atol=1e-12)  # |000>
    assert np.allclose(code.ls_basis[1], np.eye(8)[7], atol=1e-12)  # |111>


def test_two_qubit_zz_code_gap():
    code = build_stabilizer_code(["ZZ"], 1.0)
    assert abs(code.gap - 2.0) < 1e-12
    span = {tuple(np.nonzero(np.abs(v) > 1e-12)[0]) for v in code.ls_basis}
    assert span == {(0,), (3,)}  # |00> and |11>


def test_stabilizer_validation():
    from logipure.operators import PauliString

    with pytest.raises(ValueError):
        build_stabilizer_code([PauliString("ZZ", coefficient=2.0)])  # squares to 4I
    with pytest.raises(ValueError):
        build_stabilizer_code(["XI", "ZI"])  # anticommuting pair
    with pytest.raises(ValueError):
        build_stabilizer_code(["ZZI", "ZZ"])  # mixed lengths
    with pytest.raises(ValueError):
        build_stabilizer_code(["II"])  # fully degenerate, no 2-fold ground manifold


def test_stabilizer_nan_coefficient_fails_the_square_check():
    with pytest.raises(ValueError, match="'ZZ' does not square to identity"):
        build_stabilizer_code([PauliString("ZZ", coefficient=float("nan"))])
    with pytest.raises(ValueError, match="'ZZI' does not square to identity"):
        build_stabilizer_code(["IZZ", PauliString("ZZI", coefficient=complex(1.0, float("nan")))])


@pytest.mark.parametrize(
    "stabilizers,message",
    [
        (["ZZIII", "XIIII"], "'ZZIII' and 'XIIII' do not commute"),
        (["ZZIII", "IXXII"], "'ZZIII' and 'IXXII' do not commute"),
        (["ZZIII", "IZZII", "YYZZX"], "'IZZII' and 'YYZZX' do not commute"),
        ([PauliString("ZZIII", 1j)], "'ZZIII' does not square to identity"),
        ([PauliString("ZZIII", 2.0)], "'ZZIII' does not square to identity"),
    ],
)
def test_stabilizer_checks_build_no_matrix(stabilizers, message):
    """Commutation and squares are decided from the letters: ``pauli_sum`` is never called."""
    with mock.patch.object(codes, "pauli_sum", wraps=codes.pauli_sum) as built:
        with pytest.raises(ValueError, match=message):
            build_stabilizer_code(stabilizers)
    assert built.call_count == 0


def test_heisenberg_small_chains():
    for n, gap, d in ((2, 1.0, None), (4, 1.0, 3), (6, GOLDEN_GAP_N6, 1)):
        code = build_heisenberg_code(HeisenbergSpec(n_qubits=n))
        assert abs(code.gap - gap) < 1e-10, (n, code.gap)
        if d is not None:
            assert code.es_degeneracy == d
        assert len(code.ls_basis) == 2
        assert abs(np.linalg.eigvalsh(code.hamiltonian)[0]) < 1e-10


def test_heisenberg_logical_states_are_polarized_and_magnon():
    n = 4
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=n))
    assert np.allclose(code.ls_basis[0], np.eye(2**n)[0], atol=1e-12)
    magnon = np.zeros(2**n, dtype=complex)
    for s in range(n):
        magnon[1 << (n - 1 - s)] = (-1.0) ** s / np.sqrt(n)
    overlap = abs(np.vdot(magnon, code.ls_basis[1]))
    assert abs(overlap - 1.0) < 1e-12


@pytest.mark.parametrize("exchange", [1e8, 1e12])
def test_heisenberg_chain_builds_at_large_exchange(exchange):
    """The eigenstate checks scale with the code's energy: roundoff of order eps J
    no longer refuses a valid chain once it passes the absolute tolerance."""
    code = build_heisenberg_code(HeisenbergSpec(6, exchange))
    assert abs(code.gap - GOLDEN_GAP_N6 * exchange) <= 1e-9 * exchange
    assert len(code.ls_basis) == 2


def test_heisenberg_field_rule():
    assert HeisenbergSpec(2).field == 1.0  # h = J on the two-site chain
    assert HeisenbergSpec(4).field == 2.0  # h = 2J beyond it
    with pytest.raises(TypeError):  # the field is derived, not a parameter
        HeisenbergSpec(4, field=2.0)
    with pytest.raises(ValueError):
        HeisenbergSpec(3)
    with pytest.raises(ValueError):
        HeisenbergSpec(2, exchange=-1.0)


def test_code_from_hamiltonian_matches_builder():
    built = build_repetition_code(1.0)
    derived = code_from_hamiltonian(built.hamiltonian)
    assert abs(derived.gap - built.gap) < 1e-10
    p_built = sum(np.outer(v, v.conj()) for v in built.ls_basis)
    p_derived = sum(np.outer(v, v.conj()) for v in derived.ls_basis)
    assert np.allclose(p_built, p_derived, atol=1e-10)


def test_code_from_hamiltonian_checks_hermiticity_once(monkeypatch):
    h = build_repetition_code(1.0).hamiltonian
    calls = []

    def counted(h, name="matrix"):
        calls.append(name)
        return require_hermitian(h, name)

    monkeypatch.setattr(codes, "require_hermitian", counted)
    code_from_hamiltonian(h)
    assert calls == ["hamiltonian"]


@pytest.mark.parametrize(
    "h,message",
    [
        (np.triu(np.ones((4, 4))), "hamiltonian is not hermitian"),
        (np.diag([0.0, 1.0, np.nan, 2.0]), "hamiltonian has non-finite entries"),
        (np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 3.0]), "dimension 6 is not a power of 2"),
        (np.zeros((4, 2)), "hamiltonian must be square"),
    ],
    ids=["non-hermitian", "non-finite", "6x6", "non-square"],
)
def test_code_from_hamiltonian_rejects(h, message):
    with pytest.raises(ValueError, match=message):
        code_from_hamiltonian(h)


def test_code_from_hamiltonian_single_ground():
    h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    code = code_from_hamiltonian(h)
    assert len(code.ls_basis) == 1
    assert not code.is_logical_qubit
    assert abs(code.gap - 1.0) < 1e-12


def test_spectral_split_diagonal_determinism():
    h = np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 3.0]).astype(complex)
    split = spectral_split(h)
    assert np.allclose(split.ls_basis[0], np.eye(6)[0])
    assert np.allclose(split.ls_basis[1], np.eye(6)[1])
    assert [len(split.ls_basis), len(split.es_basis)] == [2, 3]
    assert split.degeneracies == (2, 3, 1)
    assert abs(split.gap - 1.0) < 1e-12
    assert abs(split.ground_energy) < 1e-12


def test_spectral_split_diagonal_spectrum(eigensolves):
    """A diagonal input is its own spectrum: sorted diagonal, identity columns, no solve."""
    diag = np.array([3.0, 1.0, 0.0, 1.0, 0.0, 2.0])
    split = spectral_split(np.diag(diag).astype(complex))
    assert np.array_equal(split.spectrum.eigenvalues, np.sort(diag))
    # ties keep their index order
    assert np.array_equal(split.spectrum.eigenvectors, np.eye(6)[:, [2, 4, 1, 3, 5, 0]])
    assert eigensolves == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_heisenberg_code(HeisenbergSpec(n_qubits=2)),
        lambda: build_heisenberg_code(HeisenbergSpec(n_qubits=4)),
        # the bit-flip code in the X basis
        lambda: code_from_hamiltonian(HADAMARDS @ build_repetition_code(1.0).hamiltonian @ HADAMARDS),
    ],
    ids=["chain-2", "chain-4", "non-diagonal-host"],
)
def test_stored_spectrum_reconstructs_hamiltonian(build):
    code = build()
    assert np.max(np.abs(reconstruct(code.spectrum) - code.hamiltonian)) < 1e-12


def test_spectral_split_errors():
    with pytest.raises(ValueError):
        spectral_split(np.eye(4, dtype=complex))  # single cluster
    overflowing = -1e308 * (pauli_operator("XX") + pauli_operator("ZZ"))  # finite entries, eigenvalues +-2e308
    with pytest.raises(FloatingPointError, match="overflow encountered in the code spectrum"):
        spectral_split(overflowing)
    with pytest.raises(ValueError):
        spectral_split(np.diag([0.0, 5e-8, 1.0]).astype(complex))  # gap within noise


def test_logical_state_angles():
    code = build_repetition_code(1.0)
    assert np.allclose(logical_state(code, LogicalTarget(0.0, 0.0)), code.ls_basis[0])
    assert (
        abs(abs(np.vdot(code.ls_basis[1], logical_state(code, LogicalTarget(np.pi, 0.7)))) - 1.0)
        < 1e-12
    )
    psi = logical_state(code, LogicalTarget(np.pi / 2, np.pi / 2))
    want = (code.ls_basis[0] + 1j * code.ls_basis[1]) / np.sqrt(2)
    assert np.allclose(psi, want, atol=1e-12)
    with pytest.raises(ValueError):
        LogicalTarget(-0.1, 0.0)
    with pytest.raises(ValueError):
        LogicalTarget(0.0, 7.0)


def test_cardinal_states_and_logical_operators():
    code = build_repetition_code(1.0)
    x, y, z = logical_operators(code)
    assert np.allclose(x @ y - y @ x, 2j * z, atol=1e-12)
    assert np.allclose(x @ y, 1j * z, atol=1e-12)  # on the code space
    for axis, op in (("x", x), ("z", z)):
        for sign, val in (("+", 1.0), ("-", -1.0)):
            state = cardinal_state(code, axis + sign)
            assert np.allclose(op @ state, val * state, atol=1e-12)
    # the y labels follow the (theta, phi) assignment phi = pi/2 <-> y+,
    # i.e. the superposition form (|0> + i|1>)/sqrt(2), not the Y eigenvalue
    y_plus = cardinal_state(code, "y+")
    assert np.allclose(y_plus, (code.ls_basis[0] + 1j * code.ls_basis[1]) / np.sqrt(2), atol=1e-12)
    y_minus = cardinal_state(code, "y-")
    assert np.allclose(y_minus, (code.ls_basis[0] - 1j * code.ls_basis[1]) / np.sqrt(2), atol=1e-12)
    assert set(CARDINAL_ANGLES) == {"x+", "x-", "y+", "y-", "z+", "z-"}
    with pytest.raises(ValueError):
        cardinal_state(code, "w+")


def test_code_from_json():
    doc = {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}
    code = code_from_json(doc)
    assert abs(code.gap - 4.0) < 1e-12
    code2 = code_from_json('{"type": "heisenberg", "n": 4, "J": 1.0}')
    assert code2.n_qubits == 4
    with pytest.raises(ValueError):
        code_from_json({"type": "unknown"})
