"""Engineered couplings, total Hamiltonian assembly, Pauli decomposition."""

import numpy as np
import pytest

from logipure.codes import HeisenbergSpec, LogicalTarget, build_heisenberg_code, build_repetition_code
from logipure.interaction import (
    AuxiliarySpec,
    InteractionSpec,
    build_interaction,
    build_total,
    es_uniform_state,
    joint_target_state,
    pauli_decompose,
)
from logipure.operators import KET_0, KET_1, kron, kron_all, pauli_operator
from oracles import compare_term_lists, kron_coupling, pauli_reconstruct, three_qubit_coupling_reference


def rep_code():
    return build_repetition_code(1.0)


def test_rank_one_action():
    code = rep_code()
    target = LogicalTarget(0.7, 1.1)
    spec = InteractionSpec(coupling=0.9, targets=(target,))
    h = build_interaction([code], spec)
    assert h.shape == (16, 16)
    assert np.allclose(h, h.conj().T, atol=1e-12)

    psi = joint_target_state([code], (target,))
    phi = es_uniform_state([code])
    # the coupling sends |Phi, 0_A> to g |Psi, 1_A> and nothing else
    assert np.allclose(h @ kron(phi, KET_0), 0.9 * kron(psi, KET_1), atol=1e-12)
    assert np.allclose(h @ kron(psi, KET_1), 0.9 * kron(phi, KET_0), atol=1e-12)
    # logical states orthogonal to |Psi> are left alone
    other = joint_target_state([code], (LogicalTarget(np.pi - 0.7, 1.1 + np.pi),))
    assert np.allclose(h @ kron(other, KET_0), 0.0, atol=1e-12)


@pytest.mark.parametrize("coupling", [0.9, -0.4, 1])
def test_coupling_is_the_kron_sum_bit_for_bit(coupling):
    """The coupling written block by block equals the Kronecker product summed with its adjoint
    in every bit, signed zeros included: on the repetition code, where |Psi> and |Phi> have
    disjoint supports, and on the 4-site chain, where both reach the one-magnon sector."""
    hosts = [[rep_code()], [build_heisenberg_code(HeisenbergSpec(n_qubits=4))], [rep_code(), rep_code()]]
    negative_zeros = 0
    for codes in hosts:
        for theta, phi in ((0.0, 0.0), (np.pi, 0.0), (np.pi / 2, np.pi), (0.7, 1.1), (np.pi / 2, 3 * np.pi / 2)):
            targets = (LogicalTarget(theta, phi),) * len(codes)
            for variant in ("rank-one", "targeted"):
                spec = InteractionSpec(coupling=coupling, targets=targets, variant=variant)
                psi, uniform = joint_target_state(codes, targets), es_uniform_state(codes)
                if variant == "targeted":
                    uniform = uniform * np.sqrt(float(np.prod([c.es_degeneracy for c in codes])))
                want = kron_coupling(psi, uniform, coupling)
                assert build_interaction(codes, spec).tobytes() == want.tobytes()
                parts = want.view(float)
                negative_zeros += np.count_nonzero((parts == 0) & np.signbit(parts))
    assert negative_zeros  # the sum leaves some, which a plain write of the two blocks would not


def test_es_states():
    code = rep_code()
    phi = es_uniform_state([code])
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12


def test_targeted_variant_scales_uniformly():
    code = rep_code()
    target = LogicalTarget(0.0, 0.0)
    spec = InteractionSpec(coupling=0.5, targets=(target,), variant="targeted")
    h = build_interaction([code], spec)
    psi1 = kron(joint_target_state([code], (target,)), KET_1)
    # every excited basis state couples to |Psi, 1_A> with element exactly g
    for v in code.es_basis:
        assert abs(np.vdot(psi1, h @ kron(v, KET_0)) - 0.5) < 1e-12


def test_ground_prep_variant():
    h_single = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    from logipure.codes import code_from_hamiltonian

    host = code_from_hamiltonian(h_single)
    spec = InteractionSpec(coupling=1.0, variant="ground-prep")
    h = build_interaction([host], spec)
    psi = host.ls_basis[0]
    phi = es_uniform_state([host])
    assert np.allclose(h @ kron(phi, KET_0), kron(psi, KET_1), atol=1e-12)
    with pytest.raises(ValueError):
        build_interaction([rep_code()], spec)  # two-fold ground manifold
    with pytest.raises(ValueError):
        build_interaction(
            [host],
            InteractionSpec(coupling=1.0, targets=(LogicalTarget(0, 0),), variant="ground-prep"),
        )


def test_build_total_structure():
    code = rep_code()
    spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(0.0, 0.0),))
    h_sa = build_interaction([code], spec)
    aux = AuxiliarySpec(count=1, energy=4.0)
    h_tot = build_total([code], h_sa, aux)
    assert h_tot.shape == (16, 16)
    want = kron(code.hamiltonian, np.eye(2)) + kron(np.eye(8), np.diag([0.0, 4.0])) + h_sa
    assert np.allclose(h_tot, want, atol=1e-12)
    # auxiliary ground energy is exactly zero: acting on |000, 0_A> gives the coupling only
    ground = kron(code.ls_basis[0], KET_0)
    assert np.allclose(h_tot @ ground, h_sa @ ground, atol=1e-12)
    with pytest.raises(ValueError):
        build_total([code], h_sa[:8, :8], aux)


def two_code_total(energy):
    """Two different codes, two auxiliary qubits, and the coupling on the first."""
    codes = [rep_code(), build_heisenberg_code(HeisenbergSpec(n_qubits=2))]
    spec = InteractionSpec(coupling=0.7, targets=(LogicalTarget(0.4, 0.0), LogicalTarget(1.2, 2.0)))
    h_sa = build_interaction(codes, spec)
    return codes, h_sa, build_total(codes, h_sa, AuxiliarySpec(count=2, energy=energy))


def test_build_total_two_codes():
    (rep, chain), h_sa, h_tot = two_code_total(3.0)
    assert h_tot.shape == (128, 128)
    want = (
        kron_all([rep.hamiltonian, np.eye(4), np.eye(4)])
        + kron_all([np.eye(8), chain.hamiltonian, np.eye(4)])
        + kron_all([np.eye(32), np.diag([0.0, 3.0, 3.0, 6.0])])
        + kron(h_sa, np.eye(2))
    )
    assert np.allclose(h_tot, want, atol=1e-12)


def test_build_total_two_aux_qubits():
    _, _, h_tot = two_code_total(3.0)
    _, _, h_bare = two_code_total(0.0)
    # the auxiliary term alone: E_A per excited auxiliary qubit, ground energy exactly 0
    h_a = h_tot - h_bare
    assert np.allclose(h_a, kron(np.eye(32), np.diag([0.0, 3.0, 3.0, 6.0])), atol=1e-12)


def test_pauli_decompose_roundtrip():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        dim = 2**n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + m.conj().T) / 2
        terms = pauli_decompose(h, cutoff=0.0)
        assert len(terms) == 4**n
        assert np.allclose(pauli_reconstruct(terms), h, atol=1e-12)
        # hermitian input gives real coefficients
        assert max(abs(t.coefficient.imag) for t in terms) < 1e-12
        # lexicographic I < X < Y < Z output order
        letters = [t.letters for t in terms]
        assert letters == sorted(letters)


def test_pauli_decompose_known_operator():
    h = 0.25 * pauli_operator("XY") - 1.5 * pauli_operator("ZI")
    terms = {t.letters: t.coefficient for t in pauli_decompose(h)}
    assert set(terms) == {"XY", "ZI"}
    assert abs(terms["XY"] - 0.25) < 1e-14
    assert abs(terms["ZI"] + 1.5) < 1e-14


def test_three_qubit_reference_matches_decomposition():
    code = rep_code()
    for theta, phi in ((0.0, 0.0), (np.pi / 3, 1.1), (np.pi, 0.3)):
        spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(theta, phi),))
        h = build_interaction([code], spec)
        computed = pauli_decompose(h)
        reference = three_qubit_coupling_reference(theta, phi, 1.0)
        report = compare_term_lists(computed, reference)
        assert report["agree"], report
        assert report["max_delta"] < 1e-12
        assert report["n_computed"] == report["n_reference"]


def test_reference_term_count_at_poles():
    # at theta=0, phi=0 half the canonical terms vanish (zeta_- = 0)
    assert len(three_qubit_coupling_reference(0.0, 0.0, 1.0)) == 48
    assert len(three_qubit_coupling_reference(np.pi / 3, 0.9, 1.0)) == 96
