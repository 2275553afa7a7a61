"""Code builders, spectral splitting and logical-state helpers."""

import math
import re
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
    stabilizer_levels,
)
from logipure.operators import PauliString, kron_all, pauli_operator, require_hermitian
from logipure.thermal import ThermalSpec
from oracles import dense_levels, next_nearest_zz_chain, reconstruct, rotated_surface_code

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


@pytest.mark.parametrize("exchange", [1e-20, 1.0, 1e8])
@pytest.mark.parametrize(
    "broken,message",
    [
        ("transverse field", "the chain Hamiltonian couples its own conserved sectors"),
        ("field 1.9 J", "chain ground energy {:.3e} lies below |0...0>: convention is broken"),
        ("field 2.5 J", "chain ground manifold is 1-fold degenerate; field/exchange convention is broken"),
        ("hop 1e-8", "one-magnon state is not a zero-energy eigenstate: convention is broken"),
        ("hop 1e-9", "ground/excited bases are not orthonormal"),
    ],
)
def test_chain_build_checks_keep_their_messages(broken, message, exchange):
    """Each check of the 4-site chain build refuses a chain broken for it, at any J: an extra X
    on site 0 crosses the magnetization sectors; a field below 2J puts a magnon below |0...0>
    (at -0.1 J), and one above it leaves |0...0> alone at the bottom; an extra hop of 1e-8 J on
    bond (0, 1) keeps a two-fold ground level but moves the magnon off the staggered state by
    more than the residual tolerance, and one of 1e-9 J by less, so that it is no longer
    orthogonal to the excited states.  A tolerance floored at 1 would let the broken chains
    at J = 1e-20 pass the chain's own checks."""
    strings = {
        "transverse field": [PauliString("XIII", 0.1 * exchange)],
        "hop 1e-8": [PauliString("XXII", 1e-8 * exchange), PauliString("YYII", 1e-8 * exchange)],
        "hop 1e-9": [PauliString("XXII", 1e-9 * exchange), PauliString("YYII", 1e-9 * exchange)],
    }.get(broken, [])
    field = {"field 1.9 J": 1.9, "field 2.5 J": 2.5}.get(broken, 2.0)
    entries = codes._pauli_entries
    with (
        mock.patch.object(codes, "_pauli_entries", lambda terms, cols: entries(list(terms) + strings, cols)),
        mock.patch.object(HeisenbergSpec, "field", property(lambda spec: field * spec.exchange)),
        pytest.raises(ValueError, match=f"^{re.escape(message.format(-0.1 * exchange))}$"),
    ):
        build_heisenberg_code(HeisenbergSpec(4, exchange))


@pytest.mark.parametrize("strength", [1e-20, 1.0, 1e8])
def test_code_model_checks_scale_with_the_spectrum(strength):
    """The repetition code with a ground state swapped for an excited one, or a ground state
    duplicated, is refused at any J: the eigenstate checks are relative to the spectrum's own
    scale, not floored at 1, which would pass a residual of 4e-20 as zero."""
    code = build_repetition_code(strength)
    swapped = (code.es_basis[0], code.ls_basis[1])
    with pytest.raises(ValueError, match="ground basis state is not a zero-energy eigenstate"):
        codes.CodeModel(3, code.hamiltonian, swapped, code.es_basis, code.gap, code.spectrum)
    with pytest.raises(ValueError, match="excited basis state is not an eigenstate at the gap energy"):
        codes.CodeModel(3, code.hamiltonian, code.ls_basis, code.es_basis, 2 * code.gap, code.spectrum)
    with pytest.raises(ValueError, match="ground/excited bases are not orthonormal"):
        codes.CodeModel(3, code.hamiltonian, (code.ls_basis[0],) * 2, code.es_basis, code.gap, code.spectrum)


@pytest.mark.parametrize("exchange", [float("nan"), 1e308], ids=["nan", "overflowing-field"])
def test_heisenberg_chain_refuses_non_finite_entries(exchange):
    """A NaN exchange, or one whose field 2J overflows, is refused for its entries, before the
    sector check could read a NaN entry as one that couples two sectors."""
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="hamiltonian has non-finite entries"):
        build_heisenberg_code(HeisenbergSpec(4, exchange))


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


def test_eigenvector_gauge_does_not_depend_on_the_solver(monkeypatch):
    """The 4-site chain solved by the real and by the complex LAPACK routine: the two return
    its 3-fold excited basis in another order and with other signs, and the gauge (largest
    entry real and positive) makes the uniform excited state, and with it the engineered
    coupling's Pauli expansion, the same."""
    from logipure.interaction import InteractionSpec, build_interaction, pauli_decompose

    def expansion():
        code = build_heisenberg_code(HeisenbergSpec(n_qubits=4))
        spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(0.3, 0.2),))
        for v in code.spectrum.eigenvectors.T:
            lead = np.flatnonzero(np.abs(v) >= (1 - 1e-8) * np.abs(v).max())[0]
            assert v[lead].real > 0 and abs(v[lead].imag) <= 1e-15
        return {t.letters: t.coefficient for t in pauli_decompose(build_interaction([code], spec))}

    real = expansion()
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: eigh(np.asarray(a, dtype=complex), *args, **kwargs))
    complex_ = expansion()
    assert real.keys() == complex_.keys()
    assert max(abs(real[k] - complex_[k]) for k in real) <= 1e-12


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


STABILIZER_CODES = {
    "repetition": ["ZZI", "IZZ", "ZIZ"],  # a dependent string: 2^1 dual words
    "five-qubit": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
    "steane": ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"],
    "shor": ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"],
    "surface-3": rotated_surface_code(3),
    "ring-6": ["ZZIIII", "IZZIII", "IIZZII", "IIIZZI", "IIIIZZ", "ZIIIIZ", "ZIZIII"],  # rank 5 of 7: 2^2 dual words
}


@pytest.mark.parametrize("name", sorted(STABILIZER_CODES))
def test_stabilizer_levels_are_the_dense_clusters(name):
    """The levels from the group are the built code's clusters: energies, degeneracies and gap."""
    levels = stabilizer_levels(STABILIZER_CODES[name], 0.7)
    code = build_stabilizer_code(STABILIZER_CODES[name], 0.7)
    energies, sizes = dense_levels(code)
    assert levels.degeneracies.tolist() == sizes
    assert np.max(np.abs(levels.energies - energies)) <= 1e-12 * np.max(np.abs(energies))
    assert abs(levels.gap - code.gap) <= 1e-12 * code.gap


def test_diagonal_code_levels_are_its_eigenvalues_bit_for_bit():
    """For a Z-only code each level is the dense path's own difference of two products."""
    for words in (STABILIZER_CODES["repetition"], STABILIZER_CODES["ring-6"]):
        levels = stabilizer_levels(words, 0.7)
        dense = build_stabilizer_code(words, 0.7).spectrum.eigenvalues
        assert np.array_equal(np.repeat(levels.energies, levels.degeneracies.astype(int)), dense)


def test_independent_checks_give_the_product_form():
    """d = 5 and d = 7 surface codes (25 and 49 qubits): level 2Jk holds 2 C(d^2 - 1, k) states."""
    for d in (5, 7):
        r = d * d - 1
        levels = stabilizer_levels(rotated_surface_code(d), 1.5)
        assert levels.degeneracies.tolist() == [2 * math.comb(r, k) for k in range(r + 1)]
        assert np.allclose(levels.energies, 3.0 * np.arange(r + 1), rtol=1e-15, atol=0)
        assert levels.gap == 3.0


def test_code_model_levels_keep_the_dense_bits():
    """A built code's levels are its eigenvalues one by one, so Z is the old sum, bit for bit."""
    code = build_stabilizer_code(STABILIZER_CODES["steane"], 0.9)
    for beta in (0.0, 0.1, 0.37, 2.9):
        z = float(np.exp(-beta * code.spectrum.eigenvalues).sum())
        assert ThermalSpec.from_codes([code], beta).z_factors == (z,)


def test_enumeration_budget_is_inclusive_and_bounds_the_peak(monkeypatch):
    """A code at codes.MAX_ENUMERATION_BYTES runs and stays within it (numpy's buffers add about
    80 KB, which the byte a word to spare covers from 2^17 words up); one byte less refuses it
    before anything of its size is allocated."""
    import tracemalloc

    words = next_nearest_zz_chain(20)  # 2^18 words of 19 bytes
    need = 2**18 * 19
    monkeypatch.setattr(codes, "MAX_ENUMERATION_BYTES", need)
    tracemalloc.start()
    try:
        levels = stabilizer_levels(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    assert levels.degeneracies[0] == 2 and levels.degeneracies.sum() == 2**20
    monkeypatch.setattr(codes, "MAX_ENUMERATION_BYTES", need - 1)
    tracemalloc.start()
    try:
        refusal = f"37 stabilizers of rank 19 need an enumeration of 2\\^18 words, {need} bytes; the limit is {need - 1} bytes"
        with pytest.raises(ValueError, match=refusal):
            stabilizer_levels(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "stabilizers,message",
    [
        (["XX", "ZZ", "YY"], "ground manifold is 3-fold degenerate"),  # XX ZZ YY = -I: frustrated
        (["XX", "ZZ"], "ground manifold is 1-fold degenerate; a single logical qubit needs exactly 2 ground states"),
        (["XXXX", "ZZZZ"], "ground manifold is 4-fold degenerate"),
        (["II"], "spectrum forms a single degenerate cluster: no gap"),
        ([PauliString("ZZ"), PauliString("ZZ", -1.0)], "flat spectrum: no gap to split on"),
        (["ZZI", "ZZ"], "Pauli strings act on different register sizes"),
        (["XI", "ZI"], "stabilizers 'XI' and 'ZI' do not commute"),
        ([], "a stabilizer code needs at least one string"),
    ],
)
def test_stabilizer_levels_refuse_as_the_build_does(stabilizers, message):
    for build in (stabilizer_levels, build_stabilizer_code):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(stabilizers)


def test_levels_past_float64_are_refused_by_name():
    """A 1030-qubit repetition chain has levels of about 2^1024 states: refused as such, not as an
    overflow of some energy."""
    words = ["I" * i + "ZZ" + "I" * (1028 - i) for i in range(1029)]
    with pytest.raises(ValueError, match=r"^a level of the code holds 2\^1024 states or more, past float64$"):
        stabilizer_levels(words)
