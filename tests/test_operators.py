"""Pauli algebra, spectral evolution, partial trace (test oracle) and Gibbs states."""

import numpy as np
import pytest

from logipure.operators import (
    KET_0,
    KET_1,
    PauliString,
    SIGMA_X,
    SPLIT_MIN_ROWS,
    SIGMA_Y,
    SIGMA_Z,
    basis_state,
    evolve,
    fidelity_pure,
    gibbs,
    hermitian_eig,
    kron,
    kron_all,
    pauli_on_sites,
    pauli_operator,
    pauli_sum,
    require_hermitian,
)

from oracles import embed, partial_trace, reconstruct, reflected_eig

TOL = 1e-12


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=TOL)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=TOL)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=TOL)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, np.eye(2), atol=TOL)
    assert np.allclose(SIGMA_X @ SIGMA_Y + SIGMA_Y @ SIGMA_X, 0.0, atol=TOL)


def test_ket_conventions():
    # |0> is the sigma-z ground state, |1> the excited one
    assert np.allclose(SIGMA_Z @ KET_0, -KET_0)
    assert np.allclose(SIGMA_Z @ KET_1, KET_1)


def test_pauli_operator_matches_explicit_kron():
    explicit = np.kron(np.kron(SIGMA_X, SIGMA_Z), SIGMA_Y)
    assert np.allclose(pauli_operator("XZY"), explicit, atol=TOL)


def test_pauli_operator_qubit0_is_leftmost():
    op = pauli_operator("ZII")
    # |000> puts qubit 0 in |0>, so the first diagonal entry is -1
    assert op[0, 0] == -1.0
    assert op[7, 7] == 1.0


def test_pauli_string_dataclass():
    p = PauliString("XZY", coefficient=0.5)
    assert p.n_qubits == 3
    with pytest.raises(ValueError):
        PauliString("XQ")


def test_basis_state():
    v = basis_state(3, 5)
    assert v.shape == (8,)
    assert v[5] == 1.0
    assert np.count_nonzero(v) == 1


def test_kron_all():
    a, b, c = (random_hermitian(2, s) for s in (1, 2, 3))
    assert np.allclose(kron_all([a, b, c]), np.kron(np.kron(a, b), c))
    assert np.allclose(kron_all([a]), a)
    assert np.allclose(kron(a, b), np.kron(a, b))


def test_pauli_sum_adds_weighted_strings():
    got = pauli_sum([PauliString("XZ", 0.5), "YY", PauliString("IZ", -2j)])
    want = 0.5 * np.kron(SIGMA_X, SIGMA_Z) + np.kron(SIGMA_Y, SIGMA_Y) - 2j * np.kron(np.eye(2), SIGMA_Z)
    assert np.allclose(got, want, atol=TOL)
    with pytest.raises(ValueError):
        pauli_sum([])
    with pytest.raises(ValueError):
        pauli_sum(["XZ", "XZI"])


def test_pauli_on_sites():
    assert pauli_on_sites(4, [3, 1], "XZ") == "IZIX"
    assert pauli_on_sites(2, [], "") == "II"
    for sites, letters in (([0, 0], "XZ"), ([4], "X"), ([-1], "X"), ([0], "XZ")):
        with pytest.raises(ValueError):
            pauli_on_sites(4, sites, letters)


def test_embed_places_factors_on_named_sites():
    xz = kron(SIGMA_X, SIGMA_Z)
    assert np.allclose(embed(xz, 4, [1, 3]), pauli_operator("IXIZ"), atol=TOL)
    # site order follows the factor order, not sorted order
    assert np.allclose(embed(xz, 4, [3, 1]), pauli_operator("IZIX"), atol=TOL)
    assert np.allclose(embed(SIGMA_Y, 3, [2]), pauli_operator("IIY"), atol=TOL)


def test_embed_random_against_kron_oracle():
    rng = np.random.default_rng(11)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = embed(op, 3, [0, 2])
    # oracle: expand op in the two-site Pauli basis and place each factor
    want = np.zeros((8, 8), dtype=complex)
    for p in "IXYZ":
        for q in "IXYZ":
            coeff = np.trace(np.kron(pauli_operator(p), pauli_operator(q)).conj().T @ op) / 4
            want += coeff * pauli_operator(p + "I" + q)
    assert np.allclose(got, want, atol=1e-10)


def test_require_hermitian():
    h = random_hermitian(4, 5)
    assert require_hermitian(h, "h") is not None
    with pytest.raises(ValueError):
        require_hermitian(h + 1e-6 * 1j * np.eye(4), "h")
    for bad in (np.nan, np.inf, -np.inf):
        h_bad = h.copy()
        h_bad[1, 2] = h_bad[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            require_hermitian(h_bad, "h")


def test_hermitian_eig_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(np.full((2, 2), np.nan))


def test_spectral_decomposition_roundtrip():
    h = random_hermitian(6, 20)
    spec = hermitian_eig(h)
    assert np.allclose(reconstruct(spec), h, atol=1e-10)
    u1, u2 = spec.unitary(0.3), spec.unitary(0.7)
    assert np.allclose(u1 @ u1.conj().T, np.eye(6), atol=1e-10)
    assert np.allclose(u1 @ u2, spec.unitary(1.0), atol=1e-10)


def test_hermitian_eig_splits_only_large_matrices():
    """A small matrix is solved whole, bit for bit as ``eigh``; a large one per block."""
    small = random_hermitian(16, 21)
    small[:8, 8:] = small[8:, :8] = 0.0  # two blocks
    spec = hermitian_eig(small)
    w, v = np.linalg.eigh(small)
    assert np.array_equal(spec.eigenvalues, w)
    assert np.array_equal(spec.eigenvectors, v)

    half = SPLIT_MIN_ROWS // 2
    h = np.zeros((2 * half, 2 * half), dtype=complex)
    h[:half, :half] = random_hermitian(half, 22)
    h[half:, half:] = random_hermitian(half, 23)
    perm = np.random.default_rng(24).permutation(2 * half)
    h = h[np.ix_(perm, perm)]
    labels = perm >= half
    spec = hermitian_eig(h)
    assert np.allclose(reconstruct(spec), h, atol=1e-12)
    for col in spec.eigenvectors.T:
        assert np.unique(labels[col != 0]).size == 1


def permuted_blocks(seed, complex_entries=False):
    """A hermitian matrix of SPLIT_MIN_ROWS rows, three blocks with permuted rows, and each row's block."""
    sizes = (SPLIT_MIN_ROWS // 2, SPLIT_MIN_ROWS // 4, SPLIT_MIN_ROWS // 4)
    h = np.zeros((SPLIT_MIN_ROWS, SPLIT_MIN_ROWS), dtype=complex if complex_entries else float)
    start = 0
    for k, size in enumerate(sizes):
        block = random_hermitian(size, seed + k)
        h[start : start + size, start : start + size] = block if complex_entries else block.real
        start += size
    perm = np.random.default_rng(seed).permutation(SPLIT_MIN_ROWS)
    return h[np.ix_(perm, perm)], np.repeat(np.arange(3), sizes)[perm]


def rows_of(labels, block):
    return np.flatnonzero(labels == block)


def test_hermitian_eig_reports_the_whole_matrix_asymmetry():
    h, labels = permuted_blocks(60)
    (i, j), (k, l) = rows_of(labels, 0)[:2], rows_of(labels, 2)[:2]
    h[i, j] += 1e-6
    h[k, l] += 3e-6  # the largest asymmetry, in another block
    asym = np.max(np.abs(h - h.T))
    with pytest.raises(ValueError, match=rf"not hermitian: max \|H - H\^dag\| = {asym:.3e}$"):
        hermitian_eig(h)


@pytest.mark.parametrize("upper", [True, False])
def test_hermitian_eig_rejects_one_sided_entry_between_blocks(upper):
    """h[i, j] set and h[j, i] zero, with i and j in blocks that are otherwise apart."""
    h, labels = permuted_blocks(61)
    i, j = rows_of(labels, 1)[0], rows_of(labels, 2)[0]
    i, j = (min(i, j), max(i, j)) if upper else (max(i, j), min(i, j))
    h[i, j] = 0.5
    with pytest.raises(ValueError, match="not hermitian"):
        hermitian_eig(h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hermitian_eig_rejects_non_finite_blocks(bad):
    h, labels = permuted_blocks(62)
    inside = rows_of(labels, 1)[:2]
    h[inside[0], inside[1]] = h[inside[1], inside[0]] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(h)
    h, labels = permuted_blocks(62)
    h[rows_of(labels, 2)[-1], rows_of(labels, 0)[0]] = bad  # one-sided, between blocks
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(h)


def test_hermitian_eig_checks_both_pieces_of_a_halved_block():
    """An asymmetry the reflection keeps, between two mirror pairs, is the whole matrix's.

    Checked on the dense oracle ``reflected_eig``, which halves the blocks
    of ``hermitian_eig`` by a reflection.
    """
    n = SPLIT_MIN_ROWS
    image = np.arange(n)[::-1].copy()  # pairs (k, n - 1 - k)
    m = random_hermitian(n, 64).real
    h = m + m[np.ix_(image, image)]
    spec = reflected_eig(h, image)
    assert np.allclose(reconstruct(spec), h, rtol=0, atol=1e-12 * np.max(np.abs(h)))
    a1, a2 = 3, 7
    b1, b2 = image[a1], image[a2]
    h[a1, b2] += 1e-6
    h[b1, a2] += 1e-6  # its mirror, so the block is still halved
    asym = np.max(np.abs(h - h.T))
    with pytest.raises(ValueError, match=rf"not hermitian: max \|H - H\^dag\| = {asym:.3e}$"):
        reflected_eig(h, image)


@pytest.mark.parametrize("image", [[1, 2, 0], [0, 1], [0.0, 1.0, 2.0], [0, 0, 2], [0, 1, 3]])
def test_hermitian_eig_rejects_a_bad_reflection(image):
    with pytest.raises(ValueError, match="involution"):
        reflected_eig(np.eye(3), np.array(image))


def test_hermitian_eig_keeps_complex_blocks_complex():
    h, labels = permuted_blocks(63, complex_entries=True)
    spec = hermitian_eig(h)
    assert len(spec.blocks) == 3
    assert all(np.iscomplexobj(vectors) for _, _, vectors in spec.blocks)
    assert np.allclose(reconstruct(spec), h, rtol=0, atol=1e-12)
    for col in spec.eigenvectors.T:
        assert np.unique(labels[col != 0]).size == 1


def test_evolve_matches_rabi_oracle():
    # H = g sx on one qubit: starting from |0>, the |1> population is sin^2(gt)
    g = 0.8
    h = g * SIGMA_X
    rho0 = np.outer(KET_0, KET_0.conj())
    for t in (0.0, 0.4, 1.3, 2.9):
        rho_t = evolve(h, t, rho0)
        assert abs(rho_t[1, 1].real - np.sin(g * t) ** 2) < 1e-12


def test_evolve_preserves_trace_and_hermiticity():
    h = random_hermitian(8, 21)
    rho = random_density(8, 22)
    rho_t = evolve(h, 1.7, rho)
    assert abs(np.trace(rho_t) - 1.0) < 1e-12
    assert np.allclose(rho_t, rho_t.conj().T, atol=1e-12)
    # eigenvalues are preserved under unitary evolution
    assert np.allclose(
        np.linalg.eigvalsh(rho_t), np.linalg.eigvalsh(rho), atol=1e-10
    )


def test_partial_trace_factors_product_state():
    rho_a = random_density(2, 30)
    rho_b = random_density(4, 31)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, [2, 4], keep=[0]), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, [2, 4], keep=[1]), rho_b, atol=1e-12)


def test_partial_trace_three_factors():
    rho_a, rho_b, rho_c = random_density(2, 32), random_density(2, 33), random_density(2, 34)
    joint = kron_all([rho_a, rho_b, rho_c])
    got = partial_trace(joint, [2, 2, 2], keep=[0, 2])
    assert np.allclose(got, np.kron(rho_a, rho_c), atol=1e-12)
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_gibbs_repetition_oracle():
    # three-qubit code at beta=0.1, J=1: Z = 2 + 6 e^{-0.4}, ground weight 1/Z each
    h = 3.0 * np.eye(8) - pauli_operator("ZZI") - pauli_operator("IZZ") - pauli_operator("ZIZ")
    rho, z = gibbs(h, 0.1)
    z_oracle = 2.0 + 6.0 * np.exp(-0.4)
    assert abs(z - z_oracle) < 1e-12
    assert abs(rho[0, 0].real - 1.0 / z_oracle) < 1e-12
    assert abs(rho[7, 7].real - 1.0 / z_oracle) < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_gibbs_infinite_temperature():
    h = random_hermitian(8, 40)
    rho, z = gibbs(h, 0.0)
    assert np.allclose(rho, np.eye(8) / 8.0, atol=1e-12)
    assert abs(z - 8.0) < 1e-12


def test_gibbs_low_temperature_no_overflow():
    h = np.diag([0.0, 0.0, 5.0, 9.0]).astype(complex)
    rho, z = gibbs(h, 1e5)
    assert np.isfinite(z)
    assert np.allclose(rho, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12)


def test_gibbs_accepts_precomputed_spectral():
    h = random_hermitian(6, 41)
    spec = hermitian_eig(h)
    rho_a, z_a = gibbs(h, 0.7)
    rho_b, z_b = gibbs(h, 0.7, spectral=spec)
    assert np.allclose(rho_a, rho_b, atol=1e-13)
    assert abs(z_a - z_b) < 1e-13


def test_fidelity_pure():
    rng = np.random.default_rng(50)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi /= np.linalg.norm(phi)
    rho = np.outer(psi, psi.conj())
    assert abs(fidelity_pure(rho, phi) - abs(np.vdot(phi, psi)) ** 2) < 1e-12
    assert abs(fidelity_pure(rho, psi) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        fidelity_pure(rho, 2.0 * phi)
