"""Property tests of the block-split eigensolve and round kernel, one cell or a batch,
of the one-round plane, of the auxiliary measurement and of the Pauli-sum builder.

Random block-diagonal problems are hidden behind a random permutation of
the basis, so the blocks are only visible through the exactly-zero
pattern; each fast path is checked against a dense reference.
"""

from unittest import mock

import numpy as np
import pytest

from logipure import _kernels, operators
from logipure._kernels import batch_trajectory_kernel, trajectory_kernel
from logipure.codes import HeisenbergSpec, build_heisenberg_code, cardinal_state
from logipure.emr import (
    CALIBRATED_AUX_ENERGY,
    CHAIN_BENCHMARK,
    POLICIES,
    RoundSpec,
    XYSetup,
    build_xy_setup,
    fast_trajectory,
    plane_one_round,
    round_contraction,
    run_emr,
    thermal_ensemble,
)
from logipure.measurement import UNATTAINABLE_P, MeasurementSetting, measure_aq
from logipure.operators import (
    PAULI_MATRICES,
    PauliString,
    evolve,
    gibbs,
    hermitian_eig,
    kron,
    kron_all,
    pauli_sum,
)

from oracles import dense_round_contraction, dense_trajectory, projector_measurement

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

block_sizes = st.lists(st.integers(1, 5), min_size=1, max_size=4)
seeds = st.integers(0, 2**32 - 1)


def cmat(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def hermitian_block(rng, m, real):
    """A random m x m hermitian block; real-symmetric when ``real``."""
    a = rng.normal(size=(m, m)) if real else cmat(rng, m, m)
    return a + a.conj().T


def shuffled_blocks(blocks, perm):
    """Block-diagonal matrix of ``blocks`` with its basis reordered by ``perm``."""
    n = perm.size
    full = np.zeros((n, n), dtype=complex)
    start = 0
    for b in blocks:
        m = b.shape[0]
        full[start : start + m, start : start + m] = b
        start += m
    return full[np.ix_(perm, perm)]


def shuffled_labels(sizes, perm):
    """Block label of each row of :func:`shuffled_blocks`."""
    return np.repeat(np.arange(len(sizes)), sizes)[perm]


@settings(max_examples=60, deadline=None)
@given(sizes=block_sizes, seed=seeds, repeat=st.booleans(), t=st.floats(0.0, 3.0), real=st.booleans())
def test_hermitian_eig_on_hidden_blocks(sizes, seed, repeat, t, real):
    """Blocks hidden in a complex array; an exactly real one is solved in real arithmetic."""
    rng = np.random.default_rng(seed)
    blocks = [hermitian_block(rng, m, real) for m in sizes]
    if repeat:  # a copy of the first block degenerates with it across blocks
        blocks.append(blocks[0].copy())
    sizes = [b.shape[0] for b in blocks]
    perm = rng.permutation(sum(sizes))
    h, labels = shuffled_blocks(blocks, perm), shuffled_labels(sizes, perm)

    with mock.patch.object(operators, "SPLIT_MIN_ROWS", 1):  # so small matrices split too
        spec = hermitian_eig(h)
    assert np.max(np.abs(spec.reconstruct() - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-12 * max(
        1.0, np.max(np.abs(spec.eigenvalues))
    )
    w, v = np.linalg.eigh(h)
    dense_u = (v * np.exp(-1j * w * t)) @ v.conj().T
    assert np.max(np.abs(spec.unitary(t) - dense_u)) <= 1e-12
    for col in spec.eigenvectors.T:
        assert np.unique(labels[col != 0]).size == 1
    # one-by-one complex blocks are real too, so the dtype follows H, not the draw
    is_real = not np.any(h.imag)
    assert is_real or not real
    assert spec.eigenvectors.dtype == (np.float64 if is_real else np.complex128)
    assert all(vectors.dtype == spec.eigenvectors.dtype for _, _, vectors in spec.blocks)


@settings(max_examples=60, deadline=None)
@given(
    sizes=block_sizes,
    seed=seeds,
    n_targets=st.integers(1, 3),
    n_rounds=st.integers(1, 12),
    spanning_column=st.booleans(),
    min_part_rows=st.integers(1, 6),
)
def test_split_kernel_matches_dense_loop(
    sizes, seed, n_targets, n_rounds, spanning_column, min_part_rows
):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    labels = shuffled_labels(sizes, perm)
    k_first, k_later = (
        shuffled_blocks([cmat(rng, m, m) / np.sqrt(2 * m) for m in sizes], perm) for _ in range(2)
    )
    columns = []
    for b, m in enumerate(sizes):  # ensemble columns supported on one block each
        for _ in range(rng.integers(1, m + 1)):
            col = np.zeros(n, dtype=complex)
            col[labels == b] = rng.normal(size=m) + 1j * rng.normal(size=m)
            columns.append(col)
    if spanning_column:  # couples every block into one
        columns.append(rng.normal(size=n) + 1j * rng.normal(size=n))
    ensemble = np.column_stack(columns)
    ensemble /= np.linalg.norm(ensemble)
    targets = cmat(rng, n_targets, n)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)

    # small part sizes, so these small problems take the split path too
    with mock.patch.object(_kernels, "MIN_PART_ROWS", min_part_rows):
        fid, p_round, p_cum, truncated, _ = trajectory_kernel(k_first, k_later, ensemble, targets, n_rounds)
    ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first, k_later, ensemble, targets, n_rounds)
    assert not truncated
    assert fid.shape == (n_rounds, n_targets)
    assert np.max(np.abs(fid - ref_fid)) <= 1e-12
    assert np.max(np.abs(p_round / ref_p_round - 1.0)) <= 1e-12
    assert np.max(np.abs(p_cum / ref_p_cum - 1.0)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    sizes=block_sizes,
    seed=seeds,
    n_cells=st.integers(1, 4),
    n_targets=st.integers(1, 3),
    n_rounds=st.integers(1, 12),
    min_part_rows=st.integers(1, 6),
    fading=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_batched_cells_match_dense_loop(
    sizes, seed, n_cells, n_targets, n_rounds, min_part_rows, fading
):
    """Each cell of a batch follows the dense loop up to its own stopping round.

    Every cell has its own operators on the same hidden blocks and some
    drop a block entirely; a fading cell's later operator is scaled down
    so that it usually trips the fixed floor inside the batch.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    k_first, k_later = [], []
    for c in range(n_cells):
        blocks = [cmat(rng, m, m) / np.sqrt(2 * m) for m in sizes]
        if len(sizes) > 1:  # maybe drop a block; the ensemble keeps the weight nonzero
            blocks[int(rng.integers(len(sizes)))] *= rng.integers(0, 2)
        k_first.append(shuffled_blocks(blocks, perm))
        later = shuffled_blocks([cmat(rng, m, m) / np.sqrt(2 * m) for m in sizes], perm)
        k_later.append(later * (1e-8 if fading[c] else 1.0))
    ensemble = cmat(rng, n, n)[:, perm] * (shuffled_blocks([np.ones((m, m)) for m in sizes], perm) != 0)
    ensemble /= np.linalg.norm(ensemble)
    targets = cmat(rng, n_targets, n)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)

    # small part sizes, so these small problems take the split path too
    with mock.patch.object(_kernels, "MIN_PART_ROWS", min_part_rows):
        fid, p_round, p_cum, done, reasons = batch_trajectory_kernel(
            np.stack(k_first), np.stack(k_later), ensemble, targets, n_rounds
        )
    for c in range(n_cells):
        ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first[c], k_later[c], ensemble, targets, n_rounds)
        below = np.flatnonzero(~(ref_p_round >= UNATTAINABLE_P))
        stop = int(below[0]) if below.size else n_rounds
        assert done[c] == stop
        assert (reasons[c] is None) == (stop == n_rounds)
        assert np.max(np.abs(fid[c, :stop] - ref_fid[:stop]), initial=0.0) <= 1e-12
        assert np.max(np.abs(p_round[c, :stop] / ref_p_round[:stop] - 1.0), initial=0.0) <= 1e-12
        assert np.max(np.abs(p_cum[c, :stop] / ref_p_cum[:stop] - 1.0), initial=0.0) <= 1e-12
        assert np.max(np.abs(p_cum[c, :stop] / np.cumprod(p_round[c, :stop]) - 1.0), initial=0.0) <= 1e-12
        assert not (np.any(fid[c, stop:]) or np.any(p_round[c, stop:]) or np.any(p_cum[c, stop:]))


@settings(max_examples=60, deadline=None)
@given(
    sizes=block_sizes,
    seed=seeds,
    n_aux=st.integers(1, 2),
    n_cells=st.integers(1, 3),
    polar=st.lists(st.sampled_from([0.0, 0.4, np.pi / 2, 2.9]), min_size=6, max_size=6),
    durations=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
    real=st.booleans(),
)
def test_round_contraction_matches_dense_on_hidden_blocks(sizes, seed, n_aux, n_cells, polar, durations, real):
    """Block-by-block operators equal <psi_out| U |aq_in> with the same exact zeros.

    The joint basis is a random permutation of a block-diagonal problem,
    so the blocks cut across the system and auxiliary factors; an equal
    zero pattern means the kernel finds the same parts in either operator.
    Polar angles 0 leave auxiliary components exactly zero, which the
    block contraction skips.  The dense-eigenvector formula of
    :func:`dense_round_contraction` must agree as well.
    """
    rng = np.random.default_rng(seed)
    d_a = 2**n_aux
    sizes = sizes + ([-sum(sizes) % d_a] if sum(sizes) % d_a else [])
    blocks = [hermitian_block(rng, m, real) for m in sizes]
    dim = sum(sizes)
    h = shuffled_blocks(blocks, rng.permutation(dim))
    d_s = dim // d_a
    angles = iter(polar)
    cells = [
        tuple(MeasurementSetting(a=next(angles), b=float(rng.uniform(0, 2 * np.pi))) for _ in range(n_aux))
        for _ in range(n_cells)
    ]
    psi_out = np.stack([kron_all([s.state() for s in cell]) for cell in cells])
    ket0 = np.zeros(d_a, dtype=complex)
    ket0[0] = 1.0

    with mock.patch.object(operators, "SPLIT_MIN_ROWS", 1):  # so small matrices split too
        spec = hermitian_eig(h)
    if real:
        assert spec.eigenvectors.dtype == np.float64
    for aq_in in (ket0, psi_out):
        ops = round_contraction(spec, durations, psi_out, aq_in)
        reference = dense_round_contraction(spec, durations, psi_out, aq_in)
        assert np.max(np.abs(ops - reference)) <= 1e-12
        assert np.array_equal(ops != 0, reference != 0)
        for i, t in enumerate(durations):
            ur = spec.unitary(t).reshape(d_s, d_a, d_s, d_a)
            dense = np.einsum("xa,iajb,xb->xij", psi_out.conj(), ur, np.broadcast_to(aq_in, psi_out.shape))
            assert np.max(np.abs(ops[i] - dense)) <= 1e-12
            assert np.array_equal(ops[i] != 0, dense != 0)


SMALL_ROWS = [row for row in CHAIN_BENCHMARK if row.n_sites <= 4]


@settings(max_examples=60, deadline=None)
@given(
    sizes=block_sizes,
    seed=seeds,
    n_aux=st.integers(1, 2),
    n_cells=st.integers(1, 3),
    polar=st.lists(st.sampled_from([0.0, 0.4, np.pi / 2, 2.9, np.pi]), min_size=6, max_size=6),
    outcomes=st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6),
    durations=st.lists(st.just(0.0) | st.floats(0.1, 3.0), min_size=1, max_size=3),
    real=st.booleans(),
)
def test_plane_one_round_matches_measure_aq_on_hidden_blocks(
    sizes, seed, n_aux, n_cells, polar, outcomes, durations, real
):
    """One contraction per plane gives what measure_aq gives on the evolved joint state.

    The host is a random block-diagonal Hamiltonian behind a random
    permutation, so its blocks cut across the system and auxiliary
    factors.  Polar angles 0 and pi and duration 0 make outcomes of zero
    probability, which both paths must report as unattainable.
    """
    rng = np.random.default_rng(seed)
    d_a = 2**n_aux
    sizes = sizes + ([-sum(sizes) % d_a] if sum(sizes) % d_a else [])
    dim = sum(sizes)
    d_s = dim // d_a
    h = shuffled_blocks([hermitian_block(rng, m, real) for m in sizes], rng.permutation(dim))
    angles, signs = iter(polar), iter(outcomes)
    cells = [
        tuple(
            MeasurementSetting(a=next(angles), b=float(rng.uniform(0, 2 * np.pi)), k=next(signs))
            for _ in range(n_aux)
        )
        for _ in range(n_cells)
    ]
    ensemble = cmat(rng, d_s, d_s)
    ensemble /= np.linalg.norm(ensemble)
    target = cmat(rng, d_s, 1)[:, 0]
    target /= np.linalg.norm(target)

    with mock.patch.object(operators, "SPLIT_MIN_ROWS", 1):  # so small matrices split too
        spec = hermitian_eig(h)
    p, f = plane_one_round(spec, ensemble, cells, durations, target)
    assert p.shape == f.shape == (len(durations), n_cells)
    assert np.all(p >= 0.0)
    assert np.all(np.isnan(f) | ((f >= 0.0) & (f <= 1.0)))
    aux_ground = np.zeros((d_a, d_a))
    aux_ground[0, 0] = 1.0
    rho0 = kron(ensemble @ ensemble.conj().T, aux_ground)
    for i, t in enumerate(durations):
        rho_t = evolve(h, t, rho0, spectral=spec)
        for j, cell in enumerate(cells):
            rec = measure_aq(rho_t, n_aux, cell, target=target)[tuple(s.k for s in cell)]
            assert abs(p[i, j] - rec.probability) <= 1e-12
            assert np.isnan(f[i, j]) == (not rec.attainable)
            assert not rec.attainable or abs(f[i, j] - rec.fidelity) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    row=st.sampled_from(SMALL_ROWS),
    policy=st.sampled_from(POLICIES),
    sign=st.sampled_from("+-"),
    beta=st.floats(0.0, 1.0),
    duration=st.floats(0.2, 2.0),
)
def test_fast_trajectory_matches_dense_loop_on_chain_rows(row, policy, sign, beta, duration):
    spec = HeisenbergSpec(n_qubits=row.n_sites)
    code = build_heisenberg_code(spec)
    n_aux = len(row.settings)
    setup = XYSetup(
        row.n_sites, n_aux, j_2=row.j_2, gamma=row.gamma, aux_energy=CALIBRATED_AUX_ENERGY
    )
    h_tot = build_xy_setup(setup, spec)
    settings_ = tuple(MeasurementSetting(a=a, b=b, k=k) for a, b, k in row.settings)
    target = cardinal_state(code, row.axis + sign)
    ground = np.zeros((2**n_aux, 2**n_aux))
    ground[0, 0] = 1.0
    rho0 = kron(gibbs(code.hamiltonian, beta)[0], ground)

    ref = run_emr(h_tot, rho0, RoundSpec(duration, settings_), target, 8, policy)
    fast = fast_trajectory(
        hermitian_eig(h_tot),
        thermal_ensemble([code], beta),
        RoundSpec(duration, settings_),
        target,
        8,
        aq_reset=policy,
    )
    assert (fast.n_rounds, fast.truncated) == (ref.n_rounds, ref.truncated)
    assert np.allclose(fast.fidelity, ref.fidelity, rtol=0.0, atol=1e-10)
    assert np.allclose(fast.p_round, ref.p_round, rtol=1e-10, atol=0.0)
    assert np.allclose(fast.p_cumulative, ref.p_cumulative, rtol=1e-10, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(
    d_s=st.integers(1, 8),
    n_aux=st.integers(1, 3),
    seed=seeds,
    polar=st.lists(st.floats(0.0, np.pi), min_size=3, max_size=3),
    azimuth=st.lists(st.floats(0.1, 2 * np.pi), min_size=3, max_size=3),
    outcomes=st.lists(st.sampled_from([+1, -1]), min_size=3, max_size=3),
    product_state=st.booleans(),
)
def test_measure_aq_matches_projector_oracle(d_s, n_aux, seed, polar, azimuth, outcomes, product_state):
    """The auxiliary-axis contraction equals the joint-dimension projector sandwich.

    The azimuths stay away from 0, so a missing conjugate on the bra
    side shows.  A product state rho_S (x) |chi><chi|, with chi the
    settings' own outcome states, makes every other outcome unattainable.
    """
    rng = np.random.default_rng(seed)
    aq_settings = [MeasurementSetting(a=a, b=b, k=k) for a, b, k in zip(polar, azimuth, outcomes)][:n_aux]
    dim = d_s * 2**n_aux
    if product_state:
        m = cmat(rng, d_s, d_s)
        chi = kron_all([s.state() for s in aq_settings])
        rho = kron(m @ m.conj().T, np.outer(chi, chi.conj()))
    else:
        m = cmat(rng, dim, dim)
        rho = m @ m.conj().T
    rho /= np.trace(rho)
    target = rng.normal(size=d_s) + 1j * rng.normal(size=d_s)
    target /= np.linalg.norm(target)

    records = measure_aq(rho, n_aux, aq_settings, target=target)
    reference = projector_measurement(rho, n_aux, aq_settings, target=target)
    assert sorted(records) == sorted(reference)
    assert abs(sum(r.probability for r in records.values()) - 1.0) <= 1e-12
    for outcome, (prob, fid, post, attainable) in reference.items():
        rec = records[outcome]
        assert rec.attainable == attainable
        assert abs(rec.probability - prob) <= 1e-12
        if attainable:
            assert abs(rec.fidelity - fid) <= 1e-12
            assert 0.0 <= rec.fidelity <= 1.0
            assert np.max(np.abs(rec.post_system_state - post)) <= 1e-12
        else:
            assert np.isnan(rec.fidelity) and rec.post_system_state is None
    if product_state:
        assert records[tuple(s.k for s in aq_settings)].attainable
        assert sum(r.attainable for r in records.values()) == 1


finite = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_pauli_sum_matches_kron_of_pauli_matrices(n, data):
    """Random strings with complex weights: the bit-operation build equals the sum of krons."""
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    term = st.builds(lambda w, re, im: PauliString(w, complex(re, im)), letters, finite, finite)
    terms = data.draw(st.lists(term, min_size=1, max_size=6))
    want = sum(t.coefficient * kron_all(PAULI_MATRICES[c] for c in t.letters) for t in terms)
    assert np.max(np.abs(pauli_sum(terms) - want)) <= 1e-15
