"""Property tests of the block-split eigensolve and round kernel, one cell or a batch,
of the one-round plane, of the auxiliary measurement, of the Pauli-sum builder,
of the stabilizer checks and the levels read from a stabilizer group, of the
rank-one recursion's bound on the target's population, of the chain's
reflected thermal factor, and of the CLI over generated stabilizer codes,
table1 rows and broken configs.

Random block-diagonal problems are hidden behind a random permutation of
the basis, so the blocks are only visible through the exactly-zero
pattern; each fast path is checked against a dense reference.
"""

import contextlib
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from logipure import _kernels, cli, emr, operators
from logipure._kernels import SMALLEST_NORMAL, batch_trajectory_kernel, trajectory_kernel
from logipure.cli import main
from logipure.codes import (
    HeisenbergSpec,
    code_from_json,
    LogicalTarget,
    build_heisenberg_code,
    build_stabilizer_code,
    cardinal_state,
    code_from_hamiltonian,
    stabilizer_levels,
)
from logipure.emr import (
    CALIBRATED_AUX_ENERGY,
    CHAIN_BENCHMARK,
    POLICIES,
    _first_rounds,
    RoundSpec,
    XYSetup,
    build_xy_setup,
    fast_trajectory,
    plane_one_round,
    round_contraction,
    run_emr,
    thermal_ensemble,
)
from logipure.formulas import emr_rank_one
from logipure.interaction import (
    GROUND_PREP,
    RANK_ONE,
    TARGETED,
    VARIANTS,
    AuxiliarySpec,
    InteractionSpec,
    build_interaction,
    build_total,
    joint_target_state,
)
from logipure.measurement import UNATTAINABLE_P, MeasurementSetting, measure_aq, purify_once
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
from logipure.thermal import ResonanceContext, ThermalSpec

from oracles import (
    dense_heisenberg_code,
    dense_levels,
    dense_round_contraction,
    dense_stabilizer_code,
    dense_trajectory,
    letter_product,
    letters_commute,
    next_nearest_zz_chain,
    projector_measurement,
    reconstruct,
    reflected_eig,
    reflected_operators,
    rotated_surface_code,
)

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
    assert np.max(np.abs(reconstruct(spec) - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
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


def random_involution(rng, n, labels, keep_labels):
    """Each row's image under a random involution, pairing rows of one label when ``keep_labels``."""
    image = np.arange(n)
    groups = [np.flatnonzero(labels == label) for label in np.unique(labels)] if keep_labels else [image]
    for rows in groups:
        rows = rng.permutation(rows)
        pairs = int(rng.integers(0, rows.size // 2 + 1))
        lower, upper = rows[:pairs], rows[pairs : 2 * pairs]
        image[lower], image[upper] = upper, lower
    return image


def expected_solves(h, image):
    """Sizes of the ``eigh`` calls of a split solve: each block whole, or its even and odd halves."""
    sizes = []
    for rows in operators.coupled_blocks(h != 0):
        mapped = image[rows]
        pairs = int(np.sum(mapped > rows))
        closed = np.array_equal(np.sort(mapped), rows)
        symmetric = np.array_equal(h[np.ix_(mapped, mapped)], h[np.ix_(rows, rows)])
        sizes += [rows.size - pairs, pairs] if closed and symmetric and pairs else [rows.size]
    return sorted(sizes)


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    n_labels=st.integers(1, 4),
    large=st.booleans(),
    keep_labels=st.booleans(),
    perturb=st.booleans(),
)
def test_hermitian_eig_splits_by_reflection(seed, n_labels, large, keep_labels, perturb):
    """h = M + P M P^T, with P a random involution, solves by halves as it solves whole.

    The halves come from the dense oracle ``reflected_eig``, the whole
    solve from ``hermitian_eig``.

    M is real symmetric with hidden label blocks, so h has conserved
    blocks when P keeps the labels and fewer, merged ones otherwise.
    Large draws have 256 rows or more and split as the chain stacks do;
    small ones split because the split threshold is lowered.  One
    perturbed entry (and its transpose) in a row of a mirror pair breaks
    the symmetry of its block, which is then solved whole.
    """
    rng = np.random.default_rng(seed)
    low, high = (256 // n_labels + 1, 272 // n_labels) if large else (1, 12)
    sizes = rng.integers(low, high + 1, size=n_labels)
    n = int(sizes.sum())
    labels = shuffled_labels(sizes, rng.permutation(n))
    m = rng.normal(size=(n, n)) * (labels[:, None] == labels[None, :])
    m += m.T
    image = random_involution(rng, n, labels, keep_labels)
    h = m + m[np.ix_(image, image)]
    moved = np.flatnonzero(image != np.arange(n))
    if perturb and moved.size:  # on the diagonal, or off it, away from the row's mirror
        i = moved[0]
        j = rng.choice(np.flatnonzero(image != i))
        h[i, j] += 0.5
        h[j, i] = h[i, j]
    solves, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        solves.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    with mock.patch.object(operators, "SPLIT_MIN_ROWS", 256 if large else 1):
        plain = hermitian_eig(h)
        with mock.patch.object(np.linalg, "eigh", counted):
            spec = reflected_eig(h, image)
    scale = max(1.0, np.max(np.abs(h)))
    assert sorted(solves) == expected_solves(h, image)
    if perturb and moved.size:
        block = next(rows for rows in operators.coupled_blocks(h != 0) if moved[0] in rows)
        assert block.size in solves  # the perturbed block is solved whole
    assert np.max(np.abs(spec.eigenvalues - plain.eigenvalues)) <= 1e-12 * scale
    assert np.max(np.abs(reconstruct(spec) - h)) <= 1e-12 * scale
    v = spec.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
    assert sorted(np.concatenate([positions for _, positions, _ in spec.blocks])) == list(range(n))


# Round counts for the kernel properties, with m = ceil(sqrt(R)) baby steps and
# n = ceil(R / m) giant steps: one round and no baby step (1), one giant step
# (2), a prime whose last giant step keeps one of four rounds (13), a square
# of four full giant steps (16), and a square + 1 whose last giant step keeps
# two of five rounds (17).
KERNEL_ROUNDS = (1, 2, 13, 16, 17)


@settings(max_examples=60, deadline=None)
@given(
    sizes=block_sizes,
    seed=seeds,
    n_targets=st.integers(1, 3),
    n_rounds=st.sampled_from(KERNEL_ROUNDS),
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
    n_rounds=st.sampled_from(KERNEL_ROUNDS),
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


RANK_ONE_HOSTS = {  # as the CLI reads them
    "repetition": {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"]},
    "two walls": {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ"], "J": 0.7},
    "x walls": {"type": "stabilizer", "stabilizers": ["XXI", "IXX"], "J": 1.3},  # not diagonal: solved
    "one wall": {"type": "stabilizer", "stabilizers": ["XX"]},
    "chain 2": {"type": "heisenberg", "n": 2},
    "chain 4": {"type": "heisenberg", "n": 4, "J": 0.8},
}


@settings(max_examples=60, deadline=None)
@given(
    host=st.sampled_from(sorted(RANK_ONE_HOSTS)),
    n_codes=st.integers(1, 2),
    variant=st.sampled_from([RANK_ONE, TARGETED, GROUND_PREP]),
    g=st.sampled_from([0.0, 0.3, 1.0, 1.7]),
    beta=st.floats(0.0, 3.0),
    detuning=st.sampled_from([None, -0.6, 0.45, 2.0]),
    polar=st.floats(0.0, np.pi),
    azimuth=st.floats(0.0, 2 * np.pi),
    outcome=st.sampled_from([+1, -1]),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2 * np.pi),
    duration=st.floats(0.05, 3.0),
    policy=st.sampled_from(POLICIES),
    max_rounds=st.sampled_from([1, 2, 9, 10, 40]),
)
def test_emr_rank_one_matches_the_joint_spectrum(
    host, n_codes, variant, g, beta, detuning, polar, azimuth, outcome, theta, phi, duration, policy, max_rounds
):
    """The 2 x 2 recursion gives fast_trajectory's run on the dense joint spectrum.

    Stabilizer codes and 2- and 4-site chains, one or two of them, each
    variant (ground preparation on a host with one ground state), g = 0
    included, on resonance or detuned either way, both policies: equal
    completed rounds and stop reasons, and on every completed round,
    where the dense p_cum is normal, fidelities and relative cumulative
    probabilities within 1e-10 of each other, plus the dense path's own
    rounding where the run shrinks fast.

    That rounding: the dense operator K carries errors E of about eps
    in each entry (exact zeros of the 2 x 2 block come out near 1e-16),
    and round r's ensemble x_r gains sum_j K^(r-1-j) E x_j.  K is a
    contraction, so p_cum_r moves by at most 2 eps D sqrt(p_cum_r)
    sum_(j<=r) sqrt(p_cum_j) to first order, D the system dimension and
    p_cum_0 = 1.  A
    run that postselects an outcome of probability 1e-5 round after
    round, where B is far from normal, moves the dense p_cum by 1.6e-10
    of itself by round 6, while the recursion stays within 3e-15 of a
    50-digit evaluation of the same block.
    """
    if variant == GROUND_PREP:
        codes = [code_from_hamiltonian(np.diag([0.0, 1.0, 1.0, 2.5]).astype(complex))] * n_codes
        spec = InteractionSpec(coupling=g, variant=variant)
        target = kron_all([c.ls_basis[0] for c in codes])
    else:
        codes = [code_from_json(RANK_ONE_HOSTS[host])] * n_codes
        spec = InteractionSpec(coupling=g, targets=(LogicalTarget(theta, phi),) * n_codes, variant=variant)
        target = joint_target_state(codes, spec.targets)
    delta_sum = sum(c.gap for c in codes)
    e_a = delta_sum if detuning is None else max(0.0, delta_sum + detuning)
    setting = MeasurementSetting(a=polar, b=azimuth, k=outcome)
    h_tot = build_total(codes, build_interaction(codes, spec), AuxiliarySpec(energy=e_a))
    dense = fast_trajectory(
        hermitian_eig(h_tot), thermal_ensemble(codes, beta), RoundSpec(duration, (setting,)), target, max_rounds, policy
    )
    scale = np.sqrt(np.prod([c.es_degeneracy for c in codes])) if variant == TARGETED else 1.0
    fid, p_round, p_cum, n_rounds, reasons = emr_rank_one(
        ResonanceContext.build(delta_sum, e_a, g * scale),
        ThermalSpec.from_codes(codes, beta),
        [duration],
        [setting],
        max_rounds,
        policy,
    )
    n, want = dense.n_rounds, dense.p_cumulative
    assert n_rounds[0] == n
    assert dense.reason == (None if reasons[0] is None else f"round {n + 1}: {reasons[0]}")
    assert np.all(want >= SMALLEST_NORMAL)
    drift = 2 * np.finfo(float).eps * target.size * (1.0 + np.cumsum(np.sqrt(want))) / np.sqrt(want)
    tol = 1e-10 + drift
    assert np.all(np.abs(fid[0, :n] - dense.fidelity) <= 2 * tol)
    assert np.all(np.abs(p_cum[0, :n] - want) <= tol * want)
    assert np.all(np.abs(p_round[0, :n] - dense.p_round) <= (tol + np.append(0.0, tol[:-1])) * dense.p_round)
    assert not (fid[0, n:].any() or p_cum[0, n:].any() or p_round[0, n:].any())


def table1_run(path, **config):
    """A table1 report, every trajectory it scored, and whether each sector-built row ran in halves.

    ``path`` is "reflected" (the shipped path), "sectors" (the reflection
    disabled, so each sector is solved whole in the computational basis)
    or "dense" (every joint matrix built whole and split by its pattern).
    """
    seen, halved = [], []
    row_metrics, xy_spectrum = emr._row_metrics, emr._xy_spectrum

    def recorded(traj, rounds):
        seen.append(traj)
        return row_metrics(traj, rounds)

    def spied(setup, code, adapted):
        halved.append(adapted)
        return xy_spectrum(setup, code, adapted)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(emr, "_row_metrics", recorded))
        stack.enter_context(mock.patch.object(emr, "_xy_spectrum", spied))
        if path == "sectors":
            stack.enter_context(mock.patch.object(XYSetup, "reflection_centre", property(lambda self: None)))
        if path == "dense":
            stack.enter_context(mock.patch.object(emr, "SPLIT_MIN_ROWS", 2**20))
        report = emr.reproduce_table1(**config)
    return report, seen, halved


@settings(max_examples=5, deadline=None)
@given(
    j_1=st.sampled_from([0.5, 1.0, 1.5]),
    beta=st.floats(0.02, 0.5),
    duration=st.floats(0.5, 1.5),
    rows=st.sets(st.integers(9, 12), min_size=1),
    max_rounds=st.integers(1, 60),
)
def test_table1_reflection_matches_the_computational_basis(j_1, beta, duration, rows, max_rounds):
    """table1 rows 9-12 give the same trajectories in halves as whole, and as from the dense matrix.

    Rows 9 and 11 (j_2 = 0) keep the symmetry at any j_1, rows 10 and 12
    (j_2 = 1) only at j_1 = 1; the others are solved sector by sector,
    whole, in the computational basis.
    """
    config = dict(rows=sorted(rows), beta=beta, duration=duration, j_1=j_1, max_rounds=max_rounds)
    report, trajectories, halved = table1_run("reflected", **config)
    assert halved == [CHAIN_BENCHMARK[index - 1].j_2 in (0.0, j_1) for index in sorted(rows)]
    for path, want_halved in (("sectors", [False] * len(rows)), ("dense", [])):
        plain, plain_trajectories, plain_halved = table1_run(path, **config)
        assert plain_halved == want_halved
        assert len(trajectories) == len(plain_trajectories)
        for traj, ref in zip(trajectories, plain_trajectories):
            assert (traj.n_rounds, traj.truncated, traj.reason) == (ref.n_rounds, ref.truncated, ref.reason)
            fid_scale = max(1e-300, np.max(ref.fidelity, initial=0.0))
            assert np.max(np.abs(traj.fidelity - ref.fidelity), initial=0.0) <= 1e-12 * fid_scale
            assert np.max(np.abs(traj.p_round / ref.p_round - 1.0), initial=0.0) <= 1e-12
            assert np.max(np.abs(traj.p_cumulative / ref.p_cumulative - 1.0), initial=0.0) <= 1e-12
        for row, ref in zip(report["rows"], plain["rows"]):
            for candidate, ref_candidate in zip(row["candidates"], ref["candidates"]):
                for key in ("cardinal", "policy", "n_rounds", "truncated", "m_min_066", "m_min_090"):
                    assert candidate[key] == ref_candidate[key]


def eigh_inputs(solve):
    """What ``solve()`` returns and a copy of every matrix it hands to ``np.linalg.eigh``."""
    seen = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", recorded):
        return solve(), seen


@settings(max_examples=60, deadline=None)
@given(
    n_system=st.sampled_from([2, 4, 6]),
    n_aux=st.integers(1, 2),
    j_1=st.sampled_from([0.5, 1.0, 1.5]),
    j_2=st.sampled_from(["0", "j_1", "0.3"]),
    gamma=st.sampled_from([0.0, 0.2, 1.0, -0.85]),
    aux_energy=st.sampled_from([None, CALIBRATED_AUX_ENERGY, 0.3]),
    polar=st.floats(0.0, np.pi),
    azimuth=st.floats(0.0, 2 * np.pi),
    outcome=st.sampled_from([+1, -1]),
    policy=st.sampled_from(POLICIES),
    duration=st.floats(0.1, 3.0),
)
def test_sector_spectrum_matches_the_dense_solve(
    n_system, n_aux, j_1, j_2, gamma, aux_energy, polar, azimuth, outcome, policy, duration
):
    """The chain's joint Hamiltonian built sector by sector is solved as the whole matrix is.

    Each sector, or half of one, is bit for bit the block that
    the dense oracle ``reflected_eig`` gathers from the dense matrix with
    the wiring's reflection (split at every size here), in the same order, and the
    eigenvalues are equal.  The round operators of a shared setting on
    every auxiliary qubit, made from the halves' own coordinates, are
    the dense operators moved to the reflection-adapted system basis.
    """
    hypothesis.assume(n_aux < n_system)
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=n_system))
    j_2 = {"0": 0.0, "j_1": j_1, "0.3": 0.3}[j_2]
    setup = XYSetup(n_system, n_aux, j_1=j_1, j_2=j_2, gamma=gamma, aux_energy=aux_energy)
    h = emr._xy_hamiltonian(setup, code)
    adapted = setup.reflection_centre is not None
    with mock.patch.object(operators, "SPLIT_MIN_ROWS", 1):
        dense, dense_blocks = eigh_inputs(lambda: reflected_eig(h, setup.reflection()) if adapted else hermitian_eig(h))
    sectors, sector_blocks = eigh_inputs(lambda: emr._xy_spectrum(setup, code, adapted))
    assert [b.shape for b in sector_blocks] == [b.shape for b in dense_blocks]
    assert all(b.tobytes() == d.tobytes() for b, d in zip(sector_blocks, dense_blocks))
    assert np.array_equal(sectors.eigenvalues, dense.eigenvalues)

    cell = [(MeasurementSetting(a=polar, b=azimuth, k=outcome),) * n_aux]
    got = np.stack(emr._round_operators(sectors, [duration], cell, policy))
    want = np.stack(emr._round_operators(hermitian_eig(h), [duration], cell, policy))
    if adapted:
        want = reflected_operators(want, emr._site_reflection(n_system, setup.reflection_centre))
    assert np.max(np.abs(got - want)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 4, 6, 8]), exchange=st.floats(1e-3, 1e3))
@hypothesis.example(n=10, exchange=1.0)
def test_sector_built_chain_matches_the_dense_build(n, exchange):
    """The chain code built and solved one magnetization sector at a time against the dense complex build.

    The float64 Hamiltonian is the dense one's real part bit for bit, and
    its imaginary part is exactly zero.  The eigenvalues agree within
    1e-12 of the spectral radius and the gap within 1e-12 of itself, the
    logical basis is the same array, and so are the sizes of every
    cluster; the first excited manifold, whose basis either solve picks
    freely inside it, has the same projector within 1e-10.
    """
    spec = HeisenbergSpec(n, exchange)
    got, want = build_heisenberg_code(spec), dense_heisenberg_code(spec)
    assert got.hamiltonian.dtype == np.float64 and not want.hamiltonian.imag.any()
    assert got.hamiltonian.tobytes() == np.ascontiguousarray(want.hamiltonian.real).tobytes()
    scale = np.max(np.abs(want.spectrum.eigenvalues))
    assert np.max(np.abs(got.spectrum.eigenvalues - want.spectrum.eigenvalues)) <= 1e-12 * scale
    assert abs(got.gap - want.gap) <= 1e-12 * want.gap
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got.ls_basis, want.ls_basis))
    assert dense_levels(got)[1] == dense_levels(want)[1]

    def projector(basis):
        return sum(np.outer(v, v.conj()) for v in basis)

    assert np.max(np.abs(projector(got.es_basis) - projector(want.es_basis))) <= 1e-10


@pytest.mark.parametrize(
    "broken", ["bond sector", "chain sector", "bond mirror", "coupling mirror", "chain mirror", "diagonal mirror"]
)
def test_sector_build_raises_on_what_it_cannot_split(broken):
    """A coupling across sectors, or a reflection that does not keep H_tot bit for bit, raises.

    Sectors: with the magnetization taken as conserved at gamma = 0.2,
    the bonds' double flips leave their sectors; a transverse field on
    the chain does so at gamma = 0.  Mirrors, each breaking one term and
    keeping the sectors: the centre moved by one site keeps the ring and
    the diagonal but maps a bond onto none; the centre of equal
    couplings, taken with unequal ones, maps each bond onto one of
    another coupling; an extra XX bond on the chain breaks the chain's
    mirror off its diagonal; one E_A entry changed breaks the diagonal
    alone.  Without the reflection, the mirror cases solve.
    """
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=4))
    j_2 = 0.5 if broken == "coupling mirror" else 1.0
    gamma = 0.0 if broken == "chain sector" else 0.2
    setup = XYSetup(4, 2, j_1=1.0, j_2=j_2, gamma=gamma, aux_energy=CALIBRATED_AUX_ENERGY)
    entries = emr._xy_entries

    def tilted_entries(setup, code):
        block, bonds, diagonal = entries(setup, code)
        diagonal[1] += 0.1  # |0000 01>, whose mirror is |0000 10>
        return block, bonds, diagonal

    with contextlib.ExitStack() as stack:
        if broken == "bond sector":
            magnetization = mock.patch.object(emr, "_sector_labels", lambda n, _: np.bitwise_count(np.arange(2**n)))
            stack.enter_context(magnetization)
        if broken in ("chain sector", "chain mirror"):
            extra = PauliString("XIII" if broken == "chain sector" else "XXII", 0.1)
            code = SimpleNamespace(hamiltonian=code.hamiltonian + pauli_sum([extra]), gap=code.gap)
        if broken in ("bond mirror", "coupling mirror"):
            centre = property(lambda self: self.n_aux + (broken == "bond mirror"))
            stack.enter_context(mock.patch.object(XYSetup, "reflection_centre", centre))
        if broken == "diagonal mirror":
            stack.enter_context(mock.patch.object(emr, "_xy_entries", tilted_entries))
        message = {
            "bond sector": "a bond that flips bits 0b100010 leaves its sector",
            "chain sector": "the chain Hamiltonian couples its own conserved sectors",
        }.get(broken, "the wiring's reflection does not keep the joint Hamiltonian")
        with pytest.raises(ValueError, match=message):
            emr._xy_spectrum(setup, code, True)
        if broken.endswith("mirror"):
            emr._xy_spectrum(setup, code, False)


@settings(max_examples=40, deadline=None)
@given(n_sites=st.sampled_from([2, 4, 6, 8]), centre=st.sampled_from([1, 2]), beta=st.floats(0.0, 5.0))
def test_reflected_ensemble_is_the_thermal_factor_in_its_halves(n_sites, centre, beta):
    """The chain's reflected thermal factor is the thermal state moved to the reflection-adapted basis.

    Centres 1 and 2 are those of table1's two-auxiliary wirings (j_2 = 0
    and j_2 = j_1).  V V^T equals Q rho Q^T, and every column of V lies on
    one magnetization sector and one half: the even half on the fixed
    rows and the lower row of each mirror pair, the odd half on the
    upper row.
    """
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=n_sites))
    image = emr._site_reflection(n_sites, centre)
    factor = emr._reflected_ensemble(code, beta, image)
    v = thermal_ensemble([code], beta)
    assert np.max(np.abs(factor @ factor.T - reflected_operators(v @ v.conj().T, image))) <= 1e-14
    index = np.arange(image.size)
    sector = 2 * np.bitwise_count(index) + (image < index)  # (magnetization, odd half)
    for column in factor.T:
        assert np.unique(sector[column != 0]).size == 1


@pytest.mark.parametrize("centre", [1, 2])
def test_reflected_ensemble_raises_on_a_broken_chain(centre):
    """A chain entry across magnetization sectors, or a reflection that does not keep the chain, raises.

    The extra XX bond of :func:`test_sector_build_raises_on_what_it_cannot_split`
    flips two spins, so it leaves its magnetization sector at either
    centre.  Paired with a YY bond it is a hop, which keeps the sectors;
    the centre-1 reflection of the four-site ring maps bond (0, 1) onto
    itself and keeps it, and the centre-2 one maps it onto bond (1, 2)
    and raises.
    """
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=4))
    image = emr._site_reflection(4, centre)
    flipped = SimpleNamespace(hamiltonian=code.hamiltonian + pauli_sum([PauliString("XXII", 0.1)]), n_qubits=4)
    with pytest.raises(ValueError, match="the chain Hamiltonian couples its own conserved sectors"):
        emr._reflected_ensemble(flipped, 0.1, image)
    hop = pauli_sum([PauliString("XXII", 0.1), PauliString("YYII", 0.1)])
    hopped = SimpleNamespace(hamiltonian=code.hamiltonian + hop, n_qubits=4)
    if centre == 2:
        with pytest.raises(ValueError, match="the wiring's reflection does not keep the joint Hamiltonian"):
            emr._reflected_ensemble(hopped, 0.1, image)
    else:
        w, u = np.linalg.eigh(hopped.hamiltonian)
        weights = np.exp(-0.1 * (w - w[0]))
        rho = (u * (weights / weights.sum())) @ u.conj().T
        factor = emr._reflected_ensemble(hopped, 0.1, image)
        assert np.max(np.abs(factor @ factor.T - reflected_operators(rho, image))) <= 1e-14


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


def outcome(build):
    """The built code, or the message of the ValueError that refused it."""
    try:
        return build()
    except ValueError as e:
        return str(e)


@st.composite
def stabilizer_lists(draw, max_qubits=4, max_strings=4):
    """Letter strings of one length, or now and then one string of another."""
    n = draw(st.integers(1, max_qubits))
    words = draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=max_strings))
    if draw(st.integers(0, 4)) == 0:
        other = draw(st.integers(1, max_qubits + 1).filter(lambda m: m != n))
        words[draw(st.integers(0, len(words) - 1))] = draw(st.text(alphabet="IXYZ", min_size=other, max_size=other))
    return words


@settings(max_examples=150, deadline=None)
@given(words=stabilizer_lists(), data=st.data(), strength=st.sampled_from([0.5, 1.0, 2.0]))
def test_stabilizer_checks_match_dense_oracle(words, data, strength):
    """The letter checks refuse what the dense products refuse, with the same message."""
    weight = st.sampled_from([1.0, -1.0, 1j, 2.0, 1.0 + 1e-13])
    strings = [PauliString(w, data.draw(weight)) for w in words]
    got = outcome(lambda: build_stabilizer_code(strings, strength))
    want = outcome(lambda: dense_stabilizer_code(strings, strength))
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got.hamiltonian, want.hamiltonian)
        assert got.gap == want.gap


KNOWN_CODES = {
    "repetition-5": ["ZZIII", "IZZII", "IIZZI", "IIIZZ"],
    "five-qubit": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
    "steane": ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"],
    "four-two-two": ["XXXX", "ZZZZ"],  # two logical qubits
    "frustrated": ["XX", "ZZ", "YY"],  # their product is -I
}


@st.composite
def commuting_stabilizers(draw, max_qubits=8):
    """Commuting strings of at most ``max_qubits`` letters, in a random order.

    A known code's checks or a greedy commuting set, with each qubit's
    letters permuted (which keeps every commutation but may flip the sign
    of a product), plus up to three products of two of them: dependent
    strings, frustrated when that sign is negative.
    """
    known = sorted(name for name, words in KNOWN_CODES.items() if len(words[0]) <= max_qubits)
    if draw(st.booleans()):
        words = KNOWN_CODES[draw(st.sampled_from(known))]
    else:
        n = draw(st.integers(1, max_qubits))
        words = []
        for word in draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=8)):
            if all(letters_commute(word, w) for w in words):
                words.append(word)
    relabel = [draw(st.permutations("XYZ")) for _ in words[0]]
    words = ["".join(c if c == "I" else relabel[q]["XYZ".index(c)] for q, c in enumerate(w)) for w in words]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=3)):
        words.append(letter_product(words[i % len(words)], words[j % len(words)]))
    return draw(st.permutations(words))


@settings(max_examples=80, deadline=None)
@given(
    words=commuting_stabilizers(),
    data=st.data(),
    strength=st.sampled_from([0.5, 1.0, 1.7]),
    beta=st.floats(0.0, 3.0),
    g=st.floats(0.0, 3.0),
    detuning=st.sampled_from([None, -0.6, 0.45]),
    durations=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=2),
    policy=st.sampled_from(POLICIES),
)
def test_stabilizer_levels_match_the_dense_spectrum(words, data, strength, beta, g, detuning, durations, policy):
    """Levels from the group against the dense build, n <= 8, coefficients +-1, dependent strings.

    A list the build refuses is refused with the same message.  Otherwise
    the levels are the dense spectrum's clusters, energies within 1e-12
    of its scale and degeneracies exact, and the fig4 cells and purify
    shots (the first rounds) that :func:`emr_rank_one` makes from them
    equal the ones from the built code: fidelities and cumulative
    probabilities within 1e-12 of theirs, stops and m_min exact.
    """
    strings = [PauliString(w, data.draw(st.sampled_from([1.0, -1.0]))) for w in words]
    got = outcome(lambda: stabilizer_levels(strings, strength))
    want = outcome(lambda: build_stabilizer_code(strings, strength))
    if isinstance(want, str):
        assert got == want
        return
    energies, sizes = dense_levels(want)
    scale = strength * len(strings)
    assert got.degeneracies.tolist() == sizes
    assert np.max(np.abs(got.energies - energies)) <= 1e-12 * scale
    assert abs(got.gap - want.gap) <= 1e-12 * scale
    a, b = data.draw(st.floats(0.0, np.pi)), data.draw(st.floats(0.0, 2 * np.pi))
    settings_ = [MeasurementSetting(a=a, b=b, k=k) for k in (1, -1)]
    runs = []
    for code in (got, want):
        e_a = None if detuning is None else max(0.0, code.gap + detuning)
        ctx = ResonanceContext.from_codes([code], e_a, g)
        runs.append(emr_rank_one(ctx, ThermalSpec.from_codes([code], beta), durations, settings_, 12, policy))
    (fid, _, p_cum, n_rounds, reasons), (fid_d, _, p_cum_d, n_rounds_d, reasons_d) = runs
    assert np.array_equal(n_rounds, n_rounds_d) and reasons == reasons_d
    assert np.all(np.abs(fid - fid_d) <= 1e-12)
    assert np.all(np.abs(p_cum - p_cum_d) <= 1e-12 * p_cum_d)
    assert np.array_equal(_first_rounds(fid, [0.66, 0.9]), _first_rounds(fid_d, [0.66, 0.9]))


@settings(max_examples=40, deadline=None)
@given(words=commuting_stabilizers(), data=st.data())
def test_acceptance_does_not_depend_on_the_units_of_j(words, data):
    """A code is accepted or refused whatever the units of J, its levels with it.

    At J = 1e-20, 1e-8, 1 and 1e8 the dense build and the levels from the
    group accept the same lists, with the same gap / J within 1e-12, and
    refuse the others with the same message, the one they give at J = 1.
    The chains of 2 and 4 sites build at each J with gap / J their own.
    """
    strings = [PauliString(w, data.draw(st.sampled_from([1.0, -1.0]))) for w in words]
    reference = outcome(lambda: build_stabilizer_code(strings, 1.0))
    for strength in (1e-20, 1e-8, 1.0, 1e8):
        built = outcome(lambda: build_stabilizer_code(strings, strength))
        levels = outcome(lambda: stabilizer_levels(strings, strength))
        if isinstance(reference, str):
            assert built == levels == reference, strength
            continue
        assert not isinstance(built, str) and not isinstance(levels, str), (strength, built, levels)
        assert abs(built.gap / strength - reference.gap) <= 1e-12 * reference.gap, strength
        assert abs(levels.gap / strength - reference.gap) <= 1e-12 * reference.gap, strength
    for n, gap in ((2, 1.0), (4, 1.0)):
        for strength in (1e-20, 1e-8, 1.0, 1e8):
            code = build_heisenberg_code(HeisenbergSpec(n, strength))
            assert len(code.ls_basis) == 2
            assert abs(code.gap / strength - gap) <= 1e-12, (n, strength)


BOUND_CODES = {
    "repetition": ["ZZI", "IZZ", "ZIZ"],
    "steane": KNOWN_CODES["steane"],
    "surface d=5": rotated_surface_code(5),  # 1/Z is 2.9e-7 at beta = 0.1
}


@settings(max_examples=60, deadline=None)
@given(
    host=st.sampled_from(sorted(BOUND_CODES)),
    n_codes=st.integers(1, 3),
    strength=st.sampled_from([0.5, 1.0, 2.0]),
    beta=st.floats(0.0, 3.0),
    g=st.floats(0.0, 3.0),
    detuning=st.sampled_from([None, -0.7, 0.3, 2.5]),
    durations=st.lists(st.floats(0.0, 7.0), min_size=1, max_size=3),
    angles=st.lists(
        st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi), st.sampled_from([1, -1])), min_size=1, max_size=3
    ),
    policy=st.sampled_from(POLICIES),
    max_rounds=st.sampled_from([1, 7, 40]),
)
def test_rank_one_target_population_stays_within_its_thermal_share(
    host, n_codes, strength, beta, g, detuning, durations, angles, policy, max_rounds
):
    """Every round is a contraction on (Psi, Phi), so the postselected target population
    fidelity * p_cum never exceeds p_Psi + p_Phi, (1 + e^{-beta Delta}) / Z for one code,
    within a relative 1e-12, at resonance or detuned, under either reset policy."""
    codes = [stabilizer_levels(BOUND_CODES[host], strength)] * n_codes
    thermal = ThermalSpec.from_codes(codes, beta)
    delta = sum(c.gap for c in codes)
    ctx = ResonanceContext.build(delta, delta if detuning is None else max(0.0, delta + detuning), g)
    settings_ = [MeasurementSetting(a=a, b=b, k=k) for a, b, k in angles]
    fid, _, p_cum, _, _ = emr_rank_one(ctx, thermal, durations, settings_, max_rounds, policy)
    share = float(np.prod(np.reciprocal(thermal.z_factors))) + thermal.p_weight
    assert np.all(fid * p_cum <= share * (1.0 + 1e-12))


# Values that break a config key: the wrong type, out of range, or too large for float64.
BROKEN_VALUES = [None, True, "1", [], [1.0], [-1.0, 2.0], -1, 0, 1.5, 4.0, 1e308, -1e308, {"type": "stabilizer"}]


@st.composite
def cli_runs(draw):
    """(command, config, broken) over generated codes, tiny grids and a few table1 rows, one config
    in three broken.

    A table1 run takes one of the sector-built rows 9-12 and up to two
    more; j_1 away from 1 breaks the reflection of rows 10 and 12, and a
    negative auxiliary energy is refused.  fig4 and purify, which build
    no joint matrix and read a stabilizer code's levels only, take up to
    eight codes of up to eight qubits from :func:`commuting_stabilizers`
    (dependent strings, sign-frustrated sets, ground manifolds that are
    not two-fold), and now and then the d = 5 surface code, a code past
    codes.MAX_ENUMERATION_BYTES or strings of unequal lengths; fig2 and
    decompose take one or two such codes of up to three qubits.  fig4
    takes either outcome and three azimuths; purify any azimuth, and
    couplings and auxiliary energies up to 1e308.  fig2, fig4, purify and
    decompose take a 2- or 4-site chain as the one code now and then.
    Now and then a fig2, fig3 or fig4 plane is one cell past
    ``cli.MAX_PLANE_CELLS``, which must be refused.  A broken config has
    one key, the command's own or an unknown one, set to a value of
    :data:`BROKEN_VALUES`.
    """
    command = draw(st.sampled_from(["decompose", "fig2", "fig3", "fig4", "purify", "table1"]))
    if command == "table1":
        rows = {draw(st.integers(9, 12)), *draw(st.lists(st.integers(1, 12), max_size=2))}
        cfg = {
            "rows": sorted(rows),
            "j_1": draw(st.sampled_from([0.5, 1, 1.5])),
            "beta": draw(st.floats(0.0, 5.0)),
            "duration": draw(st.floats(0.05, 4.0)),
            "aux_energy": draw(st.sampled_from([None, -0.5, 0.0, 0.98, 3.0])),
            "max_rounds": draw(st.integers(1, 5)),
        }
    else:
        cfg = draw(_engine_or_fig3_config(command))
    broken = draw(st.integers(0, 2)) == 0
    if broken:
        key = draw(st.sampled_from(sorted(cli.DEFAULTS[command]) + ["bogus"]))
        cfg[key] = draw(st.sampled_from(BROKEN_VALUES))
        if key == "rows" and cfg[key] is None:  # every table1 row: valid, and slow
            cfg["max_rounds"] = 1
    return command, cfg, broken


@st.composite
def _engine_or_fig3_config(draw, command):
    n, m = (500, 501) if draw(st.integers(0, 9)) == 0 else (2, 2)  # fig2, fig3 and fig4 planes
    if command == "fig3":
        lowest = draw(st.floats(-1.0, 3.0))
        return {
            "j_range": [lowest, lowest + draw(st.floats(0.01, 3.0))],
            "j_points": n,
            "beta_range": [0.0, draw(st.floats(0.01, 5.0))],
            "beta_points": m,
        }
    J = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2, 1e308]))
    levels_only = command in ("fig4", "purify")
    if draw(st.integers(0, 3)) == 0:
        cfg = {"code": {"type": "heisenberg", "n": draw(st.sampled_from([2, 4])), "J": J}, "L": 1}
    else:
        words = draw(
            st.one_of(
                commuting_stabilizers(max_qubits=8 if levels_only else 3),
                stabilizer_lists(max_qubits=3, max_strings=3),  # unequal lengths now and then
                st.sampled_from([rotated_surface_code(5), next_nearest_zz_chain(25)] if levels_only else [["XX", "ZZ", "YY"]]),
            )
        )
        code = {"type": "stabilizer", "stabilizers": words, "J": J}
        cfg = {"code": code, "L": draw(st.sampled_from([1, 2, 4, 8] if levels_only else [1, 2]))}
    if command == "decompose":
        cfg["variant"] = draw(st.sampled_from(VARIANTS))
    elif command == "purify":  # no joint matrix either, and energies up to the largest double
        cfg.update(
            t=draw(st.floats(0.0, 7.0)),
            a=draw(st.floats(0.0, np.pi)),
            b=draw(st.floats(0.0, 2 * np.pi)),
            k=draw(st.sampled_from([1, -1])),
            g=draw(st.sampled_from([0.0, 1.0, 7.0, 1e160, 1e308])),
            e_a=draw(st.sampled_from([None, 0.0, 3.0, 1e200, 1e308])),
        )
    elif command == "fig2":
        cfg.update(a_points=n, t_points=m)
    elif command == "fig4":  # no joint matrix: any number of codes
        cfg.update(
            b=draw(st.sampled_from([0.0, 1.0, 2 * np.pi])),
            k=draw(st.sampled_from([1, -1])),
            a_points=n,
            t_points=m,
            max_rounds=draw(st.integers(1, 12)),
            aq_reset=draw(st.sampled_from(POLICIES)),
        )
    return cfg


def csv_rows(path):
    """The header and the rows, as floats, of a CLI CSV file."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


@settings(max_examples=120, deadline=None)
@given(run=cli_runs())
def test_cli_runs_exit_0_or_2(run):
    """No generated config ends in a traceback, and a refused one writes no file.

    An oversized plane is refused.  The outputs of configs that are not
    broken are checked further: a table1 report that is written
    holds probabilities and fidelities in [0, 1], and each m_min is null
    or a round that was run.  A fig4 plane that is written holds m_min
    -1 or a round that was run, and reaches 0.9 no sooner than 0.66.  A
    fig2 plane holds probabilities in [0, 1] and fidelities in [0, 1] or
    NaN, a purify report probabilities in [0, 1], summing to 1 when both
    outcomes are attainable, and fidelities in [0, 1] or null, and a fig3
    plane weights in [0, 1].
    """
    command, cfg, broken = run
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg_path = Path(tmp) / "out", Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert rc in (0, 2)
        assert out.exists() == (rc == 0)
        if broken:
            return
        if np.prod([v for k, v in cfg.items() if k.endswith("_points")]) > cli.MAX_PLANE_CELLS:
            assert rc == 2
        if command == "table1" and rc == 0:
            for row in json.loads(out.read_text())["report"]["rows"]:
                for metrics in [*row["candidates"], row["matched"]]:
                    for key, value in metrics.items():
                        if key.startswith(("p_", "max_fidelity")):
                            assert value is None or 0.0 <= value <= 1.0, (key, value)
                        if key.startswith("m_min_"):
                            assert value is None or 1 <= value <= cfg["max_rounds"], (key, value)
        if command == "fig4" and rc == 0:
            header, rows = csv_rows(out)
            assert header == "a,t,m_min_0.66,m_min_0.9"
            for row in rows:
                m_066, m_090 = map(int, row[2:])
                for m in (m_066, m_090):
                    assert m == -1 or 1 <= m <= cfg["max_rounds"], row
                assert m_090 == -1 or 1 <= m_066 <= m_090, row
        if command == "fig2" and rc == 0:
            header, rows = csv_rows(out)
            assert header == "a,t,f_analytic,p_analytic,f_numeric,p_numeric"
            for row in rows:
                for p in (row[3], row[5]):
                    assert 0.0 <= p <= 1.0, row
                for f in (row[2], row[4]):
                    assert np.isnan(f) or 0.0 <= f <= 1.0, row
        if command == "purify" and rc == 0:
            records = [json.loads(out.read_text())[key] for key in ("result", "complement")]
            for record in records:
                for key, value in record.items():
                    if key.startswith("probability"):
                        assert 0.0 <= value <= 1.0, (key, value)
                    if key.startswith("fidelity"):
                        assert value is None or 0.0 <= value <= 1.0, (key, value)
            if all(r["attainable"] for r in records):
                assert abs(sum(r["probability_full"] for r in records) - 1.0) <= 1e-12, records
        if command == "fig3" and rc == 0:
            header, rows = csv_rows(out)
            assert header == "j_s,beta,p_beta"
            for row in rows:
                assert 0.0 <= row[2] <= 1.0, row



@settings(max_examples=40, deadline=None)
@given(
    host=st.sampled_from(sorted(RANK_ONE_HOSTS)),
    n_codes=st.integers(1, 2),
    detuning=st.sampled_from([None, -0.6, 0.45, 2.0]),
    g=st.floats(0.0, 7.0),
    t=st.floats(0.0, 7.0),
    a=st.floats(0.0, np.pi),
    b=st.floats(0.0, 2 * np.pi),
    k=st.sampled_from([1, -1]),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2 * np.pi),
    beta=st.floats(0.0, 3.0),
)
def test_purify_matches_the_dense_shot(host, n_codes, detuning, g, t, a, b, k, theta, phi, beta):
    """The CLI's purify record, from the rank-one recursion, is the dense evolve-and-measure shot.

    One or two small stabilizer codes or one 2- or 4-site chain, on
    resonance or detuned: equal outcomes and attainability, and where an
    outcome is attainable, probability and fidelity within 1e-12 of
    :func:`purify_once`'s; where it is not, 0.0 and null.  The dense
    fidelity is a quotient by p, so its own rounding, about eps D / p for
    the system dimension D, is allowed on top.
    """
    n_codes = 1 if host == "chain 4" else n_codes
    codes = [code_from_json(RANK_ONE_HOSTS[host])] * n_codes
    delta_sum = sum(c.gap for c in codes)
    e_a = None if detuning is None else max(0.0, delta_sum + detuning)
    cfg = {"code": RANK_ONE_HOSTS[host], "L": n_codes, "e_a": e_a, "g": g, "t": t, "a": a, "b": b, "k": k}
    cfg.update(theta=theta, phi=phi, beta=beta)
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg_path = Path(tmp) / "out", Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["purify", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
    spec = InteractionSpec(coupling=g, targets=(LogicalTarget(theta, phi),) * n_codes)
    aux = AuxiliarySpec(energy=delta_sum if e_a is None else e_a)
    thermal = ThermalSpec.from_codes(codes, beta)
    for key, outcome in (("result", k), ("complement", -k)):
        got = doc[key]
        want = purify_once(codes, spec, aux, thermal, t, MeasurementSetting(a=a, b=b, k=outcome))
        assert got["outcome"] == [outcome] and got["attainable"] == want.attainable, (key, got, want)
        if not want.attainable:
            assert (got["probability_full"], got["fidelity"]) == (0.0, None)
            continue
        assert abs(got["probability_full"] - want.probability) <= 1e-12, (key, got, want)
        dimension = 2 ** sum(c.n_qubits for c in codes)
        tol = 1e-12 + 4 * np.finfo(float).eps * dimension / want.probability
        assert abs(got["fidelity_full"] - want.fidelity) <= tol, (key, got, want)
