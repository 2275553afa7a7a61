"""Round-trajectory kernel: stopping causes, the block split, its baby- and giant-step products, cancelling series and cell batches."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from logipure import _kernels
from logipure._kernels import _pack, _round_parts, batch_trajectory_kernel, trajectory_kernel
from logipure.measurement import UNATTAINABLE_P
from oracles import dense_trajectory


def random_problem(dim=6, n_cols=3, seed=0):
    rng = np.random.default_rng(seed)

    def cmat(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    k_first = 0.6 * cmat(dim, dim)
    k_later = 0.5 * cmat(dim, dim)
    ensemble = cmat(dim, n_cols) / (dim * n_cols)
    target = cmat(dim)
    target /= np.linalg.norm(target)
    return k_first, k_later, ensemble, target[None]


def test_truncation_at_floor():
    k_first, k_later, ensemble, targets = random_problem(seed=3)
    # later rounds shrink the weight below the 1e-14 floor; round one passes
    k_later *= 1e-8
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(k_first, k_later, ensemble, targets, 100)
    assert truncated
    assert reason == f"outcome probability below {UNATTAINABLE_P:.0e}" == "outcome probability below 1e-14"
    assert 1 <= len(fid) < 100
    assert all(p >= UNATTAINABLE_P for p in p_round)


def test_no_truncation_without_floor():
    args = random_problem(seed=4)
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(*args, 25)
    assert not truncated
    assert reason is None
    assert len(fid) == len(p_round) == len(p_cum) == 25
    # cumulative weight is the running product of per-round weights
    assert np.allclose(np.cumprod(p_round), p_cum, rtol=1e-12)


def test_nan_probability_truncates():
    """A NaN round probability must trip the floor, not pass it."""
    k_first, k_later, ensemble, targets = random_problem(seed=5)
    k_first[0, 0] = np.nan
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(k_first, k_later, ensemble, targets, 5)
    assert truncated
    assert reason.startswith("outcome probability")
    assert len(fid) == len(p_round) == len(p_cum) == 0


def test_underflow_stops_with_its_own_reason():
    """A cumulative probability leaving the normal range is not a floor hit.

    Every round passes with probability 1e-6, far above the 1e-14 floor;
    after 51 rounds the next cumulative value (1e-312) is subnormal, so
    the run stops there and says so, and every reported round is exact.
    """
    k = 1e-3 * np.eye(2)
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(
        k, k, np.eye(2) / np.sqrt(2), np.array([[1.0, 0.0]]), 100
    )
    assert truncated
    assert reason.startswith("cumulative probability below")
    assert len(p_round) == 51
    assert np.allclose(p_round, 1e-6, rtol=1e-12, atol=0.0)
    assert p_cum[-1] >= np.finfo(float).tiny
    assert np.allclose(fid[:, 0], 0.5, rtol=1e-12)


def block_diagonal(rng, sizes):
    k = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for m in sizes:
        k[start : start + m, start : start + m] = rng.normal(size=(m, m))
        start += m
    return k


def test_small_blocks_pack_into_parts(monkeypatch):
    """Blocks pack into parts of at least MIN_PART_ROWS rows; a short tail joins the last."""
    rng = np.random.default_rng(6)

    def n_parts(k, ensemble):
        return len(_round_parts(k, k, ensemble))

    eye4 = np.eye(4, dtype=complex)
    assert n_parts(block_diagonal(rng, [2, 2]), eye4) == 1  # packed: below MIN_PART_ROWS
    assert n_parts(block_diagonal(rng, [32, 32]), np.eye(64, dtype=complex)) == 2
    assert n_parts(block_diagonal(rng, [8, 8, 16, 32]), np.eye(64, dtype=complex)) == 2
    assert n_parts(block_diagonal(rng, [32, 16]), np.eye(48, dtype=complex)) == 1  # short tail joins

    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 1)
    k = block_diagonal(rng, [2, 2])
    assert n_parts(k, eye4) == 2
    joined = eye4.copy()
    joined[3, 0] = 1.0  # a column shared by both blocks
    assert n_parts(k, joined) == 1
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 2)
    assert n_parts(block_diagonal(rng, [1, 3]), eye4) == 1  # the single row packs with the next block
    assert n_parts(block_diagonal(rng, [3, 1]), eye4) == 1  # the single row joins as a tail


def test_blocks_pack_with_the_least_excess():
    """Small blocks pair up to reach MIN_PART_ROWS with the least excess, whatever their order.

    table1 row 10's reflection-parity blocks [20, 12, 20, 12] give two
    32-row parts, not one of 64; blocks too few to fill a part join the
    smallest one; eight rows in all stay one part.
    """

    def sizes(block_sizes):
        starts = np.cumsum([0, *block_sizes])
        parts = _pack([np.arange(a, b) for a, b in zip(starts, starts[1:])])
        assert sorted(np.concatenate(parts).tolist()) == list(range(starts[-1]))
        assert all(np.all(np.diff(rows) > 0) for rows in parts)  # rows ascending in each part
        assert [rows[0] for rows in parts] == sorted(rows[0] for rows in parts)
        return sorted(rows.size for rows in parts)

    assert sizes([20, 12, 20, 12]) == [32, 32]
    assert sizes([1, 4, 4, 16, 12, 28, 28, 38, 32, 28, 28, 16, 12, 4, 4, 1]) == [32] * 5 + [38, 58]
    assert sizes([40, 10, 5]) == [55]  # too few to fill a part: they join the only one
    assert sizes([40, 33, 10]) == [40, 43]  # ... or the smallest of several
    assert sizes([1] * 8) == [8]  # fig4's plane: one part of eight rows


def test_batch_cells_match_their_one_cell_runs():
    """Cells that stop freeze in the batch; every other cell runs on as if alone.

    The stopped cells sit between live ones: a zero operator (floor at
    round 1), a NaN entry in the later operator (floor at round 2) and a
    steady 1e-6 contraction that underflows after 51 rounds.
    """
    dim, max_rounds = 6, 60
    problems = [random_problem(dim, seed=seed) for seed in (11, 12)]
    ensemble, targets = problems[0][2], problems[0][3]
    live = []
    for k_first, k_later, _, _ in problems:
        live.append((k_first / np.linalg.norm(k_first, 2), k_later / np.linalg.norm(k_later, 2)))
    zero = np.zeros((dim, dim), dtype=complex)
    nan_later = live[0][1].copy()
    nan_later[2, 3] = np.nan
    tiny = 1e-3 * np.eye(dim, dtype=complex)
    cells = [live[0], (zero, zero), (live[0][0], nan_later), live[1], (tiny, tiny)]
    expected = [(max_rounds, None), (0, "outcome"), (1, "outcome"), (max_rounds, None), (51, "cumulative")]

    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(
        np.stack([k for k, _ in cells]), np.stack([k for _, k in cells]), ensemble, targets, max_rounds
    )
    assert fid.shape == (len(cells), max_rounds, 1)
    for c, ((k_first, k_later), (rounds, why)) in enumerate(zip(cells, expected)):
        one = trajectory_kernel(k_first, k_later, ensemble, targets, max_rounds)
        assert n_rounds[c] == rounds == len(one[1])
        assert reasons[c] == one[4]
        assert reasons[c] is None if why is None else reasons[c].startswith(why)
        for got, want in zip((fid[c], p_round[c], p_cum[c]), one[:3]):
            assert np.max(np.abs(got[:rounds] - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))
            assert not np.any(got[rounds:])  # rounds after the stop stay empty


def three_part_problem(n_cells=3):
    """Parts of 8, 40 and 72 rows; the 40-row part has no target support."""
    rng = np.random.default_rng(21)
    sizes = [8, 40, 72]
    ops = [block_diagonal(rng, sizes) + 1j * block_diagonal(rng, sizes) for _ in range(2 * n_cells)]
    ops = [k / np.linalg.norm(k, 2) for k in ops]
    ensemble = block_diagonal(rng, sizes) + 1j * block_diagonal(rng, sizes)
    ensemble /= np.linalg.norm(ensemble)
    targets = rng.normal(size=(2, sum(sizes))) + 1j * rng.normal(size=(2, sum(sizes)))
    targets[:, 8:48] = 0.0
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return np.stack(ops[:n_cells]), np.stack(ops[n_cells:]), ensemble, targets


def test_fused_parts_match_dense_loop(monkeypatch):
    """Parts with and without target rows, in one stack, follow the dense loop."""
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 8)
    k_first, k_later, ensemble, targets = three_part_problem()
    assert [rows.size for rows, _ in _round_parts(k_first, k_later, ensemble)] == [8, 40, 72]
    max_rounds = 30
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(k_first, k_later, ensemble, targets, max_rounds)
    assert list(n_rounds) == [max_rounds] * len(k_first) and reasons == [None] * len(k_first)
    for c in range(len(k_first)):
        ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first[c], k_later[c], ensemble, targets, max_rounds)
        assert np.max(np.abs(fid[c] - ref_fid)) <= 1e-12
        assert np.max(np.abs(p_round[c] / ref_p_round - 1.0)) <= 1e-12
        assert np.max(np.abs(p_cum[c] / ref_p_cum - 1.0)) <= 1e-12


@pytest.mark.parametrize("max_rounds", [7, 49, 50])
def test_products_grow_with_baby_and_giant_steps(monkeypatch, max_rounds):
    """Each part makes a fixed number of products per baby step, giant step and chunk, none per round.

    With m = ceil(sqrt(R)) baby and n = ceil(R / m) giant steps (R = 7:
    3 and 3; 49: 7 and 7; 50: 8 and 7), a part with target rows makes one
    setup product for its first ensemble, three per baby step (the power,
    its Gram, its target rows), three per giant step (the advance, skipped
    by the first, the Gram and the target rows) and two per chunk of giant
    steps (the weights and the sizes): 1 + 3 (m - 1) + 3 n - 1 + 2 k with
    k = ceil(n / 3) chunks of three giant steps here (R = 7: k = 1; 49 and
    50: k = 3, the last chunk of one).  A part without target support
    skips the target rows: 1 + 2 (m - 1) + 2 n - 1 + 2 k.  Every product
    runs in real arithmetic.
    """
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 8)
    k_first, k_later, ensemble, targets = three_part_problem(n_cells=1)
    # three giant steps' Grams of the three parts (8, 40 and 72 rows) per chunk
    monkeypatch.setattr(_kernels, "SCORE_CHUNK_BYTES", 3 * 8 * (8**2 + 40**2 + 72**2))
    dtypes = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        dtypes.append((args[0].dtype, args[1].dtype))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    fid = trajectory_kernel(k_first[0], k_later[0], ensemble, targets, max_rounds)[0]
    assert fid.shape == (max_rounds, 2)
    m = math.isqrt(max_rounds - 1) + 1
    n = -(-max_rounds // m)
    k = -(-n // 3)
    assert (m, n, k) == {7: (3, 3, 1), 49: (7, 7, 3), 50: (8, 7, 3)}[max_rounds]
    scored, unscored = 1 + 3 * (m - 1) + 3 * n - 1 + 2 * k, 1 + 2 * (m - 1) + 2 * n - 1 + 2 * k
    assert len(dtypes) == 2 * scored + unscored  # parts of 8 and 72 rows score, the 40-row part does not
    assert set(dtypes) == {(np.dtype(np.float64), np.dtype(np.float64))}


def stopping_cells():
    """Four 12-row cells for 50 rounds (8 baby and 7 giant steps), stopping at rounds 50, 12, 26 and 24.

    A plain contraction runs all rounds.  A nilpotent later operator
    empties the ensemble at round 12 (giant step 1, baby step 4): the
    floor stops it there.  Two scaled unitaries shrink the weight by
    1e-12 and 10^-12.9 per round, so it leaves the normal range at round
    26 (giant step 3, baby step 2) and at round 24, a giant-step boundary.
    Returns the cells' (k_first, k_later), the ensemble and two targets.
    """
    rng = np.random.default_rng(31)
    dim = 12

    def cmat(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def unitary():
        return np.linalg.qr(cmat(dim, dim))[0]

    live = cmat(dim, dim)
    cells = [
        (unitary(), live / np.linalg.norm(live, 2)),
        (unitary(), np.triu(cmat(dim, dim), 1) / dim),
        (unitary(), 1e-6 * unitary()),
        (unitary(), 10**-6.45 * unitary()),
    ]
    ensemble = cmat(dim, dim)
    ensemble /= np.linalg.norm(ensemble)
    targets = cmat(2, dim)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return cells, ensemble, targets


def test_stops_inside_a_giant_step_match_dense_loop():
    """Stops away from the giant-step boundaries, and at one, follow the dense loop (see :func:`stopping_cells`)."""
    cells, ensemble, targets = stopping_cells()
    max_rounds = 50
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(
        np.stack([k for k, _ in cells]), np.stack([k for _, k in cells]), ensemble, targets, max_rounds
    )
    assert list(n_rounds) == [max_rounds, 12, 26, 24]
    assert reasons[0] is None and reasons[1].startswith("outcome probability")
    assert reasons[2] == reasons[3] and reasons[2].startswith("cumulative probability below")
    for c, (k_first, k_later) in enumerate(cells):
        stop = n_rounds[c]
        ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first, k_later, ensemble, targets, stop)
        assert np.all(ref_p_round >= UNATTAINABLE_P) and np.all(ref_p_cum >= np.finfo(float).tiny)
        if stop < max_rounds:  # the dense loop's next round fails the floor or leaves the normal range
            weight = np.sum(np.abs(np.linalg.matrix_power(k_later, stop) @ k_first @ ensemble) ** 2)
            assert weight < UNATTAINABLE_P * ref_p_cum[-1] or weight < np.finfo(float).tiny
        assert np.max(np.abs(fid[c, :stop] - ref_fid[:stop])) <= 1e-12
        assert np.max(np.abs(p_round[c, :stop] / ref_p_round[:stop] - 1.0)) <= 1e-12
        assert np.max(np.abs(p_cum[c, :stop] / ref_p_cum[:stop] - 1.0)) <= 1e-12
        assert not (np.any(fid[c, stop:]) or np.any(p_round[c, stop:]) or np.any(p_cum[c, stop:]))


def test_underflow_shared_by_parts_keeps_its_reason(monkeypatch):
    """A cell leaves the normal range as a whole, not part by part.

    Two 6-row parts shrink alike, 10^-12.81 per round, from equal halves
    of the weight.  At round 24, a giant-step boundary, each half is below
    the smallest normal double while their sum is not, so the cell runs
    on; at round 25 the sum leaves the normal range, and the stop says so.
    """
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 6)
    rng = np.random.default_rng(41)
    scale = 10**-6.4067

    def unitary():
        return np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]

    k_first = np.zeros((12, 12), dtype=complex)
    k_later = np.zeros((12, 12), dtype=complex)
    for rows in (slice(0, 6), slice(6, 12)):
        k_first[rows, rows], k_later[rows, rows] = unitary(), scale * unitary()
    ensemble = np.eye(12) / np.sqrt(12)
    targets = np.ones((1, 12)) / np.sqrt(12)
    assert len(_round_parts(k_first[None], k_later[None], ensemble)) == 2
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(k_first, k_later, ensemble, targets, 50)
    assert truncated and reason.startswith("cumulative probability below")
    assert len(p_cum) == 25 and p_cum[24] / 2 < np.finfo(float).tiny <= p_cum[24]
    ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first, k_later, ensemble, targets, 25)
    assert np.max(np.abs(fid - ref_fid)) <= 1e-12
    assert np.max(np.abs(p_cum / ref_p_cum - 1.0)) <= 1e-12


def shrinking_cells():
    """Three cells K = Q D Q^T, D = diag(1, 1e-3), diag(1, 0.1) and diag(1e-3, 1), Q the 45-degree rotation.

    The ensemble is Q's second column; the targets are the basis states
    and that column.
    """
    c = math.sqrt(0.5)
    q = np.array([[c, -c], [c, c]])
    k_later = np.stack([q @ np.diag(d) @ q.T for d in ([1.0, 1e-3], [1.0, 0.1], [1e-3, 1.0])])
    k_first = np.stack([np.eye(2)] * 3)
    return k_first, k_later, q[:, 1:], np.array([[1.0, 0.0], [0.0, 1.0], q[:, 1]])


def test_ensemble_where_k_shrinks_matches_dense_loop(monkeypatch):
    """An ensemble in a subspace that K shrinks, while K keeps another, follows the dense loop.

    K = Q diag(1, s) Q^T with Q the 45-degree rotation, and the ensemble is
    Q's second column: each round keeps s^2 of the weight, and the dense
    loop keeps the ensemble on that column exactly.  Read off the Grams of
    the powers of K, such a weight is a small sum of terms near 1/4: with
    s = 1e-3, round 2 (1e-12) carried a relative error near 1e-4 and round
    3 was rounding noise, which stopped the cell at the floor.  Those two
    cells run their rounds one by one; the cell whose K keeps the ensemble
    (diag(s, 1)) does not cancel and is not run again.
    """
    k_first, k_later, ensemble, targets = shrinking_cells()
    max_rounds = 20  # 5 baby and 4 giant steps

    runs = []
    series = _kernels._series

    def recording_series(blocks, n_targets, max_rounds, babies):
        runs.append((blocks[0][1].shape[0], babies))
        return series(blocks, n_targets, max_rounds, babies)

    monkeypatch.setattr(_kernels, "_series", recording_series)
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(k_first, k_later, ensemble, targets, max_rounds)
    assert runs == [(3, 5), (2, 1)]
    assert list(n_rounds) == [max_rounds] * 3 and reasons == [None] * 3
    for cell in range(3):
        ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first[cell], k_later[cell], ensemble, targets, max_rounds)
        assert np.max(np.abs(fid[cell] - ref_fid)) <= 1e-12
        assert np.max(np.abs(p_round[cell] / ref_p_round - 1.0)) <= 1e-12
        assert np.max(np.abs(p_cum[cell] / ref_p_cum - 1.0)) <= 1e-12
    assert p_cum[0, -1] == pytest.approx(1e-120, rel=1e-9) and p_cum[2, -1] == pytest.approx(1.0)


@pytest.mark.parametrize("chunk", [2, 3, "all"])
def test_series_does_not_depend_on_the_chunking(monkeypatch, chunk):
    """Chunks of 2, 3 and all giant steps give the stops and, to 1e-15, the series of chunks of one.

    Only the grouping of the weight and size products changes, so every
    weight agrees to a few roundings.  :func:`stopping_cells` has 7 giant
    steps: its stop at round 12 falls inside a chunk (giant step 1 of
    [0, 1] or [0, 1, 2]) and its stop at round 24 at the start of giant
    step 3, a chunk boundary in chunks of three; chunks of three also
    leave a last chunk of one.  Two of :func:`shrinking_cells` cancel and
    run again round by round whatever the chunks, and the third is
    scored in chunks.
    """
    counts = []
    weigh = _kernels._PartSeries.weigh

    def recording_weigh(self, count):
        counts.append(count)
        return weigh(self, count)

    monkeypatch.setattr(_kernels._PartSeries, "weigh", recording_weigh)
    runs = []
    series = _kernels._series

    def recording_series(blocks, n_targets, max_rounds, babies):
        runs.append((blocks[0][1].shape[0], babies))
        return series(blocks, n_targets, max_rounds, babies)

    monkeypatch.setattr(_kernels, "_series", recording_series)
    cells, ensemble, targets = stopping_cells()
    problems = [
        ((np.stack([k for k, _ in cells]), np.stack([k for _, k in cells]), ensemble, targets, 50), 7, [50, 12, 26, 24]),
        ((*shrinking_cells(), 20), 4, [20, 20, 20]),
    ]
    for args, giants, stops in problems:
        # one giant step's stored Grams: 8 bytes per cell and entry of the one part
        step_bytes = 8 * args[1].size
        length = giants if chunk == "all" else chunk
        results = []
        for budget, lengths in ((1, [1] * giants), (length * step_bytes + step_bytes - 1, [length] * (giants // length))):
            monkeypatch.setattr(_kernels, "SCORE_CHUNK_BYTES", budget)
            counts.clear()
            runs.clear()
            results.append(batch_trajectory_kernel(*args))
            assert counts == lengths + [giants % length] * (budget > 1 and giants % length > 0)
            assert runs == ([(4, 8)] if giants == 7 else [(3, 5), (2, 1)])  # two shrinking cells run again
        want, got = results
        assert list(got[3]) == list(want[3]) == stops and got[4] == want[4]
        for g, w in zip(got[:3], want[:3]):  # fidelities, round and cumulative probabilities
            assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w))


def test_memory_stays_within_the_parts_stores(monkeypatch):
    """The traced peak above the inputs stays within what the parts hold, the chunk store and the outputs.

    Three cells of :func:`three_part_problem` (parts of r = 8, 40 and 72
    rows, each with c = r ensemble columns; t = 2 target rows on the
    first and last, none on the 40-row part) run 500 rounds: m = 23 baby
    and n = 22 giant steps.  Per cell, in floats, a part holds
      - its baby stacks: the Grams (m - 1) r^2, their column norms
        (m - 1) r and the target rows 2 m t r;
      - its giant-step state: K^m's real rows 4 r^2, V_b and its turned
        half 6 r c, and the overlaps 2 m t c;
      - its blocks of the two complex operators, 4 r^2;
    and while it runs its baby steps, K's real rows, the turned power
    and two powers, at most 10 r^2 more for the largest part.  Shared by
    the cells, a part holds its blocks of the ensemble and the targets
    (16 r (c + 2) bytes at most) and, while it is built, their
    ``[Re; Im]`` stack and a real block's zero imaginary part (24 r c).
    The chunk store holds the larger of :data:`SCORE_CHUNK_BYTES` and
    one giant step's Grams, 8 sum r^2 bytes per cell, and each chunk's
    weights, sizes and row norms take at most 4 (m - 1) + 72 floats per
    cell and giant step of the chunk.  The outputs are the series'
    weights, overlaps and unresolved marks, 1 + 8 (1 + 2) bytes per
    round of the n m, and at the end the round probabilities and four
    boolean masks, 12 bytes per round of the 500, per cell; the
    fidelities are the overlaps, divided in place.  numpy reports its
    buffers to ``tracemalloc``, so the peak is deterministic.

    A real ensemble is not copied to complex: it gives output bitwise
    equal to its complex copy, at a lower peak, since the parts' blocks
    of it are real.
    """
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 8)
    k_first, k_later, ensemble, targets = three_part_problem()
    ensemble = ensemble.real.copy()
    n_cells, max_rounds, m, n = len(k_first), 500, 23, 22
    parts = [(8, 8, 2), (40, 40, 0), (72, 72, 2)]  # (rows, ensemble columns, scored target rows)
    held = sum((m - 1) * (r * r + r) + 2 * m * t * r + 4 * r * r + 6 * r * c + 2 * m * t * c + 4 * r * r for r, c, t in parts)
    shared = sum(16 * r * (c + 2) + 24 * r * c for r, c, _ in parts)
    step = 8 * n_cells * sum(r * r for r, _, _ in parts)
    chunk = min(n, max(1, _kernels.SCORE_CHUNK_BYTES // step))
    store = max(_kernels.SCORE_CHUNK_BYTES, step) + 8 * n_cells * (4 * (m - 1) + 72) * chunk
    outputs = n_cells * ((1 + 8 * 3) * n * m + 12 * max_rounds)
    bound = 8 * n_cells * (held + 10 * 72**2) + shared + store + outputs

    peaks, results = [], []
    for v in (ensemble, ensemble.astype(complex)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            results.append(batch_trajectory_kernel(k_first, k_later, v, targets, max_rounds))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert list(results[0][3]) == [max_rounds] * n_cells
    assert peaks[0] < peaks[1] <= bound
    for real, complex_copy in zip(results[0][:4], results[1][:4]):
        assert real.tobytes() == complex_copy.tobytes()
    assert results[0][4] == results[1][4]


def test_stop_at_an_unresolved_round_runs_again(monkeypatch):
    """A stop decided by an unresolved weight is not trusted: the cell runs again round by round.

    The series pass is made to report rounding noise at round 4, a zero
    weight there (a floor stop) and round 4 as the first unresolved
    round; the cell runs again with one baby step and reports the dense
    loop's full run.
    """
    k_first, k_later, ensemble, targets = random_problem(dim=4, seed=7)
    k_first, k_later = (k / np.linalg.norm(k, 2) for k in (k_first, k_later))
    series = _kernels._series

    def noisy_series(blocks, n_targets, max_rounds, babies):
        weights, overlaps, unresolved = series(blocks, n_targets, max_rounds, babies)
        if babies > 1:
            weights[:, 4] = 0.0
            unresolved[:] = 4
        return weights, overlaps, unresolved

    monkeypatch.setattr(_kernels, "_series", noisy_series)
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(k_first, k_later, ensemble, targets, 10)
    assert not truncated and reason is None and len(p_cum) == 10
    ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first, k_later, ensemble, targets, 10)
    assert np.max(np.abs(fid - ref_fid)) <= 1e-12
    assert np.max(np.abs(p_cum / ref_p_cum - 1.0)) <= 1e-12


def test_one_operator_for_both_rounds_is_sliced_once(monkeypatch):
    """When ``k_later`` is ``k_first``, each part's two blocks are one array, in the series and in its rerun.

    The first pass is made to report every cell unresolved from round 4,
    so the whole stack runs again.  The outputs are bitwise those of an
    equal copy of the operator, whose blocks are sliced apart.
    """
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 8)
    k, _, ensemble, targets = three_part_problem()
    series = _kernels._series
    passes = []

    def recording_series(blocks, n_targets, max_rounds, babies):
        passes.append([part[0] is part[1] for part in blocks])
        weights, overlaps, unresolved = series(blocks, n_targets, max_rounds, babies)
        if babies > 1:
            unresolved[:] = 4
        return weights, overlaps, unresolved

    monkeypatch.setattr(_kernels, "_series", recording_series)
    shared = batch_trajectory_kernel(k, k, ensemble, targets, 30)
    assert passes == [[True] * 3] * 2
    copied = batch_trajectory_kernel(k, k.copy(), ensemble, targets, 30)
    assert passes[2:] == [[False] * 3] * 2
    for got, want in zip(shared, copied):
        if isinstance(got, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert got == want


def test_no_operator_block_lives_through_a_series(monkeypatch):
    """Each part's blocks of ``k_first`` and ``k_later`` are gone before its series runs, in the rerun too.

    The kernel keeps each part's rows and columns, not its complex
    blocks, and gathers the blocks again for a rerun.  The first pass is
    made to report every cell unresolved from round 4, so the whole
    stack runs again, from blocks gathered anew, and still follows the
    dense loop.
    """
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 8)
    k_first, k_later, ensemble, targets = three_part_problem()
    blocks, alive = [], []
    init, advance, series = _kernels._PartSeries.__init__, _kernels._PartSeries.advance, _kernels._series

    def recording_init(self, part_first, part_later, *args):
        blocks.extend(weakref.ref(block) for block in (part_first, part_later))
        init(self, part_first, part_later, *args)

    def checking_advance(self, b):
        alive.append(sum(ref() is not None for ref in blocks))
        return advance(self, b)

    def rerun_series(part_blocks, n_targets, max_rounds, babies):
        weights, overlaps, unresolved = series(part_blocks, n_targets, max_rounds, babies)
        if babies > 1:
            unresolved[:] = 4
        return weights, overlaps, unresolved

    monkeypatch.setattr(_kernels._PartSeries, "__init__", recording_init)
    monkeypatch.setattr(_kernels._PartSeries, "advance", checking_advance)
    monkeypatch.setattr(_kernels, "_series", rerun_series)
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(k_first, k_later, ensemble, targets, 30)
    assert len(blocks) == 2 * 2 * 3  # two operators of three parts, in the series and in its rerun
    assert alive and not any(alive)
    for c in range(len(k_first)):
        ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first[c], k_later[c], ensemble, targets, 30)
        assert np.max(np.abs(fid[c] - ref_fid)) <= 1e-12
        assert np.max(np.abs(p_cum[c] / ref_p_cum - 1.0)) <= 1e-12


def test_malformed_target_stack_raises():
    """Targets must be a (n_targets, D) stack: a 1-D target or a wrong width raises."""
    k_first, k_later, ensemble, targets = random_problem(dim=6)
    for bad in (targets[0], targets[:, :5], targets[None]):
        message = f"targets must have shape (n_targets, 6), got {bad.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trajectory_kernel(k_first, k_later, ensemble, bad, 3)
