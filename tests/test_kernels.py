"""Round-trajectory kernel: stopping causes, the block-split loop, its fused round products and cell batches."""

import re

import numpy as np
import pytest

from logipure import _kernels
from logipure._kernels import _round_blocks, batch_trajectory_kernel, trajectory_kernel
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
        targets = np.ones((1, k.shape[0]), dtype=complex)
        return len(_round_blocks(k, k, ensemble, targets))

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
    assert [len(part[2]) for part in _round_blocks(k_first, k_later, ensemble, targets.conj())] == [8, 40, 72]
    max_rounds = 30
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(k_first, k_later, ensemble, targets, max_rounds)
    assert list(n_rounds) == [max_rounds] * len(k_first) and reasons == [None] * len(k_first)
    for c in range(len(k_first)):
        ref_fid, ref_p_round, ref_p_cum = dense_trajectory(k_first[c], k_later[c], ensemble, targets, max_rounds)
        assert np.max(np.abs(fid[c] - ref_fid)) <= 1e-12
        assert np.max(np.abs(p_round[c] / ref_p_round - 1.0)) <= 1e-12
        assert np.max(np.abs(p_cum[c] / ref_p_cum - 1.0)) <= 1e-12


def test_one_product_per_part_per_round(monkeypatch):
    """Each round makes one product per part; the target scores come out of it.

    Setup makes two products per part (first and later operator) to fold
    the target rows in.  Each round operator is real, with a Re and an Im
    row per ensemble row and per target row, except that the 40-row part,
    without target support, has no target rows.
    """
    monkeypatch.setattr(_kernels, "MIN_PART_ROWS", 8)
    k_first, k_later, ensemble, targets = three_part_problem(n_cells=1)
    shapes = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        shapes.append((args[0].shape[-2:], args[0].dtype))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    max_rounds = 7
    fid = trajectory_kernel(k_first[0], k_later[0], ensemble, targets, max_rounds)[0]
    assert fid.shape == (max_rounds, 2)
    parts = [((20, 16), np.float64), ((80, 80), np.float64), ((148, 144), np.float64)]
    assert len(shapes) == 2 * len(parts) + max_rounds * len(parts)
    assert shapes[2 * len(parts) :] == parts * max_rounds


def test_malformed_target_stack_raises():
    """Targets must be a (n_targets, D) stack: a 1-D target or a wrong width raises."""
    k_first, k_later, ensemble, targets = random_problem(dim=6)
    for bad in (targets[0], targets[:, :5], targets[None]):
        message = f"targets must have shape (n_targets, 6), got {bad.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trajectory_kernel(k_first, k_later, ensemble, bad, 3)
