"""Round-trajectory kernel: stopping causes and the block-split loop."""

import numpy as np

from logipure import _kernels
from logipure._kernels import _round_blocks, trajectory_kernel


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
    # later rounds shrink the weight below the floor; round one passes
    k_later *= 0.01
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(
        k_first, k_later, ensemble, targets, 100, 1e-3
    )
    assert truncated
    assert reason == "outcome probability below 1e-03"
    assert 1 <= len(fid) < 100
    assert all(p >= 1e-3 for p in p_round)


def test_no_truncation_without_floor():
    args = random_problem(seed=4)
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(*args, 25, 0.0)
    assert not truncated
    assert reason is None
    assert len(fid) == len(p_round) == len(p_cum) == 25
    # cumulative weight is the running product of per-round weights
    assert np.allclose(np.cumprod(p_round), p_cum, rtol=1e-12)


def test_nan_probability_truncates():
    """A NaN round probability must trip the floor, not pass it."""
    k_first, k_later, ensemble, targets = random_problem(seed=5)
    k_first[0, 0] = np.nan
    fid, p_round, p_cum, truncated, reason = trajectory_kernel(
        k_first, k_later, ensemble, targets, 5, 1e-14
    )
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
        k, k, np.eye(2) / np.sqrt(2), np.array([[1.0, 0.0]]), 100, 1e-14
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
