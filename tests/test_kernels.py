"""Round-trajectory kernel: truncation at the probability floor."""

import numpy as np

from logipure._kernels import trajectory_kernel


def random_problem(dim=6, n_cols=3, seed=0):
    rng = np.random.default_rng(seed)

    def cmat(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    k_first = 0.6 * cmat(dim, dim)
    k_later = 0.5 * cmat(dim, dim)
    ensemble = cmat(dim, n_cols) / (dim * n_cols)
    target = cmat(dim)
    target /= np.linalg.norm(target)
    return k_first, k_later, ensemble, target


def test_truncation_at_floor():
    k_first, k_later, ensemble, target = random_problem(seed=3)
    # later rounds shrink the weight below the floor; round one passes
    k_later *= 0.01
    fid, p_round, p_cum, truncated = trajectory_kernel(
        k_first, k_later, ensemble, target, 100, 1e-3
    )
    assert truncated
    assert 1 <= len(fid) < 100
    assert all(p >= 1e-3 for p in p_round)


def test_no_truncation_without_floor():
    args = random_problem(seed=4)
    fid, p_round, p_cum, truncated = trajectory_kernel(*args, 25, 0.0)
    assert not truncated
    assert len(fid) == len(p_round) == len(p_cum) == 25
    # cumulative weight is the running product of per-round weights
    assert np.allclose(np.cumprod(p_round), p_cum, rtol=1e-12)


def test_nan_probability_truncates():
    """A NaN round probability must trip the floor, not pass it."""
    k_first, k_later, ensemble, target = random_problem(seed=5)
    k_first[0, 0] = np.nan
    fid, p_round, p_cum, truncated = trajectory_kernel(
        k_first, k_later, ensemble, target, 5, 1e-14
    )
    assert truncated
    assert len(fid) == len(p_round) == len(p_cum) == 0
