"""Hot kernel for repeated-round trajectories.

The round loop multiplies a D x D ensemble matrix by a per-round
contraction operator up to a few hundred times per parameter point, and
figure-grade sweeps run thousands of points.
"""

from __future__ import annotations

import numpy as np


def trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    target: np.ndarray,
    max_rounds: int,
    p_floor: float,
):
    """Run the round loop.

    Returns (fidelity, p_round, p_cum, truncated) with arrays trimmed to
    the rounds actually completed.  A round whose conditional probability
    is below ``p_floor``, or is NaN, truncates the run.
    """
    k_first = np.ascontiguousarray(k_first, dtype=np.complex128)
    k_later = np.ascontiguousarray(k_later, dtype=np.complex128)
    v = np.array(ensemble, dtype=np.complex128, order="C")
    target_conj = np.ascontiguousarray(target, dtype=np.complex128).conj()
    max_rounds, p_floor = int(max_rounds), float(p_floor)

    fid = np.zeros(max_rounds)
    p_round = np.zeros(max_rounds)
    p_cum = np.zeros(max_rounds)
    prev = 1.0
    n_done = 0
    truncated = False
    for r in range(max_rounds):
        v = (k_first if r == 0 else k_later) @ v
        w = float(np.sum(np.abs(v) ** 2))
        pr = w / prev
        if not pr >= p_floor:
            truncated = True
            break
        tv = target_conj @ v
        fid[r] = float(np.sum(np.abs(tv) ** 2)) / w
        p_round[r] = pr
        p_cum[r] = w
        prev = w
        n_done = r + 1
    return fid[:n_done], p_round[:n_done], p_cum[:n_done], truncated
