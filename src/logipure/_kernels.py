"""Hot kernel for repeated-round trajectories.

The round loop multiplies a D x D ensemble matrix by a per-round
contraction operator up to a few hundred times per parameter point, and
figure-grade sweeps run thousands of points.  When the contraction
operators and the ensemble split into independent blocks (a conserved
quantity of the joint dynamics), each block runs its own loop and the
round weight is the sum of the block weights.
"""

from __future__ import annotations

import sys

import numpy as np

from .operators import coupled_blocks

# Smallest positive normal double: a cumulative probability below it has
# lost precision and can no longer be reported.
SMALLEST_NORMAL = sys.float_info.min
# Fewest rows a separately run part may hold.  Each part costs a few numpy
# calls per round, which outweighs the products it saves below about
# this size (measured on D = 4..64 block-diagonal problems).
MIN_PART_ROWS = 32


def _round_blocks(k_first, k_later, v, targets_conj):
    """Per-part ``[k_first, k_later, ensemble, [(target index, target row)]]``.

    Blocks couple rows linked by either contraction operator or by a
    shared ensemble column.  Consecutive blocks are packed into parts of
    at least :data:`MIN_PART_ROWS` rows; a single part covers all rows
    and runs on the inputs as given.
    """
    nonzero = v != 0
    shared = nonzero.astype(np.float32)
    pattern = (k_first != 0) | (k_later != 0) | (shared @ shared.T > 0)
    packed = []
    for rows in coupled_blocks(pattern):
        if packed and packed[-1].size < MIN_PART_ROWS:
            packed[-1] = np.concatenate([packed[-1], rows])
        else:
            packed.append(rows)
    if len(packed) > 1 and packed[-1].size < MIN_PART_ROWS:
        packed[-2:] = [np.concatenate(packed[-2:])]
    if len(packed) == 1:
        return [[k_first, k_later, v, list(enumerate(targets_conj))]]
    parts = []
    for rows in packed:
        cols = np.flatnonzero(nonzero[rows].any(axis=0))
        rows_targets = [(i, t[rows]) for i, t in enumerate(targets_conj) if t[rows].any()]
        square = np.ix_(rows, rows)
        parts.append([k_first[square], k_later[square], v[np.ix_(rows, cols)], rows_targets])
    return parts


def trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
    p_floor: float,
):
    """Run the round loop.

    ``targets`` is a stack of target states, one per row; the trajectory
    does not depend on them, so one pass scores every row.  Returns
    (fidelity, p_round, p_cum, truncated, reason) with arrays trimmed to
    the rounds actually completed; ``fidelity`` has one column per
    target row.  A run stops when a round's conditional probability is
    below ``p_floor`` or NaN, or when the cumulative probability drops
    below the smallest normal double; ``reason`` names which, and is
    None for a complete run.
    """
    k_first = np.ascontiguousarray(k_first, dtype=np.complex128)
    k_later = np.ascontiguousarray(k_later, dtype=np.complex128)
    v = np.array(ensemble, dtype=np.complex128, order="C")
    v = v.reshape(v.shape[0], -1)
    targets_conj = np.asarray(targets, dtype=np.complex128).conj()
    max_rounds, p_floor = int(max_rounds), float(p_floor)
    parts = _round_blocks(k_first, k_later, v, targets_conj)

    fid = np.zeros((max_rounds, targets_conj.shape[0]))
    p_round = np.zeros(max_rounds)
    p_cum = np.zeros(max_rounds)
    prev = 1.0
    n_done = 0
    reason = None
    for r in range(max_rounds):
        w = 0.0
        for part in parts:
            part[2] = (part[0] if r == 0 else part[1]) @ part[2]
            w += np.vdot(part[2], part[2]).real
        pr = w / prev
        if not pr >= p_floor:
            reason = f"outcome probability below {p_floor:.0e}"
            break
        if w < SMALLEST_NORMAL:
            reason = f"cumulative probability below {SMALLEST_NORMAL:.1e}, the smallest normal double"
            break
        for _, _, v, rows_targets in parts:
            for i, t in rows_targets:
                tv = t @ v
                fid[r, i] += np.vdot(tv, tv).real
        p_round[r] = pr
        p_cum[r] = w
        prev = w
        n_done = r + 1
    fid = fid[:n_done] / p_cum[:n_done, None]
    return fid, p_round[:n_done], p_cum[:n_done], reason is not None, reason
