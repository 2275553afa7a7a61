"""Hot kernel for repeated-round trajectories.

The round loop multiplies a D x D ensemble matrix by a per-round
contraction operator up to a few hundred times per cell, and a figure
plane holds thousands of cells.  :func:`batch_trajectory_kernel` runs a
stack of cells together: each round is one batched product over the
whole stack, and a cell that stops freezes in place.
:func:`trajectory_kernel` is its one-cell case.  When the contraction
operators and the ensemble split into independent blocks (a conserved
quantity of the joint dynamics), each block runs its own products and
the round weight is the sum of the block weights.  Every part folds its
target rows into its operators, so a round is one product per part,
and runs it in real arithmetic.
"""

from __future__ import annotations

import sys

import numpy as np

from .measurement import UNATTAINABLE_P
from .operators import coupled_blocks

# Smallest positive normal double: a cumulative probability below it has
# lost precision and can no longer be reported.
SMALLEST_NORMAL = sys.float_info.min
# Fewest rows a separately run part may hold.  Each part costs a few numpy
# calls per round, which outweighs the products it saves below about
# this size (measured on D = 4..64 block-diagonal problems).
MIN_PART_ROWS = 32


def _round_blocks(k_first, k_later, v, targets_conj):
    """Per-part ``[k_first, k_later, ensemble, target rows]``.

    The contraction operators may carry leading cell axes; blocks come
    from the union of every cell's nonzero pattern, so one search serves
    the whole stack.  Blocks couple rows linked by either contraction
    operator or by a shared ensemble column.  Consecutive blocks are
    packed into parts of at least :data:`MIN_PART_ROWS` rows; a single
    part covers all rows and runs on the inputs as given.
    """
    dim = v.shape[0]
    nonzero = v != 0
    shared = nonzero.astype(np.float32)
    cells = ((k_first != 0) | (k_later != 0)).reshape(-1, dim, dim)
    pattern = cells.any(axis=0) | (shared @ shared.T > 0)
    packed = []
    for rows in coupled_blocks(pattern):
        if packed and packed[-1].size < MIN_PART_ROWS:
            packed[-1] = np.concatenate([packed[-1], rows])
        else:
            packed.append(rows)
    if len(packed) > 1 and packed[-1].size < MIN_PART_ROWS:
        packed[-2:] = [np.concatenate(packed[-2:])]
    if len(packed) == 1:
        return [[k_first, k_later, v, targets_conj]]
    parts = []
    for rows in packed:
        cols = np.flatnonzero(nonzero[rows].any(axis=0))
        square = (..., rows[:, None], rows)
        parts.append([k_first[square], k_later[square], v[np.ix_(rows, cols)], targets_conj[:, rows]])
    return parts


class _Part:
    """One part's fused round operators, with its ensemble rows per cell.

    Each operator is stacked over its target rows, ``[K; T K]``, once at
    setup, so one product per round gives both the next ensemble rows
    (the buffer's leading rows) and their target overlaps (its trailing
    rows); a part without target support gets no trailing rows.  The
    product runs in real arithmetic: each operator row block becomes
    ``[[Re, -Im], [Im, Re]]`` acting on the ensemble rows ``[Re; Im]``,
    and each target row becomes its Re and Im rows in turn, so a
    target's overlaps are one flat row of 2 * cols floats.  numpy's
    stacked real product beats the complex one 1.3-3.4 times below 64
    rows; from 64 rows on neither wins consistently, and keeping
    table1's 128-row parts complex saved about 5% of its run (OpenBLAS
    0.3.31 on an AVX-512 machine), too little for a second form.
    Each round's product goes into one of two buffers allocated once, in
    turn, so a round allocates nothing but the per-cell results.
    """

    __slots__ = ("k_first", "k_later", "v", "buffers", "leads", "norms", "scores")

    def __init__(self, k_first, k_later, v, targets_conj):
        n_cells, n_targets, (rows, cols) = k_first.shape[0], targets_conj.shape[0], v.shape

        def fused(k):
            # One real row pair per target, so each target's Re and Im rows sit together.
            target_rows = _real_rows(np.matmul(targets_conj, k)[..., None, :])
            return np.concatenate([_real_rows(k), target_rows.reshape(n_cells, 2 * n_targets, 2 * rows)], axis=-2)

        self.k_first, self.k_later = fused(k_first), fused(k_later)
        self.v = np.concatenate([v.real, v.imag])
        self.buffers = [np.empty((n_cells, 2 * (rows + n_targets), cols)) for _ in range(2)]
        self.leads = [b[:, : 2 * rows] for b in self.buffers]
        # |x|^2 summed per cell, or per cell and target, is one dot product.
        self.norms = [lead.reshape(n_cells, 2 * rows * cols) for lead in self.leads]
        self.scores = [b[:, 2 * rows :].reshape(n_cells, n_targets, 2 * cols) for b in self.buffers]

    def advance(self, r: int) -> np.ndarray:
        """Apply round ``r``'s operator; return each cell's squared norm."""
        np.matmul(self.k_first if r == 0 else self.k_later, self.v, out=self.buffers[r % 2])
        self.v = self.leads[r % 2]
        flat = self.norms[r % 2]
        return np.vecdot(flat, flat)

    def overlaps(self, r: int) -> np.ndarray:
        """|target . v|^2 after round ``r``, summed over this part's columns, per cell and target."""
        scores = self.scores[r % 2]
        return np.vecdot(scores, scores)


def _real_rows(k):
    """Real rows acting on ``[Re v; Im v]`` that give ``[Re(k v); Im(k v)]``."""
    return np.block([[k.real, -k.imag], [k.imag, k.real]])


def batch_trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
):
    """Run the round loop for a stack of cells at once.

    ``k_first`` and ``k_later`` stack one contraction operator per cell,
    shape (n_cells, D, D); the ensemble and the stack of target rows are
    shared by every cell.  Returns (fidelity, p_round, p_cum, n_rounds,
    reasons): ``fidelity`` has shape (n_cells, max_rounds, n_targets)
    and the probabilities (n_cells, max_rounds), each cell's entries
    valid for its first ``n_rounds[cell]`` rounds and zero after them;
    ``reasons[cell]`` says why the cell stopped early, or is None for a
    complete run.  A cell stops when a round's conditional probability
    is below :data:`UNATTAINABLE_P` or NaN, or when its cumulative
    probability drops below the smallest normal double.  A stopped cell
    stays in the stack with its ensemble rows zeroed, so it costs its
    products but never reaches subnormal numbers, and its neighbours
    run on unchanged; its rounds from the stop on are masked afterwards.
    ``targets`` must have shape (n_targets, D); any other shape raises
    ValueError.  Each round makes one product per part: the target
    overlaps come out of the same product, from the target rows that
    each part folds into its operators at setup.
    """
    k_first = np.asarray(k_first, dtype=np.complex128)
    k_later = np.asarray(k_later, dtype=np.complex128)
    v = np.array(ensemble, dtype=np.complex128, order="C")
    v = v.reshape(v.shape[0], -1)
    targets_conj = np.asarray(targets, dtype=np.complex128).conj()
    max_rounds, n_cells = int(max_rounds), k_first.shape[0]
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if targets_conj.ndim != 2 or targets_conj.shape[1] != v.shape[0]:
        raise ValueError(f"targets must have shape (n_targets, {v.shape[0]}), got {targets_conj.shape}")
    blocks = _round_blocks(k_first, k_later, v, targets_conj)
    # Parts where every target row is zero add nothing to the overlaps and
    # carry no target rows; one part scores even when no part has support.
    scored = [part_targets.any() for *_, part_targets in blocks]
    scored[0] |= not any(scored)
    parts = [_Part(kf, kl, pv, t if s else t[:0]) for (kf, kl, pv, t), s in zip(blocks, scored)]
    first, *rest = parts
    scoring, *more_scoring = [part for part, s in zip(parts, scored) if s]

    # Per round, every cell's weight, round probability, raw target overlaps
    # and pass mark; a frozen cell reads 0 / 0 and fails every later round,
    # so fewer passes than running cells means some cell stopped this round.
    weights, ratios, overlaps, passes = [], [], [], []
    running, prev = n_cells, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(max_rounds):
            w = first.advance(r)
            for part in rest:
                w += part.advance(r)
            overlap = scoring.overlaps(r)
            for part in more_scoring:
                overlap += part.overlaps(r)
            pr = w / prev
            ok = (pr >= UNATTAINABLE_P) & (w >= SMALLEST_NORMAL)
            weights.append(w)
            ratios.append(pr)
            overlaps.append(overlap)
            passes.append(ok)
            passed = np.count_nonzero(ok)
            if passed < running:
                if not passed:
                    break
                running = passed
                for part in parts:
                    part.v[~ok] = 0.0
            prev = w

        ok, pr = np.stack(passes, axis=1), np.stack(ratios, axis=1)
        n_rounds = np.where(ok.all(axis=1), max_rounds, ok.argmin(axis=1))
        fid = np.zeros((n_cells, max_rounds, targets_conj.shape[0]))
        p_round = np.zeros((n_cells, max_rounds))
        p_cum = np.zeros((n_cells, max_rounds))
        w = np.stack(weights, axis=1)
        fid[:, : len(weights)] = np.stack(overlaps, axis=1) / w[..., None]
        p_round[:, : len(weights)], p_cum[:, : len(weights)] = pr, w
    stopped = np.arange(max_rounds) >= n_rounds[:, None]
    fid[stopped], p_round[stopped], p_cum[stopped] = 0.0, 0.0, 0.0
    reasons = [
        None
        if n == max_rounds
        else f"cumulative probability below {SMALLEST_NORMAL:.1e}, the smallest normal double"
        if pr[c, n] >= UNATTAINABLE_P
        else f"outcome probability below {UNATTAINABLE_P:.0e}"
        for c, n in enumerate(n_rounds)
    ]
    return fid, p_round, p_cum, n_rounds, reasons


def trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
):
    """Run the round loop for one cell: :func:`batch_trajectory_kernel` on a stack of one.

    ``targets`` is a stack of target states, one per row; the trajectory
    does not depend on them, so one pass scores every row.  Returns
    (fidelity, p_round, p_cum, truncated, reason) with arrays trimmed to
    the rounds actually completed; ``fidelity`` has one column per
    target row and ``reason`` is None for a complete run.
    """
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(
        np.asarray(k_first)[None], np.asarray(k_later)[None], ensemble, targets, max_rounds
    )
    n = n_rounds[0]
    return fid[0, :n], p_round[0, :n], p_cum[0, :n], reasons[0] is not None, reasons[0]
