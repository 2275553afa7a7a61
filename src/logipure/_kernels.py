"""Hot kernel for repeated-round trajectories.

The round loop multiplies a D x D ensemble matrix by a per-round
contraction operator up to a few hundred times per cell, and a figure
plane holds thousands of cells.  :func:`batch_trajectory_kernel` runs a
stack of cells together: each round is one batched product over every
cell still running, and a cell that stops leaves the stack.
:func:`trajectory_kernel` is its one-cell case.  When the contraction
operators and the ensemble split into independent blocks (a conserved
quantity of the joint dynamics), each block runs its own products and
the round weight is the sum of the block weights.
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
    """One part's operators and target rows, with its ensemble rows per running cell.

    Each round's product goes into one of two preallocated buffers, in
    turn, so a round allocates nothing but the per-cell results; the
    buffers are allocated again only when cells leave the stack.
    """

    __slots__ = ("k_first", "k_later", "targets", "v", "buffers", "squares", "overlap", "overlap_squares")

    def __init__(self, k_first, k_later, v, targets_conj):
        self.k_first, self.k_later, self.targets, self.v = k_first, k_later, targets_conj, v
        self._allocate(k_first.shape[0])

    def _allocate(self, n_cells: int) -> None:
        rows, cols = self.v.shape[-2:]
        self.buffers = [np.empty((n_cells, rows, cols), dtype=np.complex128) for _ in range(2)]
        # Float views, so that |x|^2 summed per cell is one dot product.
        self.squares = [b.view(np.float64).reshape(n_cells, -1) for b in self.buffers]
        self.overlap = np.empty((n_cells, self.targets.shape[0], cols), dtype=np.complex128)
        self.overlap_squares = self.overlap.view(np.float64)

    def advance(self, r: int) -> np.ndarray:
        """Apply round ``r``'s operator; return each cell's squared norm."""
        np.matmul(self.k_first if r == 0 else self.k_later, self.v, out=self.buffers[r % 2])
        self.v = self.buffers[r % 2]
        flat = self.squares[r % 2]
        return np.vecdot(flat, flat)

    def overlaps(self) -> np.ndarray:
        """|target . v|^2 summed over this part's columns, per cell and target."""
        np.matmul(self.targets, self.v, out=self.overlap)
        return np.vecdot(self.overlap_squares, self.overlap_squares)

    def keep(self, cells: np.ndarray) -> None:
        """Drop the cells not selected by the boolean mask ``cells``."""
        self.k_later, self.v = self.k_later[cells], self.v[cells]
        self._allocate(self.v.shape[0])


def batch_trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
    p_floor: float,
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
    is below ``p_floor`` or NaN, or when its cumulative probability drops
    below the smallest normal double.  A stopped cell leaves the stack
    and its neighbours run on unchanged.
    """
    k_first = np.asarray(k_first, dtype=np.complex128)
    k_later = np.asarray(k_later, dtype=np.complex128)
    v = np.array(ensemble, dtype=np.complex128, order="C")
    v = v.reshape(v.shape[0], -1)
    targets_conj = np.asarray(targets, dtype=np.complex128).conj()
    max_rounds, p_floor = int(max_rounds), float(p_floor)
    n_cells = k_first.shape[0]
    parts = [_Part(*part) for part in _round_blocks(k_first, k_later, v, targets_conj)]
    first, *rest = parts
    # Parts where every target row is zero add nothing to the overlaps.
    scoring, *more_scoring = [part for part in parts if part.targets.any()] or parts

    n_rounds = np.full(n_cells, max_rounds)
    reasons: list[str | None] = [None] * n_cells
    # Per completed round, the weights, round probabilities and raw target
    # overlaps of the cells running then; the running set changes only
    # when a cell stops, and each change opens a segment.
    weights, ratios, overlaps = [], [], []
    segments = [(0, slice(None))]  # (first round, cells running from it)
    prev = 1.0
    for r in range(max_rounds):
        w = first.advance(r)
        for part in rest:
            w += part.advance(r)
        pr = w / prev
        ok = (pr >= p_floor) & (w >= SMALLEST_NORMAL)
        if np.count_nonzero(ok) < ok.size:
            live = np.arange(n_cells)[segments[-1][1]]
            for cell, passed_floor in zip(live[~ok], pr[~ok] >= p_floor):
                n_rounds[cell] = r
                reasons[cell] = (
                    f"cumulative probability below {SMALLEST_NORMAL:.1e}, the smallest normal double"
                    if passed_floor
                    else f"outcome probability below {p_floor:.0e}"
                )
            live, w, pr = live[ok], w[ok], pr[ok]
            segments.append((r, live))
            if live.size == 0:
                break
            for part in parts:
                part.keep(ok)
        overlap = scoring.overlaps()
        for part in more_scoring:
            overlap += part.overlaps()
        overlaps.append(overlap)
        weights.append(w)
        ratios.append(pr)
        prev = w

    fid = np.zeros((n_cells, max_rounds, targets_conj.shape[0]))
    p_round = np.zeros((n_cells, max_rounds))
    p_cum = np.zeros((n_cells, max_rounds))
    ends = [r for r, _ in segments[1:]] + [len(weights)]
    for (begin, cells), end in zip(segments, ends):
        if end > begin:
            w = np.stack(weights[begin:end], axis=1)
            fid[cells, begin:end] = np.stack(overlaps[begin:end], axis=1) / w[..., None]
            p_round[cells, begin:end] = np.stack(ratios[begin:end], axis=1)
            p_cum[cells, begin:end] = w
    return fid, p_round, p_cum, n_rounds, reasons


def trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
    p_floor: float,
):
    """Run the round loop for one cell: :func:`batch_trajectory_kernel` on a stack of one.

    ``targets`` is a stack of target states, one per row; the trajectory
    does not depend on them, so one pass scores every row.  Returns
    (fidelity, p_round, p_cum, truncated, reason) with arrays trimmed to
    the rounds actually completed; ``fidelity`` has one column per
    target row and ``reason`` is None for a complete run.
    """
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(
        np.asarray(k_first)[None], np.asarray(k_later)[None], ensemble, targets, max_rounds, p_floor
    )
    n = n_rounds[0]
    return fid[0, :n], p_round[0, :n], p_cum[0, :n], reasons[0] is not None, reasons[0]
