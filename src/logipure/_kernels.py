"""Hot kernel for repeated-round trajectories.

A trajectory multiplies a D x D ensemble matrix by the same contraction
operator K, round after round, up to a few hundred times per cell, and
a figure plane holds thousands of cells.  :func:`batch_trajectory_kernel`
runs a stack of cells together and does not run the rounds one by one:
it evaluates the whole series by baby and giant steps (Paterson and
Stockmeyer, SIAM J. Comput. 2, 60 (1973)), from the Grams of the powers
of K and of every m-th ensemble, so a series of R rounds costs about
2 sqrt(R) stacked products, all in real arithmetic, and only products of
contractions: no eigendecomposition.  The giant steps' Grams are scored
against the baby-step Grams a chunk at a time, as many giant steps as a
byte budget holds, so the baby-Gram stack is read once per chunk and
the memory on top of it stays bounded.  A real ensemble stays real.  A
cell whose series cancels below
its own rounding (an ensemble where K shrinks while K keeps another
subspace) is run again one product per round.  :func:`trajectory_kernel`
is the one-cell case.  When the contraction operators and the ensemble
split into independent blocks (a conserved quantity of the joint
dynamics), found from their nonzero pattern, each part runs its own
series and a round's weight is the sum of the part weights.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from .measurement import UNATTAINABLE_P
from .operators import coupled_blocks

# Smallest positive normal double: a cumulative probability below it has
# lost precision and can no longer be reported.
SMALLEST_NORMAL = sys.float_info.min
# Largest share of a round's weight that its rounding, estimated as eps
# times its size (see _PartSeries), may reach; a cell with a weight past
# it, up to its stop, runs its series again round by round.  The kernel
# tests hold every weight to this share of the dense round loop's.
RESOLUTION = 1e-12
# Fewest rows a separately run part may hold.  Each part costs about 3
# numpy calls per baby step and 15 per giant step, which outweighs the
# products it saves below about this size.  Timed on one-cell, 500-round
# block-diagonal problems against 1, 8, 16, 64 and no split, 32 was the
# fastest or within noise of it: sixteen 4-row blocks 6.3 ms (8: 13.5 ms,
# unsplit: 8.7 ms), eight 16-row blocks 11.5 ms (64: 18.6 ms, unsplit:
# 38.1 ms), table1 row 11 19.3-22.7 ms from 1 to 32 (64: 38.9 ms).
MIN_PART_ROWS = 32
# Most bytes the giant-step Grams stored for one chunk of the series may
# take, over every cell and part (see _series); a giant step whose Grams
# alone take more is a chunk of one.  A longer chunk rereads the baby-Gram
# stacks less often but adds its store to the peak.  At 64 KiB, 256 KiB and
# 1 MiB (4 alternating perfbench runs each, 6-8 s): fig4-sweep (100 cells,
# 51 KB of Grams per giant step) peak RSS +0.07, +0.26 and +1.4 MB over the
# unchunked kernel, whose runs spread 0.05 MB; chain-table wall_s medians
# 0.112, 0.114 and 0.127 s against its 0.126 s; table1's replayed kernel
# calls 42-44, 42 and 37-40 ms against 47 ms (best of 15-20).
SCORE_CHUNK_BYTES = 64 * 1024


def _round_blocks(k_first, k_later, v, targets_conj):
    """Per-part ``[k_first, k_later, ensemble, target rows]``.

    The contraction operators may carry leading cell axes; blocks come
    from the union of every cell's nonzero pattern, so one search serves
    the whole stack.  Blocks couple rows linked by either contraction
    operator or by a shared ensemble column.  They are packed into parts
    by :func:`_pack`; a single part covers all rows and runs on the
    inputs as given.  When ``k_later`` is ``k_first``, each part's two
    blocks are one array too (:func:`_both`).
    """
    dim = v.shape[0]
    nonzero = v != 0
    shared = nonzero.astype(np.float32)
    cells = ((k_first != 0) | (k_later != 0)).reshape(-1, dim, dim)
    pattern = cells.any(axis=0) | (shared @ shared.T > 0)
    packed = _pack(coupled_blocks(pattern))
    if len(packed) == 1:
        return [[k_first, k_later, v, targets_conj]]
    parts = []
    for rows in packed:
        cols = np.flatnonzero(nonzero[rows].any(axis=0))
        square = (..., rows[:, None], rows)
        parts.append([*_both(k_first, k_later, square), v[np.ix_(rows, cols)], targets_conj[:, rows]])
    return parts


def _both(k_first, k_later, index):
    """``k_first[index]`` and ``k_later[index]``, one array when the two operators are one."""
    first = k_first[index]
    return first, first if k_later is k_first else k_later[index]


def _pack(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Blocks of rows packed into parts of at least :data:`MIN_PART_ROWS` rows, each with the least excess.

    A block that reaches :data:`MIN_PART_ROWS` on its own is a part.  Each
    other part starts from the largest smaller block left and takes the
    smallest block that brings it to :data:`MIN_PART_ROWS`, or else the
    largest, until it gets there; blocks too few to get there join the
    smallest part, or form the only one.  Each part's rows come sorted,
    and the parts in the order of their smallest row.
    """
    parts = [rows for rows in blocks if rows.size >= MIN_PART_ROWS]
    small = sorted((rows for rows in blocks if rows.size < MIN_PART_ROWS), key=len)
    sizes = [rows.size for rows in small]
    left = sum(sizes)
    while left >= MIN_PART_ROWS:
        part, filled = [small.pop()], sizes.pop()
        while filled < MIN_PART_ROWS:
            i = min(bisect.bisect_left(sizes, MIN_PART_ROWS - filled), len(sizes) - 1)
            part.append(small.pop(i))
            filled += sizes.pop(i)
        parts.append(np.concatenate(part))
        left -= filled
    if small and parts:
        i = min(range(len(parts)), key=lambda p: parts[p].size)
        parts[i] = np.concatenate([parts[i], *small])
    elif small:
        parts.append(np.concatenate(small))
    return sorted((np.sort(rows) for rows in parts), key=lambda rows: rows[0])


def _real_rows(re, im):
    """Real rows acting on ``[Re v; Im v]`` that give ``[Re(k v); Im(k v)]``, for k = re + i im."""
    rows = re.shape[-1]
    k = np.empty((*re.shape[:-2], 2 * rows, 2 * rows))
    k[..., :rows, :rows] = k[..., rows:, rows:] = re
    k[..., rows:, :rows] = im
    np.negative(im, out=k[..., :rows, rows:])
    return k


class _PartSeries:
    """One part's round series, by baby and giant steps.

    Round r = b m + a, with m baby steps a and n giant steps b, leaves
    the ensemble K^a V_b, where K = k_later and V_b = K^(b m) k_first V.
    Its weight is the Frobenius product <P_a, G_b> of the Grams
    P_a = (K^a)^dag K^a and G_b = V_b V_b^dag, and its target overlaps
    are |t^dag K^a V_b|^2, from the target rows t^dag K^a.  Construction
    runs the m - 1 baby steps: the powers of K, their Grams and their
    target rows.  Each giant step then makes V_b (:meth:`advance`), its
    Gram, written into a store of ``chunk`` Grams, and one product of
    every target row with V_b (:meth:`step`).  Once the store holds a
    chunk of giant steps, one product of the baby-Gram stack with them
    gives every weight of the chunk, and one product of the baby powers'
    column norms with the giant steps' row norms every size
    (:meth:`weigh`), so the baby-Gram stack is read once per chunk, not
    once per giant step.  With m = 1 there are no baby steps, no Grams
    and no store, and each giant step is one round.

    Next to each weight read off the Grams it returns a size, eps times
    which bounds the weight's rounding up to a factor of the dimension:
    s(K^a, V_b)^2, where s(X, Y) = sum_i ||X e_i|| ||e_i^dag Y|| bounds
    the norm of X Y = sum_i (X e_i)(e_i^dag Y).  The size bounds
    sum_ij |P_ij| |G_ij|, the terms <P_a, G_b> adds up, since
    |P_ij|^2 <= P_ii P_jj for a Gram, and ||K^a e_i||^2 and
    ||e_i^dag V_b||^2 are the Grams' diagonals.  A weight far below its
    size is a sum that cancels.  ||V_b||^2 is summed from
    V_b's own entries and needs no size: K is a contraction, so the
    rounding of V_b = K^m V_(b-1), about eps s(K^m, V_(b-1)), is at most
    eps s(K^(m-1), V_(b-1)), which the check of round b m - 1 bounds by
    sqrt(eps RESOLUTION) ||K^(m-1) V_(b-1)||.

    Everything runs in real arithmetic.  A power K^a is held as
    ``[Re; Im]`` and multiplied by K's real rows (:func:`_real_rows`).
    A Hermitian Gram is held as Re + Im, D^2 reals: the Frobenius
    product of a symmetric and an antisymmetric matrix vanishes, so
    <P, G> is the plain dot product of the two sums, and the diagonal of
    the sum is the Gram's.  A target row is held as ``[Re, -Im]``, which
    K's real rows map to the next power's row, and V_b as
    ``[[Re, Im], [Im, -Re]]``, whose two column blocks take such a row
    to the Re and the Im of its overlap.  A real ensemble gives the same
    ``[Re; Im]`` stack, with an exact zero Im, as its complex copy.
    """

    __slots__ = ("grams", "columns", "targets", "giant", "ensemble", "turned", "store", "scores")

    def __init__(self, k_first, k_later, v, targets_conj, babies, chunk):
        n_cells, (rows, cols), n_targets = k_later.shape[0], v.shape, targets_conj.shape[0]
        self.ensemble = np.empty((n_cells, 2 * rows, 2 * cols))
        v = np.concatenate([v.real, v.imag])
        np.matmul(_real_rows(k_first.real, k_first.imag), v, out=self.ensemble[..., :cols])
        k = _real_rows(k_later.real, k_later.imag)
        grams = np.empty((n_cells, babies - 1, rows, rows))
        targets = np.empty((n_cells, babies, n_targets, 2 * rows))
        targets[:, 0] = np.concatenate([targets_conj.real, -targets_conj.imag], axis=-1)
        power, turned = k[..., :rows], np.empty((n_cells, 2 * rows, rows))
        for a in range(1, babies):
            re, im = power[:, :rows], power[:, rows:]  # of X = K^a; Re P + Im P = [Re; Im]^T [Re + Im; Im - Re]
            np.add(re, im, out=turned[:, :rows])
            np.subtract(im, re, out=turned[:, rows:])
            np.matmul(power.mT, turned, out=grams[:, a - 1])
            if n_targets:
                np.matmul(targets[:, a - 1], k, out=targets[:, a])
            power = np.matmul(k, power)
        del k, turned  # before the giant-step buffers exist, to keep the peak down
        self.columns = np.sqrt(np.diagonal(grams, axis1=2, axis2=3))  # ||K^a e_i||, from diag P_a
        self.grams = grams.reshape(n_cells, babies - 1, rows * rows)
        self.targets = targets.reshape(n_cells, babies * n_targets, 2 * rows)
        self.giant = _real_rows(power[:, :rows], power[:, rows:])
        self.turned = np.empty((n_cells, rows, 2 * cols))
        self.store = np.empty((n_cells, chunk, rows, rows)) if babies > 1 else None
        self.scores = np.empty((n_cells, babies * n_targets, 2 * cols)) if n_targets else None

    def advance(self, b: int) -> np.ndarray:
        """Step to V_b (V_0 is set up at construction); return ||V_b||^2 per cell."""
        e = self.ensemble
        rows, cols = (n // 2 for n in e.shape[1:])
        if b:
            np.matmul(self.giant, e[..., :cols], out=e[..., :cols])
        top = e[:, :rows]
        top[..., cols:] = e[:, rows:, :cols]
        flat = top.reshape(len(e), -1)
        return np.vecdot(flat, flat)

    def step(self, j: int, stopped: np.ndarray):
        """Store V_b's Gram at place ``j`` of the chunk; return the overlaps of rounds b m .. b m + m - 1.

        The ensemble rows of cells in ``stopped``, which stopped by round
        b m, are zeroed first, so that no later step makes subnormal
        numbers.  Returns per cell the overlaps, baby-major, or None when
        the part has no target rows.
        """
        e = self.ensemble
        rows, cols = (n // 2 for n in e.shape[1:])
        if stopped.any():
            e[stopped] = 0.0
        top, bottom = e[:, :rows], e[:, rows:]  # [Re, Im] and [Im, -Re]
        np.negative(top[..., :cols], out=bottom[..., cols:])
        if self.store is not None:  # Re G + Im G = (top + bottom) top^T
            np.add(top, bottom, out=self.turned)
            np.matmul(self.turned, top.mT, out=self.store[:, j])
        if self.scores is None:
            return None
        np.matmul(self.targets, e, out=self.scores)
        return np.vecdot(self.scores, self.scores)

    def weigh(self, count: int):
        """Weights and sizes of rounds b m + 1 .. b m + m - 1 for the first ``count`` stored giant steps.

        Each of shape (n_cells, m - 1, count), from one product each.
        """
        n_cells, _, rows, _ = self.store.shape
        store = self.store.reshape(n_cells, -1, rows * rows)[:, :count]
        weights = np.matmul(self.grams, store.mT)
        row_norms = np.sqrt(store[..., :: rows + 1])  # ||e_i^dag V_b||, from diag G_b
        sizes = np.matmul(self.columns, row_norms.mT)
        return weights, np.square(sizes, out=sizes)


def _series(blocks, n_targets: int, max_rounds: int, babies: int):
    """Every round's weight and target overlaps, summed over the parts, and each cell's first unresolved round.

    Returns arrays of shape (n_cells, max_rounds) and (n_cells,
    max_rounds, n_targets), and per cell the first round whose rounding
    (eps times its size, see :class:`_PartSeries`) exceeds
    :data:`RESOLUTION` of its weight, or a round past the last when there
    is none.  The giant steps of every part advance together: a cell whose
    weight at a giant step is below the smallest normal double has
    stopped there, and its ensemble rows are zeroed in every part.  The
    weights and sizes of the baby rounds are read once per chunk of
    giant steps, as long as :data:`SCORE_CHUNK_BYTES` allows for every
    part's stored Grams, and checked against each other there.
    """
    n_cells = blocks[0][1].shape[0]
    giants = -(-max_rounds // babies)
    gram_bytes = 8 * n_cells * sum(pv.shape[0] ** 2 for _, _, pv, _ in blocks)
    chunk = min(giants, max(1, SCORE_CHUNK_BYTES // gram_bytes))
    # Parts where every target row is zero add nothing to the overlaps and
    # are scored against no rows; one part scores even when no part has support.
    scored = [part_targets.any() for *_, part_targets in blocks]
    scored[0] |= not any(scored)
    weights = np.zeros((n_cells, giants, babies))
    overlaps = np.zeros((n_cells, giants, babies, n_targets))
    sizes = np.empty((n_cells, babies - 1, chunk))
    unresolved = np.zeros((n_cells, giants, babies), dtype=bool)
    resolvable = RESOLUTION / np.finfo(float).eps  # a weight times this must exceed its size
    parts = [
        _PartSeries(kf, kl, pv, t if s else t[:0], babies, chunk) for (kf, kl, pv, t), s in zip(blocks, scored)
    ]
    for b in range(giants):
        for part in parts:
            weights[:, b, 0] += part.advance(b)
        stopped = ~(weights[:, b, 0] >= SMALLEST_NORMAL)
        for part in parts:
            overlap = part.step(b % chunk, stopped)
            if overlap is not None:
                overlaps[:, b] += overlap.reshape(n_cells, babies, n_targets)
        if babies > 1 and (b % chunk == chunk - 1 or b == giants - 1):
            count = b % chunk + 1
            chunk_weights, chunk_sizes = weights[:, b + 1 - count : b + 1, 1:], sizes[..., :count]
            chunk_sizes[:] = 0.0
            for part in parts:
                w, size = part.weigh(count)
                chunk_weights += w.mT
                chunk_sizes += size
            np.greater(chunk_sizes.mT, resolvable * chunk_weights, out=unresolved[:, b + 1 - count : b + 1, 1:])
    shape = (n_cells, giants * babies)
    unresolved = unresolved.reshape(shape)[:, :max_rounds]
    first = np.where(unresolved.any(axis=1), unresolved.argmax(axis=1), max_rounds)
    return weights.reshape(shape)[:, :max_rounds], overlaps.reshape(*shape, n_targets)[:, :max_rounds], first


def _stops(p_cum: np.ndarray):
    """Round probabilities and each cell's number of rounds before its first failing one."""
    ratio = np.empty_like(p_cum)
    ratio[:, 0] = p_cum[:, 0]
    np.divide(p_cum[:, 1:], p_cum[:, :-1], out=ratio[:, 1:])
    ok = (ratio >= UNATTAINABLE_P) & (p_cum >= SMALLEST_NORMAL)
    return ratio, np.where(ok.all(axis=1), p_cum.shape[1], ok.argmin(axis=1))


def _settle(fid: np.ndarray, ratio: np.ndarray, p_cum: np.ndarray, n_rounds: np.ndarray) -> list[str | None]:
    """Zero every cell's entries after its ``n_rounds``, in place, and say why each stopped early.

    ``ratio`` and ``n_rounds`` are :func:`_stops`'; a cell that ran every
    round gets None.
    """
    max_rounds = p_cum.shape[1]
    reasons = [
        None
        if n == max_rounds
        else f"cumulative probability below {SMALLEST_NORMAL:.1e}, the smallest normal double"
        if ratio[c, n] >= UNATTAINABLE_P
        else f"outcome probability below {UNATTAINABLE_P:.0e}"
        for c, n in enumerate(n_rounds)
    ]
    stopped = np.arange(max_rounds) >= n_rounds[:, None]
    fid[stopped], ratio[stopped], p_cum[stopped] = 0.0, 0.0, 0.0
    return reasons


def batch_trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
):
    """Run the trajectories of a stack of cells at once.

    ``k_first`` and ``k_later`` stack one contraction operator per cell,
    shape (n_cells, D, D); the ensemble and the stack of target rows are
    shared by every cell.  Returns (fidelity, p_round, p_cum, n_rounds,
    reasons): ``fidelity`` has shape (n_cells, max_rounds, n_targets)
    and the probabilities (n_cells, max_rounds), each cell's entries
    valid for its first ``n_rounds[cell]`` rounds and zero after them;
    ``reasons[cell]`` says why the cell stopped early, or is None for a
    complete run.  A cell stops when a round's conditional probability
    is below :data:`UNATTAINABLE_P` or NaN, or when its cumulative
    probability drops below the smallest normal double.  ``targets``
    must have shape (n_targets, D); any other shape raises ValueError.

    The rounds are not run one by one.  With m = ceil(sqrt(max_rounds))
    baby steps and n = ceil(max_rounds / m) giant steps, scored in k
    chunks of giant steps (:data:`SCORE_CHUNK_BYTES`), each part
    (:class:`_PartSeries`) makes about 3 m + 3 n + 2 k products for the
    whole series, where a round-by-round loop makes max_rounds, and the
    stops are read off the summed series afterwards.  A real ``ensemble``
    is used as it is, not copied to complex.  A weight read off the
    powers of K can cancel: when the ensemble sits where K shrinks while
    K keeps another subspace, it is a small sum of large terms, which the
    round-by-round products never form.  A cell with such a weight up to
    its stop, one whose estimated rounding exceeds :data:`RESOLUTION` of
    it, runs its series again with m = 1, one product per round.
    """
    k_first = np.asarray(k_first, dtype=np.complex128)
    k_later = np.asarray(k_later, dtype=np.complex128)
    v = np.asarray(ensemble)
    v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)
    v = v.reshape(v.shape[0], -1)
    targets_conj = np.asarray(targets, dtype=np.complex128).conj()
    max_rounds = int(max_rounds)
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if targets_conj.ndim != 2 or targets_conj.shape[1] != v.shape[0]:
        raise ValueError(f"targets must have shape (n_targets, {v.shape[0]}), got {targets_conj.shape}")
    n_targets = targets_conj.shape[0]
    blocks = _round_blocks(k_first, k_later, v, targets_conj)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_cum, fid, unresolved = _series(blocks, n_targets, max_rounds, math.isqrt(max_rounds - 1) + 1)
        ratio, n_rounds = _stops(p_cum)
        redo = unresolved <= np.minimum(n_rounds, max_rounds - 1)
        if redo.any():
            again = [[*_both(kf, kl, redo), pv, t] for kf, kl, pv, t in blocks]
            p_cum[redo], fid[redo], _ = _series(again, n_targets, max_rounds, 1)
            ratio, n_rounds = _stops(p_cum)
        fid /= p_cum[..., None]
    return fid, ratio, p_cum, n_rounds, _settle(fid, ratio, p_cum, n_rounds)


def trajectory_kernel(
    k_first: np.ndarray,
    k_later: np.ndarray,
    ensemble: np.ndarray,
    targets: np.ndarray,
    max_rounds: int,
):
    """Run a one-cell trajectory: :func:`batch_trajectory_kernel` on a stack of one.

    ``targets`` is a stack of target states, one per row; the trajectory
    does not depend on them, so one pass scores every row.  Returns
    (fidelity, p_round, p_cum, truncated, reason) with arrays trimmed to
    the rounds actually completed; ``fidelity`` has one column per
    target row and ``reason`` is None for a complete run.  As in the
    batch, the series is evaluated by baby and giant steps, so its cost
    grows as sqrt(max_rounds) products, not as max_rounds, unless the
    series cancels below its rounding and runs again round by round.
    """
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(
        np.asarray(k_first)[None], np.asarray(k_later)[None], ensemble, targets, max_rounds
    )
    n = n_rounds[0]
    return fid[0, :n], p_round[0, :n], p_cum[0, :n], reasons[0] is not None, reasons[0]
