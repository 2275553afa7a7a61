"""Test-only oracles.

* A hand-derived Pauli expansion of the coupling: the three-qubit
  rank-one coupling of the repetition code is expanded here in projector
  algebra, independently of :func:`logipure.interaction.pauli_decompose`,
  and compared term by term against the decomposition pipeline.
* :func:`pauli_reconstruct`, the dense sum of a decomposition's terms.
* :func:`dense_stabilizer_code`, the stabilizer-code builder that checks
  its stabilizers by multiplying their dense matrices, the reference for
  the letter-by-letter checks of
  :func:`logipure.codes.build_stabilizer_code`.
* The closed forms of the coupled pair |Psi_S, 1_A> <-> |Phi_S, 0_A>
  of the rank-one coupling, from a
  :class:`logipure.thermal.ResonanceContext`: its shifted energies and
  resonance test (:func:`shifted_energies`, :func:`resonant`), its
  eigenpairs (:func:`coupled_eigenpairs`) and the populations and
  coherence of the evolved thermal state (:func:`evolution_coefficients`),
  each checked against the dense :func:`logipure.thermal.evolved_joint_state`
  or the dense total Hamiltonian, and :func:`p_plus_general`, the
  a = pi outcome probability at any detuning from those populations,
  checked against the dense single shot.
* :func:`reconstruct`, V diag(w) V^dagger from a
  :class:`logipure.operators.SpectralDecomposition`, the check that a
  spectrum decomposes the matrix it came from.
* A plain dense round loop, the reference for the block-split
  trajectory kernel.
* :func:`dense_round_contraction`, the round operators from the dense
  eigenvector array, the reference for the block-by-block
  :func:`logipure.emr.round_contraction`, and
  :func:`reflected_operators`, which moves operators to the basis of a
  reflection's even and odd halves by a dense orthogonal change of
  basis, the reference for the operators the sector-built chain
  spectrum and the chain's reflected thermal factor give straight in
  that basis.
* :func:`reflected_eig`, :func:`logipure.operators.hermitian_eig` with
  each block that a reflection of the rows keeps solved as its even and
  odd halves, gathered and checked from the dense matrix by
  :func:`_reflection_pieces`, the reference for the sector-built chain
  spectrum :func:`logipure.emr._xy_spectrum`.
* :func:`projector_measurement`, the auxiliary measurement done at the
  joint dimension: a ``kron(I_S, |psi><psi|)`` sandwich followed by
  :func:`partial_trace`, the reference for
  :func:`logipure.measurement.measure_aq`.
* :func:`embed`, which places an operator on named sites by permuting
  tensor axes, and the Hamiltonian builders written with it: the
  references for the Pauli-sum and Kronecker-block builders of
  ``codes``, ``emr`` and ``interaction``.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from logipure import emr, operators
from logipure.codes import code_from_hamiltonian
from logipure.measurement import UNATTAINABLE_P
from logipure.thermal import ResonanceContext, ThermalSpec
from logipure.operators import (
    KET_0,
    KET_1,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PauliString,
    fidelity_pure,
    kron,
    kron_all,
    pauli_operator,
    pauli_sum,
)


def three_qubit_coupling_reference(theta: float, phi: float, coupling: float) -> dict[str, complex]:
    """Hand-derived Pauli expansion of the three-qubit rank-one coupling.

    Obtained by expanding g |Psi><Phi| (x) |1><0| + h.c. in projector
    algebra for the three-qubit repetition code, independently of
    :func:`pauli_decompose`.  Keys are four-letter strings (three system
    qubits then the auxiliary); values are the coefficients.  Serves as
    the cross-check oracle for the decomposition pipeline.
    """
    zp = np.cos(theta / 2) + np.cos(phi) * np.sin(theta / 2)
    zm = np.cos(theta / 2) - np.cos(phi) * np.sin(theta / 2)
    sp = np.sin(theta / 2) * np.sin(phi)
    unit = coupling / (8.0 * np.sqrt(6.0))
    terms: dict[str, complex] = {}

    def add(sites: dict[int, str], c: float):
        if abs(c) < 1e-15:
            return
        word = "".join(sites.get(q, "I") for q in range(4))
        terms[word] = terms.get(word, 0.0) + c * unit

    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        add({a: "X", b: "X", 3: "X"}, zp)
        add({a: "Y", b: "Y", 3: "X"}, -zp)
        add({j: "Z", a: "X", b: "X", 3: "X"}, -zm)
        add({j: "Z", a: "Y", b: "Y", 3: "X"}, zm)
        add({a: "X", b: "Y", 3: "Y"}, zm)
        add({a: "Y", b: "X", 3: "Y"}, zm)
        add({j: "Z", a: "X", b: "Y", 3: "Y"}, -zp)
        add({j: "Z", a: "Y", b: "X", 3: "Y"}, -zp)
        add({j: "X", 3: "X"}, zp)
        add({j: "Y", a: "Z", 3: "Y"}, -zp)
        add({j: "Y", b: "Z", 3: "Y"}, -zp)
        add({j: "X", a: "Z", b: "Z", 3: "X"}, zp)
        add({j: "Y", 3: "Y"}, zm)
        add({j: "X", a: "Z", 3: "X"}, -zm)
        add({j: "X", b: "Z", 3: "X"}, -zm)
        add({j: "Y", a: "Z", b: "Z", 3: "Y"}, zm)
        for with_z in (False, True):
            head = {j: "Z"} if with_z else {}
            add({**head, a: "X", b: "X", 3: "Y"}, -sp)
            add({**head, a: "X", b: "Y", 3: "X"}, -sp)
            add({**head, a: "Y", b: "X", 3: "X"}, -sp)
            add({**head, a: "Y", b: "Y", 3: "Y"}, sp)
        for first, last in (("X", "Y"), ("Y", "X")):
            for za, zb in product((False, True), repeat=2):
                sites = {j: first, 3: last}
                if za:
                    sites[a] = "Z"
                if zb:
                    sites[b] = "Z"
                add(sites, -sp)
    return {k: v for k, v in terms.items() if abs(v) > 1e-15}


def compare_term_lists(
    computed: list[PauliString], reference: dict[str, complex], atol: float = 1e-10
) -> dict:
    """Term-by-term comparison of a decomposition against a reference.

    Returns a report with the worst coefficient deviation and the list of
    disagreeing strings; nothing is raised, so callers can surface
    discrepancies instead of masking them.
    """
    comp = {t.letters: t.coefficient for t in computed}
    words = sorted(set(comp) | set(reference))
    mismatches = []
    worst = 0.0
    for w in words:
        delta = abs(comp.get(w, 0.0) - reference.get(w, 0.0))
        worst = max(worst, delta)
        if delta > atol:
            mismatches.append(
                {
                    "pauli_string": w,
                    "computed": complex(comp.get(w, 0.0)),
                    "reference": complex(reference.get(w, 0.0)),
                }
            )
    return {
        "n_computed": len(comp),
        "n_reference": len(reference),
        "max_delta": worst,
        "mismatches": mismatches,
        "agree": not mismatches,
    }


def pauli_reconstruct(terms: list[PauliString]) -> np.ndarray:
    """Sum of coefficient-weighted Pauli strings as a dense matrix."""
    if not terms:
        raise ValueError("nothing to reconstruct")
    n = terms[0].n_qubits
    if any(t.n_qubits != n for t in terms):
        raise ValueError("terms act on different register sizes")
    h = np.zeros((2**n, 2**n), dtype=complex)
    for t in terms:
        h += pauli_operator(t)
    return h


def dense_stabilizer_code(stabilizers, strength: float = 1.0):
    """Stabilizer code checked by dense products: every square and every commutator.

    Same errors in the same order as :func:`build_stabilizer_code`, but
    each string becomes a 2^n x 2^n matrix first, and the checks compare
    matrix products against 1e-12.  A NaN coefficient passes these
    checks and is refused later as a non-finite Hamiltonian.
    """
    if strength <= 0:
        raise ValueError(f"coupling must be positive, got {strength}")
    strings = [s if isinstance(s, PauliString) else PauliString(s) for s in stabilizers]
    h = -strength * pauli_sum(strings)  # raises on no strings or mixed lengths
    mats = [pauli_operator(s) for s in strings]
    for i, a in enumerate(mats):
        if np.max(np.abs(a @ a - np.eye(len(a)))) > 1e-12:
            raise ValueError(f"stabilizer {strings[i].letters!r} does not square to identity")
        for j in range(i):
            if np.max(np.abs(a @ mats[j] - mats[j] @ a)) > 1e-12:
                raise ValueError(
                    f"stabilizers {strings[j].letters!r} and {strings[i].letters!r} do not commute"
                )
    code = code_from_hamiltonian(h)
    if len(code.ls_basis) != 2:
        raise ValueError(
            f"ground manifold is {len(code.ls_basis)}-fold degenerate; "
            "a single logical qubit needs exactly 2 ground states"
        )
    return code


def shifted_energies(ctx: ResonanceContext) -> tuple[float, float, float, float]:
    """(E_+, E_-, G_+, G_-) of the coupled pair, with F = ``ctx.f_rabi``:

        E_+- = delta_sum - e_a +- F,   G_+- = E_+-^2 + 4 g^2.
    """
    detuning = ctx.delta_sum - ctx.e_a
    e_plus, e_minus = detuning + ctx.f_rabi, detuning - ctx.f_rabi
    return e_plus, e_minus, e_plus**2 + 4.0 * ctx.g**2, e_minus**2 + 4.0 * ctx.g**2


def resonant(ctx: ResonanceContext) -> bool:
    """Whether the auxiliary splitting equals the summed gap, to 1e-12 of it."""
    return abs(ctx.delta_sum - ctx.e_a) <= 1e-12 * max(1.0, abs(ctx.delta_sum))


@dataclass(frozen=True)
class Eigenpair:
    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class BlockCoefficients:
    """Populations and coherence of the coupled pair at time t.

    ``p0`` weights |Phi_S, 0_A>, ``p1`` weights |Psi_S, 1_A> and ``p10``
    is the |Psi_S, 1_A><Phi_S, 0_A| coherence of the evolved thermal
    state.
    """

    p0: float
    p1: float
    p10: complex


def coupled_eigenpairs(ctx: ResonanceContext, psi: np.ndarray, phi: np.ndarray) -> tuple[Eigenpair, Eigenpair]:
    """Closed-form eigenpairs of the coupled two-level subspace.

    ``psi`` and ``phi`` are the target and excited-superposition system
    states; the returned vectors live on system (x) one auxiliary qubit
    and are exact eigenvectors of the total Hamiltonian:

        lambda_0,1 = (e_a + delta_sum -+ F) / 2.
    """
    if ctx.g == 0:
        raise ValueError("coupling g = 0: the pair does not hybridize")
    g = ctx.g
    e_plus, e_minus, g_plus, g_minus = shifted_energies(ctx)
    psi_1 = kron(psi, KET_1)
    phi_0 = kron(phi, KET_0)
    lam0 = 0.5 * (ctx.e_a + ctx.delta_sum - ctx.f_rabi)
    lam1 = 0.5 * (ctx.e_a + ctx.delta_sum + ctx.f_rabi)
    vec0 = (-2.0 * g / np.sqrt(g_plus)) * ((e_plus / (2.0 * g)) * psi_1 - phi_0)
    vec1 = (-2.0 * g / np.sqrt(g_minus)) * ((e_minus / (2.0 * g)) * psi_1 - phi_0)
    return Eigenpair(lam0, vec0), Eigenpair(lam1, vec1)


def evolution_coefficients(ctx: ResonanceContext, thermal: ThermalSpec, t: float) -> BlockCoefficients:
    """Closed-form two-level populations of the evolved thermal state.

    Starting from the thermal weight ``p_w`` on |Phi_S, 0_A>, after time
    ``t`` the pair carries

        p0  = 16 g^4 p_w [1/G_+^2 + 1/G_-^2 + 2 cos(Ft)/(G_+ G_-)]
        p1  =  4 g^2 p_w [E_+^2/G_+^2 + E_-^2/G_-^2 + 2 E_+ E_- cos(Ft)/(G_+ G_-)]
        p10 = -8 g^3 p_w [E_+/G_+^2 + E_-/G_-^2 + (E_+ e^{iFt} + E_- e^{-iFt})/(G_+ G_-)]

    The overall sign of ``p10`` follows from the two-level amplitudes
    (beta(t) conj(alpha(t)) carries a factor -2g) and is checked
    against the dense evolution.
    """
    if ctx.g == 0:
        raise ValueError("coupling g = 0: coefficients are defined for a hybridized pair")
    g, f = ctx.g, ctx.f_rabi
    ep, em, gp, gm = shifted_energies(ctx)
    pw = thermal.p_weight
    cos_ft = np.cos(f * t)
    p0 = 16.0 * g**4 * pw * (1.0 / gp**2 + 1.0 / gm**2 + 2.0 * cos_ft / (gp * gm))
    p1 = 4.0 * g**2 * pw * (ep**2 / gp**2 + em**2 / gm**2 + 2.0 * ep * em * cos_ft / (gp * gm))
    p10 = -8.0 * g**3 * pw * (
        ep / gp**2
        + em / gm**2
        + (ep * np.exp(1j * f * t) + em * np.exp(-1j * f * t)) / (gp * gm)
    )
    return BlockCoefficients(p0=float(p0), p1=float(p1), p10=complex(p10))


def p_plus_general(ctx: ResonanceContext, thermal: ThermalSpec, t: float) -> float:
    """Probability of the +1 outcome for a = pi at arbitrary detuning.

    Equals the excited-pair population p1(t): 4 g^2 p_w [E_+^2/G_+^2 +
    E_-^2/G_-^2 + 2 E_+ E_- cos(Ft)/(G_+ G_-)].
    """
    return evolution_coefficients(ctx, thermal, t).p1


def reconstruct(spectral: operators.SpectralDecomposition) -> np.ndarray:
    """V diag(w) V^dagger; equals the decomposed matrix up to roundoff."""
    return (spectral.eigenvectors * spectral.eigenvalues) @ spectral.eigenvectors.conj().T


def dense_trajectory(k_first, k_later, ensemble, targets, n_rounds):
    """Fidelities (one column per target), round and cumulative probabilities.

    The whole ensemble is multiplied by the full contraction operator each
    round, with no block structure and no stopping rule.
    """
    v = np.asarray(ensemble, dtype=complex)
    fid, p_round, p_cum = [], [], []
    prev = 1.0
    for r in range(n_rounds):
        v = (k_first if r == 0 else k_later) @ v
        w = float(np.sum(np.abs(v) ** 2))
        fid.append([float(np.sum(np.abs(np.conj(t) @ v) ** 2)) / w for t in targets])
        p_round.append(w / prev)
        p_cum.append(w)
        prev = w
    return np.array(fid), np.array(p_round), np.array(p_cum)


def dense_round_contraction(spectral, durations, psi_out, aq_in):
    """<psi_out| exp(-iHt) |aq_in> on the system, from the dense eigenvector array.

    With A and B the eigenvector rows contracted on the auxiliary factor
    with <psi_out| and <aq_in|, each operator is A diag(exp(-iwt))
    B^dagger.  Returns shape (len(durations), *cells, D_S, D_S).
    """
    dim, d_a = spectral.eigenvectors.shape[0], np.shape(psi_out)[-1]
    psi_out, aq_in = np.broadcast_arrays(psi_out, aq_in)
    v = spectral.eigenvectors.reshape(dim // d_a, d_a, dim)
    a = np.einsum("...a,iak->...ik", psi_out.conj(), v)
    b = np.einsum("...b,ibk->...ik", aq_in.conj(), v)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(durations, dtype=float), spectral.eigenvalues))
    return (a * phases.reshape(-1, *[1] * (a.ndim - 1), dim)) @ b.conj().swapaxes(-1, -2)


def reflected_operators(ops, image):
    """Q K Q^T for each operator K of a stack, Q the reflection-adapted basis of ``image``.

    Row a of Q is e_a for a fixed row; for a mirror pair a < b, row a is
    (e_a + e_b)/sqrt 2 and row b is (e_a - e_b)/sqrt 2.
    """
    dim = image.size
    q = np.zeros((dim, dim))
    half = np.sqrt(0.5)
    for row, mirror in enumerate(image):
        if mirror == row:
            q[row, row] = 1.0
        else:
            q[row, min(row, mirror)], q[row, max(row, mirror)] = half, half if mirror > row else -half
    return q @ ops @ q.T


def _lift(vectors: np.ndarray, n_fixed: int, sign: float) -> np.ndarray:
    """Eigenvectors of a half, on the fixed rows, then A, then B, in the original basis."""
    pairs = vectors.shape[0] - n_fixed
    lifted = np.empty((n_fixed + 2 * pairs, vectors.shape[1]), dtype=vectors.dtype)
    lifted[:n_fixed] = vectors[:n_fixed]
    np.multiply(vectors[n_fixed:], math.sqrt(0.5), out=lifted[n_fixed : n_fixed + pairs])
    np.multiply(lifted[n_fixed : n_fixed + pairs], sign, out=lifted[n_fixed + pairs :])
    return lifted


def _reflection_pieces(m: np.ndarray, rows: np.ndarray, image: np.ndarray):
    """The pieces of the block ``rows`` of ``m`` that an involution of its rows leaves unchanged, or None.

    ``image`` maps every row of ``m`` to its mirror row.  The block's rows
    fall into the fixed ones F, the lower member of each mirror pair A and
    the upper one B = image[A].  When the block holds the mirror of every
    row and ``m[image][:, image]`` equals ``m`` on the block exactly, bit
    for bit, returns (F, A, B, top, cross) with top = m[F + A, F + A]
    and cross = m[A, B]; their mirrors are the block's other entries, so
    the two pieces hold the largest entry and the largest asymmetry of
    the block.  Otherwise, or when the block has no mirror pair, returns
    None.
    """
    mapped = image[rows]
    if not np.array_equal(np.sort(mapped), rows):
        return None
    fixed, lo = rows[mapped == rows], rows[mapped > rows]
    if not lo.size:
        return None
    hi = image[lo]
    top_rows = np.concatenate([fixed, lo])
    top = m[top_rows[:, None], top_rows]
    mirror_rows = np.concatenate([fixed, hi])
    if not np.array_equal(m[mirror_rows[:, None], mirror_rows], top):
        return None
    cross = m[lo[:, None], hi]
    if not np.array_equal(m[hi[:, None], lo], cross):
        return None
    return fixed, lo, hi, top, cross


def reflected_eig(h: np.ndarray, reflection: np.ndarray) -> operators.SpectralDecomposition:
    """:func:`~logipure.operators.hermitian_eig`, with each block a reflection keeps solved as its halves.

    ``reflection``, an involution of the rows given as each row's image,
    splits the blocks of a matrix of at least ``SPLIT_MIN_ROWS`` rows
    further.  A block that holds the image of each of its rows and that
    the involution leaves unchanged bit for bit (:func:`_reflection_pieces`)
    is solved as its even and odd halves
    (:func:`~logipure.emr._reflection_halves`), one ``eigh`` each, and
    each half's eigenvectors are lifted back onto the block rows they
    reach: the even ones onto all of them, the odd ones
    onto the mirror pairs.  Any other block is solved whole.  The halves
    are built from a quarter of the block each, and the check covers
    both pieces, which together hold the block's largest entry and
    asymmetry.  Eigenvalues are sorted as in ``hermitian_eig``, even half
    before odd.
    """
    h = operators._square_matrix(h, "hamiltonian")
    dim = h.shape[0]
    reflection = np.asarray(reflection)
    if (
        reflection.shape != (dim,)
        or reflection.dtype.kind not in "iu"
        or not np.array_equal(np.sort(reflection), np.arange(dim))
        or not np.array_equal(reflection[reflection], np.arange(dim))
    ):
        raise ValueError(f"reflection must be an involution of range({dim}), one image per row")
    split = dim >= operators.SPLIT_MIN_ROWS
    measures, solved = [], []
    for idx in operators.coupled_blocks(h != 0) if split else [np.arange(dim)]:
        pieces = _reflection_pieces(h, idx, reflection) if split else None
        if pieces is None:
            hb = h[np.ix_(idx, idx)]
            measures.append(operators._hermitian_measures([hb], "hamiltonian"))
            solved.append((idx, *np.linalg.eigh(hb)))
            continue
        fixed, lo, hi, top, cross = pieces
        measures.append(operators._hermitian_measures([top, cross], "hamiltonian"))
        even, odd = emr._reflection_halves(top, cross, fixed.size)
        w, v = np.linalg.eigh(even)
        solved.append((np.concatenate([fixed, lo, hi]), w, _lift(v, fixed.size, 1.0)))
        w, v = np.linalg.eigh(odd)
        solved.append((np.concatenate([lo, hi]), w, _lift(v, 0, -1.0)))
    scales, asyms = zip(*measures)
    operators._check_hermitian(np.max(scales), np.max(asyms), "hamiltonian")
    return operators._sorted_spectrum(solved)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` are the subsystem dimensions in tensor order; ``keep`` holds
    the (sorted) indices of the subsystems to retain.  The result lives on
    the kept subsystems in their original relative order.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"state of shape {rho.shape} does not match dims {dims}")
    keep = sorted(keep)
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate subsystem index in keep")

    tensor = rho.reshape(dims + dims)
    # Trace out the discarded subsystems from highest index down so the
    # remaining axis numbering stays valid.
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + tensor.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return tensor.reshape(d_keep, d_keep)


def projector_measurement(rho_joint, n_aux, settings, target=None):
    """Outcome records of measuring the trailing ``n_aux`` qubits, at the joint dimension.

    Each outcome's projector ``kron(I_S, |psi><psi|)`` sandwiches the
    joint state; the trace gives the probability and a partial trace of
    the renormalized result gives the system state.  Returns
    ``{outcome: (probability, fidelity, post_system_state, attainable)}``
    with the floor and NaN conventions of ``measure_aq``.
    """
    dim = rho_joint.shape[0]
    d_s = dim // 2**n_aux
    eye_s = np.eye(d_s)
    records = {}
    for outcome in product((+1, -1), repeat=n_aux):
        proj_a = kron_all([np.outer(s.state(k), s.state(k).conj()) for s, k in zip(settings, outcome)])
        proj = kron(eye_s, proj_a)
        unnorm = proj @ rho_joint @ proj
        prob = float(np.real(np.trace(unnorm)))
        if prob < UNATTAINABLE_P:
            records[outcome] = (max(prob, 0.0), float("nan"), None, False)
            continue
        post_joint = unnorm / prob
        post_system = partial_trace(post_joint, [d_s] + [2] * n_aux, keep=[0])
        fid = float("nan") if target is None else fidelity_pure(post_system, target)
        records[outcome] = (prob, fid, post_system, True)
    return records


def embed(op: np.ndarray, n_qubits: int, sites: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on ``sites`` into an ``n_qubits`` register.

    ``op`` must act on ``len(sites)`` qubits in the order listed; the
    sites need not be adjacent.
    """
    sites = list(sites)
    k = len(sites)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not act on {k} qubits")
    if len(set(sites)) != k or any(s < 0 or s >= n_qubits for s in sites):
        raise ValueError(f"bad site list {sites} for {n_qubits} qubits")
    full = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    tensor = full.reshape([2] * (2 * n_qubits))
    op_tensor = op.reshape([2] * (2 * k))
    rest = [q for q in range(n_qubits) if q not in sites]
    eye = np.eye(2 ** len(rest), dtype=complex).reshape([2] * (2 * len(rest)))
    # place op axes at their sites, identity axes elsewhere
    src = np.tensordot(op_tensor, eye, axes=0)
    # current axis order: op rows, op cols, eye rows, eye cols
    perm_rows = [None] * n_qubits
    for axis, q in enumerate(sites):
        perm_rows[q] = axis
    for axis, q in enumerate(rest):
        perm_rows[q] = 2 * k + axis
    perm_cols = [p + k if p < 2 * k else p + len(rest) for p in perm_rows]
    tensor[...] = src.transpose(perm_rows + perm_cols)
    return full


def heisenberg_hamiltonian_by_embed(spec) -> np.ndarray:
    """The chain Hamiltonian of ``build_heisenberg_code``, one ``embed`` per term."""
    n = spec.n_qubits
    j, h_field = spec.exchange, spec.field
    dim = 2**n
    bonds = [(0, 1)] if n == 2 else [(s, (s + 1) % n) for s in range(n)]
    h0 = np.zeros((dim, dim), dtype=complex)
    for s, sp in bonds:
        for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            h0 += (j / 4.0) * embed(np.kron(pauli, pauli), n, [s, sp])
    for s in range(n):
        h0 += (h_field / 2.0) * embed(SIGMA_Z, n, [s])
    return h0 - h0[0, 0].real * np.eye(dim)


def xy_hamiltonian_by_embed(setup, code) -> np.ndarray:
    """The joint Hamiltonian of ``build_xy_setup`` on a built chain code, by ``embed``."""
    n, n_aux = setup.n_system, setup.n_aux
    n_tot = n + n_aux
    e_a = code.gap if setup.aux_energy is None else setup.aux_energy
    h = kron(code.hamiltonian, np.eye(2**n_aux))
    exc = np.diag([0.0, 1.0]).astype(complex)  # |1><1| on one auxiliary qubit
    xx = np.kron(SIGMA_X, SIGMA_X)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    bond = setup.gamma_plus * xx + setup.gamma_minus * yy
    for j in range(n_aux):  # auxiliary qubit j on sites (j, j + 1)
        aq = n + j
        h += e_a * embed(exc, n_tot, [aq])
        if setup.j_1 != 0.0:
            h += setup.j_1 * embed(bond, n_tot, [j, aq])
        if setup.j_2 != 0.0:
            h += setup.j_2 * embed(bond, n_tot, [j + 1, aq])
    return h


def total_hamiltonian_by_embed(codes, interaction, aux) -> np.ndarray:
    """H_tot of ``build_total``, each code, auxiliary splitting and the coupling by ``embed``."""
    n_s = sum(c.n_qubits for c in codes)
    n_tot = n_s + aux.count
    h = np.zeros((2**n_tot, 2**n_tot), dtype=complex)
    first = 0
    for code in codes:
        h += embed(code.hamiltonian, n_tot, range(first, first + code.n_qubits))
        first += code.n_qubits
    excited = aux.energy * np.outer(KET_1, KET_1.conj())
    for j in range(n_s, n_tot):
        h += embed(excited, n_tot, [j])
    h += embed(interaction, n_tot, range(n_s + 1))
    return h
