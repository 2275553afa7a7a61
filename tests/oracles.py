"""Test-only oracles.

* A hand-derived Pauli expansion of the coupling: the three-qubit
  rank-one coupling of the repetition code is expanded here in projector
  algebra, independently of :func:`logipure.interaction.pauli_decompose`,
  and compared term by term against the decomposition pipeline.
* :func:`pauli_reconstruct`, the dense sum of a decomposition's terms.
* A plain dense round loop, the reference for the block-split
  trajectory kernel.
* :func:`dense_round_contraction`, the round operators from the dense
  eigenvector array, the reference for the block-by-block
  :func:`logipure.emr.round_contraction`.
* :func:`projector_measurement`, the auxiliary measurement done at the
  joint dimension: a ``kron(I_S, |psi><psi|)`` sandwich followed by
  :func:`partial_trace`, the reference for
  :func:`logipure.measurement.measure_aq`.
* :func:`embed`, which places an operator on named sites by permuting
  tensor axes, and the Hamiltonian builders written with it: the
  references for the Pauli-sum and Kronecker-block builders of
  ``codes``, ``emr`` and ``interaction``.
"""

from itertools import product
from typing import Sequence

import numpy as np

from logipure.measurement import UNATTAINABLE_P
from logipure.operators import (
    KET_1,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PauliString,
    fidelity_pure,
    kron,
    kron_all,
    pauli_operator,
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
