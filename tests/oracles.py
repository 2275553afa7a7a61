"""Test-only oracles.

* A hand-derived Pauli expansion of the coupling: the three-qubit
  rank-one coupling of the repetition code is expanded here in projector
  algebra, independently of :func:`logipure.interaction.pauli_decompose`,
  and compared term by term against the decomposition pipeline.
* :func:`pauli_reconstruct`, the dense sum of a decomposition's terms.
* A plain dense round loop, the reference for the block-split
  trajectory kernel.
"""

from itertools import product

import numpy as np

from logipure.operators import PauliString, pauli_operator


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
