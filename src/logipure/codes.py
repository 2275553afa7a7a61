"""Logical-qubit hosts: stabilizer codes and Heisenberg spin chains.

A :class:`CodeModel` is a many-body system whose ground manifold hosts a
logical qubit: a gapped Hamiltonian with its ground energy shifted to
zero, the (usually two-fold degenerate) ground-space basis, and the
first excited manifold.  Builders are provided for stabilizer-code
Hamiltonians, the three-qubit repetition code, and ferromagnetic
Heisenberg chains with a polarizing field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    PauliString,
    SpectralDecomposition,
    basis_state,
    hermitian_eig,
    pauli_on_sites,
    pauli_sum,
    require_hermitian,
)

# Residual tolerance for "is an eigenstate" checks at construction time,
# relative to the energy scale (J for a chain, the spectral radius for a code)
# once that exceeds 1.
RESIDUAL_TOL = 1e-9
# Eigenvalue-cluster tolerance, relative to the spectral radius.
CLUSTER_RTOL = 1e-8
# Eigenvector entries within this share of the largest modulus tie for
# the gauge pivot of :func:`_gauged`, and the lowest index wins.
GAUGE_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralSplit:
    """Eigenvalue clusters of a gapped Hamiltonian.

    ``ls_basis`` spans the ground cluster (shifted to zero energy),
    ``es_basis`` the first excited cluster.  ``degeneracies`` lists every
    cluster size in energy order.  ``spectrum`` is the decomposition that
    was clustered; the basis vectors are its columns.
    """

    ls_basis: tuple[np.ndarray, ...]
    es_basis: tuple[np.ndarray, ...]
    gap: float
    degeneracies: tuple[int, ...]
    ground_energy: float
    spectrum: SpectralDecomposition


@dataclass(frozen=True)
class CodeModel:
    """A gapped system hosting logical information in its ground manifold.

    ``ls_basis`` holds one state (ground-state-preparation hosts) or two
    (logical-qubit codes, ordered as ``(|0_S>, |1_S>)``).  ``es_basis``
    spans the first excited manifold at energy ``gap``.  ``hamiltonian``
    has its ground manifold at exactly zero energy.  ``spectrum`` is its
    full eigendecomposition: the one the builder clustered to find the
    two manifolds, shared by every thermal quantity of the code.
    """

    n_qubits: int
    hamiltonian: np.ndarray
    ls_basis: tuple[np.ndarray, ...]
    es_basis: tuple[np.ndarray, ...]
    gap: float
    spectrum: SpectralDecomposition

    def __post_init__(self):
        h = self.hamiltonian
        if h.shape != (self.dimension, self.dimension):
            raise ValueError(
                f"hamiltonian shape {h.shape} does not match {self.n_qubits} qubits"
            )
        if not 1 <= len(self.ls_basis) <= 2:
            raise ValueError(f"ground manifold must hold 1 or 2 states, got {len(self.ls_basis)}")
        if self.gap <= 0:
            raise ValueError(f"gap must be positive, got {self.gap}")
        # h @ v rounds at about eps times the spectral radius, so the checks scale with it
        scale = max(1.0, float(np.max(np.abs(self.spectrum.eigenvalues))))
        for v in self.ls_basis:
            if np.linalg.norm(h @ v) > RESIDUAL_TOL * scale:
                raise ValueError("ground basis state is not a zero-energy eigenstate")
        for v in self.es_basis:
            if np.linalg.norm(h @ v - self.gap * v) > RESIDUAL_TOL * scale:
                raise ValueError("excited basis state is not an eigenstate at the gap energy")
        allv = np.column_stack(self.ls_basis + self.es_basis)
        gram = allv.conj().T @ allv
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-10:
            raise ValueError("ground/excited bases are not orthonormal")

    @property
    def dimension(self) -> int:
        return 2**self.n_qubits

    @property
    def es_degeneracy(self) -> int:
        return len(self.es_basis)

    @property
    def is_logical_qubit(self) -> bool:
        return len(self.ls_basis) == 2


@dataclass(frozen=True)
class LogicalTarget:
    """Bloch angles of a logical state cos(t/2)|0_S> + e^{i p} sin(t/2)|1_S>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= 2 * np.pi:
            raise ValueError(f"phi must lie in [0, 2 pi], got {self.phi}")


@dataclass(frozen=True)
class HeisenbergSpec:
    """Chain parameters: size and exchange.

    The polarizing field follows from them (J_S for the two-site chain,
    2 J_S otherwise); that rule makes the one-magnon state exactly
    degenerate with the polarized state.
    """

    n_qubits: int
    exchange: float = 1.0

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2:
            raise ValueError(f"chain length must be even and >= 2, got {self.n_qubits}")
        if self.exchange <= 0:
            raise ValueError(f"exchange must be positive, got {self.exchange}")

    @property
    def field(self) -> float:
        return self.exchange if self.n_qubits == 2 else 2.0 * self.exchange


def spectral_split(h: np.ndarray) -> SpectralSplit:
    """Cluster the spectrum of ``h`` into degenerate manifolds.

    Eigenvalues within :data:`CLUSTER_RTOL` times the spectral radius of
    a cluster's first one join it.  Raises when only one cluster exists
    or when the ground gap is below ten times that tolerance
    (unresolvable).
    For diagonal ``h`` no eigensolve is made: the spectrum is the sorted
    diagonal and the bases are computational-basis vectors ordered by
    index, which keeps downstream state labels deterministic.
    """
    return _split(require_hermitian(h, "hamiltonian"))


def _split(h: np.ndarray) -> SpectralSplit:
    """:func:`spectral_split` of a matrix already checked by :func:`require_hermitian`."""
    dim = h.shape[0]
    diagonal = np.max(np.abs(h - np.diag(np.diag(h)))) <= 1e-14 * max(1.0, np.max(np.abs(h)))
    if diagonal:
        w = np.real(np.diag(h))
        order = np.argsort(w, kind="stable")
        rows = np.arange(dim)
        spec = SpectralDecomposition(w[order], ((rows, rows, np.eye(dim, dtype=complex)[:, order]),))
    else:
        spec = _gauged(hermitian_eig(h))
    w, vecs = spec.eigenvalues, spec.eigenvectors
    if not np.isfinite(w).all():  # finite entries whose eigenvalues overflow; the solver does not raise
        raise FloatingPointError("overflow encountered in the code spectrum")

    tol = CLUSTER_RTOL * float(np.max(np.abs(w)))
    if tol == 0.0:
        raise ValueError("flat spectrum: no gap to split on")

    clusters: list[list[int]] = [[0]]
    for i in range(1, dim):
        if w[i] - w[clusters[-1][0]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) < 2:
        raise ValueError("spectrum forms a single degenerate cluster: no gap")

    e0 = float(np.mean(w[clusters[0]]))
    e1 = float(np.mean(w[clusters[1]]))
    gap = e1 - e0
    if gap < 10 * tol:
        raise ValueError(f"gap {gap:.3e} below 10x cluster tolerance {tol:.3e}: unresolvable split")

    return SpectralSplit(
        ls_basis=tuple(vecs[:, i] for i in clusters[0]),
        es_basis=tuple(vecs[:, i] for i in clusters[1]),
        gap=gap,
        degeneracies=tuple(len(c) for c in clusters),
        ground_energy=e0,
        spectrum=spec,
    )


def _gauged(spec: SpectralDecomposition) -> SpectralDecomposition:
    """Scale a freshly solved ``spec`` in place, and return it, so that each
    eigenvector's first entry of largest modulus is real and positive.

    This fixes the sign (or phase) that the real and the complex LAPACK
    routines leave differently; a real vector is only negated, exactly.
    A rotation inside a degenerate eigenspace is not undone.
    """
    for _, _, vectors in spec.blocks:
        size = np.abs(vectors)
        lead = np.argmax(size >= (1.0 - GAUGE_RTOL) * size.max(axis=0), axis=0)
        pivots = vectors[lead, np.arange(vectors.shape[1])]
        vectors *= np.abs(pivots) / pivots
    return spec


def build_stabilizer_code(stabilizers: list[PauliString | str], strength: float = 1.0) -> CodeModel:
    """Code Hamiltonian ``-J sum_i S_i + const`` with a two-fold ground manifold.

    The stabilizers must mutually commute and square to the identity,
    which their letters and coefficients decide before any matrix is
    built.  The spectrum is split once, by :func:`code_from_hamiltonian`,
    which shifts the ground (code-space) energy to zero; for a
    consistent stabilizer set the shift is ``len(stabilizers) * J``.
    """
    if strength <= 0:
        raise ValueError(f"coupling must be positive, got {strength}")
    strings = [s if isinstance(s, PauliString) else PauliString(s) for s in stabilizers]
    if len({s.n_qubits for s in strings}) > 1:
        raise ValueError("Pauli strings act on different register sizes")
    for i, s in enumerate(strings):
        if not abs(s.coefficient * s.coefficient - 1) <= 1e-12:  # a NaN fails too
            raise ValueError(f"stabilizer {s.letters!r} does not square to identity")
        for t in strings[:i]:  # two strings anticommute on each site where both act and differ
            if sum(a != b and "I" not in (a, b) for a, b in zip(s.letters, t.letters)) % 2:
                raise ValueError(f"stabilizers {t.letters!r} and {s.letters!r} do not commute")

    code = code_from_hamiltonian(-strength * pauli_sum(strings))  # raises on no strings
    if len(code.ls_basis) != 2:
        raise ValueError(
            f"ground manifold is {len(code.ls_basis)}-fold degenerate; "
            "a single logical qubit needs exactly 2 ground states"
        )
    return code


def build_repetition_code(j_s: float = 1.0) -> CodeModel:
    """Three-qubit bit-flip code: all-pairs ZZ couplings, gap 4 J_S.

    Ground basis is (|000>, |111>); all six single- and double-flip
    states sit together at the gap energy.
    """
    return build_stabilizer_code(["ZZI", "IZZ", "ZIZ"], j_s)


def build_heisenberg_code(spec: HeisenbergSpec) -> CodeModel:
    """Ferromagnetic Heisenberg ring with a polarizing field.

    H = (J/4) sum_s sigma_s . sigma_{s+1} + (h/2) sum_s sigma^z_s - E_g,
    periodic boundaries (a single bond for the two-site chain).  With the
    field rule of :class:`HeisenbergSpec` the polarized state |0...0> and
    the staggered one-magnon state are exactly degenerate at zero energy
    and form the logical basis, so E_g is the diagonal element
    <0...0| H |0...0> and no eigensolve is needed to find it.
    """
    n = spec.n_qubits
    j, h_field = spec.exchange, spec.field
    dim = 2**n
    bonds = [(0, 1)] if n == 2 else [(s, (s + 1) % n) for s in range(n)]
    h0 = pauli_sum(
        [PauliString(pauli_on_sites(n, bond, p + p), j / 4.0) for bond in bonds for p in "XYZ"]
        + [PauliString(pauli_on_sites(n, [s], "Z"), h_field / 2.0) for s in range(n)]
    )

    ham = h0 - h0[0, 0].real * np.eye(dim)

    split = spectral_split(ham)
    if abs(split.ground_energy) > RESIDUAL_TOL * max(1.0, j):
        raise ValueError(
            f"chain ground energy {split.ground_energy:.3e} lies below |0...0>: convention is broken"
        )
    if len(split.ls_basis) != 2:
        raise ValueError(
            f"chain ground manifold is {len(split.ls_basis)}-fold degenerate; "
            "field/exchange convention is broken"
        )

    zero = basis_state(n, 0)
    one = np.zeros(dim, dtype=complex)
    for s in range(n):
        one[1 << (n - 1 - s)] = (-1.0) ** s / np.sqrt(n)
    for v, name in ((zero, "|0...0>"), (one, "one-magnon state")):
        if np.linalg.norm(ham @ v) > RESIDUAL_TOL * max(1.0, j):
            raise ValueError(f"{name} is not a zero-energy eigenstate: convention is broken")

    return CodeModel(
        n_qubits=n,
        hamiltonian=ham,
        ls_basis=(zero, one),
        es_basis=split.es_basis,
        gap=split.gap,
        spectrum=split.spectrum,
    )


def code_from_hamiltonian(h: np.ndarray) -> CodeModel:
    """Wrap an arbitrary gapped qubit-register Hamiltonian as a host.

    The ground manifold may hold one state (a ground-preparation host)
    or two (a logical qubit); anything larger is rejected.
    """
    h = require_hermitian(h, "hamiltonian")
    dim = h.shape[0]
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    split = _split(h)
    if len(split.ls_basis) > 2:
        raise ValueError(f"ground manifold is {len(split.ls_basis)}-fold degenerate")
    e0 = split.ground_energy
    return CodeModel(
        n_qubits=n,
        hamiltonian=h - e0 * np.eye(dim),
        ls_basis=split.ls_basis,
        es_basis=split.es_basis,
        gap=split.gap,
        spectrum=replace(split.spectrum, eigenvalues=split.spectrum.eigenvalues - e0),
    )


def logical_state(code: CodeModel, target: LogicalTarget) -> np.ndarray:
    """cos(theta/2)|0_S> + e^{i phi} sin(theta/2)|1_S>."""
    if not code.is_logical_qubit:
        raise ValueError("host has a single ground state: no logical qubit to rotate")
    zero, one = code.ls_basis
    return np.cos(target.theta / 2) * zero + np.exp(1j * target.phi) * np.sin(target.theta / 2) * one


# Bloch angles of the six cardinal logical states.  theta=0 points at
# |0_S>, which is the Z = -1 eigenstate under the logical Z below.
CARDINAL_ANGLES: dict[str, tuple[float, float]] = {
    "z+": (np.pi, 0.0),
    "z-": (0.0, 0.0),
    "x+": (np.pi / 2, 0.0),
    "x-": (np.pi / 2, np.pi),
    "y+": (np.pi / 2, np.pi / 2),
    "y-": (np.pi / 2, 3 * np.pi / 2),
}


def cardinal_state(code: CodeModel, label: str) -> np.ndarray:
    """Logical state at one of the six Bloch cardinal points ('z+', 'x-', ...)."""
    try:
        theta, phi = CARDINAL_ANGLES[label]
    except KeyError:
        raise ValueError(f"unknown cardinal label {label!r}") from None
    return logical_state(code, LogicalTarget(theta, phi))


def logical_operators(code: CodeModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logical (X, Y, Z) embedded in the full space.

    Z = |1_S><1_S| - |0_S><0_S| so |0_S> is the logical ground state;
    X = |0_S><1_S| + |1_S><0_S|; Y chosen so XY = iZ on the code space.
    """
    if not code.is_logical_qubit:
        raise ValueError("host has a single ground state: no logical operators")
    zero, one = code.ls_basis
    p01 = np.outer(zero, one.conj())
    p10 = np.outer(one, zero.conj())
    x = p01 + p10
    y = 1j * p01 - 1j * p10
    z = np.outer(one, one.conj()) - np.outer(zero, zero.conj())
    return x, y, z


def is_json_int(value) -> bool:
    """True for a JSON integer; booleans and floats such as 2.0 are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """True for a JSON number, integer or not; booleans and strings are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def code_from_json(doc: str | dict) -> CodeModel:
    """Build a code from a JSON document.

    Two forms are accepted::

        {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}
        {"type": "heisenberg", "n": 4, "J": 1.0}

    ``J`` defaults to 1.0 in both and must be a finite number; ``n`` must
    be an integer.  Neither may be a boolean.  ``stabilizers`` must be a
    non-empty list of strings.
    """
    kind, j, payload = _code_document(doc)
    if kind == "stabilizer":
        return build_stabilizer_code(payload, j)
    return build_heisenberg_code(HeisenbergSpec(n_qubits=payload, exchange=j))


def code_qubits(doc: str | dict) -> int:
    """Qubit count of the code a JSON document describes, read without building it.

    The document is checked as :func:`code_from_json` checks it.  A
    stabilizer code counts the letters of its longest string (strings of
    unequal length raise once the code is built).
    """
    kind, _, payload = _code_document(doc)
    return max(map(len, payload)) if kind == "stabilizer" else payload


def _code_document(doc: str | dict) -> tuple[str, float, list[str] | int]:
    """(type, J, stabilizer list or chain length) of a checked code document."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("code document must be a JSON object")
    kind = doc.get("type")
    j = doc.get("J", 1.0)
    if not is_json_number(j) or not abs(j) <= sys.float_info.max:
        raise ValueError(f"code J must be a finite number, got {j!r}")
    if kind == "stabilizer":
        stabs = doc.get("stabilizers")
        if not (isinstance(stabs, list) and stabs and all(isinstance(s, str) for s in stabs)):
            raise ValueError(f"code stabilizers must be a non-empty list of strings, got {stabs!r}")
        return kind, float(j), stabs
    if kind == "heisenberg":
        if "n" not in doc:
            raise ValueError("heisenberg document needs 'n'")
        if not is_json_int(doc["n"]):
            raise ValueError(f"code n must be an integer, got {doc['n']!r}")
        return kind, float(j), doc["n"]
    raise ValueError(f"unknown code type {kind!r}")
