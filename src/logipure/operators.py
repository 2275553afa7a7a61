"""Dense operator algebra for multi-qubit registers.

Conventions used throughout the package:

* Qubit 0 is the *leftmost* tensor factor, i.e. the most significant bit
  of the computational-basis index.  ``kron(A, B)`` therefore puts ``A``
  on the lower-numbered qubits.
* ``|0>`` is the sigma-z eigenstate with eigenvalue -1, so a local field
  ``(E/2) * sigma_z`` makes ``|0>`` the single-qubit ground state.  With
  this choice ``sigma_y`` picks up a sign relative to the usual textbook
  matrix; the algebra ``sigma_x sigma_y = i sigma_z`` is preserved.

The primitives here build complex numpy arrays.  A Hamiltonian whose
imaginary part is exactly zero is solved, and its spectrum kept, in
real arithmetic, and so is a float64 one: the joint chain Hamiltonian
of :mod:`logipure.emr`, every term of which is real, is built in
float64 from the start.  The code Hamiltonians are built from Pauli
strings (:func:`pauli_sum`, by bit operations on the basis index).  The
joint Hamiltonians place them with Kronecker products with identities
(:func:`kron`, :func:`kron_all`) and scatter their remaining diagonal
and bond terms straight onto the basis index.  Many of them
conserve a quantity (magnetization, Z2 parity), so they are exactly
block diagonal in the computational basis.  :func:`coupled_blocks`
finds those blocks from the exactly-nonzero pattern alone, and
:func:`hermitian_eig` checks and solves each block of a large matrix on
its own and keeps the solution per block in a
:class:`SpectralDecomposition`; a small matrix, or one without such
structure, is the one-block case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

# Relative tolerance for the hermiticity check of input matrices.
VALIDATION_TOL = 1e-12
# Absolute tolerance for postconditions on computed states.
POST_TOL = 1e-10
# Fewest rows of a matrix that :func:`hermitian_eig` splits into blocks.
# Below it, finding the blocks and solving them costs as much as one
# ``eigh`` of the whole matrix or more (measured on the package's
# Hamiltonians of dimension 8-128); at 256 and 1024 rows the split
# solves the chain stacks 2-8x faster.  ``emr.reproduce_table1`` builds
# the chain stacks of this size or more one sector at a time instead,
# and smaller ones whole, which keeps table1 rows 1-8 byte for byte and
# is faster there too: the sectors took 1.1-3.2x as long at 8 and 64
# rows, 0.8-1.0x at 256 and 0.7-0.8x at 1024.
SPLIT_MIN_ROWS = 256

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI_MATRICES = {
    "I": IDENTITY_2,
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
}

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators with a weight.

    ``letters`` is a string over the alphabet I/X/Y/Z; position ``i``
    acts on qubit ``i``.  ``coefficient`` multiplies the whole product.
    """

    letters: str
    coefficient: complex = 1.0

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty Pauli string")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"unknown Pauli letters: {sorted(bad)}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and their orthonormal eigenvectors, kept per block.

    Each entry of ``blocks`` is ``(rows, positions, vectors)``: the basis
    rows its eigenvectors reach, the positions of its eigenvalues in
    ``eigenvalues``, and its eigenvectors restricted to those rows, one
    column per position.  Every eigenvector is zero outside its entry's
    rows.  Each position belongs to one entry, but two entries may share
    rows: the even and odd halves of a block split by a reflection (see
    :func:`logipure.emr._reflection_halves`) both reach the block's
    mirror pairs.  An unsplit matrix is the one-entry case.  The vectors
    are float64 when the decomposed matrix is real, complex otherwise.
    """

    eigenvalues: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Dense eigenvector columns, assembled from the blocks on first use."""
        dim = self.eigenvalues.size
        v = np.zeros((dim, dim), dtype=np.result_type(*(vb for _, _, vb in self.blocks)))
        for rows, positions, vb in self.blocks:
            v[np.ix_(rows, positions)] = vb
        return v

    def unitary(self, t: float) -> np.ndarray:
        """Time-evolution operator exp(-i H t) assembled from the spectrum."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with ``a`` on the lower-numbered (leftmost) qubits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(ops: Iterable[np.ndarray]) -> np.ndarray:
    mats = [np.asarray(o, dtype=complex) for o in ops]
    if not mats:
        raise ValueError("kron_all needs at least one operator")
    return reduce(np.kron, mats)


def pauli_on_sites(n_qubits: int, sites: Sequence[int], letters: str) -> str:
    """Letters of an ``n_qubits`` Pauli string: ``letters[k]`` on ``sites[k]``, I elsewhere."""
    placed = dict(zip(sites, letters))
    if not (len(placed) == len(sites) == len(letters) and set(placed) <= set(range(n_qubits))):
        raise ValueError(f"bad site list {list(sites)} for {letters!r} on {n_qubits} qubits")
    return "".join(placed.get(q, "I") for q in range(n_qubits))


def pauli_sum(terms: Iterable[PauliString | str]) -> np.ndarray:
    """Dense matrix of ``sum_k c_k P_k`` over Pauli strings of one length.

    A string maps each basis state to one basis state: X and Y flip their
    bit, Y and Z give -1 on every site whose bit is 0 (``SIGMA_Z =
    diag(-1, +1)``), and each Y adds a factor i (``SIGMA_Y = i SIGMA_X
    SIGMA_Z``).  Each string therefore takes one pass over the basis
    states, and the strings are added in the order given.
    """
    strings = [t if isinstance(t, PauliString) else PauliString(t) for t in terms]
    if not strings:
        raise ValueError("pauli_sum needs at least one term")
    n = strings[0].n_qubits
    if any(s.n_qubits != n for s in strings):
        raise ValueError("Pauli strings act on different register sizes")
    cols = np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for s in strings:
        flip = int("".join("1" if c in "XY" else "0" for c in s.letters), 2)
        signed = int("".join("1" if c in "YZ" else "0" for c in s.letters), 2)
        weight = s.coefficient * (1, 1j, -1, -1j)[s.letters.count("Y") % 4]
        out[cols ^ flip, cols] += weight * np.where(np.bitwise_count(~cols & signed) & 1, -1, 1)
    return out


def pauli_operator(pauli: PauliString | str) -> np.ndarray:
    """Dense matrix of a Pauli string on ``len(letters)`` qubits."""
    return pauli_sum([pauli])


def _square_matrix(h: np.ndarray, name: str) -> np.ndarray:
    """``h`` as a square array: float64 when its imaginary part is exactly 0, else complex."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{name} must be square, got shape {h.shape}")
    if np.iscomplexobj(h) and not h.imag.any():
        h = np.ascontiguousarray(h.real)
    return np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)


def _hermitian_measures(pieces: Sequence[np.ndarray], name: str) -> tuple[float, float]:
    """Largest entry and largest ``|H - H^dag|`` of square pieces of a matrix; raises on a non-finite entry."""
    scale = np.max([np.max(np.abs(b)) for b in pieces])
    if not np.isfinite(scale):
        raise ValueError(f"{name} has non-finite entries")
    return scale, np.max([np.max(np.abs(b - b.conj().T)) for b in pieces])


def _check_hermitian(scale: float, asym: float, name: str) -> None:
    """Raise unless the asymmetry of a matrix is within tolerance of its largest entry.

    The two measures must be those of the whole matrix: pieces that hold
    every nonzero entry together with its transpose partner give them.
    """
    if asym > VALIDATION_TOL * max(scale, 1.0):
        raise ValueError(f"{name} is not hermitian: max |H - H^dag| = {asym:.3e}")


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and hermiticity relative to the matrix scale; return as complex array.

    A matrix whose imaginary part is exactly zero is checked in real
    arithmetic.
    """
    h = _square_matrix(h, name)
    _check_hermitian(*_hermitian_measures([h], name), name)
    return np.asarray(h, dtype=complex)


def coupled_blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of a square boolean pattern.

    Indices i and j share a block when ``pattern[i, j]`` or
    ``pattern[j, i]`` is set, directly or through a chain of such
    entries.  Each block is sorted, and blocks are ordered by their
    smallest index; together they partition ``range(len(pattern))``.
    """
    linked = pattern | pattern.T
    free = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    for start in range(linked.shape[0]):
        if not free[start]:
            continue
        frontier = np.zeros_like(free)
        frontier[start] = True
        reach = frontier.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reach
            reach |= frontier
        free &= ~reach
        blocks.append(np.flatnonzero(reach))
    return blocks


def hermitian_eig(h: np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition of a hermitian matrix, one block at a time.

    A matrix of at least :data:`SPLIT_MIN_ROWS` rows is taken apart into
    the blocks of :func:`coupled_blocks` on its nonzero pattern; a
    smaller one is the one-block case.  Each block is gathered, checked
    and solved by one ``eigh`` in turn, so every eigenvector column is
    supported on a single block.  The check is the whole matrix's: a
    NaN or an infinity counts as nonzero, and a block holds every
    nonzero entry with its transpose partner, so the blocks together
    are finite and hermitian, against the largest entry of the matrix,
    exactly when the matrix is.  A matrix whose imaginary part is
    exactly zero is solved in real arithmetic, with float64
    eigenvectors.

    The blocks are kept as solved (see :class:`SpectralDecomposition`).
    Eigenvalues come back sorted ascending (a stable sort of the blocks'
    eigenvalues in block order) with orthonormal columns, so degenerate
    subspaces are represented by an arbitrary but orthonormal basis.
    """
    h = _square_matrix(h, "hamiltonian")
    dim = h.shape[0]
    measures, solved = [], []
    for idx in coupled_blocks(h != 0) if dim >= SPLIT_MIN_ROWS else [np.arange(dim)]:
        hb = h[np.ix_(idx, idx)]
        measures.append(_hermitian_measures([hb], "hamiltonian"))
        solved.append((idx, *np.linalg.eigh(hb)))
    scales, asyms = zip(*measures)
    _check_hermitian(np.max(scales), np.max(asyms), "hamiltonian")
    return _sorted_spectrum(solved)


def _sorted_spectrum(solved) -> SpectralDecomposition:
    """The :class:`SpectralDecomposition` of solved (rows, eigenvalues, eigenvectors) blocks.

    The eigenvalues are sorted ascending by a stable sort of the blocks'
    eigenvalues in the order given.
    """
    w = np.concatenate([wb for _, wb, _ in solved])
    order = np.argsort(w, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    kept, start = [], 0
    for idx, wb, vb in solved:
        kept.append((idx, position[start : start + wb.size], vb))
        start += wb.size
    return SpectralDecomposition(eigenvalues=w[order], blocks=tuple(kept))


def evolve(
    h: np.ndarray,
    t: float,
    rho: np.ndarray,
    spectral: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Unitary evolution ``exp(-iHt) rho exp(+iHt)``.

    Pass a precomputed ``spectral`` decomposition of the same ``h`` when
    sweeping many times against one Hamiltonian; the eigensolve is the
    expensive step and is reused verbatim.
    """
    if spectral is None:
        spectral = hermitian_eig(h)
    u = spectral.unitary(t)
    rho = np.asarray(rho, dtype=complex)
    out = u @ rho @ u.conj().T
    out = 0.5 * (out + out.conj().T)  # scrub roundoff asymmetry
    return out


def gibbs(h: np.ndarray, beta: float, spectral: SpectralDecomposition | None = None) -> tuple[np.ndarray, float]:
    """Thermal state ``exp(-beta H)/Z`` and the partition function ``Z``.

    Computed spectrally with the ground energy factored out, so very cold
    temperatures do not overflow: weights are ``exp(-beta (E_k - E_0))``.
    The returned ``Z`` is the conventional ``sum_k exp(-beta E_k)``.
    """
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta}")
    if spectral is None:
        spectral = hermitian_eig(h)
    w = spectral.eigenvalues
    shifted = np.exp(-beta * (w - w[0]))
    norm = float(shifted.sum())
    v = spectral.eigenvectors
    rho = (v * (shifted / norm)) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    z = norm * float(np.exp(-beta * w[0])) if beta * abs(w[0]) < 700 else float("inf")
    return rho, z


def fidelity_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """Fidelity ``<psi| rho |psi>`` of a state against a pure target.

    ``psi`` must be normalized; ``rho`` may be any density matrix.  The
    result is clipped to [0, 1] only to absorb roundoff at the 1e-10
    level; a larger excursion raises.
    """
    psi = require_unit(psi)
    rho = np.asarray(rho, dtype=complex)
    val = float(np.real(psi.conj() @ rho @ psi))
    if val < -POST_TOL or val > 1.0 + POST_TOL:
        raise ValueError(f"fidelity {val!r} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def require_finite(name: str, value: float) -> float:
    """``value`` unchanged; a NaN or an infinity raises ValueError naming ``name``."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_unit(psi: np.ndarray) -> np.ndarray:
    """A target state as a flat complex vector; raises unless its norm is 1 within 1e-10."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"target state norm {float(nrm)!r} is not 1")
    return psi


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational-basis ket |index> on ``n_qubits`` qubits."""
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec
