"""Dense operator algebra for multi-qubit registers.

Conventions used throughout the package:

* Qubit 0 is the *leftmost* tensor factor, i.e. the most significant bit
  of the computational-basis index.  ``kron(A, B)`` therefore puts ``A``
  on the lower-numbered qubits.
* ``|0>`` is the sigma-z eigenstate with eigenvalue -1, so a local field
  ``(E/2) * sigma_z`` makes ``|0>`` the single-qubit ground state.  With
  this choice ``sigma_y`` picks up a sign relative to the usual textbook
  matrix; the algebra ``sigma_x sigma_y = i sigma_z`` is preserved.

Operators are complex numpy arrays; only the spectrum of an exactly
real Hamiltonian is solved and kept in real arithmetic.  Every
Hamiltonian of the package is built from Pauli strings
(:func:`pauli_sum`, by bit operations on the basis index) and from
Kronecker products with identities (:func:`kron`, :func:`kron_all`) for
blocks of contiguous qubits.  Many of them conserve
a quantity (magnetization, Z2 parity), so they are exactly block
diagonal in the computational basis.  :func:`coupled_blocks` finds those
blocks from the exactly-nonzero pattern alone, and :func:`hermitian_eig`
solves each block of a large matrix on its own and keeps the solution
per block in a :class:`SpectralDecomposition`; a small matrix, or one
without such structure, is the one-block case.
"""

from __future__ import annotations

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
# solves the chain stacks 2-8x faster.
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
    rows a block spans, the positions of its eigenvalues in
    ``eigenvalues``, and its eigenvectors restricted to those rows, one
    column per position.  Every eigenvector is zero outside its block's
    rows.  An unsplit matrix is the one-block case.  The vectors are
    float64 when the decomposed matrix is real, complex otherwise.
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

    def reconstruct(self) -> np.ndarray:
        """V diag(w) V^dagger; equals the decomposed matrix up to roundoff."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


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


def _checked_hermitian(h: np.ndarray, name: str) -> np.ndarray:
    """Validate finiteness and hermiticity; return float64 when every imaginary entry is 0."""
    h = np.asarray(h)
    if np.iscomplexobj(h) and not h.imag.any():
        h = np.ascontiguousarray(h.real)
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{name} must be square, got shape {h.shape}")
    scale = np.max(np.abs(h))
    if not np.isfinite(scale):
        raise ValueError(f"{name} has non-finite entries")
    asym = np.max(np.abs(h - h.conj().T))
    if asym > VALIDATION_TOL * max(scale, 1.0):
        raise ValueError(f"{name} is not hermitian: max |H - H^dag| = {asym:.3e}")
    return h


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and hermiticity relative to the matrix scale; return as complex array.

    A matrix whose imaginary part is exactly zero is checked in real
    arithmetic.
    """
    return np.asarray(_checked_hermitian(h, name), dtype=complex)


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

    A matrix of at least :data:`SPLIT_MIN_ROWS` rows gets one ``eigh`` per
    block of :func:`coupled_blocks` on its nonzero pattern, so every
    eigenvector column is supported on a single block; a smaller one is
    solved whole.  A matrix whose imaginary part is exactly zero is
    solved in real arithmetic, with float64 eigenvectors.  The blocks are
    kept as solved (see :class:`SpectralDecomposition`).  Eigenvalues
    come back sorted ascending (a stable sort of the blocks' eigenvalues
    in block order) with orthonormal columns, so degenerate subspaces
    are represented by an arbitrary but orthonormal basis.
    """
    h = _checked_hermitian(h, "hamiltonian")
    dim = h.shape[0]
    blocks = coupled_blocks(h != 0) if dim >= SPLIT_MIN_ROWS else [np.arange(dim)]
    solved = [(idx, *np.linalg.eigh(h[np.ix_(idx, idx)])) for idx in blocks]
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
