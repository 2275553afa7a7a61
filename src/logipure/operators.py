"""Dense operator algebra for multi-qubit registers.

Conventions used throughout the package:

* Qubit 0 is the *leftmost* tensor factor, i.e. the most significant bit
  of the computational-basis index.  ``kron(A, B)`` therefore puts ``A``
  on the lower-numbered qubits.
* ``|0>`` is the sigma-z eigenstate with eigenvalue -1, so a local field
  ``(E/2) * sigma_z`` makes ``|0>`` the single-qubit ground state.  With
  this choice ``sigma_y`` picks up a sign relative to the usual textbook
  matrix; the algebra ``sigma_x sigma_y = i sigma_z`` is preserved.

Operators are complex numpy arrays.  Many Hamiltonians of the package
conserve a quantity (magnetization, Z2 parity), so they are exactly block
diagonal in the computational basis.  :func:`coupled_blocks` finds those
blocks from the exactly-nonzero pattern alone, and :func:`hermitian_eig`
solves each block of a large matrix on its own; a small matrix, or one
without such structure, is the one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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


def pauli_operator(pauli: PauliString | str) -> np.ndarray:
    """Dense matrix of a Pauli string on ``len(letters)`` qubits."""
    if isinstance(pauli, str):
        pauli = PauliString(pauli)
    mat = kron_all(PAULI_MATRICES[c] for c in pauli.letters)
    if pauli.coefficient != 1.0:
        mat = pauli.coefficient * mat
    return mat


def require_hermitian(h: np.ndarray, name: str = "matrix", tol: float = VALIDATION_TOL) -> np.ndarray:
    """Validate hermiticity relative to the matrix scale; return as complex array."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{name} must be square, got shape {h.shape}")
    scale = max(np.max(np.abs(h)), 1.0)
    asym = np.max(np.abs(h - h.conj().T))
    if asym > tol * scale:
        raise ValueError(f"{name} is not hermitian: max |H - H^dag| = {asym:.3e}")
    return h


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
    solved whole.  Eigenvalues come back sorted ascending (a stable sort
    of the blocks' eigenvalues in block order) with orthonormal columns,
    so degenerate subspaces are represented by an arbitrary but
    orthonormal basis.
    """
    h = require_hermitian(h, "hamiltonian")
    dim = h.shape[0]
    blocks = coupled_blocks(h != 0) if dim >= SPLIT_MIN_ROWS else [np.arange(dim)]
    solved = [(idx, *np.linalg.eigh(h[np.ix_(idx, idx)])) for idx in blocks]
    w = np.concatenate([wb for _, wb, _ in solved])
    order = np.argsort(w, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    v = np.zeros(h.shape, dtype=complex)
    start = 0
    for idx, wb, vb in solved:
        v[np.ix_(idx, position[start : start + wb.size])] = vb
        start += wb.size
    return SpectralDecomposition(eigenvalues=w[order], eigenvectors=v)


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
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"target state norm {nrm!r} is not 1")
    rho = np.asarray(rho, dtype=complex)
    val = float(np.real(psi.conj() @ rho @ psi))
    if val < -POST_TOL or val > 1.0 + POST_TOL:
        raise ValueError(f"fidelity {val!r} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational-basis ket |index> on ``n_qubits`` qubits."""
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


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
