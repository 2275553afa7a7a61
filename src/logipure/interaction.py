"""Engineered system-auxiliary couplings and Pauli-string decompositions.

The purification protocol drives a resonant exchange between a chosen
logical state |Psi_S> of the system and the uniform first-excited-state
superposition |Phi_S>, conditioned on flipping one auxiliary qubit:

    H_SA = g |Psi_S><Phi_S| (x) |1_A><0_A| + h.c.

Three flavors are built here: the rank-one form above, a targeted form
that couples |Psi_S> to every first-excited basis state with equal
strength, and a ground-preparation form for hosts with a unique ground
state.  |Phi_S> is always the uniform superposition.  The module also
provides exact Pauli-string decompositions of arbitrary register
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeModel, LogicalTarget, logical_state
from .operators import (
    PauliString,
    kron,
    kron_all,
    require_hermitian,
)

RANK_ONE = "rank-one"
TARGETED = "targeted"
GROUND_PREP = "ground-prep"
VARIANTS = (RANK_ONE, TARGETED, GROUND_PREP)

# Coefficients smaller than this are dropped from decompositions.
COEFF_CUTOFF = 1e-12


@dataclass(frozen=True)
class InteractionSpec:
    """Parameters of the engineered coupling.

    ``targets`` holds one :class:`LogicalTarget` per code.  The
    ground-preparation variant takes none, since it always addresses the
    unique ground state: :func:`build_interaction` raises on targets
    there.  Every variant couples to the uniform excited-state
    superposition of :func:`es_uniform_state`.
    """

    coupling: float
    targets: tuple[LogicalTarget, ...] = ()
    variant: str = RANK_ONE

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class AuxiliarySpec:
    """Auxiliary register: ``count`` qubits, each with splitting ``energy``.

    Each auxiliary qubit carries energy ``E_A |1><1|``, i.e. the zero
    point sits at the auxiliary ground state |0_A>.  The 2 x 2 block of
    :func:`logipure.formulas.emr_rank_one` assumes exactly this zero
    point.
    """

    count: int = 1
    energy: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"need at least one auxiliary qubit, got {self.count}")
        if self.energy < 0:
            raise ValueError(f"auxiliary energy must be >= 0, got {self.energy}")


def es_uniform_state(codes: list[CodeModel]) -> np.ndarray:
    """Product over codes of the uniform first-excited superposition.

    For each code this is (1/sqrt(d_i)) sum_mu |mu_i> over its excited
    manifold basis.
    """
    if not codes:
        raise ValueError("need at least one code")
    factors = []
    for code in codes:
        d = code.es_degeneracy
        amps = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
        factors.append(sum(a * v for a, v in zip(amps, code.es_basis)))
    return kron_all(factors)


def joint_target_state(codes: list[CodeModel], targets: tuple[LogicalTarget, ...]) -> np.ndarray:
    """Product of per-code logical target states."""
    if len(targets) != len(codes):
        raise ValueError(f"{len(codes)} codes but {len(targets)} targets")
    return kron_all(logical_state(c, t) for c, t in zip(codes, targets))


def build_interaction(codes: list[CodeModel], spec: InteractionSpec) -> np.ndarray:
    """Engineered coupling on (joint system) x (one auxiliary qubit).

    rank-one:    g |Psi><Phi| (x) |1><0| + h.c. with |Phi> the uniform
                 excited superposition.
    targeted:    couples |Psi> to every excited product basis state with
                 matrix element g; equivalent to the rank-one form with
                 the coupling scaled by sqrt(prod d_i).
    ground-prep: rank-one form with |Psi> the unique joint ground state;
                 requires every host to have a non-degenerate ground
                 manifold.
    """
    g = spec.coupling
    if spec.variant == GROUND_PREP:
        if spec.targets:
            raise ValueError("ground-prep variant addresses the ground state; no targets allowed")
        for i, code in enumerate(codes):
            if len(code.ls_basis) != 1:
                raise ValueError(
                    f"host {i} has a {len(code.ls_basis)}-fold degenerate ground manifold; "
                    "ground-prep needs a unique ground state"
                )
        psi = kron_all(c.ls_basis[0] for c in codes)
    else:
        psi = joint_target_state(codes, spec.targets)

    phi = es_uniform_state(codes)
    if spec.variant == TARGETED:
        phi = phi * np.sqrt(float(np.prod([c.es_degeneracy for c in codes])))

    # g |Psi><Phi| (x) |1><0| + h.c., written block by block into one array: |Psi><Phi| times the
    # flip's entry 1 or 0, as np.kron multiplies it, scaled by g, and each block summed with the
    # adjoint of its mirror, so every entry, signed zeros included, is the dense sum's
    outer = np.outer(psi, phi.conj())
    one, zero = g * (outer * (1 + 0j)), g * (outer * 0j)
    d = outer.shape[0]
    out = np.empty((2 * d, 2 * d), dtype=complex)
    np.add(one, zero.conj().T, out=out[1::2, ::2])
    np.add(zero, one.conj().T, out=out[::2, 1::2])
    np.add(zero, zero.conj().T, out=out[::2, ::2])
    out[1::2, 1::2] = out[::2, ::2]
    return out


def build_total(codes: list[CodeModel], interaction: np.ndarray, aux: AuxiliarySpec) -> np.ndarray:
    """H_tot = H_S + H_A + H_SA on (joint system) x (auxiliary register).

    H_S is the sum of the code Hamiltonians, each on its own qubits in
    code order; H_A is ``sum_j E_A |1><1|_j`` over the auxiliary qubits,
    whose ground energy is exactly 0.  ``interaction`` acts on the system
    plus the *first* auxiliary qubit; remaining auxiliary qubits are
    identity-padded.
    """
    n_s = sum(c.n_qubits for c in codes)
    interaction = require_hermitian(interaction, "interaction")
    if interaction.shape[0] != 2 ** (n_s + 1):
        raise ValueError(
            f"interaction dimension {interaction.shape[0]} does not match system {2**n_s} x one AQ"
        )
    n_tot = n_s + aux.count
    h = np.zeros((2**n_tot, 2**n_tot), dtype=complex)
    first = 0
    for code in codes:
        h += kron_all([np.eye(2**first), code.hamiltonian, np.eye(2 ** (n_tot - first - code.n_qubits))])
        first += code.n_qubits
    index = np.arange(2**n_tot)
    for j in range(aux.count):
        h[index, index] += aux.energy * ((index >> (aux.count - 1 - j)) & 1)  # E_A |1><1| on AQ j
    h += kron(interaction, np.eye(2 ** (aux.count - 1)))
    return h


def pauli_decompose(h: np.ndarray, cutoff: float = COEFF_CUTOFF) -> list[PauliString]:
    """Exact Pauli-string expansion of an operator on a qubit register.

    Returns the strings with coefficients ``Tr(P H) / 2^n``, dropping
    those below ``cutoff`` in magnitude, ordered lexicographically in
    I < X < Y < Z.  The expansion is exact for any matrix; hermiticity
    is not required (coefficients are complex).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:  # n >= 1, so the loop never hands back h to scale in place
        raise ValueError(f"dimension {dim} is not 2^n for n >= 1 qubits")
    # Qubit by qubit from qubit 0, its (row bit, column bit) block B becomes
    # Tr(P B) for P = I, X, Y, Z, placed in front of the rows and columns left.
    t = h
    for k in range(n):
        half = 2 ** (n - k - 1)
        b = t.reshape(4**k, 2, half, 2, half)
        t = np.empty((4**k, 4, half, half), dtype=complex)
        np.add(b[:, 0, :, 0], b[:, 1, :, 1], out=t[:, 0])
        np.add(b[:, 0, :, 1], b[:, 1, :, 0], out=t[:, 1])
        np.subtract(b[:, 1, :, 0], b[:, 0, :, 1], out=t[:, 2])
        t[:, 2] *= 1j
        np.subtract(b[:, 1, :, 1], b[:, 0, :, 0], out=t[:, 3])
    coeffs = t.reshape(-1)
    coeffs /= dim
    coeffs += 0.0  # turns a -0 part into 0
    return [  # ``not <=`` keeps a NaN coefficient
        PauliString("".join("IXYZ"[(i >> 2 * (n - 1 - k)) & 3] for k in range(n)), complex(coeffs[i]))
        for i in np.flatnonzero(~(np.abs(coeffs) <= cutoff))
    ]
