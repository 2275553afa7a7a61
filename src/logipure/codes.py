"""Logical-qubit hosts: stabilizer codes and Heisenberg spin chains.

A :class:`CodeModel` is a many-body system whose ground manifold hosts a
logical qubit: a gapped Hamiltonian with its ground energy shifted to
zero, the (usually two-fold degenerate) ground-space basis, and the
first excited manifold.  Builders are provided for stabilizer-code
Hamiltonians, the three-qubit repetition code, and ferromagnetic
Heisenberg chains with a polarizing field.  A chain is built in float64
and solved one magnetization sector at a time, by the sector solver of
:mod:`logipure.operators`, so it forms no complex matrix and no dense
eigenvector array of its size.  Every tolerance of the construction
checks is relative to the spectrum's own scale, so whether a code is
accepted does not depend on the units of its energies.

:class:`CodeLevels` is what thermal weights read of a code: its distinct
energies, their degeneracies and the gap.  :func:`stabilizer_levels`
takes them from the stabilizer group by GF(2) algebra, with no matrix
(no array of 2^n entries), so codes of any size within
:data:`MAX_ENUMERATION_BYTES` have them; a built :class:`CodeModel`
lists its own sorted eigenvalues as :attr:`CodeModel.levels`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    PauliString,
    SpectralDecomposition,
    _check_chain,
    _pauli_entries,
    _sector_labels,
    _sector_spectrum,
    basis_state,
    hermitian_eig,
    pauli_on_sites,
    pauli_sum,
    require_hermitian,
)

# Residual tolerance for "is an eigenstate" checks at construction time,
# relative to the spectral radius, so that a code is accepted or refused
# whatever the units of its energies.
RESIDUAL_TOL = 1e-9
# Eigenvalue-cluster tolerance, relative to the spectral radius.
CLUSTER_RTOL = 1e-8
# Eigenvector entries within this share of the largest modulus tie for
# the gauge pivot of :func:`_gauged`, and the lowest index wins.
GAUGE_RTOL = 1e-8
# Most bytes of the enumeration :func:`stabilizer_levels` makes: 2^k words,
# k = min(rank, strings - rank), of 9 W + 10 bytes each for W = ceil(strings
# / 64) 64-bit parts.  This bounds its tracemalloc peak from k = 17 up (18
# bytes a word and about 80 KB of numpy buffers: 37.8 MB traced against
# 39.8 MB counted at k = 21).  Fresh processes on 2 vCPUs, the n-qubit codes
# of n - 1 nearest- and n - 2 next-nearest-neighbour ZZ strings (k = n - 2):
# n = 25 (159 MB by this count) took 0.13-0.20 s at 174 MB peak RSS, and at this
# limit n = 24 (80 MB) 0.07 s at 102 MB; importing the package alone peaks
# at 30 MB.  The time is a few numpy passes over the words, so memory binds.
MAX_ENUMERATION_BYTES = 2**27


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
class CodeLevels:
    """Energy levels of a code Hamiltonian: all that its thermal weights read.

    ``energies`` ascend from the ground level at 0, ``degeneracies``
    (floats, exact below 2^53) count the states at each, and ``gap`` is
    the first excited energy.  :func:`stabilizer_levels` gives distinct
    levels; :attr:`CodeModel.levels` lists every eigenvalue once.
    """

    gap: float
    energies: np.ndarray
    degeneracies: np.ndarray

    def partition(self, beta):
        """Z = sum_k d_k exp(-beta E_k), over a trailing axis of levels for an array ``beta``.

        For :attr:`CodeModel.levels` every d_k is 1, so this is the plain
        sum of exp(-beta E) over the sorted spectrum, bit for bit.  For
        distinct levels each product d_k e^{-beta E_k} rounds once, so the
        sum lies within (K + 1) eps Z of the exact one for K levels (the
        dense sum of 2^n terms within about n eps Z).  The energies of
        :func:`stabilizer_levels` are a diagonal code's eigenvalues bit for
        bit; those of any other code differ from its dense solve's by that
        solve's rounding, a few eps times the spectral radius ||H|| each,
        which moves the dense Z by about beta eps ||H|| Z beside that.
        """
        return (self.degeneracies * np.exp(-np.multiply.outer(beta, self.energies))).sum(axis=-1)


@dataclass(frozen=True)
class CodeModel:
    """A gapped system hosting logical information in its ground manifold.

    ``ls_basis`` holds one state (ground-state-preparation hosts) or two
    (logical-qubit codes, ordered as ``(|0_S>, |1_S>)``).  ``es_basis``
    spans the first excited manifold at energy ``gap``.  ``hamiltonian``
    has its ground manifold at exactly zero energy; it is complex, or
    float64 for a chain, whose terms are all real.  ``spectrum`` is its
    full eigendecomposition: the one the builder clustered to find the
    two manifolds, shared by every thermal quantity of the code, kept
    per magnetization sector for a chain.
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
        scale = float(np.max(np.abs(self.spectrum.eigenvalues)))
        for v in self.ls_basis:
            if np.linalg.norm(_times(h, v)) > RESIDUAL_TOL * scale:
                raise ValueError("ground basis state is not a zero-energy eigenstate")
        for v in self.es_basis:
            if np.linalg.norm(_times(h, v) - self.gap * v) > RESIDUAL_TOL * scale:
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

    @property
    def levels(self) -> CodeLevels:
        """The sorted eigenvalues as levels of one state each, so thermal weights keep the dense sum's bits."""
        return CodeLevels(self.gap, self.spectrum.eigenvalues, np.ones(self.dimension))


def _times(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``h @ v``; a real ``h`` takes a complex ``v`` in two real products rather than as a complex copy of itself."""
    if np.isrealobj(h) and np.iscomplexobj(v):
        return h @ v.real + 1j * (h @ v.imag)
    return h @ v


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
    For diagonal ``h`` (no off-diagonal entry above 1e-14 of its largest
    entry, whatever its units) no eigensolve is made: the spectrum is the
    sorted diagonal and the bases are computational-basis vectors ordered
    by index, which keeps downstream state labels deterministic.
    """
    return _split(require_hermitian(h, "hamiltonian"))


def _split(h: np.ndarray) -> SpectralSplit:
    """:func:`spectral_split` of a matrix already checked by :func:`require_hermitian`."""
    dim = h.shape[0]
    # relative to the matrix's own largest entry, so that the test does not depend on its units
    diagonal = np.max(np.abs(h - np.diag(np.diag(h)))) <= 1e-14 * np.max(np.abs(h))
    if diagonal:
        w = np.real(np.diag(h))
        order = np.argsort(w, kind="stable")
        rows = np.arange(dim)
        spec = SpectralDecomposition(w[order], ((rows, rows, np.eye(dim, dtype=complex)[:, order]),))
    else:
        spec = _gauged(hermitian_eig(h))
    return _clustered(spec)


def _clustered(spec: SpectralDecomposition) -> SpectralSplit:
    """The :class:`SpectralSplit` of a solved spectrum, clustered as :func:`spectral_split` says.

    The basis vectors are assembled from the spectrum's blocks alone.
    """
    w = spec.eigenvalues
    if not np.isfinite(w).all():  # finite entries whose eigenvalues overflow; the solver does not raise
        raise FloatingPointError("overflow encountered in the code spectrum")

    tol = CLUSTER_RTOL * float(np.max(np.abs(w)))
    if tol == 0.0:
        raise ValueError("flat spectrum: no gap to split on")

    clusters: list[list[int]] = [[0]]
    for i in range(1, w.size):
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
        ls_basis=spec.columns(clusters[0]),
        es_basis=spec.columns(clusters[1]),
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
    strings, _ = _checked_strings(stabilizers, strength)
    code = code_from_hamiltonian(-strength * pauli_sum(strings))
    if len(code.ls_basis) != 2:
        raise ValueError(
            f"ground manifold is {len(code.ls_basis)}-fold degenerate; "
            "a single logical qubit needs exactly 2 ground states"
        )
    return code


def _checked_strings(stabilizers, strength: float) -> tuple[list[PauliString], list[tuple[int, int]]]:
    """The stabilizers as Pauli strings with their (x, z) bit rows, refused as :func:`build_stabilizer_code` refuses them.

    Bit i of x (of z) is set where qubit i's letter is X or Y (Z or Y),
    qubit 0 the highest bit.  Two strings anticommute when their
    symplectic product, the parity of x_s & z_t ^ z_s & x_t, is odd.
    """
    if strength <= 0:
        raise ValueError(f"coupling must be positive, got {strength}")
    strings = [s if isinstance(s, PauliString) else PauliString(s) for s in stabilizers]
    if not strings:
        raise ValueError("a stabilizer code needs at least one string")
    if len({s.n_qubits for s in strings}) > 1:
        raise ValueError("Pauli strings act on different register sizes")
    rows = [(int(s.letters.translate(_X_BITS), 2), int(s.letters.translate(_Z_BITS), 2)) for s in strings]
    for i, (s, (x, z)) in enumerate(zip(strings, rows)):
        if not abs(s.coefficient * s.coefficient - 1) <= 1e-12:  # a NaN fails too
            raise ValueError(f"stabilizer {s.letters!r} does not square to identity")
        for t, (tx, tz) in zip(strings[:i], rows[:i]):
            if ((x & tz) ^ (z & tx)).bit_count() & 1:
                raise ValueError(f"stabilizers {t.letters!r} and {s.letters!r} do not commute")
    return strings, rows


_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


def stabilizer_levels(stabilizers: list[PauliString | str], strength: float = 1.0) -> CodeLevels:
    """The levels of ``build_stabilizer_code(stabilizers, strength)``, from the group, with no matrix.

    The same checks refuse the same lists with the same messages, and
    the energies and degeneracies are the dense spectrum's clusters.
    GF(2) elimination of the strings' (x, z) rows gives the rank r and
    writes each dependent string as +-1 times a product of the r
    independent ones, the generators (D. Gottesman, arXiv:quant-ph/9705052,
    ch. 3).  The generators commute and no product of them is -I, so each
    of their 2^r sign patterns (syndromes) has 2^(n - r) states.  String j
    then adds -J (-1)^y_j, where y is a word of the coset b + C of the
    binary [m, r] code C of the m strings' syndrome maps, and b marks the
    strings whose sign (coefficient times product phase) is negative:
    a level is -J (m - 2 wt(y)).  The weights come from the 2^r syndromes,
    or from the 2^(m - r) dual words (the products of strings equal to
    +-I) by the MacWilliams identity (F. J. MacWilliams and N. J. A.
    Sloane, *The Theory of Error-Correcting Codes*, 1977, ch. 5),
    whichever are fewer; independent strings (m = r) have one dual word,
    the product form: level 2Jk holds 2^(n - r) C(r, k) states.  An
    enumeration past :data:`MAX_ENUMERATION_BYTES` is refused before it
    is allocated.

    A coefficient counts by its sign (the checks pass only +-1 within
    1e-12).  Each energy is the dense path's difference of two products
    -J (m - 2w), so a diagonal code's energies equal its sorted
    eigenvalues bit for bit.  Distinct levels lie 2J apart, beyond the
    dense clustering tolerance (1e-8 of J m) for fewer than 10^7 strings,
    so no two levels merge.
    """
    strings, rows = _checked_strings(stabilizers, strength)
    n, m = strings[0].n_qubits, len(strings)
    flips = sum(1 << j for j, s in enumerate(strings) if s.coefficient.real < 0)  # the coset's offset b
    # A string is i^#Y X^x Z^z, and i^a X^x Z^z i^b X^x' Z^z' = i^(a + b + 2 z.x') X^(x ^ x') Z^(z ^ z').
    basis: dict[int, tuple[int, int, int]] = {}  # top bit -> (x, z) row, phase exponent of i, generators multiplied
    columns: list[int] = []  # per generator, the strings whose syndrome it enters: a column of C's generator matrix
    relations: list[int] = []  # per dependent string, it and its generators, whose product is +-I: a word of C's dual
    for j, (x, z) in enumerate(rows):
        v, phase, product = x << n | z, strings[j].letters.count("Y"), 0
        while v and v.bit_length() - 1 in basis:
            w, p, generators = basis[v.bit_length() - 1]
            phase += p + 2 * (v & w >> n).bit_count()
            v, product = v ^ w, product ^ generators
        if v:  # a new generator
            basis[v.bit_length() - 1] = (v, phase, product | 1 << len(columns))
            columns.append(1 << j)
            continue
        # P_j times the generators in ``product`` is i^phase: P_j is (-1)^(phase / 2) times their product
        flips ^= (phase % 4 == 2) << j
        relations.append(1 << j)
        for g in range(len(columns)):
            if product >> g & 1:
                columns[g] |= 1 << j
                relations[-1] |= columns[g] & -columns[g]  # the generator's own string, its lowest bit
    rank = len(columns)
    words = (m + 63) // 64
    need = (1 << min(rank, m - rank)) * (9 * words + 10)  # what _span_weights holds per word, and a byte to spare
    if need > MAX_ENUMERATION_BYTES:
        raise ValueError(
            f"{m} stabilizers of rank {rank} need an enumeration of 2^{min(rank, m - rank)} words, "
            f"{need} bytes; the limit is {MAX_ENUMERATION_BYTES} bytes"
        )
    if rank > m - rank:  # a dual word u enters with (-1)^(u.b)
        signs = [(u & flips).bit_count() & 1 for u in relations]
        counts = _macwilliams(_span_weights(relations, signs, 0, m, words), m, m - rank)
    else:
        counts = _span_weights(columns, [0] * rank, flips, m, words)

    weights = [w for w, c in enumerate(counts) if c]
    unshifted = [-strength * float(m - 2 * w) for w in weights]  # as the dense path rounds -J times the summed signs
    energies = [u - unshifted[0] for u in unshifted]
    degeneracies = [counts[w] << n - rank for w in weights]
    if not all(map(math.isfinite, energies)):
        raise FloatingPointError("overflow encountered in the code spectrum")
    if CLUSTER_RTOL * max(map(abs, unshifted)) == 0.0:
        raise ValueError("flat spectrum: no gap to split on")
    if len(weights) < 2:
        raise ValueError("spectrum forms a single degenerate cluster: no gap")
    if max(degeneracies).bit_length() > 1023:  # float() would overflow on it
        raise ValueError(f"a level of the code holds 2^{max(degeneracies).bit_length() - 1} states or more, past float64")
    if degeneracies[0] > 2:
        raise ValueError(f"ground manifold is {degeneracies[0]}-fold degenerate")
    if degeneracies[0] != 2:
        raise ValueError(
            f"ground manifold is {degeneracies[0]}-fold degenerate; a single logical qubit needs exactly 2 ground states"
        )
    return CodeLevels(energies[1], np.array(energies), np.array(degeneracies, dtype=float))


def _span_weights(vectors: list[int], signs: list[int], offset: int, m: int, words: int) -> list[int]:
    """Signed weight counts of the m-bit words ``offset ^ (a sum of vectors)``.

    Entry w is the sum of (-1)^(the summed vectors' signs) over the 2^k
    sums of weight w.  The sums are filled in by doubling, one XOR per
    vector over the half already filled, in ``words`` 64-bit parts each.
    Per sum this holds the parts (8 bytes each), their bit counts (1
    each), the sign (1) and the weight (8).
    """
    size = 1 << len(vectors)
    span = np.empty((size, words), dtype=np.uint64)
    sign = np.zeros(size, dtype=np.uint8)

    def parts(v: int) -> np.ndarray:
        return np.array([v >> 64 * i & 0xFFFF_FFFF_FFFF_FFFF for i in range(words)], dtype=np.uint64)

    span[0] = parts(offset)
    for i, (vector, flip) in enumerate(zip(vectors, signs)):
        half = 1 << i
        np.bitwise_xor(span[:half], parts(vector), out=span[half : 2 * half])
        np.bitwise_xor(sign[:half], flip, out=sign[half : 2 * half])
    weight = np.bitwise_count(span).sum(axis=1, dtype=np.intp)
    del span
    weight += np.multiply(sign, m + 1, dtype=np.intp)
    counts = np.bincount(weight, minlength=2 * m + 2)
    return (counts[: m + 1] - counts[m + 1 :]).tolist()


def _macwilliams(dual: list[int], m: int, k: int) -> list[int]:
    """Weight counts of a coset of a binary [m, m - k] code from its dual's 2^k signed weight counts.

    A(t) = 2^-k sum_w dual_w (1 - t)^w (1 + t)^(m - w), in exact integers:
    each step from w to w + 1 multiplies by 1 - t and divides by 1 + t.
    """
    poly = [math.comb(m, i) for i in range(m + 1)]  # (1 + t)^m
    total = [0] * (m + 1)
    last = max(w for w, h in enumerate(dual) if h)
    for w, h in enumerate(dual[: last + 1]):
        if w:
            prev_c = prev_r = 0
            for i, c in enumerate(poly):
                poly[i] = prev_r = c - prev_c - prev_r
                prev_c = c
        if h:
            total = [a + h * c for a, c in zip(total, poly)]
    return [a >> k for a in total]


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

    Every term is real (each string has an even number of Y letters), so
    the matrix is float64: the entries of :func:`~logipure.operators.pauli_sum`'s
    bit rule, real parts, less E_g times the identity, each entry the
    real part of that complex difference bit for bit.  The chain
    conserves the magnetization: an entry across two of its sectors
    raises, and :func:`~logipure.operators._sector_spectrum` solves the
    sectors one real ``eigh`` each (H. Q. Lin, Phys. Rev. B 42, 6561
    (1990)), whose eigenvectors the spectrum keeps per sector, so no
    dense eigenvector array is formed.  The tolerances of the checks
    are relative to the spectrum's own scale, so a chain builds at any J
    whose energies stay finite.
    """
    n = spec.n_qubits
    j, h_field = spec.exchange, spec.field
    dim = 2**n
    index = np.arange(dim)
    bonds = [(0, 1)] if n == 2 else [(s, (s + 1) % n) for s in range(n)]
    entries = _pauli_entries(
        [PauliString(pauli_on_sites(n, bond, p + p), j / 4.0) for bond in bonds for p in "XYZ"]
        + [PauliString(pauli_on_sites(n, [s], "Z"), h_field / 2.0) for s in range(n)],
        index,
    )
    e_g = entries[0][0].real
    ham = np.zeros((dim, dim))
    for flip, column in entries.items():
        values = column.real - e_g * (flip == 0)  # less E_g times the identity's entry, as the complex difference rounds
        if not np.isfinite(values).all():
            raise ValueError("hamiltonian has non-finite entries")
        ham[index ^ flip, index] = values

    labels = _sector_labels(n, True)
    _check_chain(ham, labels, None)
    split = _clustered(_gauged(_sector_spectrum(lambda rows, cols: ham[np.ix_(rows, cols)], labels, index, 0)))
    scale = float(np.max(np.abs(split.spectrum.eigenvalues)))
    if abs(split.ground_energy) > RESIDUAL_TOL * scale:
        raise ValueError(
            f"chain ground energy {split.ground_energy:.3e} lies below |0...0>: convention is broken"
        )
    if len(split.ls_basis) != 2:
        raise ValueError(
            f"chain ground manifold is {len(split.ls_basis)}-fold degenerate; "
            "field/exchange convention is broken"
        )

    one = np.zeros(dim)
    for s in range(n):
        one[1 << (n - 1 - s)] = (-1.0) ** s / np.sqrt(n)
    for v, name in ((ham[:, 0], "|0...0>"), (ham @ one, "one-magnon state")):
        if np.linalg.norm(v) > RESIDUAL_TOL * scale:
            raise ValueError(f"{name} is not a zero-energy eigenstate: convention is broken")

    return CodeModel(
        n_qubits=n,
        hamiltonian=ham,
        ls_basis=(basis_state(n, 0), one.astype(complex)),
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
    kind, j, payload = code_document(doc)
    if kind == "stabilizer":
        return build_stabilizer_code(payload, j)
    return build_heisenberg_code(HeisenbergSpec(n_qubits=payload, exchange=j))


def code_document(doc: str | dict) -> tuple[str, float, list[str] | int]:
    """(type, J, stabilizer list or chain length) of a code document, checked as :func:`code_from_json` checks it."""
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
