"""Evolve-measure-repeat purification and the XY-coupled chain setups.

One round evolves the joint state for a fixed time, measures every
auxiliary qubit along its configured direction, and postselects the
settings' own outcome string, the same in every round.  Repeating the
round drives the system toward a logical target at the price of an
exponentially shrinking cumulative success probability.  Two
formulations take the same :class:`RoundSpec`, both stopping a run at
the same probability floor:

* :func:`run_emr` - the reference density-matrix loop on the full joint
  register;
* exact contraction operators.  Because each round's measurement leaves
  the auxiliary register in a known product state, the conditioned
  joint state stays of the form rho_S (x) |chi><chi| and the whole
  trajectory reduces to repeated D_S x D_S matrix products on a square
  root ("ensemble") factor of the thermal state.  The operators
  <psi_out| exp(-iHt) |chi> come straight from the joint spectrum,
  block by block (:func:`round_contraction`); neither a joint unitary
  nor a dense eigenvector array is formed.
  :func:`fast_trajectory` runs one trajectory this way, and
  :func:`plane_m_min` a whole plane of (duration, setting) cells in one
  batched kernel pass.  :func:`plane_one_round` gives a plane's
  one-round probability and fidelity from the same operators, taken for
  every auxiliary basis state at once, without any trajectory.

The module also builds the anisotropic-XY auxiliary couplings for
Heisenberg chains and reproduces the reference benchmark table for that
protocol family, building the larger chain rows one conserved sector at
a time, and solving and running them in halves where a reflection of
the chain keeps its wiring; one sector solver
(:func:`logipure.operators._sector_spectrum`) serves the joint rows, the
chain's thermal factor and the chain code itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import batch_trajectory_kernel
from .codes import CodeModel, HeisenbergSpec, build_heisenberg_code, cardinal_state
from .measurement import UNATTAINABLE_P, MeasurementSetting, measure_aq
from .operators import (
    KET_0,
    POST_TOL,
    SPLIT_MIN_ROWS,
    SpectralDecomposition,
    _check_chain,
    _sector_labels,
    _sector_spectrum,
    hermitian_eig,
    kron,
    kron_all,
    require_finite,
    require_unit,
)

KEEP = "keep-post-measurement"
RESET = "reset-to-ground"
POLICIES = (KEEP, RESET)

# Auxiliary-qubit splitting used for the chain benchmark table.  The source
# listing omits E_A entirely, so it is a free calibration parameter; this
# value was fitted once against the a = 0 benchmark rows (all five reproduce
# M_min exactly and cumulative probabilities within +-0.005) and is reported
# alongside every reproduced table.
CALIBRATED_AUX_ENERGY = 0.98


@dataclass(frozen=True)
class RoundSpec:
    """One purification round, repeated verbatim.

    ``settings`` holds one measurement direction per auxiliary qubit;
    every round postselects the settings' own outcomes ``k``.
    """

    duration: float
    settings: tuple[MeasurementSetting, ...]

    def __post_init__(self):
        if require_finite("duration", self.duration) <= 0:
            raise ValueError(f"round duration must be positive, got {self.duration}")
        if not self.settings:
            raise ValueError("need at least one measurement setting")


@dataclass(frozen=True)
class XYSetup:
    """Auxiliary wiring of a chain: anisotropic XY bonds to site pairs.

    Auxiliary qubit j attaches to the neighboring-site pair (j, j+1)
    with coupling ``j_1`` on site j and ``j_2`` on site j+1, so the chain
    needs ``n_aux + 1`` sites or more; the bond operator is
    ``J (gamma_+ sx sx + gamma_- sy sy)`` with ``gamma_pm = (1 +- gamma)/2``.
    ``aux_energy=None`` resolves to the spectral gap of
    the chain at build time (the resonance default); benchmark-table runs
    pass the fitted :data:`CALIBRATED_AUX_ENERGY` instead.  The bonds
    conserve the total magnetization at ``gamma = 0`` and the parity
    otherwise, the sectors that :func:`_xy_spectrum` builds one at a
    time.  When ``j_2`` is 0 or equals ``j_1``, a site reflection of the
    ring with the auxiliary order reversed keeps the wiring
    (:attr:`reflection_centre`), and :meth:`reflection` gives the
    permutation of the joint basis that the joint Hamiltonian commutes
    with, which splits each sector into even and odd halves.
    """

    n_system: int
    n_aux: int = 1
    j_1: float = 1.0
    j_2: float = 0.0
    gamma: float = 0.0
    aux_energy: float | None = None

    def __post_init__(self):
        for name in ("j_1", "j_2", "gamma", "aux_energy"):
            if getattr(self, name) is not None:
                require_finite(name, getattr(self, name))
        if self.n_aux < 1:
            raise ValueError(f"need at least one auxiliary qubit, got {self.n_aux}")
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"anisotropy must lie in [-1, 1], got {self.gamma}")
        if self.n_aux >= self.n_system:
            raise ValueError(
                f"{self.n_aux} auxiliary qubits attach to sites 0..{self.n_aux}, "
                f"beyond a {self.n_system}-site chain"
            )
        if self.aux_energy is not None and self.aux_energy < 0:
            raise ValueError(f"auxiliary energy must be >= 0, got {self.aux_energy}")

    @property
    def reflection_centre(self) -> int | None:
        """Centre c of the site reflection i -> c - i (mod N) that, with the auxiliary order reversed, keeps the wiring.

        Auxiliary qubit n_aux - 1 - j then sits where qubit j sat: on site
        c - j with ``j_1`` when ``j_2`` is 0 (c = n_aux - 1), and on the
        pair c - j - 1, c - j with equal couplings when ``j_2`` equals
        ``j_1`` (c = n_aux).  The ring and its uniform exchange and field
        are unchanged by any site reflection.  None for any other wiring.
        """
        if self.j_2 == 0.0:
            return self.n_aux - 1
        if self.j_2 == self.j_1:
            return self.n_aux
        return None

    def reflection(self) -> np.ndarray | None:
        """Image of each joint basis index under :attr:`reflection_centre`'s reflection, or None.

        The joint Hamiltonian of :func:`build_xy_setup` commutes with this
        permutation of the basis, which :func:`_xy_spectrum` takes to split
        its sectors into even and odd halves.
        """
        if self.reflection_centre is None:
            return None
        system = _site_reflection(self.n_system, self.reflection_centre)
        aux = _site_reflection(self.n_aux, self.n_aux - 1)
        return ((system[:, None] << self.n_aux) | aux).ravel()

    @property
    def gamma_plus(self) -> float:
        return (1.0 + self.gamma) / 2.0

    @property
    def gamma_minus(self) -> float:
        return (1.0 - self.gamma) / 2.0


def _site_reflection(n_sites: int, centre: int) -> np.ndarray:
    """Image of each basis index of ``n_sites`` qubits under the site map i -> (centre - i) mod n_sites."""
    index = np.arange(2**n_sites)
    image = np.zeros_like(index)
    for site in range(n_sites):
        image |= ((index >> (n_sites - 1 - site)) & 1) << (n_sites - 1 - (centre - site) % n_sites)
    return image


@dataclass
class EmrTrajectory:
    """Per-round record of a postselected purification run.

    Arrays are trimmed to the rounds actually completed; ``truncated``
    flags a run that stopped early, because the outcome's conditional
    probability fell below :data:`UNATTAINABLE_P` or (fast path) the
    cumulative probability left the normal float range; ``reason`` names
    the cause and the offending round.
    """

    fidelity: np.ndarray
    p_round: np.ndarray
    p_cumulative: np.ndarray
    truncated: bool = False
    reason: str | None = None

    @property
    def n_rounds(self) -> int:
        return int(self.fidelity.shape[0])


def _check_run(max_rounds: int, aq_reset: str) -> None:
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if aq_reset not in POLICIES:
        raise ValueError(f"unknown reset policy {aq_reset!r}; expected one of {POLICIES}")


def run_emr(
    h_tot: np.ndarray,
    rho0: np.ndarray,
    rounds: RoundSpec,
    target: np.ndarray,
    max_rounds: int,
    aq_reset: str = KEEP,
) -> EmrTrajectory:
    """Reference implementation: full joint-space density-matrix loop.

    ``target`` is the pure system state the fidelity is taken against.
    ``aq_reset`` chooses what happens to the auxiliary register after
    each measurement: keep its post-measurement state or reset it to
    |0...0>.  Either way the next round starts from rho_S (x) |chi><chi|,
    with chi the measured product state or |0...0>.
    """
    _check_run(max_rounds, aq_reset)
    n_aux = len(rounds.settings)
    dim = h_tot.shape[0]
    if dim % 2**n_aux:
        raise ValueError(f"joint dimension {dim} does not factor into system x {n_aux} qubits")

    u = hermitian_eig(h_tot).unitary(rounds.duration)
    outcome = tuple(s.k for s in rounds.settings)
    chi = kron_all([s.state() for s in rounds.settings] if aq_reset == KEEP else [KET_0] * n_aux)
    aq_state = np.outer(chi, chi.conj())

    rho = np.asarray(rho0, dtype=complex)
    fid, p_round, p_cum = [], [], []
    cumulative = 1.0
    truncated, reason = False, None
    for r in range(max_rounds):
        rho = u @ rho @ u.conj().T
        rec = measure_aq(rho, n_aux, rounds.settings, target=target)[outcome]
        if not rec.attainable:
            truncated = True
            reason = (
                f"round {r + 1}: outcome {outcome} probability {rec.probability:.3e} "
                f"below {UNATTAINABLE_P:.0e}"
            )
            break
        rho = kron(rec.post_system_state, aq_state)
        cumulative *= rec.probability
        fid.append(rec.fidelity)
        p_round.append(rec.probability)
        p_cum.append(cumulative)

    return EmrTrajectory(
        fidelity=np.array(fid),
        p_round=np.array(p_round),
        p_cumulative=np.array(p_cum),
        truncated=truncated,
        reason=reason,
    )


def thermal_ensemble(codes: list[CodeModel], beta: float) -> np.ndarray:
    """Square-root factor V of the joint thermal state: V V^dagger = rho_S(0)."""
    if require_finite("beta", beta) < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta}")
    return kron_all([_thermal_factor(code.spectrum, beta) for code in codes])


def _thermal_factor(spectral: SpectralDecomposition, beta: float) -> np.ndarray:
    """Each eigenvector times the square root of its normalised weight exp(-beta (w - w_0))."""
    w = spectral.eigenvalues
    weights = np.exp(-beta * (w - w[0]))
    return spectral.eigenvectors * np.sqrt(weights / weights.sum())


def _reflected_ensemble(code: CodeModel, beta: float, image: np.ndarray) -> np.ndarray:
    """:func:`thermal_ensemble` of one chain code in the basis the site reflection ``image`` splits.

    The basis keeps each fixed row and puts (e_a + e_b)/sqrt 2 on row a
    and (e_a - e_b)/sqrt 2 on row b of each mirror pair a < b.  The chain
    is solved by :func:`_sector_spectrum` with no auxiliary qubits, one
    magnetization sector at a time, each as its even and odd halves, so
    every column of the factor lies on one (sector, half), with exact
    zeros elsewhere.  (The code's own spectrum mixes the halves inside
    its degenerate levels.)  A chain entry across magnetization sectors,
    or a reflection that does not keep the chain bit for bit, raises, as
    in :func:`_xy_spectrum`.
    """
    chain = code.hamiltonian.real
    labels = _sector_labels(code.n_qubits, True)
    _check_chain(chain, labels, image)
    return _thermal_factor(_sector_spectrum(lambda rows, cols: chain[np.ix_(rows, cols)], labels, image, 0), beta)


def _reflected_rows(states: np.ndarray, image: np.ndarray) -> np.ndarray:
    """A stack of states, one per row, in the basis of :func:`_reflected_ensemble`."""
    lo = np.flatnonzero(image > np.arange(image.size))
    hi = image[lo]
    out = states.copy()
    out[..., lo] = (states[..., lo] + states[..., hi]) * np.sqrt(0.5)
    out[..., hi] = (states[..., lo] - states[..., hi]) * np.sqrt(0.5)
    return out


def round_contraction(
    spectral: SpectralDecomposition, durations: np.ndarray, psi_out: np.ndarray, aq_in: np.ndarray
) -> np.ndarray:
    """System-space operators <psi_out| exp(-iHt) |aq_in>, straight from the joint spectrum.

    ``psi_out`` (postselected) and ``aq_in`` (entering the round) are
    auxiliary states; leading axes stack cells and broadcast against
    each other.  The spectrum is contracted block by block: with A_b and
    B_b a block's eigenvector rows contracted on the auxiliary factor
    with <psi_out| and <aq_in|, each operator gains A_b diag(exp(-iwt))
    B_b^dagger on the system rows the block reaches.  Only rows whose
    auxiliary index is nonzero in some state of the stack take part, so
    no joint unitary and no dense eigenvector array is formed.  Returns
    shape (len(durations), *cells, D_S, D_S).
    """
    dim, d_a = spectral.eigenvalues.size, np.shape(psi_out)[-1]
    if np.shape(aq_in)[-1] != d_a or dim % d_a:
        shapes = f"{np.shape(psi_out)} and {np.shape(aq_in)}"
        raise ValueError(f"auxiliary states {shapes} do not factor the joint dimension {dim}")
    psi_out, aq_in = np.broadcast_arrays(psi_out, aq_in)
    cells = psi_out.shape[:-1]
    phases = np.exp(-1j * np.multiply.outer(np.asarray(durations, dtype=float), spectral.eigenvalues))
    phases = phases.reshape(-1, *[1] * len(cells), 1, dim)
    out = np.zeros((phases.shape[0], *cells, dim // d_a, dim // d_a), dtype=complex)
    contract_out, contract_in = _aux_contraction(psi_out, d_a), _aux_contraction(aq_in, d_a)
    for rows, positions, vectors in spectral.blocks:
        i, a = contract_out(rows, vectors)
        j, b = contract_in(rows, vectors)
        if i.size and j.size:
            out[..., i[:, None], j] += (a * phases[..., positions]) @ b.conj().swapaxes(-1, -2)
    return out


def _aux_contraction(states: np.ndarray, d_a: int):
    """Contraction of one block's eigenvector rows with <states| on the auxiliary factor.

    Returns a function of (rows, vectors), a block of joint rows and its
    eigenvectors, that gives the system rows the block reaches and the
    contracted rows, shape (*cells, len(system rows), n_vectors).  Only
    the auxiliary components nonzero in some state of the stack enter.
    """
    used = (states != 0).reshape(-1, d_a).any(axis=0)
    slot = np.cumsum(used) - 1
    bras = states[..., used].conj()

    def contract(rows, vectors):
        system, aux = np.divmod(rows, d_a)
        kept = used[aux]
        system_rows, system_slot = np.unique(system[kept], return_inverse=True)
        grouped = np.zeros((system_rows.size, bras.shape[-1], vectors.shape[1]), dtype=vectors.dtype)
        grouped[system_slot, slot[aux[kept]]] = vectors[kept]
        return system_rows, np.einsum("...a,iak->...ik", bras, grouped)

    return contract


def _round_operators(spectral, durations, cells, aq_reset) -> tuple[np.ndarray, np.ndarray]:
    """First- and later-round operators, one per (duration, cell), duration-major.

    A later round starts from the postselected state under the keep
    policy and, like the first, from |0...0> under the reset policy.
    When the two states are the same (the reset policy, or every cell
    postselecting |0...0>), the operator is contracted once and returned
    as both.
    """
    psi_out = np.stack([kron_all([s.state() for s in cell]) for cell in cells])
    ket0 = np.broadcast_to(kron_all([KET_0] * len(cells[0])), psi_out.shape)
    same = aq_reset == RESET or np.array_equal(psi_out, ket0)
    aq_in = np.stack([ket0] if same else [ket0, psi_out])
    ops = round_contraction(spectral, durations, psi_out, aq_in)
    first = ops[:, 0].reshape(-1, *ops.shape[-2:])
    return first, first if same else ops[:, -1].reshape(-1, *ops.shape[-2:])


def fast_trajectory(
    spectral: SpectralDecomposition,
    ensemble: np.ndarray,
    rounds: RoundSpec,
    target: np.ndarray,
    max_rounds: int,
    aq_reset: str = KEEP,
) -> EmrTrajectory:
    """Exact trajectory via per-round contraction operators.

    ``spectral`` decomposes the joint Hamiltonian and ``ensemble`` is a
    square-root factor of the initial system state (see
    :func:`thermal_ensemble`).  Takes the round :func:`run_emr` takes and
    gives the same record, with the same probability floor
    :data:`UNATTAINABLE_P` and the same check that the target has norm
    1, from :func:`round_contraction` operators.
    """
    target = require_unit(target)
    _check_run(max_rounds, aq_reset)
    operators = _round_operators(spectral, [rounds.duration], [rounds.settings], aq_reset)
    return _trajectories(*operators, ensemble, target[None], max_rounds)[0][0]


def _trajectories(k_first, k_later, ensemble, targets, max_rounds) -> list[list[EmrTrajectory]]:
    """:func:`fast_trajectory` for a stack of cells sharing an ensemble, from one kernel pass.

    ``k_first`` and ``k_later`` stack one round operator per cell and
    ``targets`` the target rows; returns, per cell, one trajectory per
    target row, each with arrays of its own.
    """
    fid, p_round, p_cum, n_rounds, reasons = batch_trajectory_kernel(k_first, k_later, ensemble, targets, max_rounds)
    return [
        [
            EmrTrajectory(
                fidelity=fid[c, :n, t].copy(),
                p_round=p_round[c, :n].copy(),
                p_cumulative=p_cum[c, :n].copy(),
                truncated=why is not None,
                reason=None if why is None else f"round {n + 1}: {why}",
            )
            for t in range(len(targets))
        ]
        for c, (n, why) in enumerate(zip(n_rounds, reasons))
    ]


def plane_m_min(
    spectral: SpectralDecomposition,
    ensemble: np.ndarray,
    settings: list[tuple[MeasurementSetting, ...]],
    durations: np.ndarray,
    target: np.ndarray,
    f_targets: list[float],
    max_rounds: int,
    aq_reset: str,
) -> np.ndarray:
    """:func:`find_m_min` over a plane of (duration, settings) cells, from one kernel pass.

    ``spectral`` decomposes the joint Hamiltonian, ``settings`` holds one
    measurement tuple per column of the plane and ``durations`` one
    round duration per row.  Every cell runs the trajectory that
    :func:`fast_trajectory` runs for it, on operators from one
    :func:`round_contraction` call, and all of them advance together
    through :func:`batch_trajectory_kernel`.  Returns an integer array
    of shape (len(durations), len(settings), len(f_targets)): the first
    round (1-based, within the cell's completed rounds) with fidelity >=
    each target, or -1 where none is.  A target whose norm is not 1
    raises, as in :func:`run_emr`.
    """
    _check_run(max_rounds, aq_reset)
    _check_f_targets(f_targets)
    target = require_unit(target)
    k_first, k_later = _round_operators(spectral, durations, settings, aq_reset)
    fid = batch_trajectory_kernel(k_first, k_later, ensemble, target[None], max_rounds)[0][..., 0]
    return _first_rounds(fid, f_targets).reshape(len(durations), len(settings), len(f_targets))


def _first_rounds(fidelity: np.ndarray, f_targets: list[float]) -> np.ndarray:
    """Per cell, the first round (1-based) whose fidelity reaches each target, or -1 where none does.

    ``fidelity`` has one row of rounds per cell, zero after the cell's
    stop, as the kernel and :func:`~logipure.formulas.emr_rank_one`
    leave it; returns an integer array of shape (n_cells, len(f_targets)).
    """
    _check_f_targets(f_targets)
    m_min = np.empty((fidelity.shape[0], len(f_targets)), dtype=int)
    for j, f_target in enumerate(f_targets):
        hits = fidelity >= f_target  # fidelities after a stop are zero and every target is positive
        m_min[:, j] = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, -1)
    return m_min


def plane_one_round(
    spectral: SpectralDecomposition,
    ensemble: np.ndarray,
    settings: list[tuple[MeasurementSetting, ...]],
    durations: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One evolve-measure-postselect round over a plane of (duration, settings) cells.

    Takes the arguments :func:`plane_m_min` takes for its plane and gives
    what :func:`measure_aq` reports for each cell's own outcome string
    after evolving the thermal state with the auxiliary register in
    |0...0>.  One :func:`round_contraction` call gives the operators K_b
    = <b| exp(-iHt) |0...0> for every auxiliary basis state b; with X_b =
    K_b V, V the ensemble and T the target,

        rho_A[b, c] = tr(X_b X_c^dagger),  M[b, c] = (T^dagger X_b)(T^dagger X_c)^dagger,

    and a cell measuring the product state psi has probability p =
    psi^dagger rho_A psi and fidelity f = psi^dagger M psi / p.  Returns
    (p, f), each of shape (len(durations), len(settings)): p clipped to
    [0, 1], f NaN where p < :data:`UNATTAINABLE_P` and clipped to [0, 1]
    elsewhere, where a fidelity further than ``POST_TOL`` outside raises.
    """
    target = require_unit(target)
    psi = np.stack([kron_all([s.state() for s in cell]) for cell in settings])
    basis = np.eye(psi.shape[-1], dtype=complex)
    x = round_contraction(spectral, durations, basis, basis[0]) @ ensemble
    rho_a = np.einsum("tbij,tcij->tbc", x, x.conj())
    overlaps = np.einsum("i,tbij->tbj", target.conj(), x)
    m = np.einsum("tbj,tcj->tbc", overlaps, overlaps.conj())
    p = np.einsum("ab,tbc,ac->ta", psi.conj(), rho_a, psi).real
    attainable = p >= UNATTAINABLE_P
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(attainable, np.einsum("ab,tbc,ac->ta", psi.conj(), m, psi).real / p, np.nan)
    checked = f[attainable]
    outside = checked[(checked < -POST_TOL) | (checked > 1.0 + POST_TOL)]
    if outside.size:
        raise ValueError(f"fidelity {float(outside[0])!r} outside [0, 1] beyond tolerance")
    return np.clip(p, 0.0, 1.0), np.clip(f, 0.0, 1.0)


def _check_f_target(f_target: float) -> None:
    if not 0.0 < f_target <= 1.0:
        raise ValueError(f"target fidelity must lie in (0, 1], got {f_target}")


def _check_f_targets(f_targets: list[float]) -> None:
    if not f_targets:
        raise ValueError("f_targets must be non-empty")
    for f_target in f_targets:
        _check_f_target(f_target)


def find_m_min(trajectory: EmrTrajectory, f_target: float, max_rounds: int = 200) -> int | None:
    """Smallest round index (1-based) with fidelity >= ``f_target``.

    Scans at most the first ``max_rounds`` recorded rounds; returns None
    when the target is never reached.  The protocol fixes one outcome
    string, so this is an upper bound on the optimum over all strings.
    """
    _check_f_target(f_target)
    upto = min(trajectory.n_rounds, max_rounds)
    hits = np.nonzero(trajectory.fidelity[:upto] >= f_target)[0]
    return int(hits[0]) + 1 if hits.size else None


def build_xy_setup(setup: XYSetup, heisenberg: HeisenbergSpec) -> np.ndarray:
    """Total Hamiltonian of a chain with XY-attached auxiliary qubits.

    System qubits occupy tensor factors 0..N-1, auxiliary qubits the
    trailing factors in the order of their sites.  Bond operators enter as
    ``J_i (gamma_+ sx sx + gamma_- sy sy)`` on the attached site; this
    bare-Pauli normalization together with
    ``aux_energy = CALIBRATED_AUX_ENERGY`` is the calibration that
    reproduces the reference benchmark table.  ``aux_energy=None`` puts
    the auxiliary splitting on resonance with the chain gap.  Every term
    is real (each Pauli string has an even number of Y letters), so the
    matrix comes back as float64, entry for entry the real part of the
    complex sum of its terms.
    """
    if setup.n_system != heisenberg.n_qubits:
        raise ValueError(
            f"setup is wired for {setup.n_system} sites but the chain has {heisenberg.n_qubits}"
        )
    return _xy_hamiltonian(setup, build_heisenberg_code(heisenberg))


def _xy_hamiltonian(setup: XYSetup, code: CodeModel) -> np.ndarray:
    """:func:`build_xy_setup` on an already built chain code, in float64: every row of :func:`_xy_entries`."""
    index = np.arange(2 ** (setup.n_system + setup.n_aux))
    return _xy_entries(setup, code)[0](index, index)


def _xy_entries(setup: XYSetup, code: CodeModel):
    """The entries of :func:`build_xy_setup`'s matrix on any rows and columns, its bonds and its diagonal.

    Returns ``block(rows, cols)``, the matrix on those joint rows and
    columns, (flip, entry by column) per bond, and the diagonal.  The
    chain's real part (its imaginary part is exactly zero) enters times
    the identity on the auxiliary qubits, as ``np.kron`` multiplies it.
    The diagonal is the chain's plus the E_A terms, one qubit at a
    time.  A bond's XX and YY strings flip the same two bits, one of
    them auxiliary, so it has one entry per column, off the chain's
    entries, gamma_+ -/+ gamma_- as the two bits agree or differ, summed
    and then scaled by the coupling, and added onto the chain's zero.
    Every entry is thus the complex sum's, bit for bit.
    """
    n, n_aux = setup.n_system, setup.n_aux
    e_a = code.gap if setup.aux_energy is None else setup.aux_energy
    chain = code.hamiltonian.real
    index = np.arange(2 ** (n + n_aux))
    bonds = []
    for j in range(n_aux):
        for j_bond, site in ((setup.j_1, j), (setup.j_2, j + 1)):
            if j_bond != 0.0:
                flip = (1 << (n + n_aux - 1 - site)) | (1 << (n_aux - 1 - j))
                differ = np.bitwise_count(index & flip) == 1
                bond = setup.gamma_plus + np.where(differ, setup.gamma_minus, -setup.gamma_minus)
                bonds.append((flip, j_bond * bond))
    diagonal = chain.diagonal()[index >> n_aux]
    for j in range(n_aux):  # E_A |1><1| on qubit n + j
        diagonal = diagonal + e_a * ((index >> (n_aux - 1 - j)) & 1)
    where = np.empty_like(index)

    def block(rows, cols):
        aux = 2**n_aux - 1
        out = chain[np.ix_(rows >> n_aux, cols >> n_aux)]
        out *= np.equal.outer(rows & aux, cols & aux)
        where[:] = -1
        where[cols] = np.arange(cols.size)
        at = where[rows]
        hit = at >= 0
        out[hit, at[hit]] = diagonal[rows[hit]]
        for flip, bond in bonds:
            at = where[rows ^ flip]
            hit = at >= 0
            out[hit, at[hit]] += bond[rows[hit]]
        return out

    return block, bonds, diagonal


def _xy_spectrum(setup: XYSetup, code: CodeModel, adapted: bool) -> SpectralDecomposition:
    """The spectrum of :func:`build_xy_setup`'s matrix, built and solved one conserved sector at a time.

    The bonds conserve the total magnetization at gamma = 0 and the
    parity otherwise; a chain entry or a nonzero bond across sectors
    raises.  :func:`_sector_spectrum` solves the sectors of
    :func:`_xy_entries`' matrix, whole or, with ``adapted``, in the
    halves of :meth:`XYSetup.reflection`.  Each matrix solved, the
    hermiticity check and the eigenvalue order are bit for bit those of
    the dense oracle ``reflected_eig`` in ``tests/oracles.py``, wherever
    its blocks are the sectors.

    With ``adapted`` the reflection, a permutation of the bits that
    keeps every sector, must keep the matrix bit for bit, or it raises:
    it must keep the chain and the diagonal, and map each bond's entries
    onto those of its mirror bond (no two of the three terms share an
    entry).  The eigenvectors then lie in the reflection-adapted system
    basis of :func:`_reflected_ensemble`, for auxiliary states that the
    reversal of the auxiliary qubits keeps, and :func:`round_contraction`
    with such states gives the operators straight in that basis.
    """
    n, n_aux = setup.n_system, setup.n_aux
    block, bonds, diagonal = _xy_entries(setup, code)
    magnetization = setup.gamma == 0.0
    labels = _sector_labels(n + n_aux, magnetization)
    image = setup.reflection() if adapted else np.arange(labels.size)
    _check_chain(
        code.hamiltonian.real, _sector_labels(n, magnetization), image[:: 2**n_aux] >> n_aux if adapted else None
    )
    for flip, bond in bonds:
        if bond[labels[np.arange(labels.size) ^ flip] != labels].any():
            raise ValueError(f"a bond that flips bits {flip:#b} leaves its sector")
    if adapted:
        by_flip = dict(bonds)
        if not (
            np.array_equal(diagonal[image], diagonal)
            and all(
                np.array_equal(by_flip[int(image[flip])][image], bond) if int(image[flip]) in by_flip else not bond.any()
                for flip, bond in bonds
            )
        ):
            raise ValueError("the wiring's reflection does not keep the joint Hamiltonian")
    return _sector_spectrum(block, labels, image, n_aux)


@dataclass(frozen=True)
class ChainBenchmarkRow:
    """One reference row: chain size, wiring, settings, published metrics.

    ``axis``/``sign`` name the cardinal logical target as printed in the
    source listing; the reproduced report resolves which of the two
    states on that axis actually matches (the listing's z labels are
    swapped relative to this package's logical-Z convention).
    """

    index: int
    n_sites: int
    axis: str
    sign: str
    j_2: float
    gamma: float
    settings: tuple[tuple[float, float, int], ...]  # (a, b, k) per auxiliary qubit
    m_min_066: int
    p_066: float
    m_min_090: int
    p_090: float
    max_fidelity: float
    note: str = ""


def _pi(x: float) -> float:
    return float(x * np.pi)


CHAIN_BENCHMARK: tuple[ChainBenchmarkRow, ...] = (
    ChainBenchmarkRow(1, 2, "z", "+", 0.0, 0.0, ((0.0, 0.0, +1),), 4, 0.36, 6, 0.287, 1.0),
    ChainBenchmarkRow(2, 2, "z", "-", 1.0, 1.0, ((0.0, 0.0, +1),), 2, 0.36, 4, 0.287, 1.0),
    ChainBenchmarkRow(3, 2, "x", "+", 0.0, 0.85, ((_pi(0.907), _pi(0.78), -1),), 6, 0.022, 12, 0.001, 0.996),
    ChainBenchmarkRow(4, 2, "x", "-", 0.0, 0.85, ((_pi(0.093), _pi(0.78), +1),), 6, 0.022, 12, 0.001, 0.996),
    ChainBenchmarkRow(5, 2, "y", "+", 0.0, -0.85, ((_pi(0.093), _pi(0.22), +1),), 7, 0.011, 13, 1e-4, 0.995),
    ChainBenchmarkRow(
        6, 2, "y", "-", 0.0, -0.85, ((_pi(0.907), _pi(0.22), -1),), 7, 0.011, 13, 1e-4, 0.995,
        note="polar angle corrected from 0.0907 pi to 0.907 pi (mirror of the y+ row)",
    ),
    ChainBenchmarkRow(7, 4, "z", "+", 0.0, 0.0, ((0.0, 0.0, +1),) * 2, 6, 0.111, 10, 0.091, 1.0),
    ChainBenchmarkRow(8, 4, "z", "-", 1.0, 0.17, ((0.0, 0.0, +1),) * 2, 12, 0.091, 35, 0.036, 0.993),
    ChainBenchmarkRow(9, 6, "z", "+", 0.0, 0.0, ((0.0, 0.0, +1),) * 2, 15, 0.034, 24, 0.026, 1.0),
    ChainBenchmarkRow(10, 6, "z", "-", 1.0, 0.19, ((0.0, 0.0, +1),) * 2, 24, 0.008, 47, 0.001, 0.985),
    ChainBenchmarkRow(11, 8, "z", "+", 0.0, 0.0, ((0.0, 0.0, +1),) * 2, 31, 0.010, 50, 0.007, 1.0),
    ChainBenchmarkRow(12, 8, "z", "-", 1.0, 0.2, ((0.0, 0.0, +1),) * 2, 80, 1e-6, 223, 1e-11, 0.965),
)


def _row_metrics(traj: EmrTrajectory, max_rounds: int) -> dict:
    fmax = float(np.max(traj.fidelity)) if traj.n_rounds else 0.0
    out = {"max_fidelity": fmax, "n_rounds": traj.n_rounds, "truncated": traj.truncated}
    for thresh, mkey, pkey in ((0.66, "m_min_066", "p_066"), (0.9, "m_min_090", "p_090")):
        m = find_m_min(traj, thresh, max_rounds=max_rounds)
        out[mkey] = m
        out[pkey] = float(traj.p_cumulative[m - 1]) if m is not None else None
    return out


def reproduce_table1(
    rows: list[int] | None = None,
    beta: float = 0.1,
    duration: float = 1.0,
    j_1: float = 1.0,
    aux_energy: float | None = None,
    max_rounds: int = 500,
) -> dict:
    """Recompute the chain benchmark table and report deltas.

    For every selected row both cardinal states on the printed axis are
    tried as the target, under the keep policy (and additionally the
    reset policy whenever any measurement angle is away from 0 or pi,
    where the two differ); the candidate with the highest trajectory
    fidelity is reported as the match.  ``aux_energy=None`` applies the
    fitted :data:`CALIBRATED_AUX_ENERGY`.  ``rows`` holds 1-based table
    indices (all rows when None); an empty list, or an index the table
    lacks, raises, as does a NaN or infinite ``beta``, ``duration``,
    ``j_1`` or ``aux_energy``.

    A row whose joint matrix has fewer than
    :data:`~logipure.operators.SPLIT_MIN_ROWS` rows is built whole and
    solved by :func:`~logipure.operators.hermitian_eig`; a larger one is
    built and solved one conserved sector at a time
    (:func:`_xy_spectrum`).  When such a row's wiring keeps a reflection
    (:attr:`XYSetup.reflection_centre`) and its auxiliary qubits share
    one setting whose states lie in one auxiliary sector, it runs in the
    reflection-adapted system basis: its sectors are solved in halves,
    whose coordinates give the round operators straight in that basis;
    the thermal factor is solved again by the same sector solver, as the
    chain's magnetization sectors in halves (:func:`_reflected_ensemble`);
    and the target rows move to it.  A chain or a wiring that the
    reflection does not keep bit for bit raises; there is no fallback to
    the computational basis.  Other rows run in the computational basis.
    Each row's spectrum is dropped once its round operators exist.

    Rows with the same chain size, basis and conserved quantity share
    one thermal factor, made when their group runs, and run all their
    (row, policy) cells in one kernel pass, scored against every
    cardinal target of the group; the kernel finds the blocks of their
    operators from the nonzero pattern.
    Each group is taken off the list as its pass stacks its operators,
    so no row's operators are held twice, or into a later group's pass,
    and a group whose first- and later-round operators are the same
    operator stacks it once.
    """
    if rows is not None:
        unknown = sorted(set(rows) - {r.index for r in CHAIN_BENCHMARK})
        if unknown:
            raise ValueError(f"unknown table1 rows {unknown}; the table has rows 1-{len(CHAIN_BENCHMARK)}")
        if not rows:
            raise ValueError(f"rows must name at least one table1 row; the table has rows 1-{len(CHAIN_BENCHMARK)}")
    for name, value in (("beta", beta), ("duration", duration), ("j_1", j_1), ("aux_energy", aux_energy)):
        if value is not None:
            require_finite(name, value)
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta}")
    e_a = CALIBRATED_AUX_ENERGY if aux_energy is None else aux_energy
    selected = [r for r in CHAIN_BENCHMARK if rows is None or r.index in rows]
    report = {
        "parameters": {
            "beta": beta,
            "duration": duration,
            "j_1": j_1,
            "aux_energy": e_a,
            "aux_energy_policy": "calibrated" if aux_energy is None else "explicit",
            "max_rounds": max_rounds,
        },
        "rows": [],
    }
    signs = ("+", "-")
    chains: dict[int, CodeModel] = {}
    prepared = []  # (row, policies) per selected row
    groups: dict[tuple, list] = {}  # (chain size, reflection centre, conserved quantity) -> its cells
    for row in selected:
        if row.n_sites not in chains:
            chains[row.n_sites] = build_heisenberg_code(HeisenbergSpec(n_qubits=row.n_sites))
        code = chains[row.n_sites]
        setup = XYSetup(
            n_system=row.n_sites,
            n_aux=len(row.settings),
            j_1=j_1,
            j_2=row.j_2,
            gamma=row.gamma,
            aux_energy=e_a,
        )
        rounds = RoundSpec(duration, tuple(MeasurementSetting(a=a, b=b, k=k) for a, b, k in row.settings))
        pole_angles = all(
            abs(a) < 1e-12 or abs(a - np.pi) < 1e-12 for a, _, _ in row.settings
        )
        policies = (KEEP,) if pole_angles else (KEEP, RESET)
        centre = magnetization = None
        if 2 ** (row.n_sites + setup.n_aux) < SPLIT_MIN_ROWS:
            spectral = hermitian_eig(_xy_hamiltonian(setup, code))
        else:
            magnetization = setup.gamma == 0.0
            # The measured states and |0...0> lie in one sector of the auxiliary qubits and, shared
            # by all of them, are kept by their reversal: the operators keep the reflection's halves.
            measured = kron_all([setting.state() for setting in rounds.settings]) != 0
            measured[0] = True
            if len(set(row.settings)) == 1 and np.ptp(_sector_labels(setup.n_aux, magnetization)[measured]) == 0:
                centre = setup.reflection_centre
            spectral = _xy_spectrum(setup, code, centre is not None)
        group = groups.setdefault((row.n_sites, centre, magnetization), [])
        for policy in policies:
            group.append((row, policy, *_round_operators(spectral, [duration], [rounds.settings], policy)))
        del spectral
        prepared.append((row, policies))

    runs = {}  # (row index, policy) -> {cardinal: trajectory}
    for key in list(groups):
        n_sites, centre, _ = key
        cells = groups.pop(key)
        k_first = np.concatenate([kf for _, _, kf, _ in cells])
        same = all(kl is kf for _, _, kf, kl in cells)  # one operator for the first and later rounds
        k_later = k_first if same else np.concatenate([kl for _, _, _, kl in cells])
        cells = [(row, policy) for row, policy, _, _ in cells]
        code = chains[n_sites]
        labels = list(dict.fromkeys(row.axis + sign for row, _ in cells for sign in signs))
        targets = np.stack([cardinal_state(code, label) for label in labels])
        if centre is None:
            ensemble = thermal_ensemble([code], beta)
        else:
            image = _site_reflection(n_sites, centre)
            ensemble, targets = _reflected_ensemble(code, beta, image), _reflected_rows(targets, image)
        trajectories = _trajectories(k_first, k_later, ensemble, targets, max_rounds)
        del k_first, k_later, ensemble
        for (row, policy), per_target in zip(cells, trajectories):
            runs[row.index, policy] = dict(zip(labels, per_target))

    for row, policies in prepared:
        candidates = [
            {
                "cardinal": row.axis + sign,
                "policy": policy,
                **_row_metrics(runs[row.index, policy][row.axis + sign], max_rounds),
            }
            for sign in signs
            for policy in policies
        ]

        matched = max(candidates, key=lambda c: c["max_fidelity"])
        keys = ("m_min_066", "p_066", "m_min_090", "p_090", "max_fidelity")
        reference = {key: getattr(row, key) for key in keys}
        deltas = {k: None if matched[k] is None else float(matched[k] - ref) for k, ref in reference.items()}
        report["rows"].append(
            {
                "row": row.index,
                "n_sites": row.n_sites,
                "printed_target": row.axis + row.sign,
                "j_2": row.j_2,
                "gamma": row.gamma,
                "settings": [list(s) for s in row.settings],
                "note": row.note,
                "reference": reference,
                "candidates": candidates,
                "matched": matched,
                "deltas": deltas,
            }
        )
    return report
