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
protocol family.
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
    PauliString,
    SpectralDecomposition,
    hermitian_eig,
    kron,
    kron_all,
    pauli_on_sites,
    pauli_sum,
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
        if self.duration <= 0:
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
    pass the fitted :data:`CALIBRATED_AUX_ENERGY` instead.
    """

    n_system: int
    n_aux: int = 1
    j_1: float = 1.0
    j_2: float = 0.0
    gamma: float = 0.0
    aux_energy: float | None = None

    def __post_init__(self):
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
    def gamma_plus(self) -> float:
        return (1.0 + self.gamma) / 2.0

    @property
    def gamma_minus(self) -> float:
        return (1.0 - self.gamma) / 2.0


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
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta}")
    factors = []
    for code in codes:
        spec = code.spectrum
        w = spec.eigenvalues
        weights = np.exp(-beta * (w - w[0]))
        weights /= weights.sum()
        factors.append(spec.eigenvectors * np.sqrt(weights))
    return kron_all(factors)


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
    """
    psi_out = np.stack([kron_all([s.state() for s in cell]) for cell in cells])
    ket0 = np.broadcast_to(kron_all([KET_0] * len(cells[0])), psi_out.shape)
    aq_in = np.stack([ket0] if aq_reset == RESET else [ket0, psi_out])
    ops = round_contraction(spectral, durations, psi_out, aq_in)
    return ops[:, 0].reshape(-1, *ops.shape[-2:]), ops[:, -1].reshape(-1, *ops.shape[-2:])


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
    return _group_trajectories(ensemble, require_unit(target)[None], [(spectral, rounds, aq_reset)], max_rounds)[0][0]


def _group_trajectories(ensemble, targets, cells, max_rounds) -> list[list[EmrTrajectory]]:
    """:func:`fast_trajectory` for a stack of cells sharing an ensemble, from one kernel pass.

    ``cells`` holds one (spectral, rounds, policy) triple per cell and
    ``targets`` a stack of target rows; returns, per cell, one
    trajectory per target row, each with arrays of its own.
    """
    operators = []
    for spectral, rounds, policy in cells:
        _check_run(max_rounds, policy)
        operators.append(_round_operators(spectral, [rounds.duration], [rounds.settings], policy))
    k_first, k_later = (np.concatenate(ops) for ops in zip(*operators))
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
    if not f_targets:
        raise ValueError("f_targets must be non-empty")
    for f_target in f_targets:
        _check_f_target(f_target)
    target = require_unit(target)
    k_first, k_later = _round_operators(spectral, durations, settings, aq_reset)
    fid = batch_trajectory_kernel(k_first, k_later, ensemble, target[None], max_rounds)[0][..., 0]
    m_min = np.empty((fid.shape[0], len(f_targets)), dtype=int)
    for j, f_target in enumerate(f_targets):
        hits = fid >= f_target  # fidelities after a stop are zero and every target is positive
        m_min[:, j] = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, -1)
    return m_min.reshape(len(durations), len(settings), len(f_targets))


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
    (p, f), each of shape (len(durations), len(settings)): p clamped at
    0, f NaN where p < :data:`UNATTAINABLE_P` and clipped to [0, 1]
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
    return np.maximum(p, 0.0), np.clip(f, 0.0, 1.0)


def _check_f_target(f_target: float) -> None:
    if not 0.0 < f_target <= 1.0:
        raise ValueError(f"target fidelity must lie in (0, 1], got {f_target}")


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
    the auxiliary splitting on resonance with the chain gap.
    """
    if setup.n_system != heisenberg.n_qubits:
        raise ValueError(
            f"setup is wired for {setup.n_system} sites but the chain has {heisenberg.n_qubits}"
        )
    return _xy_hamiltonian(setup, build_heisenberg_code(heisenberg))


def _xy_hamiltonian(setup: XYSetup, code: CodeModel) -> np.ndarray:
    """:func:`build_xy_setup` on an already built chain code."""
    n, n_aux = setup.n_system, setup.n_aux
    n_tot = n + n_aux
    e_a = code.gap if setup.aux_energy is None else setup.aux_energy

    h = kron(code.hamiltonian, np.eye(2**n_aux))
    index = np.arange(2**n_tot)
    for j in range(n_aux):
        h[index, index] += e_a * ((index >> (n_aux - 1 - j)) & 1)  # E_A |1><1| on qubit n + j
        for j_bond, site in ((setup.j_1, j), (setup.j_2, j + 1)):
            if j_bond != 0.0:
                xx, yy = (pauli_on_sites(n_tot, (site, n + j), p + p) for p in "XY")
                bond = pauli_sum([PauliString(xx, setup.gamma_plus), PauliString(yy, setup.gamma_minus)])
                h += j_bond * bond  # summed, then scaled: scaling each term would round differently
    return h


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
    lacks, raises.

    Rows with the same chain size share the thermal ensemble; those whose
    joint spectra also split into the same blocks run all their (row,
    policy) cells in one :func:`batch_trajectory_kernel` pass, scored
    against every cardinal target of the group.  Rows whose blocks differ
    run apart, since a stack takes the union of its cells' blocks.
    """
    if rows is not None:
        unknown = sorted(set(rows) - {r.index for r in CHAIN_BENCHMARK})
        if unknown:
            raise ValueError(f"unknown table1 rows {unknown}; the table has rows 1-{len(CHAIN_BENCHMARK)}")
        if not rows:
            raise ValueError(f"rows must name at least one table1 row; the table has rows 1-{len(CHAIN_BENCHMARK)}")
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
    chains: dict[int, tuple[CodeModel, np.ndarray]] = {}
    prepared = []  # (row, spectral, rounds, policies) per selected row
    groups: dict[tuple, list] = {}  # (chain size, block partition) -> its entries of ``prepared``
    for row in selected:
        if row.n_sites not in chains:
            chain = build_heisenberg_code(HeisenbergSpec(n_qubits=row.n_sites))
            chains[row.n_sites] = (chain, thermal_ensemble([chain], beta))
        setup = XYSetup(
            n_system=row.n_sites,
            n_aux=len(row.settings),
            j_1=j_1,
            j_2=row.j_2,
            gamma=row.gamma,
            aux_energy=e_a,
        )
        spectral = hermitian_eig(_xy_hamiltonian(setup, chains[row.n_sites][0]))
        rounds = RoundSpec(duration, tuple(MeasurementSetting(a=a, b=b, k=k) for a, b, k in row.settings))
        pole_angles = all(
            abs(a) < 1e-12 or abs(a - np.pi) < 1e-12 for a, _, _ in row.settings
        )
        policies = (KEEP,) if pole_angles else (KEEP, RESET)
        partition = tuple(block_rows.tobytes() for block_rows, _, _ in spectral.blocks)
        prepared.append((row, spectral, rounds, policies))
        groups.setdefault((row.n_sites, partition), []).append(prepared[-1])

    runs = {}  # (row index, policy) -> {cardinal: trajectory}
    for (n_sites, _), members in groups.items():
        code, ensemble = chains[n_sites]
        labels = list(dict.fromkeys(row.axis + sign for row, *_ in members for sign in signs))
        targets = np.stack([cardinal_state(code, label) for label in labels])
        keys = [(row.index, policy) for row, _, _, policies in members for policy in policies]
        cells = [(spectral, rounds, policy) for _, spectral, rounds, policies in members for policy in policies]
        for key, per_target in zip(keys, _group_trajectories(ensemble, targets, cells, max_rounds)):
            runs[key] = dict(zip(labels, per_target))

    for row, _, _, policies in prepared:
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
