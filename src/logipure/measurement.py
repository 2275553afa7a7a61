"""Auxiliary-qubit projective measurements and single-shot purification.

Each auxiliary qubit is measured along an arbitrary Bloch direction
(polar angle ``a``, azimuth ``b``); outcome ``k = +1`` projects onto

    |psi^(+1)> = cos(a/2)|0> + e^{ib} sin(a/2)|1>

and ``k = -1`` onto its orthogonal complement.  Conditioning the evolved
joint state on an outcome steers the system toward the logical target.
The measurement is rank one on the auxiliary factor, so the conditioned
system state is the contraction <psi|rho|psi> over the auxiliary axes
alone; no joint-dimension projector is formed.  The records returned
here carry the outcome probability, the conditioned system state and
its fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .codes import CodeModel
from .interaction import AuxiliarySpec, InteractionSpec, joint_target_state
from .operators import fidelity_pure, kron_all
from .thermal import ThermalSpec, evolved_joint_state

# Outcomes with conditional probability below this are physically
# unreachable at working precision and are flagged, not normalized.
UNATTAINABLE_P = 1e-14


@dataclass(frozen=True)
class MeasurementSetting:
    """Measurement direction (a, b) and the postselected outcome k."""

    a: float
    b: float = 0.0
    k: int = 1

    def __post_init__(self):
        if not 0.0 <= self.a <= np.pi:
            raise ValueError(f"polar angle a must lie in [0, pi], got {self.a}")
        if not 0.0 <= self.b <= 2 * np.pi:
            raise ValueError(f"azimuth b must lie in [0, 2 pi], got {self.b}")
        if self.k not in (+1, -1):
            raise ValueError(f"outcome k must be +1 or -1, got {self.k}")

    def state(self, k: int | None = None) -> np.ndarray:
        """Single-qubit state projected onto by outcome ``k`` (default: own k)."""
        k = self.k if k is None else k
        c, s = np.cos(self.a / 2), np.sin(self.a / 2)
        ph = np.exp(1j * self.b)
        if k == +1:
            return np.array([c, ph * s], dtype=complex)
        return np.array([s, -ph * c], dtype=complex)


@dataclass(frozen=True)
class PurificationRecord:
    """One conditioned outcome: probability, fidelity, and post system state.

    ``fidelity`` is NaN when no target was supplied.  Unattainable
    outcomes (probability below :data:`UNATTAINABLE_P`) carry no post
    state and a NaN fidelity.
    """

    outcome: tuple[int, ...]
    probability: float
    fidelity: float
    post_system_state: np.ndarray | None
    attainable: bool


def measure_aq(
    rho_joint: np.ndarray,
    n_aux: int,
    settings: tuple[MeasurementSetting, ...] | list[MeasurementSetting],
    target: np.ndarray | None = None,
) -> dict[tuple[int, ...], PurificationRecord]:
    """Measure the trailing ``n_aux`` qubit factors of a joint state.

    Returns one record per outcome tuple in {+1, -1}^n_aux, keyed by the
    outcomes.  Probabilities sum to one, each clipped to [0, 1] against
    roundoff; each attainable record carries the renormalized system
    state <psi|rho|psi> / p, contracted on the auxiliary axes with the
    outcome's product state psi, and its fidelity against ``target``
    (NaN if none given).
    """
    settings = tuple(settings)
    if len(settings) != n_aux:
        raise ValueError(f"{n_aux} auxiliary qubits need {n_aux} settings, got {len(settings)}")
    dim = rho_joint.shape[0]
    d_a = 2**n_aux
    d_s = dim // d_a
    if d_s * d_a != dim:
        raise ValueError(f"joint dimension {dim} does not factor into system x {n_aux} qubits")

    blocks = np.asarray(rho_joint).reshape(d_s, d_a, d_s, d_a)
    records: dict[tuple[int, ...], PurificationRecord] = {}
    for outcome in product((+1, -1), repeat=n_aux):
        psi = kron_all([s.state(k) for s, k in zip(settings, outcome)])
        unnorm = np.einsum("a,iajb,b->ij", psi.conj(), blocks, psi)
        prob = float(np.real(np.trace(unnorm)))
        if prob < UNATTAINABLE_P:
            records[outcome] = PurificationRecord(
                outcome=outcome,
                probability=max(prob, 0.0),
                fidelity=float("nan"),
                post_system_state=None,
                attainable=False,
            )
            continue
        post_system = unnorm / prob
        fid = float("nan") if target is None else fidelity_pure(post_system, target)
        records[outcome] = PurificationRecord(
            outcome=outcome,
            probability=min(prob, 1.0),
            fidelity=fid,
            post_system_state=post_system,
            attainable=True,
        )
    return records


def purify_records(
    codes: list[CodeModel],
    spec: InteractionSpec,
    aux: AuxiliarySpec,
    thermal: ThermalSpec,
    t: float,
    settings: tuple[MeasurementSetting, ...],
) -> dict[tuple[int, ...], PurificationRecord]:
    """Evolve the thermal state for time ``t`` and measure the auxiliary qubits along ``settings``.

    Returns the record of every outcome tuple, as :func:`measure_aq`
    does, with fidelities against the joint logical target of ``spec``.
    """
    rho_t = evolved_joint_state(codes, spec, aux, thermal, t)
    return measure_aq(rho_t, aux.count, settings, target=joint_target_state(codes, spec.targets))


def purify_once(
    codes: list[CodeModel],
    spec: InteractionSpec,
    aux: AuxiliarySpec,
    thermal: ThermalSpec,
    t: float,
    settings: tuple[MeasurementSetting, ...] | MeasurementSetting,
) -> PurificationRecord:
    """Evolve the thermal state for time ``t`` and postselect the settings' outcomes.

    Returns the record of the outcome tuple named by the settings
    themselves; the fidelity is taken against the joint logical target
    of ``spec``.
    """
    if isinstance(settings, MeasurementSetting):
        settings = (settings,)
    return purify_records(codes, spec, aux, thermal, t, settings)[tuple(s.k for s in settings)]
