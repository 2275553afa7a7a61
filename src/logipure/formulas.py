"""Closed-form expressions for postselection probability and fidelity.

These are the analytic counterparts of the numeric pipeline (evolve,
measure, condition): the success probability of the +1 outcome for a
general measurement direction, its resonant special case, the resonant
conditioned fidelity, and the inversion that picks the measurement
angle achieving a prescribed fidelity.  Each is used as an independent
oracle against the dense simulation in the test suite, and as the fast
path for large parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeModel
from .thermal import ResonanceContext, ThermalSpec, evolution_coefficients

# sin^2(gt) below this counts as an exact Rabi node, where conditioning
# on the +1 outcome at a=pi has zero probability.
NODE_TOL = 1e-14


@dataclass(frozen=True)
class InversionResult:
    """Measurement angle achieving a target fidelity, if one exists.

    ``a`` is None when the target is unreachable; ``discriminant`` is the
    positivity combination whose sign decides reachability (callers can
    report it alongside the failure).
    """

    a: float | None
    discriminant: float

    @property
    def attainable(self) -> bool:
        return self.a is not None


def p_beta(codes: list[CodeModel], beta: float) -> float:
    """Joint thermal weight of the uniform excited product state.

    prod_i exp(-beta gap_i) / Z_i, computed from the full spectrum of
    each code Hamiltonian.  At beta=0 this is prod_i 1/D_i.
    """
    return ThermalSpec.from_codes(codes, beta).p_weight


def p_plus_general(ctx: ResonanceContext, thermal: ThermalSpec, t: float) -> float:
    """Probability of the +1 outcome for a = pi at arbitrary detuning.

    Equals the excited-pair population p1(t): 4 g^2 p_w [E_+^2/G_+^2 +
    E_-^2/G_-^2 + 2 E_+ E_- cos(Ft)/(G_+ G_-)].
    """
    return evolution_coefficients(ctx, thermal, t).p1


def p_plus_resonant(a: float, t: float, g: float, p_weight: float) -> float:
    """Resonant +1-outcome probability for measurement direction ``a``.

    p = p_w [sin^2(gt) sin^2(a/2) + cos^2(gt) cos^2(a/2)]
        + (1 - p_w) cos^2(a/2).
    """
    if not 0.0 <= p_weight <= 1.0:
        raise ValueError(f"thermal weight must lie in [0, 1], got {p_weight}")
    s2, c2 = np.sin(a / 2) ** 2, np.cos(a / 2) ** 2
    sg2, cg2 = np.sin(g * t) ** 2, np.cos(g * t) ** 2
    return float(p_weight * (sg2 * s2 + cg2 * c2) + (1.0 - p_weight) * c2)


def f_plus_resonant(a: float, t: float, g: float, beta: float, codes: list[CodeModel]) -> float:
    """Resonant fidelity of the system conditioned on the +1 outcome.

    f = p^{-1} [Z_L^{-1} cos^2(a/2) + p_w sin^2(gt) sin^2(a/2)].
    Raises at zero-probability points (a = pi at a Rabi node).
    """
    thermal = ThermalSpec.from_codes(codes, beta)
    pw = thermal.p_weight
    p = p_plus_resonant(a, t, g, pw)
    if p < NODE_TOL:
        raise ValueError(f"outcome probability {p:.3e} vanishes at (a={a}, t={t}): fidelity undefined")
    zl = thermal.z_total
    s2 = np.sin(a / 2) ** 2
    c2 = np.cos(a / 2) ** 2
    return float((c2 / zl + pw * np.sin(g * t) ** 2 * s2) / p)


def a_for_fidelity(f_target: float, g: float, t: float, beta: float, codes: list[CodeModel]) -> InversionResult:
    """Measurement angle whose +1 outcome reaches fidelity ``f_target``.

    Inverts the resonant fidelity at fixed (t, beta):

        cos^2(a/2) = (1 - f)(1 - cos 2gt) / B
        B = 2 e^{beta D} Z_L f - 2 e^{beta D} + 2 (1 - 2f) sin^2(gt)

    with D the summed gap.  No angle exists when B <= 0, when the
    quotient exceeds 1, or at a Rabi node with f < 1 (zero outcome
    probability); those return ``a=None`` with the discriminant attached.
    """
    if not 0.0 <= f_target <= 1.0:
        raise ValueError(f"target fidelity must lie in [0, 1], got {f_target}")
    delta_sum = float(sum(c.gap for c in codes))
    zl = ThermalSpec.from_codes(codes, beta).z_total
    boltz = float(np.exp(beta * delta_sum))
    s2 = float(np.sin(g * t) ** 2)
    disc = 2.0 * boltz * zl * f_target - 2.0 * boltz + 2.0 * (1.0 - 2.0 * f_target) * s2

    if s2 < NODE_TOL and f_target < 1.0:
        return InversionResult(a=None, discriminant=disc)
    if disc <= 0.0:
        return InversionResult(a=None, discriminant=disc)
    arg = (1.0 - f_target) * (1.0 - np.cos(2.0 * g * t)) / disc
    if arg > 1.0 + 1e-12:
        return InversionResult(a=None, discriminant=disc)
    a = 2.0 * np.arccos(np.sqrt(min(max(arg, 0.0), 1.0)))
    return InversionResult(a=float(a), discriminant=disc)
