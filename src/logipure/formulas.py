"""Closed-form expressions for postselection probability and fidelity.

These are the analytic counterparts of the numeric pipeline (evolve,
measure, condition): the success probability of the +1 outcome for a
general measurement direction, its resonant special case, the resonant
conditioned fidelity, and the inversion that picks the measurement
angle achieving a prescribed fidelity.  Each is used as an independent
oracle against the dense simulation in the test suite.  The resonant
probability and fidelity also evaluate on whole broadcast arrays of
angles and times (:func:`resonant_plus`, one :class:`ThermalSpec` per
call), which is how a parameter plane is swept; the scalar functions
are its one-point case.
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


def _squared(x) -> np.ndarray:
    """``x ** 2`` of every element, rounded as a numpy scalar's ``**`` rounds it.

    A scalar's power calls C ``pow``; an array's ``** 2`` multiplies x * x,
    which differs in the last bit about once in a thousand.  Taking the
    scalar route element by element keeps the array evaluation
    bit-identical to the scalar one.
    """
    x = np.asarray(x, dtype=float)
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


def _trig_squares(a, t, g: float) -> tuple[np.ndarray, ...]:
    """sin^2(a/2), cos^2(a/2), sin^2(gt) and cos^2(gt), each on its argument's own shape."""
    half, gt = np.divide(a, 2), np.multiply(g, t)
    return _squared(np.sin(half)), _squared(np.cos(half)), _squared(np.sin(gt)), _squared(np.cos(gt))


def _p_resonant(squares: tuple[np.ndarray, ...], p_weight: float) -> np.ndarray:
    s2, c2, sg2, cg2 = squares
    return p_weight * (sg2 * s2 + cg2 * c2) + (1.0 - p_weight) * c2


def resonant_plus(a, t, g: float, thermal: ThermalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Resonant +1-outcome probability and conditioned fidelity on broadcast arrays.

    ``a`` and ``t`` broadcast against each other (pass ``t[:, None]`` and
    ``a[None, :]`` for a (t, a) plane); the trigonometric terms are
    taken on each argument's own shape.  Returns (p, f) in the shape of
    the broadcast, with f NaN wherever p < :data:`NODE_TOL` (a = pi at a
    Rabi node).  :func:`p_plus_resonant` and :func:`f_plus_resonant` are
    its scalar case, bit for bit.
    """
    squares = _trig_squares(a, t, g)
    s2, c2, sg2, _ = squares
    pw = thermal.p_weight
    p = _p_resonant(squares, pw)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (c2 / thermal.z_total + pw * sg2 * s2) / p
    return p, np.where(p < NODE_TOL, np.nan, f)


def p_plus_resonant(a: float, t: float, g: float, p_weight: float) -> float:
    """Resonant +1-outcome probability for measurement direction ``a``.

    p = p_w [sin^2(gt) sin^2(a/2) + cos^2(gt) cos^2(a/2)]
        + (1 - p_w) cos^2(a/2).
    """
    if not 0.0 <= p_weight <= 1.0:
        raise ValueError(f"thermal weight must lie in [0, 1], got {p_weight}")
    return float(_p_resonant(_trig_squares(a, t, g), p_weight))


def f_plus_resonant(a: float, t: float, g: float, beta: float, codes: list[CodeModel]) -> float:
    """Resonant fidelity of the system conditioned on the +1 outcome.

    f = p^{-1} [Z_L^{-1} cos^2(a/2) + p_w sin^2(gt) sin^2(a/2)].
    The scalar case of :func:`resonant_plus`; raises at zero-probability
    points (a = pi at a Rabi node), where that gives NaN.
    """
    p, f = resonant_plus(a, t, g, ThermalSpec.from_codes(codes, beta))
    if np.isnan(f):
        raise ValueError(f"outcome probability {float(p):.3e} vanishes at (a={a}, t={t}): fidelity undefined")
    return float(f)


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
