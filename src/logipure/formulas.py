"""Closed-form expressions for postselection probability and fidelity.

These are the analytic counterparts of the numeric pipeline (evolve,
measure, condition): the resonant success probability of the +1
outcome for a general measurement direction, the resonant conditioned
fidelity, and the inversion that picks the measurement angle achieving
a prescribed fidelity.  Each is used as an independent oracle against
the dense simulation in the test suite.  The resonant probability and
fidelity also evaluate on whole broadcast arrays of angles and times
(:func:`resonant_plus`, one :class:`ThermalSpec` per call), which is
how a parameter plane is swept; the scalar functions are its one-point
case.  Repeated rounds of the rank-one coupling close on a 2 x 2 block
and one scalar per cell, at any detuning and for any number of codes:
:func:`emr_rank_one` runs a whole plane of such trajectories without
building any joint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .codes import CodeModel
from ._kernels import SMALLEST_NORMAL, _settle, _stops
from .emr import RESET, _check_run
from .measurement import MeasurementSetting
from .thermal import ResonanceContext, ThermalSpec

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


def emr_rank_one(
    ctx: ResonanceContext,
    thermal: ThermalSpec,
    durations,
    settings: list[MeasurementSetting],
    max_rounds: int,
    aq_reset: str,
):
    """Evolve-measure-repeat trajectories of the rank-one coupling, from one 2 x 2 recursion per cell.

    The cells are every (duration, setting) pair, duration-major: cell
    i len(settings) + j runs rounds of duration ``durations[i]`` and
    measures the auxiliary qubit with ``settings[j]``, postselecting its
    own outcome, under the reset policy ``aq_reset``.  ``ctx`` holds the
    coupling g, the auxiliary splitting E_A and the codes' summed gap
    Delta, and ``thermal`` their bath.  Returns what
    :func:`~logipure._kernels.batch_trajectory_kernel` returns for the
    joint Hamiltonian of the coupling and the one target Psi:
    (fidelity, p_round, p_cum, n_rounds, reasons), the arrays of shape
    (n_cells, max_rounds) and (n_cells,), with the kernel's stop rules
    (:func:`~logipure._kernels._stops`) and zeros after a stop.

    The coupling g |Psi><Phi| (x) |1><0| + h.c. joins only |Psi, 1> and
    |Phi, 0>, where Psi (energy 0) and Phi (energy Delta) are eigenstates
    of the codes' H_S.  In an H_S eigenbasis holding both, every other
    state |e, s> keeps its energy E_e + s E_A.  So a round that enters
    with the auxiliary state i0 |0> + i1 |1> and postselects <out| acts
    on (Psi, Phi) as the block

        B = [[o0 i0 + o1 i1 u_PP,  o1 i0 u_PF                          ],
             [o0 i1 u_FP,          o0 i0 u_FF + o1 i1 e^{-i (Delta + E_A) t}]],

    with o = conj(out) and u = exp(-i t [[E_A, g], [g, Delta]]) on
    (|Psi, 1>, |Phi, 0>), and on every other eigenstate as the scalar
    c = o0 i0 + o1 i1 e^{-i E_A t} times a phase.  The thermal state is
    diagonal in that basis, with weight p_Psi = 1/Z on Psi and p_Phi =
    ``thermal.p_weight`` on Phi.  Round r thus leaves x_r = B_later^(r-1)
    B_first diag(sqrt p_Psi, sqrt p_Phi), with weight

        w_r = ||x_r||_F^2 + (1 - p_Psi - p_Phi) |c_first|^2 |c_later|^(2 (r - 1))

    and target overlap |row Psi of x_r|^2.  The first round enters from
    |0>; a later one from |out> under the keep policy and from |0> under
    the reset policy.  Neither the codes' size nor their number enters.
    (The targeted variant is this coupling with g scaled by the square
    root of the excited degeneracies' product; the ground-preparation
    variant is it with Psi the joint ground state.)

    The powers of B_later run by baby and giant steps, as in the kernel:
    the m = ceil(sqrt(max_rounds)) baby powers, filled by doubling, then
    one block of m rounds per giant step, elementwise on the cells, so
    the working memory is O(n_cells m) beside the outputs.  Every term
    of w_r is a squared modulus or the nonnegative geometric term, so,
    unlike the kernel's Gram products, no weight is a cancelling sum, and
    no cell runs again round by round.
    """
    _check_run(max_rounds, aq_reset)
    t = np.asarray(durations, dtype=float)[:, None]
    out = np.stack([s.state() for s in settings])
    o0, o1 = out[:, 0].conj(), out[:, 1].conj()
    half = 0.5 * ctx.f_rabi * t
    # sin(F t / 2) / (F / 2), t at F = 0: the sine of half itself, not np.sinc's of pi (half / pi),
    # which at large F t is another angle than the cosine's, and u would not be unitary
    sine = np.sin(half) / (0.5 * ctx.f_rabi) if ctx.f_rabi else t
    mean = np.exp(-0.5j * (ctx.e_a + ctx.delta_sum) * t)
    split = 0.5j * (ctx.delta_sum - ctx.e_a) * sine
    u_pp, u_ff, u_pf = mean * (np.cos(half) + split), mean * (np.cos(half) - split), mean * (-1j * ctx.g * sine)
    both, aux = np.exp(-1j * (ctx.delta_sum + ctx.e_a) * t), np.exp(-1j * ctx.e_a * t)

    def block(i0, i1):
        """B, entries on the leading axes, and c of a round entering with i0 |0> + i1 |1>, one per cell."""
        entries = (o0 * i0 + o1 * i1 * u_pp, o1 * i0 * u_pf, o0 * i1 * u_pf, o0 * i0 * u_ff + o1 * i1 * both)
        return np.stack(entries).reshape(2, 2, -1), (o0 * i0 + o1 * i1 * aux).ravel()

    b_first, c_first = block(1.0, 0.0)
    b_later, c_later = (b_first, c_first) if aq_reset == RESET else block(out[:, 0], out[:, 1])
    n_cells, babies = b_first.shape[-1], math.isqrt(max_rounds - 1) + 1
    powers = np.empty((2, 2, babies, n_cells), dtype=complex)
    powers[:, :, 0] = np.eye(2)[..., None]
    filled, step = 1, b_later  # step = B_later^filled; doubling fills the powers in log2(babies) products
    while filled < babies:
        count = min(filled, babies - filled)
        _times(step[:, :, None], powers[:, :, :count], out=powers[:, :, filled : filled + count])
        filled += count
        step = _times(step, step)
    giant = _times(b_later, powers[:, :, -1])

    # the other levels' weight (1 - p_Psi - p_Phi) |c_first|^2 |c_later|^(2 (r - 1)), by the same steps
    p_psi, p_phi = float(np.prod(np.reciprocal(thermal.z_factors))), thermal.p_weight  # 1/Z, which may underflow
    shrink = np.square(np.abs(c_later))
    rest = (1.0 - p_psi - p_phi) * np.square(np.abs(c_first))
    rest_babies = np.power(shrink, np.arange(babies)[:, None])
    rest_giant = rest_babies[-1] * shrink

    # round-major while the blocks fill in, so each block is a run of whole rows
    fid, p_cum = np.empty((2, max_rounds, n_cells))
    product, scratch = np.empty((2, *powers.shape), dtype=complex)
    moduli = np.empty(powers.shape)
    x = b_first * np.sqrt([p_psi, p_phi])[:, None]
    for start in range(0, max_rounds, babies):
        count = min(babies, max_rounds - start)
        rounds = slice(start, start + count)
        x_r = _times(powers[:, :, :count], x[:, :, None], product[:, :, :count], scratch[:, :, :count]).view(float)
        np.square(x_r, out=x_r)
        squares = np.add(x_r[..., ::2], x_r[..., 1::2], out=moduli[:, :, :count])  # |entry|^2 of each x_r
        np.add(squares[0, 0], squares[0, 1], out=fid[rounds])
        np.add(squares[1, 0], squares[1, 1], out=p_cum[rounds])
        p_cum[rounds] += fid[rounds]
        p_cum[rounds] += np.multiply(rest_babies[:count], rest, out=squares[0, 0])  # squares[0, 0] is spent
        stopped = ~(p_cum[start + count - 1] >= SMALLEST_NORMAL)
        if stopped.any():  # no subnormal steps past a stop
            x[..., stopped] = 0.0
        x, rest = _times(giant, x), rest * rest_giant
    fid, p_cum = fid.T.copy(), p_cum.T.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio, n_rounds = _stops(p_cum)
        fid /= p_cum
    return fid, ratio, p_cum, n_rounds, _settle(fid, ratio, p_cum, n_rounds)


def _times(left: np.ndarray, right: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Products of stacked 2 x 2 matrices whose entries lie on the two leading axes.

    Three broadcast operations over contiguous cell arrays, into ``out``
    with ``scratch`` for the second term when given; ``matmul`` on a
    stack of 2 x 2 matrices is several times slower.
    """
    out = np.multiply(left[:, 0, None], right[None, 0], out=out)
    out += np.multiply(left[:, 1, None], right[None, 1], out=scratch)
    return out
