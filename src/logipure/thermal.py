"""Thermal initial states and exact joint evolution.

The initial state is a product of per-code Gibbs states with the
auxiliary register in its ground state.  Under the rank-one engineered
coupling the dynamics closes on a two-level subspace spanned by
|Psi_S, 1_A> and |Phi_S, 0_A>; this module carries both the exact
numeric evolution and the closed-form eigenpairs and population
coefficients of that two-level problem, which serve as independent
oracles for each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeModel
from .interaction import AuxiliarySpec, InteractionSpec, build_interaction, build_total
from .operators import KET_0, KET_1, evolve, gibbs, kron, kron_all, require_finite


@dataclass(frozen=True)
class ThermalSpec:
    """Bath parameters shared by all codes.

    ``z_factors`` are the per-code partition functions and ``p_weight``
    is the joint Boltzmann weight of the uniform excited product state,
    prod_i exp(-beta gap_i) / Z_i.  Build with :meth:`from_codes`, the
    one place both are computed from the codes' spectra.
    """

    beta: float
    z_factors: tuple[float, ...]
    p_weight: float

    def __post_init__(self):
        if require_finite("beta", self.beta) < 0:
            raise ValueError(f"inverse temperature must be >= 0, got {self.beta}")
        if any(z <= 0 for z in self.z_factors):
            raise ValueError("partition functions must be positive")

    @property
    def z_total(self) -> float:
        return float(np.prod(self.z_factors))

    @classmethod
    def from_codes(cls, codes: list[CodeModel], beta: float) -> "ThermalSpec":
        require_finite("beta", beta)  # before the Boltzmann factors, which a NaN or infinity spoils
        zs = []
        weight = 1.0
        for code in codes:
            z = float(np.exp(-beta * code.spectrum.eigenvalues).sum())
            zs.append(z)
            weight *= float(np.exp(-beta * code.gap)) / z
        return cls(beta=beta, z_factors=tuple(zs), p_weight=weight)


@dataclass(frozen=True)
class ResonanceContext:
    """Derived constants of the coupled two-level problem.

    ``delta_sum`` is the summed code gap, ``e_a`` the auxiliary
    splitting, ``g`` the coupling.  The remaining fields are the
    standard combinations:

        F   = sqrt((delta_sum - e_a)^2 + 4 g^2)
        E_+- = delta_sum - e_a +- F
        G_+- = E_+-^2 + 4 g^2
    """

    delta_sum: float
    e_a: float
    g: float
    f_rabi: float
    e_plus: float
    e_minus: float
    g_plus: float
    g_minus: float

    @classmethod
    def build(cls, delta_sum: float, e_a: float, g: float) -> "ResonanceContext":
        detuning = delta_sum - e_a
        f_rabi = float(np.sqrt(detuning**2 + 4.0 * g**2))
        e_plus, e_minus = detuning + f_rabi, detuning - f_rabi
        return cls(
            delta_sum=delta_sum,
            e_a=e_a,
            g=g,
            f_rabi=f_rabi,
            e_plus=e_plus,
            e_minus=e_minus,
            g_plus=e_plus**2 + 4.0 * g**2,
            g_minus=e_minus**2 + 4.0 * g**2,
        )

    @classmethod
    def from_codes(cls, codes: list[CodeModel], e_a: float | None, g: float) -> "ResonanceContext":
        """Context for given codes; ``e_a=None`` means resonant (sum of gaps)."""
        delta_sum = float(sum(c.gap for c in codes))
        return cls.build(delta_sum, delta_sum if e_a is None else e_a, g)

    @property
    def resonant(self) -> bool:
        return abs(self.delta_sum - self.e_a) <= 1e-12 * max(1.0, abs(self.delta_sum))


@dataclass(frozen=True)
class Eigenpair:
    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class BlockCoefficients:
    """Populations and coherence of the coupled pair at time t.

    ``p0`` weights |Phi_S, 0_A>, ``p1`` weights |Psi_S, 1_A> and ``p10``
    is the |Psi_S, 1_A><Phi_S, 0_A| coherence of the evolved thermal
    state.
    """

    p0: float
    p1: float
    p10: complex


def initial_state(codes: list[CodeModel], thermal: ThermalSpec, aux: AuxiliarySpec) -> np.ndarray:
    """prod_i Gibbs(H_i, beta) (x) |0...0_A><0...0_A|."""
    factors = [gibbs(c.hamiltonian, thermal.beta, spectral=c.spectrum)[0] for c in codes]
    ket0 = kron_all([np.outer(KET_0, KET_0.conj())] * aux.count)
    return kron_all(factors + [ket0])


def coupled_eigenpairs(ctx: ResonanceContext, psi: np.ndarray, phi: np.ndarray) -> tuple[Eigenpair, Eigenpair]:
    """Closed-form eigenpairs of the coupled two-level subspace.

    ``psi`` and ``phi`` are the target and excited-superposition system
    states; the returned vectors live on system (x) one auxiliary qubit
    and are exact eigenvectors of the total Hamiltonian:

        lambda_0,1 = (e_a + delta_sum -+ F) / 2.
    """
    if ctx.g == 0:
        raise ValueError("coupling g = 0: the pair does not hybridize")
    g = ctx.g
    psi_1 = kron(psi, KET_1)
    phi_0 = kron(phi, KET_0)
    lam0 = 0.5 * (ctx.e_a + ctx.delta_sum - ctx.f_rabi)
    lam1 = 0.5 * (ctx.e_a + ctx.delta_sum + ctx.f_rabi)
    vec0 = (-2.0 * g / np.sqrt(ctx.g_plus)) * ((ctx.e_plus / (2.0 * g)) * psi_1 - phi_0)
    vec1 = (-2.0 * g / np.sqrt(ctx.g_minus)) * ((ctx.e_minus / (2.0 * g)) * psi_1 - phi_0)
    return Eigenpair(lam0, vec0), Eigenpair(lam1, vec1)


def evolution_coefficients(ctx: ResonanceContext, thermal: ThermalSpec, t: float) -> BlockCoefficients:
    """Closed-form two-level populations of the evolved thermal state.

    Starting from the thermal weight ``p_w`` on |Phi_S, 0_A>, after time
    ``t`` the pair carries

        p0  = 16 g^4 p_w [1/G_+^2 + 1/G_-^2 + 2 cos(Ft)/(G_+ G_-)]
        p1  =  4 g^2 p_w [E_+^2/G_+^2 + E_-^2/G_-^2 + 2 E_+ E_- cos(Ft)/(G_+ G_-)]
        p10 = -8 g^3 p_w [E_+/G_+^2 + E_-/G_-^2 + (E_+ e^{iFt} + E_- e^{-iFt})/(G_+ G_-)]

    The overall sign of ``p10`` follows from the two-level amplitudes
    (beta(t) conj(alpha(t)) carries a factor -2g) and is validated
    against the dense evolution in the test suite.
    """
    if ctx.g == 0:
        raise ValueError("coupling g = 0: coefficients are defined for a hybridized pair")
    g, f = ctx.g, ctx.f_rabi
    gp, gm = ctx.g_plus, ctx.g_minus
    ep, em = ctx.e_plus, ctx.e_minus
    pw = thermal.p_weight
    cos_ft = np.cos(f * t)
    p0 = 16.0 * g**4 * pw * (1.0 / gp**2 + 1.0 / gm**2 + 2.0 * cos_ft / (gp * gm))
    p1 = 4.0 * g**2 * pw * (ep**2 / gp**2 + em**2 / gm**2 + 2.0 * ep * em * cos_ft / (gp * gm))
    p10 = -8.0 * g**3 * pw * (
        ep / gp**2
        + em / gm**2
        + (ep * np.exp(1j * f * t) + em * np.exp(-1j * f * t)) / (gp * gm)
    )
    return BlockCoefficients(p0=float(p0), p1=float(p1), p10=complex(p10))


def evolved_joint_state(
    codes: list[CodeModel],
    spec: InteractionSpec,
    aux: AuxiliarySpec,
    thermal: ThermalSpec,
    t: float,
) -> np.ndarray:
    """Exact rho(t) = U rho_thermal (x) |0_A><0_A| U^dagger on the joint register."""
    h_tot = build_total(codes, build_interaction(codes, spec), aux)
    rho0 = initial_state(codes, thermal, aux)
    return evolve(h_tot, t, rho0)
