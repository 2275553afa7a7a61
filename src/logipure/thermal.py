"""Thermal initial states and exact joint evolution.

The initial state is a product of per-code Gibbs states with the
auxiliary register in its ground state.  Under the rank-one engineered
coupling the dynamics closes on a two-level subspace spanned by
|Psi_S, 1_A> and |Phi_S, 0_A>.  This module carries the bath weights
(:class:`ThermalSpec`), the constants of that pair that
:func:`logipure.formulas.emr_rank_one` reads (:class:`ResonanceContext`),
and the exact numeric evolution of the joint state.  The first two read
only each code's levels (:class:`~logipure.codes.CodeLevels`): a built
:class:`~logipure.codes.CodeModel` supplies them from its own spectrum,
and :func:`~logipure.codes.stabilizer_levels` from a stabilizer group
with no matrix.  The pair's
closed-form eigenpairs and populations are test oracles, checked
against :func:`evolved_joint_state` in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeLevels, CodeModel
from .interaction import AuxiliarySpec, InteractionSpec, build_interaction, build_total
from .operators import KET_0, evolve, gibbs, kron_all, require_finite


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
    def from_codes(cls, codes: list[CodeModel | CodeLevels], beta: float) -> "ThermalSpec":
        """The bath of ``codes``, built codes or their levels, from each one's partition function."""
        require_finite("beta", beta)  # before the Boltzmann factors, which a NaN or infinity spoils
        zs = []
        weight = 1.0
        for code in codes:
            levels = code.levels if isinstance(code, CodeModel) else code
            z = float(levels.partition(beta))
            zs.append(z)
            weight *= float(np.exp(-beta * levels.gap)) / z
        return cls(beta=beta, z_factors=tuple(zs), p_weight=weight)


@dataclass(frozen=True)
class ResonanceContext:
    """Constants of the coupled pair |Psi_S, 1_A> <-> |Phi_S, 0_A>.

    ``delta_sum`` is the summed code gap, ``e_a`` the auxiliary
    splitting, ``g`` the coupling and ``f_rabi`` the pair's Rabi
    frequency, F = sqrt((delta_sum - e_a)^2 + 4 g^2).
    """

    delta_sum: float
    e_a: float
    g: float
    f_rabi: float

    @classmethod
    def build(cls, delta_sum: float, e_a: float, g: float) -> "ResonanceContext":
        f_rabi = math.hypot(delta_sum - e_a, 2.0 * g)  # squaring a float past 1e154 would overflow
        return cls(delta_sum=delta_sum, e_a=e_a, g=g, f_rabi=f_rabi)

    @classmethod
    def from_codes(cls, codes: list[CodeModel | CodeLevels], e_a: float | None, g: float) -> "ResonanceContext":
        """Context for given codes or their levels; ``e_a=None`` means resonant (sum of gaps)."""
        delta_sum = float(sum(c.gap for c in codes))
        return cls.build(delta_sum, delta_sum if e_a is None else e_a, g)


def initial_state(codes: list[CodeModel], thermal: ThermalSpec, aux: AuxiliarySpec) -> np.ndarray:
    """prod_i Gibbs(H_i, beta) (x) |0...0_A><0...0_A|."""
    factors = [gibbs(c.hamiltonian, thermal.beta, spectral=c.spectrum)[0] for c in codes]
    ket0 = kron_all([np.outer(KET_0, KET_0.conj())] * aux.count)
    return kron_all(factors + [ket0])


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
