"""Thermal weights, the coupled two-level problem, and its closed forms.

The dense evolve-and-project pipeline and the closed-form block
coefficients are independent implementations of the same physics; these
tests pit them against each other at resonance and off resonance.
"""

import numpy as np
import pytest

from logipure.codes import LogicalTarget, build_repetition_code
from logipure.interaction import (
    AuxiliarySpec,
    InteractionSpec,
    build_interaction,
    build_total,
    es_uniform_state,
    joint_target_state,
)
from logipure.operators import KET_0, kron
from logipure.thermal import (
    ResonanceContext,
    ThermalSpec,
    coupled_eigenpairs,
    evolution_coefficients,
    evolved_joint_state,
    initial_state,
)

CODE = build_repetition_code(1.0)


def blocks_from_dense(rho, psi, phi):
    """Extract the coupled-pair populations straight from rho(t)."""
    psi_1 = kron(psi, np.array([0.0, 1.0], dtype=complex))
    phi_0 = kron(phi, KET_0)
    p1 = float(np.real(np.vdot(psi_1, rho @ psi_1)))
    p0 = float(np.real(np.vdot(phi_0, rho @ phi_0)))
    p10 = complex(np.vdot(psi_1, rho @ phi_0))
    return p0, p1, p10


def test_thermal_spec_oracle():
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    z_oracle = 2.0 + 6.0 * np.exp(-0.4)
    assert abs(thermal.z_factors[0] - z_oracle) < 1e-12
    assert abs(thermal.z_total - z_oracle) < 1e-12
    assert abs(thermal.p_weight - np.exp(-0.4) / z_oracle) < 1e-12
    # spot value quoted for the resonant postselection probability
    assert abs(thermal.p_weight - 0.1113) < 5e-5

    two = ThermalSpec.from_codes([CODE, CODE], 0.1)
    assert abs(two.z_total - z_oracle**2) < 1e-10
    assert abs(two.p_weight - (np.exp(-0.4) / z_oracle) ** 2) < 1e-12

    with pytest.raises(ValueError):
        ThermalSpec(beta=-0.1, z_factors=(1.0,), p_weight=0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_thermal_spec_rejects_non_finite_beta(bad):
    with pytest.raises(ValueError, match="^beta must be finite, got "):
        ThermalSpec(beta=bad, z_factors=(1.0,), p_weight=0.1)
    with pytest.raises(ValueError, match="^beta must be finite, got "):
        ThermalSpec.from_codes([CODE], bad)


def test_resonance_context_identities():
    ctx = ResonanceContext.build(delta_sum=4.0, e_a=2.5, g=0.8)
    det = 4.0 - 2.5
    assert abs(ctx.f_rabi - np.sqrt(det**2 + 4 * 0.8**2)) < 1e-14
    assert abs(ctx.e_plus - (det + ctx.f_rabi)) < 1e-14
    assert abs(ctx.e_minus - (det - ctx.f_rabi)) < 1e-14
    assert abs(ctx.g_plus - (ctx.e_plus**2 + 4 * 0.8**2)) < 1e-12
    assert not ctx.resonant
    assert ResonanceContext.from_codes([CODE], None, 1.0).resonant
    assert ResonanceContext.from_codes([CODE], 4.0, 1.0).resonant
    # E_+ E_- = -4g^2 (product of the shifted eigenvalues)
    assert abs(ctx.e_plus * ctx.e_minus + 4 * 0.8**2) < 1e-12


def test_coupled_eigenpairs_are_dense_eigenvectors():
    target = LogicalTarget(0.4, 2.2)
    spec = InteractionSpec(coupling=0.7, targets=(target,))
    psi = joint_target_state([CODE], (target,))
    phi = es_uniform_state([CODE])
    for e_a in (4.0, 2.0, 6.5):
        ctx = ResonanceContext.from_codes([CODE], e_a, 0.7)
        aux = AuxiliarySpec(count=1, energy=e_a)
        h_tot = build_total([CODE], build_interaction([CODE], spec), aux)
        for pair in coupled_eigenpairs(ctx, psi, phi):
            assert abs(np.linalg.norm(pair.vector) - 1.0) < 1e-12
            residual = np.linalg.norm(h_tot @ pair.vector - pair.value * pair.vector)
            assert residual <= 1e-9, (e_a, residual)
    with pytest.raises(ValueError):
        coupled_eigenpairs(ResonanceContext.build(4.0, 4.0, 0.0), psi, phi)


def test_population_conservation_at_resonance():
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    ctx = ResonanceContext.from_codes([CODE], None, 1.0)
    for t in np.linspace(0.0, 7.0, 29):
        c = evolution_coefficients(ctx, thermal, t)
        assert abs(c.p0 + c.p1 - thermal.p_weight) < 1e-12
        assert c.p0 >= -1e-15 and c.p1 >= -1e-15


def test_coefficients_match_dense_evolution():
    target = LogicalTarget(0.9, 0.3)
    spec = InteractionSpec(coupling=1.0, targets=(target,))
    psi = joint_target_state([CODE], (target,))
    phi = es_uniform_state([CODE])
    for beta in (0.0, 0.1, 1.0):
        thermal = ThermalSpec.from_codes([CODE], beta)
        for e_a in (4.0, 6.0):  # resonant and detuned
            ctx = ResonanceContext.from_codes([CODE], e_a, 1.0)
            aux = AuxiliarySpec(count=1, energy=e_a)
            for t in (0.0, 0.37, 1.9):
                rho = evolved_joint_state([CODE], spec, aux, thermal, t)
                p0_d, p1_d, p10_d = blocks_from_dense(rho, psi, phi)
                c = evolution_coefficients(ctx, thermal, t)
                assert abs(c.p0 - p0_d) < 1e-10, (beta, e_a, t)
                assert abs(c.p1 - p1_d) < 1e-10
                assert abs(c.p10 - p10_d) < 1e-10


def test_initial_state_structure():
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    aux = AuxiliarySpec(count=1, energy=4.0)
    rho0 = initial_state([CODE], thermal, aux)
    assert abs(np.trace(rho0) - 1.0) < 1e-12
    # auxiliary qubit starts in |0>: every odd row/column vanishes
    assert np.max(np.abs(rho0[1::2, :])) < 1e-15
    assert np.max(np.abs(rho0[:, 1::2])) < 1e-15


def test_evolved_state_is_density():
    target = LogicalTarget(0.0, 0.0)
    spec = InteractionSpec(coupling=1.0, targets=(target,))
    aux = AuxiliarySpec(count=1, energy=4.0)
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    rho = evolved_joint_state([CODE], spec, aux, thermal, 0.8)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
