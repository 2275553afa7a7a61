"""Closed forms vs the dense pipeline, and the fidelity-angle inversion."""

import numpy as np
import pytest

from logipure.codes import (
    HeisenbergSpec,
    LogicalTarget,
    build_heisenberg_code,
    build_repetition_code,
    build_stabilizer_code,
    code_from_hamiltonian,
)
from logipure.emr import KEEP, thermal_ensemble
from logipure.formulas import (
    a_for_fidelity,
    emr_rank_one,
    f_plus_resonant,
    p_beta,
    p_plus_resonant,
    resonant_plus,
)
from logipure.interaction import AuxiliarySpec, InteractionSpec
from logipure.measurement import MeasurementSetting, purify_once
from logipure.operators import kron_all
from logipure.thermal import ResonanceContext, ThermalSpec, initial_state

from oracles import p_plus_general

CODE = build_repetition_code(1.0)


def test_p_beta_oracles():
    # infinite temperature: 1/D per code
    assert abs(p_beta([CODE], 0.0) - 1 / 8) < 1e-14
    assert abs(p_beta([CODE, CODE], 0.0) - 1 / 64) < 1e-14
    # beta=0.1, J_S=1: exp(-0.4) / (2 + 6 exp(-0.4))
    z = 2.0 + 6.0 * np.exp(-0.4)
    assert abs(p_beta([CODE], 0.1) - np.exp(-0.4) / z) < 1e-14
    assert abs(p_beta([CODE], 0.1) - 0.1113) < 5e-5
    # colder is rarer
    betas = np.linspace(0.0, 3.0, 13)
    vals = [p_beta([CODE], b) for b in betas]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        p_beta([CODE], -0.5)


def test_p_beta_matches_thermal_spec():
    for beta in (0.0, 0.1, 1.0):
        spec = ThermalSpec.from_codes([CODE, CODE], beta)
        assert abs(p_beta([CODE, CODE], beta) - spec.p_weight) < 1e-14


def test_one_eigensolve_per_code(eigensolves):
    """A code solves its Hamiltonian at most once, while it is built.

    Every thermal quantity afterwards reads the spectrum the builder
    clustered; a diagonal Hamiltonian needs no solve at all.  A solve may
    take one call per block, so the check is on the summed dimension.
    """
    hadamards = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)] * 3)
    builders = (
        (lambda: build_repetition_code(1.5), 0),
        (lambda: build_heisenberg_code(HeisenbergSpec(n_qubits=4)), 16),
        # the bit-flip code in the X basis: a non-diagonal host
        (lambda: code_from_hamiltonian(hadamards @ build_repetition_code(1.5).hamiltonian @ hadamards), 8),
        (lambda: build_stabilizer_code(["XXI", "IXX"]), 8),
    )
    for build, expected in builders:
        eigensolves.clear()
        code = build()
        p_beta([code], 0.3)
        ThermalSpec.from_codes([code, code], 0.3)
        thermal_ensemble([code], 0.3)
        initial_state([code], ThermalSpec.from_codes([code], 0.3), AuxiliarySpec())
        for a in np.linspace(0.1, 3.0, 50):
            f_plus_resonant(a, 0.7, 1.0, 0.3, [code])
        assert sum(eigensolves) == expected, (code.n_qubits, eigensolves)


def test_resonant_probability_limits():
    pw = 0.3
    # a=0 measures the AQ pole: p = pw cos^2(gt) + (1-pw)
    assert abs(p_plus_resonant(0.0, 0.7, 1.0, pw) - (pw * np.cos(0.7) ** 2 + 1 - pw)) < 1e-14
    # a=pi: Rabi flopping scaled by the thermal weight
    t, g = 0.9, 1.3
    assert abs(p_plus_resonant(np.pi, t, g, pw) - pw * np.sin(g * t) ** 2) < 1e-14
    with pytest.raises(ValueError):
        p_plus_resonant(0.5, 1.0, 1.0, 1.5)


def test_formulas_match_pipeline():
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    g = 1.0
    spec = InteractionSpec(coupling=g, targets=(LogicalTarget(0.6, 1.9),))
    aux = AuxiliarySpec(count=1, energy=4.0)
    for a in (0.0, 0.8, np.pi / 2, 2.4, np.pi):
        for t in (0.35, 1.1):
            rec = purify_once([CODE], spec, aux, thermal, t, MeasurementSetting(a=a, b=0.0))
            p_formula = p_plus_resonant(a, t, g, thermal.p_weight)
            assert abs(rec.probability - p_formula) < 1e-10, (a, t)
            f_formula = f_plus_resonant(a, t, g, 0.1, [CODE])
            assert abs(rec.fidelity - f_formula) < 1e-10, (a, t)


def test_general_probability_detuned():
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    g = 1.0
    spec = InteractionSpec(coupling=g, targets=(LogicalTarget(0.0, 0.0),))
    for e_a in (4.0, 6.0, 2.5):
        ctx = ResonanceContext.from_codes([CODE], e_a, g)
        aux = AuxiliarySpec(count=1, energy=e_a)
        for t in (0.45, 1.7):
            rec = purify_once([CODE], spec, aux, thermal, t, MeasurementSetting(a=np.pi))
            assert abs(rec.probability - p_plus_general(ctx, thermal, t)) < 1e-10


def test_fidelity_node_raises():
    with pytest.raises(ValueError):
        f_plus_resonant(np.pi, np.pi, 1.0, 0.1, [CODE])  # sin(gt)=0 and a=pi


@pytest.mark.parametrize("g,beta,n_codes", [(1.0, 0.1, 1), (0.5, 0.7, 2)])
def test_plane_evaluation_is_the_scalar_case_bit_for_bit(g, beta, n_codes):
    """On a grid with Rabi nodes (a = pi, gt = k pi) the array forms equal the scalar ones exactly.

    The scalar forms in turn keep the expression and order of operations
    they have always had, squares taken by a numpy scalar's ``**``, so a
    plane's analytic columns do not move in their last bits.  f is NaN
    exactly where the scalar form raises.
    """
    codes = [CODE] * n_codes
    thermal = ThermalSpec.from_codes(codes, beta)
    pw, zl = thermal.p_weight, thermal.z_total
    # at a = 2.516 and gt = 1.258 a square taken as x * x rounds differently from x ** 2
    a = np.append(np.linspace(0.0, np.pi, 13), 2.516)
    t = np.concatenate([np.linspace(0.0, 2 * np.pi, 17), np.pi * np.arange(4) / g, [1.258 / g]])
    p, f = resonant_plus(a[None, :], t[:, None], g, thermal)
    assert p.shape == f.shape == (t.size, a.size)
    nodes = 0
    for i, tt in enumerate(t.tolist()):
        for j, aa in enumerate(a.tolist()):
            s2, c2 = np.sin(aa / 2) ** 2, np.cos(aa / 2) ** 2
            sg2, cg2 = np.sin(g * tt) ** 2, np.cos(g * tt) ** 2
            p_expr = float(pw * (sg2 * s2 + cg2 * c2) + (1.0 - pw) * c2)
            assert p[i, j] == p_plus_resonant(aa, tt, g, pw) == p_expr, (aa, tt)
            try:
                want = f_plus_resonant(aa, tt, g, beta, codes)
            except ValueError:
                nodes += 1
                assert np.isnan(f[i, j]), (aa, tt)
            else:
                assert f[i, j] == want == float((c2 / zl + pw * np.sin(g * tt) ** 2 * s2) / p_expr), (aa, tt)
    assert nodes >= 4  # a = pi at every gt = k pi of the grid


def test_inversion_round_trip():
    rng = np.random.default_rng(11)
    g, beta = 1.0, 0.1
    n_checked = 0
    for _ in range(40):
        f_target = float(rng.uniform(0.2, 0.999))
        t = float(rng.uniform(0.1, 3.0))
        if np.sin(g * t) ** 2 < 1e-3:
            continue
        res = a_for_fidelity(f_target, g, t, beta, [CODE])
        if not res.attainable:
            assert res.discriminant <= 0.0 or True  # reported, nothing to invert
            continue
        f_back = f_plus_resonant(res.a, t, g, beta, [CODE])
        assert abs(f_back - f_target) < 1e-8, (f_target, t)
        n_checked += 1
    assert n_checked >= 20


def test_inversion_unreachable():
    # fidelities below the unconditioned baseline have B <= 0
    res = a_for_fidelity(0.05, 1.0, 0.5, 0.0, [CODE])
    assert not res.attainable
    assert res.discriminant <= 0.0
    # Rabi node with f<1 is unreachable regardless of discriminant
    node = a_for_fidelity(0.9, 1.0, np.pi, 0.1, [CODE])
    assert not node.attainable
    with pytest.raises(ValueError):
        a_for_fidelity(1.2, 1.0, 0.5, 0.1, [CODE])


def test_inversion_perfect_fidelity():
    # f=1 forces a=pi whenever reachable: cos^2(a/2) quotient is 0
    res = a_for_fidelity(1.0, 1.0, 0.7, 0.1, [CODE])
    assert res.attainable
    assert abs(res.a - np.pi) < 1e-12


@pytest.mark.parametrize("g,e_a", [(1e10, None), (1e160, None), (1.0, 1e200), (1e160, 1e200)])
def test_emr_rank_one_outcomes_sum_to_one_at_huge_phases(g, e_a):
    """A round's two outcomes sum to 1 however large F t is: the pair's u takes the sine and
    the cosine of one angle, F t / 2.  The sine of pi (F t / 2 pi), as np.sinc takes it,
    is another angle there, and the sums missed 1 by up to 0.1."""
    settings = [MeasurementSetting(a=a, k=k) for a in np.linspace(0.0, np.pi, 5) for k in (1, -1)]
    _, p_round, *_ = emr_rank_one(
        ResonanceContext.from_codes([CODE], e_a, g), ThermalSpec.from_codes([CODE], 0.1), np.linspace(0.1, 7.0, 9), settings, 1, KEEP
    )
    assert np.all(np.abs(p_round[0::2, 0] + p_round[1::2, 0] - 1.0) <= 1e-12)
