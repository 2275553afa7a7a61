"""Auxiliary-qubit measurement records and single-shot purification."""

import numpy as np
import pytest

from logipure.codes import LogicalTarget, build_repetition_code
from logipure.interaction import AuxiliarySpec, InteractionSpec
from logipure.measurement import (
    MeasurementSetting,
    measure_aq,
    purify_once,
)
from logipure.operators import kron
from logipure.thermal import ThermalSpec

CODE = build_repetition_code(1.0)


def test_setting_states():
    up = MeasurementSetting(a=0.0)
    assert np.allclose(up.state(), [1, 0])
    assert np.allclose(up.state(-1), [0, -1])
    down = MeasurementSetting(a=np.pi)
    assert np.allclose(down.state(), [np.cos(np.pi / 2), np.sin(np.pi / 2)])
    plus = MeasurementSetting(a=np.pi / 2, b=0.0)
    assert np.allclose(plus.state(), np.array([1, 1]) / np.sqrt(2))
    tilted = MeasurementSetting(a=1.1, b=2.3, k=-1)
    # the two outcome states are orthonormal
    assert abs(np.vdot(tilted.state(+1), tilted.state(-1))) < 1e-15
    assert abs(np.linalg.norm(tilted.state(-1)) - 1.0) < 1e-15


def test_setting_validation():
    with pytest.raises(ValueError):
        MeasurementSetting(a=-0.1)
    with pytest.raises(ValueError):
        MeasurementSetting(a=4.0)
    with pytest.raises(ValueError):
        MeasurementSetting(a=1.0, b=7.0)
    with pytest.raises(ValueError):
        MeasurementSetting(a=1.0, k=0)


def test_projector_completeness():
    """The rank-one outcome projectors |psi^(k)><psi^(k)| resolve the identity."""
    s = MeasurementSetting(a=0.77, b=1.9)
    projs = {k: np.outer(s.state(k), s.state(k).conj()) for k in (+1, -1)}
    assert np.allclose(projs[+1] + projs[-1], np.eye(2), atol=1e-14)
    p = projs[s.k]
    assert np.allclose(p @ p, p, atol=1e-14)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    d_s = 3
    n_aux = 2
    dim = d_s * 2**n_aux
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    settings = (MeasurementSetting(a=0.4, b=0.2), MeasurementSetting(a=2.0, b=5.0))
    records = measure_aq(rho, n_aux, settings)
    assert len(records) == 4
    total = sum(r.probability for r in records.values())
    assert abs(total - 1.0) < 1e-12
    for r in records.values():
        assert np.isnan(r.fidelity)  # no target supplied


def test_unattainable_outcome():
    # system |0>, auxiliary |0>: measuring along a=0 never yields k=-1
    psi = kron(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    rho = np.outer(psi, psi.conj())
    records = measure_aq(rho, 1, (MeasurementSetting(a=0.0),))
    assert records[(+1,)].attainable
    assert abs(records[(+1,)].probability - 1.0) < 1e-12
    bad = records[(-1,)]
    assert not bad.attainable
    assert bad.post_system_state is None
    assert np.isnan(bad.fidelity)


def test_measure_validation():
    rho = np.eye(6) / 6
    with pytest.raises(ValueError):
        measure_aq(rho, 2, (MeasurementSetting(a=0.0),))
    with pytest.raises(ValueError):
        measure_aq(np.eye(6) / 6, 2, (MeasurementSetting(a=0.0),) * 2)  # 6 != d_s * 4


def test_perfect_purification_spot():
    """Resonant coupling, a = pi, k = +1: unit fidelity at probability (p_b/2)(1 - cos 2gt)."""
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    g = 0.8
    spec = InteractionSpec(coupling=g, targets=(LogicalTarget(1.2, 0.7),))
    aux = AuxiliarySpec(count=1, energy=4.0)  # gap of the three-qubit code
    setting = MeasurementSetting(a=np.pi, b=0.0, k=+1)
    for t in (0.3, 0.9, 2.0):
        rec = purify_once([CODE], spec, aux, thermal, t, setting)
        p_expected = thermal.p_weight / 2 * (1 - np.cos(2 * g * t))
        assert abs(rec.probability - p_expected) < 1e-10
        assert abs(rec.fidelity - 1.0) < 1e-10
        # post state is pure
        evals = np.linalg.eigvalsh(rec.post_system_state)
        assert abs(evals[-1] - 1.0) < 1e-10


def test_azimuth_irrelevant_at_poles():
    thermal = ThermalSpec.from_codes([CODE], 0.1)
    spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(0.0, 0.0),))
    aux = AuxiliarySpec(count=1, energy=4.0)
    recs = [
        purify_once([CODE], spec, aux, thermal, 0.7, MeasurementSetting(a=np.pi, b=b))
        for b in (0.0, 1.3, 4.4)
    ]
    for r in recs[1:]:
        assert abs(r.probability - recs[0].probability) < 1e-12
        assert abs(r.fidelity - recs[0].fidelity) < 1e-12


def test_post_state_conditioning():
    """A tilted measurement mixes the two coupled components as Eq.-style weights."""
    thermal = ThermalSpec.from_codes([CODE], 0.5)
    spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(0.3, 0.1),))
    aux = AuxiliarySpec(count=1, energy=4.0)
    settings = MeasurementSetting(a=1.0, b=0.4, k=-1)
    rec = purify_once([CODE], spec, aux, thermal, 0.6, settings)
    assert rec.attainable
    assert 0.0 < rec.probability < 1.0
    assert 0.0 <= rec.fidelity <= 1.0 + 1e-12
    rho = rec.post_system_state
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
