"""Evolve-measure-repeat: fast contraction path vs the density-matrix loop."""

import numpy as np
import pytest

from logipure import emr
from logipure.codes import HeisenbergSpec, build_heisenberg_code, cardinal_state
from logipure.emr import (
    CALIBRATED_AUX_ENERGY,
    CHAIN_BENCHMARK,
    KEEP,
    RESET,
    RoundSpec,
    XYSetup,
    build_xy_setup,
    fast_trajectory,
    find_m_min,
    plane_m_min,
    reproduce_table1,
    round_contraction,
    run_emr,
    thermal_ensemble,
)
from logipure.measurement import MeasurementSetting
from logipure.operators import basis_state, gibbs, hermitian_eig, kron, kron_all, pauli_operator

BETA = 0.1


def two_site_problem(j_2=0.3, gamma=0.4):
    spec = HeisenbergSpec(n_qubits=2)
    code = build_heisenberg_code(spec)
    setup = XYSetup(n_system=2, n_aux=1, j_2=j_2, gamma=gamma)
    h_tot = build_xy_setup(setup, spec)
    return code, h_tot


def test_fast_matches_reference_loop():
    code, h_tot = two_site_problem()
    target = cardinal_state(code, "z-")
    spectral = hermitian_eig(h_tot)
    ensemble = thermal_ensemble([code], BETA)
    rho0 = kron(gibbs(code.hamiltonian, BETA)[0], np.diag([1.0, 0.0]).astype(complex))
    settings = (MeasurementSetting(a=np.pi / 2, b=0.3, k=+1),)
    rounds = RoundSpec(duration=1.0, settings=settings)
    for policy in (KEEP, RESET):
        ref = run_emr(h_tot, rho0, rounds, target, 6, aq_reset=policy)
        fast = fast_trajectory(spectral, ensemble, rounds, target, 6, aq_reset=policy)
        assert ref.n_rounds == fast.n_rounds == 6
        assert np.allclose(ref.fidelity, fast.fidelity, atol=1e-10)
        assert np.allclose(ref.p_round, fast.p_round, atol=1e-10)
        assert np.allclose(ref.p_cumulative, fast.p_cumulative, atol=1e-10)


def test_policies_coincide_at_poles():
    """a=0, k=+1 leaves the auxiliary qubit in |0>, so keep == reset."""
    code, h_tot = two_site_problem(j_2=1.0, gamma=1.0)
    target = cardinal_state(code, "z+")
    spectral = hermitian_eig(h_tot)
    ensemble = thermal_ensemble([code], BETA)
    settings = (MeasurementSetting(a=0.0, b=0.0, k=+1),)
    keep = fast_trajectory(spectral, ensemble, RoundSpec(1.0, settings), target, 10, aq_reset=KEEP)
    reset = fast_trajectory(spectral, ensemble, RoundSpec(1.0, settings), target, 10, aq_reset=RESET)
    assert np.allclose(keep.fidelity, reset.fidelity, atol=1e-12)
    assert np.allclose(keep.p_cumulative, reset.p_cumulative, atol=1e-12)


def test_policies_differ_off_pole():
    code, h_tot = two_site_problem()
    target = cardinal_state(code, "x+")
    spectral = hermitian_eig(h_tot)
    ensemble = thermal_ensemble([code], BETA)
    settings = (MeasurementSetting(a=np.pi / 2, b=0.0, k=+1),)
    keep = fast_trajectory(spectral, ensemble, RoundSpec(1.0, settings), target, 8, aq_reset=KEEP)
    reset = fast_trajectory(spectral, ensemble, RoundSpec(1.0, settings), target, 8, aq_reset=RESET)
    assert np.max(np.abs(keep.fidelity - reset.fidelity)) > 1e-6


def test_cumulative_is_product_of_rounds():
    code, h_tot = two_site_problem()
    target = cardinal_state(code, "z-")
    spectral = hermitian_eig(h_tot)
    traj = fast_trajectory(
        spectral, thermal_ensemble([code], BETA), RoundSpec(1.0, (MeasurementSetting(a=0.0),)), target, 12
    )
    assert np.allclose(np.cumprod(traj.p_round), traj.p_cumulative, rtol=1e-12)
    assert traj.n_rounds == 12


def test_find_m_min_edges():
    code, h_tot = two_site_problem(j_2=0.0, gamma=0.0)
    target = cardinal_state(code, "z-")
    spectral = hermitian_eig(h_tot)
    traj = fast_trajectory(
        spectral, thermal_ensemble([code], BETA), RoundSpec(1.0, (MeasurementSetting(a=0.0),)), target, 30
    )
    m = find_m_min(traj, 0.66)
    assert m is not None and traj.fidelity[m - 1] >= 0.66
    if m > 1:
        assert traj.fidelity[m - 2] < 0.66
    assert find_m_min(traj, 1.0 - 1e-6) is not None  # this row purifies fully
    # an impossible threshold on a short window
    assert find_m_min(traj, 0.999999, max_rounds=1) is None
    with pytest.raises(ValueError):
        find_m_min(traj, 0.0)
    with pytest.raises(ValueError):
        find_m_min(traj, 1.5)


def test_thermal_ensemble_factorization():
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=2))
    rho1 = gibbs(code.hamiltonian, 0.7)[0]
    v = thermal_ensemble([code], 0.7)
    assert np.allclose(v @ v.conj().T, rho1, atol=1e-12)
    v2 = thermal_ensemble([code, code], 0.7)
    assert np.allclose(v2 @ v2.conj().T, kron_all([rho1, rho1]), atol=1e-12)


def test_round_contraction_against_dense():
    rng = np.random.default_rng(5)
    d_s, n_aux = 4, 2
    dim = d_s * 2**n_aux
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    cells = [
        (MeasurementSetting(a=1.2, b=0.4, k=-1), MeasurementSetting(a=0.3, b=2.0, k=+1)),
        (MeasurementSetting(a=0.0), MeasurementSetting(a=np.pi / 2, b=0.7, k=-1)),
    ]
    psi_out = np.stack([kron_all([s.state() for s in cell]) for cell in cells])
    ket0 = basis_state(n_aux, 0)
    durations = np.array([0.0, 0.6, 2.5])
    spectral = hermitian_eig(h)
    for aq_in in (ket0, psi_out):  # one shared input, or one per cell
        ops = round_contraction(spectral, durations, psi_out, aq_in)
        assert ops.shape == (len(durations), len(cells), d_s, d_s)
        for i, t in enumerate(durations):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            for c, psi in enumerate(psi_out):
                chi = np.broadcast_to(aq_in, psi_out.shape)[c]
                dense = np.kron(np.eye(d_s), psi.conj()[None, :]) @ u @ np.kron(np.eye(d_s), chi[:, None])
                assert np.max(np.abs(ops[i, c] - dense)) <= 1e-12
    with pytest.raises(ValueError):  # three-dimensional states do not factor 16
        round_contraction(spectral, durations, psi_out[:, :3], ket0[:3])
    with pytest.raises(ValueError):  # nor do states of different dimensions
        round_contraction(spectral, durations, psi_out, ket0[:2])


def test_magnetization_conserved_iff_isotropic():
    spec = HeisenbergSpec(n_qubits=2)
    sz_tot = sum(pauli_operator(p) for p in ("ZII", "IZI", "IIZ"))
    h_iso = build_xy_setup(XYSetup(n_system=2, j_2=0.7, gamma=0.0), spec)
    assert np.max(np.abs(h_iso @ sz_tot - sz_tot @ h_iso)) < 1e-12
    h_aniso = build_xy_setup(XYSetup(n_system=2, j_2=0.7, gamma=0.5), spec)
    assert np.max(np.abs(h_aniso @ sz_tot - sz_tot @ h_aniso)) > 1e-6


def test_two_site_magnon_bound_from_magnetization_conservation():
    """Why acceptance criterion 8 stays red: its isotropic wiring conserves M_z.

    Same setup as the criterion (two sites, one AQ, j_2 = 0, a = 0, keep).
    |00>|0> is then an eigenvector of H_tot, so postselecting the AQ in |0>
    never drains the polarized population: p_cumulative settles on its
    thermal weight and the magnon fidelity is largest after round 1.
    """
    spec = HeisenbergSpec(n_qubits=2)
    code = build_heisenberg_code(spec)
    sz_tot = sum(pauli_operator(p) for p in ("ZII", "IZI", "IIZ"))
    h_aniso = build_xy_setup(XYSetup(n_system=2, j_1=1.0, j_2=0.0, gamma=0.2), spec)
    assert np.max(np.abs(h_aniso @ sz_tot - sz_tot @ h_aniso)) > 0.1
    h_tot = build_xy_setup(XYSetup(n_system=2, j_1=1.0, j_2=0.0, gamma=0.0), spec)
    assert np.max(np.abs(h_tot @ sz_tot - sz_tot @ h_tot)) < 1e-12
    polarized = basis_state(3, 0)  # |00>|0>
    energy = np.vdot(polarized, h_tot @ polarized)
    assert np.linalg.norm(h_tot @ polarized - energy * polarized) < 1e-12

    ensemble = thermal_ensemble([code], BETA)
    w_polarized = float(np.sum(np.abs(ensemble[0]) ** 2))  # <00|V V^dagger|00>
    spectral = hermitian_eig(h_tot)
    settings = (MeasurementSetting(a=0.0, b=0.0, k=+1),)
    traj = fast_trajectory(spectral, ensemble, RoundSpec(1.0, settings), cardinal_state(code, "z+"), 100)
    assert not traj.truncated
    assert np.all(traj.p_cumulative >= w_polarized - 1e-12)
    assert abs(traj.p_cumulative[-1] - w_polarized) < 1e-12
    assert np.max(traj.fidelity) <= traj.fidelity[0] + 1e-12


def test_xy_setup_structure():
    spec = HeisenbergSpec(n_qubits=2)
    code = build_heisenberg_code(spec)
    # decoupled: chain plus the auxiliary splitting only
    h0 = build_xy_setup(XYSetup(n_system=2, j_1=0.0, j_2=0.0, aux_energy=2.5), spec)
    expected = kron(code.hamiltonian, np.eye(2)) + 2.5 * kron(np.eye(4), np.diag([0.0, 1.0]))
    assert np.allclose(h0, expected, atol=1e-12)
    # resonance default equals passing the gap explicitly
    h_none = build_xy_setup(XYSetup(n_system=2), spec)
    h_gap = build_xy_setup(XYSetup(n_system=2, aux_energy=code.gap), spec)
    assert np.allclose(h_none, h_gap, atol=1e-14)
    h = build_xy_setup(XYSetup(n_system=2, n_aux=1, j_2=0.3, gamma=0.2), spec)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T, atol=1e-12)


def test_truncation_when_decoupled():
    """With no coupling, the AQ never leaves |0>: postselecting |1> dies at once.

    The dense loop and the fast path stop at the same floor.
    """
    spec = HeisenbergSpec(n_qubits=2)
    code = build_heisenberg_code(spec)
    h_tot = build_xy_setup(XYSetup(n_system=2, j_1=0.0, j_2=0.0), spec)
    spectral = hermitian_eig(h_tot)
    settings = (MeasurementSetting(a=np.pi, k=+1),)
    target = cardinal_state(code, "z+")
    fast = fast_trajectory(spectral, thermal_ensemble([code], BETA), RoundSpec(1.0, settings), target, 10)
    rho0 = kron(gibbs(code.hamiltonian, BETA)[0], np.diag([1.0, 0.0]).astype(complex))
    dense = run_emr(h_tot, rho0, RoundSpec(duration=1.0, settings=settings), target, 10)
    for traj in (fast, dense):
        assert (traj.n_rounds, traj.truncated) == (0, True)
        assert "below" in traj.reason


def test_fast_paths_reject_a_non_unit_target():
    """A target scaled by 2 raises on every path, as on the dense reference.

    Unchecked, the fast paths scored |2 psi|^2 overlaps: a fidelity 4x
    too large, and fig4 targets reached that the unit target never reaches.
    """
    code, h_tot = two_site_problem()
    spectral = hermitian_eig(h_tot)
    ensemble = thermal_ensemble([code], BETA)
    rho0 = kron(gibbs(code.hamiltonian, BETA)[0], np.diag([1.0, 0.0]).astype(complex))
    settings = (MeasurementSetting(a=0.3, b=0.0, k=+1),)
    target = 2.0 * cardinal_state(code, "z-")
    message = "target state norm 2.0 is not 1"
    with pytest.raises(ValueError, match=message):
        run_emr(h_tot, rho0, RoundSpec(1.0, settings), target, 5)
    with pytest.raises(ValueError, match=message):
        fast_trajectory(spectral, ensemble, RoundSpec(1.0, settings), target, 5)
    with pytest.raises(ValueError, match=message):
        plane_m_min(spectral, ensemble, [settings], np.array([1.0]), target, [0.66, 0.9], 5, KEEP)


def test_empty_table1_selection_raises():
    """An empty row list is refused, as an unknown row is: no empty report."""
    with pytest.raises(ValueError, match="rows must name at least one table1 row; the table has rows 1-12"):
        reproduce_table1(rows=[])
    with pytest.raises(ValueError, match=r"unknown table1 rows \[13\]"):
        reproduce_table1(rows=[1, 13])


def test_validation_errors():
    spec = HeisenbergSpec(n_qubits=2)
    with pytest.raises(ValueError):
        XYSetup(n_system=2, n_aux=0)
    with pytest.raises(ValueError):
        XYSetup(n_system=2, gamma=1.5)
    with pytest.raises(ValueError):
        XYSetup(n_system=2, aux_energy=-1.0)
    with pytest.raises(ValueError):
        XYSetup(n_system=2, n_aux=2)  # the second auxiliary qubit's pair (1, 2) runs off the chain
    with pytest.raises(ValueError):
        build_xy_setup(XYSetup(n_system=4), HeisenbergSpec(n_qubits=2))
    with pytest.raises(ValueError):
        RoundSpec(duration=0.0, settings=(MeasurementSetting(a=0.0),))
    with pytest.raises(ValueError):
        RoundSpec(duration=1.0, settings=())
    code = build_heisenberg_code(spec)
    h_tot = build_xy_setup(XYSetup(n_system=2), spec)
    rho0 = kron(gibbs(code.hamiltonian, BETA)[0], np.diag([1.0, 0.0]).astype(complex))
    rounds = RoundSpec(duration=1.0, settings=(MeasurementSetting(a=0.0),))
    target = cardinal_state(code, "z-")
    with pytest.raises(ValueError):
        run_emr(h_tot, rho0, rounds, target, 0)
    with pytest.raises(ValueError):
        run_emr(h_tot, rho0, rounds, target, 5, aq_reset="discard")
    spectral = hermitian_eig(h_tot)
    with pytest.raises(ValueError):
        fast_trajectory(spectral, thermal_ensemble([code], BETA), rounds, target, 5, aq_reset="discard")


NON_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_round_spec_rejects_non_finite_duration(bad):
    with pytest.raises(ValueError, match="^duration must be finite, got "):
        RoundSpec(duration=bad, settings=(MeasurementSetting(a=0.0),))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["j_1", "j_2", "gamma", "aux_energy"])
def test_xy_setup_rejects_non_finite_couplings(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        XYSetup(n_system=2, **{name: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_thermal_ensemble_rejects_non_finite_beta(bad):
    code = build_heisenberg_code(HeisenbergSpec(n_qubits=2))
    with pytest.raises(ValueError, match="^beta must be finite, got "):
        thermal_ensemble([code], bad)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["beta", "duration", "j_1", "aux_energy"])
def test_reproduce_table1_rejects_non_finite_inputs(name, bad):
    """A NaN or infinite parameter raises instead of reporting a false truncation."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        reproduce_table1(rows=[1], **{name: bad})


def test_reproduce_first_row():
    report = reproduce_table1(rows=[1])
    params = report["parameters"]
    assert params["aux_energy"] == CALIBRATED_AUX_ENERGY
    assert params["aux_energy_policy"] == "calibrated"
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert row["printed_target"] == "z+"
    assert {c["cardinal"] for c in row["candidates"]} == {"z+", "z-"}
    matched = row["matched"]
    # the printed z+ row purifies the polarized state, z- in this convention
    assert matched["cardinal"] == "z-"
    assert matched["m_min_066"] == row["reference"]["m_min_066"] == 4
    assert abs(row["deltas"]["p_066"]) <= 0.005
    assert abs(row["deltas"]["p_090"]) <= 0.005
    assert matched["max_fidelity"] > 1.0 - 1e-6


@pytest.mark.parametrize(
    "rows,max_rounds",
    [(list(range(1, 9)), 60), ([1, 3, 5], 1500)],
    ids=["rows1-8", "truncating"],
)
def test_grouped_table_matches_per_row_runs(rows, max_rounds, monkeypatch):
    """Every candidate of the grouped kernel passes equals its row run on its own.

    Rows 1-6 share one pass and rows 7-8 another.  At 1500 rounds the
    cells of rows 3 and 5 stop at different rounds inside one pass, when
    their cumulative probability leaves the normal range.
    """
    from logipure import emr

    seen = []
    row_metrics = emr._row_metrics

    def recorded(traj, rounds):
        seen.append(traj)
        return row_metrics(traj, rounds)

    monkeypatch.setattr(emr, "_row_metrics", recorded)
    report = reproduce_table1(rows=rows, max_rounds=max_rounds)
    assert [r["row"] for r in report["rows"]] == rows
    trajectories = iter(seen)
    truncated = 0
    for entry in report["rows"]:
        row = CHAIN_BENCHMARK[entry["row"] - 1]
        spec = HeisenbergSpec(n_qubits=row.n_sites)
        code = build_heisenberg_code(spec)
        setup = XYSetup(
            row.n_sites, len(row.settings), j_2=row.j_2, gamma=row.gamma, aux_energy=CALIBRATED_AUX_ENERGY
        )
        spectral = hermitian_eig(build_xy_setup(setup, spec))
        rounds = RoundSpec(1.0, tuple(MeasurementSetting(a=a, b=b, k=k) for a, b, k in row.settings))
        for candidate in entry["candidates"]:
            grouped = next(trajectories)
            alone = fast_trajectory(
                spectral,
                thermal_ensemble([code], 0.1),
                rounds,
                cardinal_state(code, candidate["cardinal"]),
                max_rounds,
                aq_reset=candidate["policy"],
            )
            assert (grouped.n_rounds, grouped.truncated, grouped.reason) == (
                alone.n_rounds,
                alone.truncated,
                alone.reason,
            )
            assert candidate["n_rounds"] == alone.n_rounds
            if alone.truncated:  # the reason names the round that failed, as run_emr's does
                assert alone.reason.startswith(f"round {alone.n_rounds + 1}: cumulative probability below")
            assert np.max(np.abs(grouped.fidelity - alone.fidelity)) <= 1e-12
            assert np.max(np.abs(grouped.p_cumulative / alone.p_cumulative - 1.0)) <= 1e-12
            truncated += alone.truncated
    assert next(trajectories, None) is None
    assert truncated == (0 if max_rounds == 60 else 6)


@pytest.mark.parametrize(
    "n_system,n_aux,j_1,j_2,gamma",
    [(2, 1, 1.0, 0.0, 0.85), (2, 1, 1.0, 1.0, 0.0), (4, 2, 0.5, 0.0, 0.17), (6, 3, 1.5, 1.5, -0.3), (6, 2, 1.0, 1.0, 0.19)],
)
def test_xy_reflection_keeps_the_joint_hamiltonian(n_system, n_aux, j_1, j_2, gamma):
    """The wiring's reflection is an involution of the joint basis that leaves H_tot unchanged bit for bit."""
    spec = HeisenbergSpec(n_qubits=n_system)
    setup = XYSetup(n_system, n_aux, j_1=j_1, j_2=j_2, gamma=gamma, aux_energy=CALIBRATED_AUX_ENERGY)
    h = build_xy_setup(setup, spec)
    image = setup.reflection()
    assert np.array_equal(image[image], np.arange(h.shape[0]))
    assert np.array_equal(h[np.ix_(image, image)], h)
    shifted = XYSetup(n_system, n_aux, j_1=j_1, j_2=0.5 * j_1, gamma=gamma)
    assert shifted.reflection_centre is None and shifted.reflection() is None
    if n_system > 2 or j_2 == 0.0:  # two sites bonded alike to one qubit keep every reflection
        other = emr._site_reflection(n_system, setup.reflection_centre + 1)
        image = ((other[:, None] << n_aux) | emr._site_reflection(n_aux, n_aux - 1)).ravel()
        assert not np.array_equal(h[np.ix_(image, image)], h)  # another centre moves the bonds


def test_reproduce_explicit_energy():
    report = reproduce_table1(rows=[1], aux_energy=1.0, max_rounds=50)
    assert report["parameters"]["aux_energy"] == 1.0
    assert report["parameters"]["aux_energy_policy"] == "explicit"


def test_benchmark_table_shape():
    assert len(CHAIN_BENCHMARK) == 12
    assert [r.n_sites for r in CHAIN_BENCHMARK] == [2] * 6 + [4, 4, 6, 6, 8, 8]
    assert all(len(r.settings) == (1 if r.n_sites == 2 else 2) for r in CHAIN_BENCHMARK)
    assert CHAIN_BENCHMARK[5].note  # the corrected-angle row carries its note
