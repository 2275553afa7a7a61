"""Acceptance gate: one test per advertised guarantee.

Each test records a PASS/FAIL line (printed after the run summary) and
then asserts, so a red criterion is visible both ways.  Criterion 8 is
expected red: the two-site keep-policy protocol saturates its success
probability as advertised but does not reach unit fidelity for either
pole target within the first 14 rounds; the recorded detail carries the
measured deficits.

The lines of criteria 1-6 and 11 state their bounds, not the measured
residuals: roundoff moves with any change of eigensolver arithmetic
while every verdict holds.  Those tests print their residuals on lines
of their own instead.
"""

import json
import time

import numpy as np
import pytest

from conftest import record_criterion
from logipure.cli import main
from logipure.codes import (
    HeisenbergSpec,
    LogicalTarget,
    build_heisenberg_code,
    build_repetition_code,
    cardinal_state,
)
from logipure.emr import (
    KEEP,
    RESET,
    XYSetup,
    build_xy_setup,
    fast_trajectory,
    reproduce_table1,
    thermal_ensemble,
)
from logipure.formulas import (
    a_for_fidelity,
    f_plus_resonant,
    p_beta,
    p_plus_resonant,
)
from logipure.interaction import (
    AuxiliarySpec,
    InteractionSpec,
    build_interaction,
    build_total,
    es_uniform_state,
    joint_target_state,
    pauli_decompose,
)
from logipure.measurement import MeasurementSetting, measure_aq, purify_once
from logipure.operators import KET_0, evolve, hermitian_eig, kron
from logipure.thermal import (
    ResonanceContext,
    ThermalSpec,
    coupled_eigenpairs,
    evolution_coefficients,
    initial_state,
)
from oracles import compare_term_lists, pauli_reconstruct, three_qubit_coupling_reference

REP = build_repetition_code(1.0)
CHAIN4 = build_heisenberg_code(HeisenbergSpec(n_qubits=4))


def print_measured(capsys, number, text):
    with capsys.disabled():
        print(f"\ncriterion {number} measured: {text}")


def random_angles(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (float(np.arccos(rng.uniform(-1.0, 1.0))), float(rng.uniform(0.0, 2 * np.pi)))
        for _ in range(n)
    ]


def coupled_blocks(rho, psi, phi):
    psi_1 = kron(psi, np.array([0.0, 1.0], dtype=complex))
    phi_0 = kron(phi, KET_0)
    p1 = float(np.real(np.vdot(psi_1, rho @ psi_1)))
    p0 = float(np.real(np.vdot(phi_0, rho @ phi_0)))
    p10 = complex(np.vdot(psi_1, rho @ phi_0))
    return p0, p1, p10


def test_criterion_01_pole_measurement_purifies_exactly(capsys):
    angles = random_angles(20, seed=2026)
    dev_f = dev_p = 0.0
    for code in (REP, CHAIN4):
        aux = AuxiliarySpec(count=1, energy=code.gap)
        thermals = {b: ThermalSpec.from_codes([code], b) for b in (0.0, 0.1, 1.0)}
        setting = (MeasurementSetting(a=np.pi, b=0.0, k=+1),)
        for theta, phi in angles:
            targets = (LogicalTarget(theta, phi),)
            target_vec = joint_target_state([code], targets)
            for g in (0.5, 1.0):
                spec = InteractionSpec(coupling=g, targets=targets)
                h_tot = build_total([code], build_interaction([code], spec), aux)
                spectral = hermitian_eig(h_tot)
                t_pts = [(n + 0.3) * np.pi / (4 * g) for n in range(10)]
                for beta, thermal in thermals.items():
                    rho0 = initial_state([code], thermal, aux)
                    for t in t_pts:
                        rho_t = evolve(h_tot, t, rho0, spectral=spectral)
                        rec = measure_aq(rho_t, 1, setting, target=target_vec)[(+1,)]
                        p_exp = thermal.p_weight / 2 * (1 - np.cos(2 * g * t))
                        dev_f = max(dev_f, abs(rec.fidelity - 1.0))
                        dev_p = max(dev_p, abs(rec.probability - p_exp))
    ok = dev_f <= 1e-10 and dev_p <= 1e-10
    print_measured(capsys, 1, f"max|f-1|={dev_f:.2e}, max|p-p_exp|={dev_p:.2e} over 2400 points")
    record_criterion(
        1,
        "pole measurement purifies exactly",
        ok,
        "max|f-1| <= 1e-10, max|p-p_exp| <= 1e-10 over 2400 points",
    )
    assert ok


def test_criterion_02_two_code_joint_purification(capsys):
    codes = [REP, REP]
    aux = AuxiliarySpec(count=1, energy=8.0)  # summed gap of two J=1 codes
    targets = (LogicalTarget(0.6, 1.1), LogicalTarget(2.2, 4.0))
    spec = InteractionSpec(coupling=1.0, targets=targets)
    dev_f = dev_pw = 0.0
    for beta in (0.0, 0.1, 1.0):
        thermal = ThermalSpec.from_codes(codes, beta)
        single = ThermalSpec.from_codes([REP], beta)
        dev_pw = max(dev_pw, abs(thermal.p_weight - single.p_weight**2))
        for t in (0.4, 0.9, 1.7):
            rec = purify_once(codes, spec, aux, thermal, t, MeasurementSetting(a=np.pi))
            dev_f = max(dev_f, abs(rec.fidelity - 1.0))
    ok = dev_f <= 1e-10 and dev_pw <= 1e-12
    print_measured(capsys, 2, f"max|f-1|={dev_f:.2e}, max|p_joint-p_single^2|={dev_pw:.2e}")
    record_criterion(
        2,
        "two-code joint purification",
        ok,
        "max|f-1| <= 1e-10, max|p_joint-p_single^2| <= 1e-12",
    )
    assert ok


def test_criterion_03_closed_forms_match_pipeline(capsys):
    targets = (LogicalTarget(0.7, 0.2),)
    psi = joint_target_state([REP], targets)
    phi = es_uniform_state([REP])
    dev_blocks = dev_sum = 0.0
    n_grid = 0
    for g in (0.5, 1.0, 2.0):
        spec = InteractionSpec(coupling=g, targets=targets)
        h_sa = build_interaction([REP], spec)
        for e_factor in (1.0, 1.5):
            e_a = e_factor * REP.gap
            aux = AuxiliarySpec(count=1, energy=e_a)
            h_tot = build_total([REP], h_sa, aux)
            spectral = hermitian_eig(h_tot)
            ctx = ResonanceContext.from_codes([REP], e_a, g)
            for beta in (0.0, 0.1, 1.0):
                thermal = ThermalSpec.from_codes([REP], beta)
                rho0 = initial_state([REP], thermal, aux)
                for t in np.linspace(0.0, 2 * np.pi, 40):
                    rho_t = evolve(h_tot, t, rho0, spectral=spectral)
                    p0_d, p1_d, p10_d = coupled_blocks(rho_t, psi, phi)
                    c = evolution_coefficients(ctx, thermal, t)
                    dev_blocks = max(
                        dev_blocks,
                        abs(c.p0 - p0_d),
                        abs(c.p1 - p1_d),
                        abs(c.p10 - p10_d),
                    )
                    if ctx.resonant:
                        dev_sum = max(dev_sum, abs(c.p0 + c.p1 - thermal.p_weight))
                    n_grid += 1

    # resonant probability and fidelity closed forms over the sweep plane
    g, beta = 1.0, 0.1
    pw = p_beta([REP], beta)
    spec = InteractionSpec(coupling=g, targets=targets)
    aux = AuxiliarySpec(count=1, energy=REP.gap)
    h_tot = build_total([REP], build_interaction([REP], spec), aux)
    spectral = hermitian_eig(h_tot)
    thermal = ThermalSpec.from_codes([REP], beta)
    rho0 = initial_state([REP], thermal, aux)
    target_vec = joint_target_state([REP], targets)
    dev_p = dev_fid = 0.0
    n_fid = 0
    for t in np.linspace(0.0, 10.0, 15):
        rho_t = evolve(h_tot, t, rho0, spectral=spectral)
        for a in np.linspace(0.0, np.pi, 12):
            rec = measure_aq(rho_t, 1, (MeasurementSetting(a=a),), target=target_vec)[(+1,)]
            dev_p = max(dev_p, abs(rec.probability - p_plus_resonant(a, t, g, pw)))
            if rec.attainable and rec.probability > 1e-12:
                dev_fid = max(dev_fid, abs(rec.fidelity - f_plus_resonant(a, t, g, beta, [REP])))
                n_fid += 1
    ok = dev_blocks <= 1e-8 and dev_p <= 1e-8 and dev_fid <= 1e-8 and dev_sum <= 1e-10
    print_measured(
        capsys,
        3,
        f"blocks {dev_blocks:.2e} ({n_grid} pts incl. detuned), p {dev_p:.2e}, "
        f"f {dev_fid:.2e} ({n_fid} pts), p0+p1 {dev_sum:.2e}",
    )
    record_criterion(
        3,
        "closed forms match dense pipeline",
        ok,
        f"blocks <= 1e-8 ({n_grid} pts incl. detuned), p <= 1e-8, f <= 1e-8, p0+p1 <= 1e-10",
    )
    assert ok


def test_criterion_04_coupled_eigenpair_residuals(capsys):
    targets = (LogicalTarget(0.4, 2.2),)
    psi = joint_target_state([REP], targets)
    phi = es_uniform_state([REP])
    worst = 0.0
    for e_factor, g in ((1.0, 0.7), (1.5, 1.0), (0.6, 2.0)):
        e_a = e_factor * REP.gap
        ctx = ResonanceContext.from_codes([REP], e_a, g)
        spec = InteractionSpec(coupling=g, targets=targets)
        aux = AuxiliarySpec(count=1, energy=e_a)
        h_tot = build_total([REP], build_interaction([REP], spec), aux)
        pairs = coupled_eigenpairs(ctx, psi, phi)
        assert len(pairs) == 2
        for pair in pairs:
            worst = max(worst, float(np.linalg.norm(h_tot @ pair.vector - pair.value * pair.vector)))
    ok = worst <= 1e-9
    print_measured(capsys, 4, f"max residual {worst:.2e} at 3 points")
    record_criterion(4, "coupled eigenpair residuals", ok, "max residual <= 1e-9 at 3 points")
    assert ok


def test_criterion_05_inversion_round_trip(capsys):
    rng = np.random.default_rng(14)
    g, beta = 1.0, 0.1
    checked = 0
    worst = 0.0
    while checked < 20:
        f_target = float(rng.uniform(0.3, 0.999))
        t = float(rng.uniform(0.1, 3.0))
        if np.sin(g * t) ** 2 < 1e-3:
            continue
        res = a_for_fidelity(f_target, g, t, beta, [REP])
        if not res.attainable or res.discriminant <= 0:
            continue
        worst = max(worst, abs(f_plus_resonant(res.a, t, g, beta, [REP]) - f_target))
        checked += 1
    no_solution = a_for_fidelity(0.05, g, 0.5, 0.0, [REP])
    ok = worst <= 1e-8 and not no_solution.attainable and no_solution.discriminant <= 0
    print_measured(capsys, 5, f"max|f_back-f|={worst:.2e} over 20 pairs")
    record_criterion(
        5,
        "fidelity-angle inversion round trip",
        ok,
        "max|f_back-f| <= 1e-8 over 20 pairs; non-positive branch reports no solution",
    )
    assert ok


def test_criterion_06_infinite_temperature_weight(capsys):
    devs = [
        abs(p_beta([REP], 0.0) - 1 / 8),
        abs(p_beta([REP, REP], 0.0) - 1 / 64),
        abs(p_beta([CHAIN4], 0.0) - 1 / 16),
        abs(ThermalSpec.from_codes([REP, REP], 0.0).p_weight - 1 / 64),
    ]
    worst = max(devs)
    ok = worst <= 1e-14
    print_measured(capsys, 6, f"max|p - D^-L|={worst:.2e}")
    record_criterion(6, "infinite-temperature weight", ok, "max|p - D^-L| <= 1e-14")
    assert ok


def test_criterion_07_chain_benchmark_rows(capsys):
    gated = (1, 2, 7, 9, 11)
    failures = []
    slowest = 0.0
    p_dev = 0.0
    for idx in gated:
        t0 = time.perf_counter()
        report = reproduce_table1(rows=[idx])
        slowest = max(slowest, time.perf_counter() - t0)
        row = report["rows"][0]
        matched, ref = row["matched"], row["reference"]
        for key in ("m_min_066", "m_min_090"):
            if matched[key] != ref[key]:
                failures.append(f"row {idx} {key}: {matched[key]} != {ref[key]}")
        for key in ("p_066", "p_090"):
            d = abs(row["deltas"][key]) if row["deltas"][key] is not None else float("inf")
            p_dev = max(p_dev, d)
            if d > 0.005:
                failures.append(f"row {idx} {key}: delta {d:.4f} > 0.005")
        aux = report["parameters"]
    best_match = reproduce_table1(rows=[3, 4, 5, 6])
    match_notes = []
    for row in best_match["rows"]:
        policies = {c["policy"] for c in row["candidates"]}
        if policies != {KEEP, RESET}:
            failures.append(f"row {row['row']}: policies tried {sorted(policies)}")
        m = row["matched"]
        match_notes.append(
            f"row {row['row']}->{m['cardinal']}/{m['policy'].split('-')[0]}"
            f" dm66={row['deltas']['m_min_066']:+.0f} fmax={m['max_fidelity']:.4f}"
        )
    ok = not failures and slowest < 60.0
    with capsys.disabled():
        print(f"\nchain benchmark rows: slowest gated row took {slowest:.1f}s (bound 60s)")
    record_criterion(
        7,
        "chain benchmark rows",
        ok,
        f"E_A={aux['aux_energy']} ({aux['aux_energy_policy']}); rows {gated} exact M, "
        f"max|dp|={p_dev:.4f}; every row under 60s; best-match: " + "; ".join(match_notes),
    )
    assert ok, failures


def test_criterion_08_two_site_full_purification():
    spec = HeisenbergSpec(n_qubits=2)
    code = build_heisenberg_code(spec)
    h_tot = build_xy_setup(XYSetup(n_system=2, j_1=1.0, j_2=0.0, gamma=0.0), spec)
    u = hermitian_eig(h_tot).unitary(1.0)
    ensemble = thermal_ensemble([code], 0.1)
    settings = (MeasurementSetting(a=0.0, b=0.0, k=+1),)

    deficits = {}
    p_final = None
    for label in ("z-", "z+"):  # polarized and single-magnon targets
        traj = fast_trajectory(u, ensemble, settings, cardinal_state(code, label), 30)
        window = traj.fidelity[:14]
        deficits[label] = float(1.0 - np.max(window))
        p_final = float(traj.p_cumulative[-1])
    p_ok = abs(p_final - 0.268) <= 0.005
    f_ok = all(d <= 1e-6 for d in deficits.values())
    ok = p_ok and f_ok
    record_criterion(
        8,
        "two-site chain purifies both poles",
        ok,
        f"p_cum(30)={p_final:.4f} ({'ok' if p_ok else 'off'}); "
        f"fidelity deficits within 14 rounds: polarized {deficits['z-']:.2e}, "
        f"magnon {deficits['z+']:.2e} (claim needs <= 1e-6; the isotropic bond "
        "conserves magnetization, so the magnon target is unreachable from the "
        "thermal mixture and the polarized approach is geometric, not exact)",
    )
    assert ok, deficits


def test_criterion_09_sweep_plane_feasible_regions(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(out)]) == 0
    crossing_line = next(
        l for l in out.read_text().splitlines() if l.startswith("# crossings: ")
    )
    counts = json.loads(crossing_line[len("# crossings: "):])
    ok = counts["f>=0.66,p>0"] > 0 and counts["f>=0.9,p>0"] > 0
    record_criterion(
        9,
        "fig2 plane has feasible regions",
        ok,
        f"cells with f>=0.66,p>0: {counts['f>=0.66,p>0']}; f>=0.9,p>0: {counts['f>=0.9,p>0']}",
    )
    assert ok


def test_criterion_10_high_target_mostly_unreached(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("a,")
    ]
    m90 = [int(r[3]) for r in rows]
    n_fail = sum(1 for m in m90 if m == -1)
    ok = len(m90) == 2500 and n_fail > len(m90) / 2
    record_criterion(
        10,
        "0.9 target unreached on most of the plane",
        ok,
        f"{n_fail}/{len(m90)} grid cells never reach 0.9 within 200 rounds",
    )
    assert ok


def test_criterion_11_coupling_decomposition(capsys):
    spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(0.0, 0.0),))
    h_sa = build_interaction([REP], spec)
    terms = pauli_decompose(h_sa)
    recon_err = float(np.max(np.abs(pauli_reconstruct(terms) - h_sa)))

    reference = three_qubit_coupling_reference(0.0, 0.0, 1.0)
    report = compare_term_lists(terms, reference)
    with capsys.disabled():
        print("\ncoupling decomposition vs hand-derived reference (theta=0, phi=0):")
        print(f"  computed terms: {report['n_computed']}, reference terms: {report['n_reference']}")
        print(f"  max coefficient delta: {report['max_delta']:.3e}")
        if report["mismatches"]:
            for m in report["mismatches"]:
                print(f"  MISMATCH {m['pauli_string']}: {m['computed']} vs {m['reference']}")
        else:
            print("  all strings agree within 1e-10")

    ok = recon_err <= 1e-10
    print_measured(
        capsys, 11, f"reconstruction error {recon_err:.2e}; max delta {report['max_delta']:.2e}"
    )
    record_criterion(
        11,
        "coupling decomposition reconstructs",
        ok,
        f"reconstruction error <= 1e-10; reference comparison: "
        f"{report['n_computed']}/{report['n_reference']} terms, "
        f"every coefficient within 1e-10: {report['agree']}",
    )
    assert ok
