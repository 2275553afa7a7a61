"""End-to-end CLI runs: determinism, schemas, and failure exit codes."""

import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import logipure
from logipure import cli
from logipure.cli import main
from logipure.codes import LogicalTarget, code_from_json
from logipure.emr import CALIBRATED_AUX_ENERGY
from logipure.formulas import p_beta
from logipure.interaction import InteractionSpec, build_interaction, pauli_decompose
from oracles import next_nearest_zz_chain, rotated_surface_code

REPETITION = {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}

SMALL_FIG2 = {"a_points": 6, "t_points": 5}
SMALL_FIG4 = {"a_points": 5, "t_points": 4, "max_rounds": 8}
# purify's record of a +1 outcome that cannot occur: its round stopped and was zeroed
UNATTAINABLE_PLUS = {"attainable": False, "fidelity": None, "outcome": [1], "probability": 0.0, "probability_full": 0.0}


def run_cli(tmp_path, experiment, cfg=None, name="out"):
    out = tmp_path / f"{name}.{'json' if experiment in ('table1', 'purify') else 'csv'}"
    argv = [experiment, "--out", str(out)]
    if cfg is not None:
        cfg_path = tmp_path / f"{name}_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv += ["--config", str(cfg_path)]
    rc = main(argv)
    return rc, out


def parse_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return comments, header, rows


def test_outputs_are_deterministic(tmp_path):
    rc1, out1 = run_cli(tmp_path, "fig2", SMALL_FIG2, name="first")
    rc2, out2 = run_cli(tmp_path, "fig2", SMALL_FIG2, name="second")
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    rc3, out3 = run_cli(tmp_path, "purify", None, name="p1")
    rc4, out4 = run_cli(tmp_path, "purify", None, name="p2")
    assert rc3 == rc4 == 0
    assert out3.read_bytes() == out4.read_bytes()


def test_fig2_columns(tmp_path):
    rc, out = run_cli(tmp_path, "fig2", SMALL_FIG2)
    assert rc == 0
    comments, header, rows = parse_csv(out)
    assert header == ["a", "t", "f_analytic", "p_analytic", "f_numeric", "p_numeric"]
    assert len(rows) == 6 * 5
    recount = {"f>=0.66,p>0": 0, "f>=0.9,p>0": 0}
    for a, t, f_ana, p_ana, f_num, p_num in rows:
        assert abs(p_ana - p_num) < 1e-10
        if not (np.isnan(f_ana) or np.isnan(f_num)):
            assert abs(f_ana - f_num) < 1e-8
        if p_num > 0 and not np.isnan(f_num):
            recount["f>=0.66,p>0"] += int(f_num >= 0.66)
            recount["f>=0.9,p>0"] += int(f_num >= 0.9)
    crossing_line = next(c for c in comments if c.startswith("# crossings: "))
    assert json.loads(crossing_line[len("# crossings: "):]) == recount
    config_line = next(c for c in comments if c.startswith("# config: "))
    cfg = json.loads(config_line[len("# config: "):])
    assert cfg["experiment"] == "fig2"
    assert cfg["e_a_resolved"] == 4.0


def test_fig2_rejects_detuning(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "fig2", dict(SMALL_FIG2, e_a=5.0))
    assert rc == 2
    assert "resonance" in capsys.readouterr().err


def test_fig3_thermal_weights(tmp_path):
    cfg = {"j_range": [1.0, 2.0], "j_points": 2, "beta_range": [0.0, 2.0], "beta_points": 3}
    rc, out = run_cli(tmp_path, "fig3", cfg)
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["j_s", "beta", "p_beta"]
    assert len(rows) == 2 * 3
    cells = {(j, b): p for j, b, p in rows}
    assert abs(cells[(1.0, 0.0)] - 1 / 8) < 1e-14
    assert abs(cells[(2.0, 0.0)] - 1 / 8) < 1e-14
    z = 2 + 6 * np.exp(-8.0)
    assert abs(cells[(1.0, 2.0)] - np.exp(-8.0) / z) < 1e-14


def test_fig4_sentinels(tmp_path):
    rc, out = run_cli(tmp_path, "fig4", SMALL_FIG4)
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["a", "t", "m_min_0.66", "m_min_0.9"]
    assert len(rows) == 5 * 4
    m66 = [int(r[2]) for r in rows]
    m90 = [int(r[3]) for r in rows]
    assert -1 in m66  # a=0 never purifies
    assert any(m > 0 for m in m66)
    # reaching 0.9 is never easier than reaching 0.66
    for lo, hi in zip(m66, m90):
        if lo == -1:
            assert hi == -1
        elif hi != -1:
            assert hi >= lo


@pytest.mark.parametrize(
    "cfg",
    [
        {"L": 2, "beta": 0.5},
        {"L": 2, "e_a": 3.0, "g": 0.7, "k": -1, "aq_reset": "reset-to-ground"},
        {"code": {"type": "heisenberg", "n": 4}, "b": 1.0, "theta": 1.1, "phi": 0.4, "beta": 0.3},
    ],
    ids=["two-codes", "two-codes-detuned-reset", "chain"],
)
def test_fig4_matches_the_dense_joint_plane(tmp_path, cfg):
    """fig4's rank-one recursion gives plane_m_min's m_min, cell for cell, from the dense joint spectrum."""
    from logipure.emr import plane_m_min, thermal_ensemble
    from logipure.interaction import AuxiliarySpec, build_total, joint_target_state
    from logipure.measurement import MeasurementSetting
    from logipure.operators import hermitian_eig

    cfg = {**cfg, "a_points": 7, "t_points": 6, "max_rounds": 60}
    rc, out = run_cli(tmp_path, "fig4", cfg)
    assert rc == 0
    full = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
    codes = [code_from_json(full["code"])] * full["L"]
    spec = InteractionSpec(coupling=full["g"], targets=(LogicalTarget(full["theta"], full["phi"]),) * full["L"])
    h_tot = build_total(codes, build_interaction(codes, spec), AuxiliarySpec(energy=full["e_a_resolved"]))
    a_grid = np.linspace(*full["a_range"], full["a_points"])
    dense = plane_m_min(
        hermitian_eig(h_tot),
        thermal_ensemble(codes, full["beta"]),
        [(MeasurementSetting(a=a, b=full["b"], k=full["k"]),) for a in a_grid],
        np.linspace(*full["t_range"], full["t_points"]),
        joint_target_state(codes, spec.targets),
        full["f_targets"],
        full["max_rounds"],
        full["aq_reset"],
    )
    _, _, rows = parse_csv(out)
    assert np.array_equal(np.array(rows)[:, 2:].reshape(dense.shape), dense)
    assert (dense > 0).any()  # some cell reaches a target


def test_table1_report_schema(tmp_path):
    rc, out = run_cli(tmp_path, "table1", {"rows": [1], "max_rounds": 60})
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["experiment"] == "table1"
    params = doc["report"]["parameters"]
    assert params["aux_energy"] == CALIBRATED_AUX_ENERGY
    assert params["aux_energy_policy"] == "calibrated"
    rows = doc["report"]["rows"]
    assert len(rows) == 1 and rows[0]["row"] == 1
    matched = rows[0]["matched"]
    assert matched["m_min_066"] == 4
    # floats carry full-precision duplicates
    assert "max_fidelity_full" in matched
    assert matched["max_fidelity"] == round(matched["max_fidelity_full"], 6)
    assert {"reference", "candidates", "deltas"} <= set(rows[0])


def test_table1_rejects_unknown_rows(tmp_path, capsys):
    rc, out = run_cli(tmp_path, "table1", {"rows": [1, 13, 0], "max_rounds": 5})
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 13]" in err
    assert not out.exists()


def assert_matches_golden(got, want, path="$", rel=1e-10):
    """Non-floats equal; floats within ``rel`` relative plus 1e-14 absolute."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}", rel)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{i}]", rel)
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= rel * abs(want) + 1e-14, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_table1_default_matches_golden(tmp_path):
    """The default table against a report saved before the sector-block split.

    Eigensolves and round loops now run per conserved block, so the
    floats move in their last digits; nothing else may move.
    """
    golden = json.loads((Path(__file__).parent / "data" / "table1_default.json").read_text())
    rc, out = run_cli(tmp_path, "table1")
    assert rc == 0
    assert_matches_golden(json.loads(out.read_text()), golden)


@pytest.mark.parametrize(
    "name,cfg",
    [
        ("fig4_default.csv", None),
        ("fig4_reset_12x12.csv", {"a_points": 12, "t_points": 12, "aq_reset": "reset-to-ground"}),
        (
            "fig4_reset_12x12_1000.csv",
            {"a_points": 12, "t_points": 12, "aq_reset": "reset-to-ground", "max_rounds": 1000},
        ),
    ],
)
def test_fig4_matches_golden(tmp_path, name, cfg):
    """fig4 planes byte for byte against files saved before the cell-batched kernel.

    The default plane holds the t = 0 cells, where a = pi stops at the
    probability floor in round 1, and cells that never reach a target.
    The 1000-round reset plane was saved before stopped cells froze in
    the stack: 72 of its cells stop, at 11 distinct rounds, 60 of them
    when their cumulative probability leaves the normal range.
    """
    rc, out = run_cli(tmp_path, "fig4", cfg)
    assert rc == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


def test_table1_truncating_rows_match_golden(tmp_path):
    """Rows 1, 3 and 5 at 1500 rounds against a report saved before stopped cells froze in the stack.

    Three of their cells stop inside one kernel pass, at rounds 1276,
    1345 and 1456, when their cumulative probability leaves the normal range.
    """
    golden = json.loads((Path(__file__).parent / "data" / "table1_rows135_1500.json").read_text())
    rc, out = run_cli(tmp_path, "table1", {"rows": [1, 3, 5], "max_rounds": 1500})
    assert rc == 0
    assert_matches_golden(json.loads(out.read_text()), golden)


def golden_rows(out, name):
    """Row pairs (got, golden) split on commas, once the comment lines and headers agree."""

    def split(text):
        lines = text.splitlines()
        n_head = sum(line.startswith("#") for line in lines) + 1
        return lines[:n_head], [line.split(",") for line in lines[n_head:]]

    got_head, got = split(out.read_text())
    want_head, want = split((Path(__file__).parent / "data" / name).read_text())
    assert got_head == want_head
    assert len(got) == len(want)
    return zip(got, want)


@pytest.mark.parametrize(
    "name,cfg",
    [
        ("fig2_20x20.csv", {"a_points": 20, "t_points": 20}),
        ("fig2_L2_8x8.csv", {"L": 2, "a_points": 8, "t_points": 8, "beta": 0.5}),
    ],
)
def test_fig2_matches_golden(tmp_path, name, cfg):
    """fig2 planes against files saved before the measurement contracted the auxiliary axes.

    The comments (config and crossings), the header and the grid and
    analytic columns must not move; the numeric columns may move in their
    last digits only, with NaN in the same cells.
    """
    rc, out = run_cli(tmp_path, "fig2", cfg)
    assert rc == 0
    for g, w in golden_rows(out, name):
        assert g[:4] == w[:4], (g, w)
        for x, y in zip(map(float, g[4:]), map(float, w[4:])):
            assert np.isnan(x) == np.isnan(y), (g, w)
            assert np.isnan(x) or abs(x - y) <= 1e-12, (g, w)


def test_fig3_matches_golden(tmp_path):
    """fig3 against a file saved before stabilizer codes split their spectrum once.

    The grid columns must not move; ``p_beta`` may move in its last digits.
    """
    rc, out = run_cli(tmp_path, "fig3", {"j_points": 20, "beta_points": 20})
    assert rc == 0
    for g, w in golden_rows(out, "fig3_20x20.csv"):
        assert g[:2] == w[:2], (g, w)
        assert abs(float(g[2]) - float(w[2])) <= 1e-13 * abs(float(w[2])), (g, w)


@pytest.mark.parametrize("d", [5, 7])
def test_surface_codes_run_fig4_and_purify_at_their_defaults(tmp_path, d):
    """The rotated surface codes on 25 and 49 qubits: both commands read the levels from the group.

    At the defaults purify measures a = pi on resonance at g t = pi / 2,
    so its +1 outcome has probability p_weight = e^{-2 beta} / Z with
    Z = 2 (1 + e^{-2 beta})^(d^2 - 1), and fidelity 1.
    """
    code = {"type": "stabilizer", "stabilizers": rotated_surface_code(d)}
    rc, out = run_cli(tmp_path, "fig4", {"code": code})
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 2500 and any(row[2] > 0 for row in rows)
    rc, out = run_cli(tmp_path, "purify", {"code": code})
    assert rc == 0
    result = json.loads(out.read_text())["result"]
    p_weight = np.exp(-0.2) / (2 * (1 + np.exp(-0.2)) ** (d * d - 1))
    assert abs(result["probability_full"] - p_weight) <= 1e-12 * p_weight
    assert abs(result["fidelity_full"] - 1.0) <= 1e-9


def test_purify_payload(tmp_path):
    rc, out = run_cli(tmp_path, "purify", {"t": 0.7, "beta": 0.1})
    assert rc == 0
    doc = json.loads(out.read_text())
    res, comp = doc["result"], doc["complement"]
    assert res["outcome"] == [1] and comp["outcome"] == [-1]
    assert abs(res["probability_full"] + comp["probability_full"] - 1.0) < 1e-12
    # defaults measure a=pi at resonance: exact closed form
    pw = p_beta([code_from_json(REPETITION)], 0.1)
    assert abs(res["probability_full"] - pw * np.sin(0.7) ** 2) < 1e-12
    assert abs(res["fidelity_full"] - 1.0) < 1e-10


def test_unattainable_outcome_reads_zero_and_null(tmp_path):
    """At a = pi and the Rabi node t = pi the +1 outcome is out of reach: the recursion stops
    its round, so it reads probability 0 and fidelity null, not the rounding residue."""
    rc, out = run_cli(tmp_path, "purify", {"t": float(np.pi)})
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"] == UNATTAINABLE_PLUS
    assert doc["complement"]["attainable"] and doc["complement"]["probability_full"] == 1.0


@pytest.mark.parametrize("command", ["fig4", "purify"])
@pytest.mark.parametrize(
    "energy,exits",
    [({"g": 1e160}, {0}), ({"e_a": 1e200}, {0}), ({"g": 1e308}, {2}), ({"e_a": 1e308}, {0, 2})],
    ids=["g-1e160", "e_a-1e200", "g-1e308", "e_a-1e308"],
)
def test_huge_coupling_or_auxiliary_energy_exits_0_or_2(command, energy, exits, tmp_path, capsys):
    """The pair's Rabi frequency is taken without squaring, so g = 1e160 and e_a = 1e200 run
    to finite values, and a purify shot's two outcomes still sum to 1.  Past that, an
    energy whose products overflow exits 2 with a message: g = 1e308 always, e_a = 1e308
    once it meets a duration past 1.8."""
    grid = {"a_points": 2, "t_points": 2, "max_rounds": 3} if command == "fig4" else {}
    rc, out = run_cli(tmp_path, command, {**energy, **grid})
    assert rc in exits and out.exists() == (rc == 0)
    if rc == 2:
        assert "is too large for float64" in capsys.readouterr().err
    elif command == "purify":
        doc = json.loads(out.read_text())
        records = [doc["result"], doc["complement"]]
        assert abs(sum(r["probability_full"] for r in records) - 1.0) < 1e-12
        assert all(r["fidelity"] is None or 0.0 <= r["fidelity_full"] <= 1.0 for r in records)


def test_overflow_error_exits_2(tmp_path, capsys, monkeypatch):
    """Python float arithmetic raises OverflowError where numpy would warn; it exits 2 as well."""

    def overflowing(cfg):
        return str(1e300**2)

    monkeypatch.setitem(cli.COMMANDS, "purify", overflowing)
    rc, out = run_cli(tmp_path, "purify")
    assert rc == 2 and not out.exists()
    assert "a config energy (a code's J, g, e_a) or time is too large for float64" in capsys.readouterr().err


def test_certain_outcome_reports_probability_at_most_one(tmp_path):
    """On the 4-site chain at t = 0 and a = 0 the +1 outcome is certain, and at J = 1.3 its
    rounding reaches 1 + 4e-16 in fig2's numeric column (at J = 1 the chain's sector-solved
    spectrum rounds it to 1 - 6e-16); it is clipped, and so is purify's."""
    chain = {"code": {"type": "heisenberg", "n": 4, "J": 1.3}}
    rc, out = run_cli(tmp_path, "fig2", {**chain, "a_points": 2, "t_points": 2})
    assert rc == 0
    for row in parse_csv(out)[2]:
        assert 0.0 <= row[3] <= 1.0 and 0.0 <= row[5] <= 1.0, row
    assert parse_csv(out)[2][0][5] == 1.0
    rc, out = run_cli(tmp_path, "purify", {**chain, "t": 0.0, "a": 0.0})
    assert rc == 0
    assert json.loads(out.read_text())["result"]["probability_full"] == 1.0


def test_decompose_matches_library(tmp_path):
    rc, out = run_cli(tmp_path, "decompose", {"theta": 0.0, "phi": 0.0})
    assert rc == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "pauli_string,real_coeff,imag_coeff"
    lines = body[1:]
    got = {}
    for line in lines:
        s, re_c, im_c = line.split(",")
        got[s] = complex(float(re_c), float(im_c))
    code = code_from_json(REPETITION)
    spec = InteractionSpec(coupling=1.0, targets=(LogicalTarget(0.0, 0.0),))
    expected = {t.letters: t.coefficient for t in pauli_decompose(build_interaction([code], spec))}
    assert set(got) == set(expected)
    assert len(got) == 48
    for s, c in expected.items():
        assert abs(got[s] - c) < 1e-12
        assert abs(c.imag) < 1e-12


@pytest.mark.parametrize(
    "name,cfg",
    [
        ("decompose_default.csv", None),
        ("decompose_theta1_phi0.5.csv", {"theta": 1.0, "phi": 0.5}),
        ("decompose_L2_equator.csv", {"L": 2, "theta": float(np.pi / 2), "phi": float(np.pi)}),
    ],
)
def test_decompose_matches_golden(tmp_path, name, cfg):
    """The term order and every printed digit, zeros printed as 0 and never -0.

    The files were saved before the expansion went qubit by qubit; the
    second has complex coefficients, the third 576 terms on 7 qubits.
    """
    rc, out = run_cli(tmp_path, "decompose", cfg)
    assert rc == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


@pytest.mark.parametrize(
    "command,code",
    [
        ("fig4", {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ"], "J": 1e308}),
        ("decompose", {"type": "heisenberg", "n": 2, "J": 1e308}),
        ("fig4", {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1e307}),
        ("decompose", {"type": "stabilizer", "stabilizers": ["XX", "ZZ"], "J": 1e308}),
    ],
    ids=["fig4-stabilizer", "decompose-heisenberg", "fig4-phases", "decompose-spectrum"],
)
def test_overflowing_code_coupling_exits_2(command, code, tmp_path, capsys):
    """A finite J too large for float64 is refused with a message naming J, not a numpy warning.

    At 1e308 the code Hamiltonian itself overflows, or (XX, ZZ) its
    finite entries give eigenvalues that do; at 1e307 the code is built,
    and its energies times the round durations overflow later.
    Warnings are errors under this suite, so a numpy warning fails here.
    """
    grid = {"a_points": 2, "t_points": 2} if command == "fig4" else {}
    rc, out = run_cli(tmp_path, command, {"code": code, **grid})
    assert rc == 2 and not out.exists()
    assert "a config energy (a code's J, g, e_a) or time is too large for float64" in capsys.readouterr().err


def test_bad_configs_exit_2(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "purify", {"tt": 1.0})
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["purify", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()

    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["purify", "--config", str(lst), "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()

    assert main(["purify", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()

    # unwritable output directory
    assert main(["purify", "--out", str(tmp_path / "nodir" / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["not-a-command", "--out", "x"])
    capsys.readouterr()

    for command in ("fig4", "table1"):
        for rounds in (0, -3):
            cfg = {"a_points": 2, "t_points": 2} if command == "fig4" else {"rows": [1]}
            rc, out = run_cli(tmp_path, command, {**cfg, "max_rounds": rounds}, name=f"{command}{rounds}")
            assert rc == 2
            assert f"max_rounds must be >= 1, got {rounds}" in capsys.readouterr().err
            assert not out.exists()
    for duration in (0, -1):
        rc, out = run_cli(tmp_path, "table1", {"rows": [1], "duration": duration}, name=f"table1t{duration}")
        assert rc == 2
        assert "round duration must be positive" in capsys.readouterr().err
        assert not out.exists()
    # a negative round duration is refused before any grid or code exists (the chain is too large
    # to build); t = 0 is an empty round, and the default fig2 and fig4 grids start there
    huge = {"type": "heisenberg", "n": 10**6}
    for command, cfg, shortest in (
        ("fig2", {"t_range": [-3.0, -1.0], "a_points": 3, "t_points": 3, "code": huge}, -3.0),
        ("fig4", {"t_range": [-3.0, -1.0], "a_points": 3, "t_points": 3, "max_rounds": 20, "code": huge}, -3.0),
        ("fig4", {"t_range": [-1.0, 1.0], "a_points": 3, "t_points": 3, "max_rounds": 20}, -1.0),
        ("purify", {"t": -1.0, "code": huge}, -1.0),
    ):
        rc, out = run_cli(tmp_path, command, cfg, name=f"{command}negt")
        assert rc == 2
        assert capsys.readouterr().err == f"error: round duration must be >= 0, got {shortest}\n"
        assert not out.exists()
    rc, out = run_cli(tmp_path, "purify", {"t": 0.0}, name="purifyt0")
    assert rc == 0
    # fig3 refuses the couplings and temperatures a code build and a bath would refuse
    for cfg, message in (
        ({"j_range": [-1.0, 1.0]}, "coupling must be positive, got -1.0"),
        ({"j_range": [0.0, 1.0]}, "coupling must be positive, got 0.0"),
        ({"beta_range": [-1.0, 1.0]}, "inverse temperature must be >= 0, got -1.0"),
    ):
        rc, out = run_cli(tmp_path, "fig3", {**cfg, "j_points": 3, "beta_points": 3}, name="fig3range")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    for rows in ("12", [1.5], [True], 1):
        rc, out = run_cli(tmp_path, "table1", {"rows": rows, "max_rounds": 5}, name="table1rows")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: rows must be null or a list of integers")
        assert not out.exists()
    rc, out = run_cli(tmp_path, "table1", {"rows": [], "max_rounds": 5}, name="table1norows")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: rows must name at least one table1 row")
    assert not out.exists()
    rc, out = run_cli(tmp_path, "table1", {"rows": [1], "beta": -1, "max_rounds": 5}, name="table1beta")
    assert rc == 2
    assert "inverse temperature must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    fig4 = {"a_points": 2, "t_points": 2, "max_rounds": 5}
    for key, value, message in (
        ("aq_reset", "discard", "unknown reset policy 'discard'"),
        ("f_targets", [], "f_targets must be non-empty"),
    ):
        rc, out = run_cli(tmp_path, "fig4", {**fig4, key: value}, name=f"fig4{key}")
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # integer fields take JSON integers only: no truncated floats, strings or booleans
    for key, value in (
        ("a_points", 2.7),
        ("a_points", "3"),
        ("t_points", True),
        ("k", 1.5),
        ("L", 1.9),
        ("max_rounds", 5.9),
    ):
        rc, out = run_cli(tmp_path, "fig4", {**fig4, key: value}, name=f"fig4int{key}")
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be an integer")
        assert not out.exists()
    for command, cfg in (
        ("fig3", {"j_points": 3.0}),
        ("table1", {"rows": [1], "max_rounds": 5.0}),
        ("purify", {"k": 1.0}),
        ("decompose", {"L": 2.0}),
    ):
        rc, out = run_cli(tmp_path, command, cfg, name=f"{command}int")
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()
    # number fields take JSON numbers only (null where a key allows it): no strings or booleans
    for command, cfg, message in (
        ("fig2", {"beta": True}, "beta must be a number, got true"),
        ("fig2", {"a_range": ["0", "3"]}, 'a_range must be a list of numbers, got ["0", "3"]'),
        ("fig2", {"t_range": [0, 1, 2]}, "bad grid: range [0, 1, 2]"),
        ("fig2", {"g": "1"}, 'g must be a number, got "1"'),
        ("fig2", {"e_a": False}, "e_a must be a number, got false"),
        ("fig3", {"j_range": 1.0}, "j_range must be a list of numbers, got 1.0"),
        ("fig4", {**fig4, "b": True}, "b must be a number, got true"),
        ("fig4", {**fig4, "f_targets": [0.66, "0.9"]}, "f_targets must be a list of numbers"),
        ("fig4", {**fig4, "f_targets": 0.9}, "f_targets must be a list of numbers, got 0.9"),
        ("table1", {"rows": [1], "duration": "1.0"}, 'duration must be a number, got "1.0"'),
        ("table1", {"rows": [1], "aux_energy": True}, "aux_energy must be a number, got true"),
        ("table1", {"rows": [1], "j_1": None}, "j_1 must be a number, got null"),
        ("purify", {"t": "0.5"}, 't must be a number, got "0.5"'),
        ("purify", {"a": None}, "a must be a number, got null"),
        ("decompose", {"theta": True}, "theta must be a number, got true"),
    ):
        rc, out = run_cli(tmp_path, command, cfg, name=f"{command}float")
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()
    # the code document's n is a JSON integer and its J a finite number, neither a boolean
    for code, message in (
        ({"type": "heisenberg", "n": 2.9}, "code n must be an integer, got 2.9"),
        ({"type": "heisenberg", "n": 2, "J": "2"}, "code J must be a finite number, got '2'"),
        ({"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": True}, "code J must be a finite number, got True"),
        ({"type": "stabilizer", "stabilizers": [1, 2]}, "code stabilizers must be a non-empty list of strings, got [1, 2]"),
        ({"type": "stabilizer", "stabilizers": "ZZI"}, "code stabilizers must be a non-empty list of strings, got 'ZZI'"),
        ({"type": "stabilizer", "stabilizers": []}, "code stabilizers must be a non-empty list of strings, got []"),
    ):
        rc, out = run_cli(tmp_path, "decompose", {"code": code}, name="codedoc")
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()
    rc, out = run_cli(tmp_path, "decompose", {"variant": "bogus"}, name="variant")
    assert rc == 2
    assert "unknown variant 'bogus'" in capsys.readouterr().err
    assert not out.exists()
    # every code the CLI builds holds a logical qubit, which ground-prep cannot address
    rc, out = run_cli(tmp_path, "decompose", {"variant": "ground-prep"}, name="groundprep")
    assert rc == 2
    assert "every code the CLI builds has a two-fold ground manifold" in capsys.readouterr().err
    assert not out.exists()
    # NaN, Infinity and overflowing literals are rejected when the config is loaded
    for command, text in (
        ("purify", '{"t": NaN}'),
        ("table1", '{"rows": [1], "beta": NaN}'),
        ("fig3", '{"beta_range": [0, Infinity]}'),
        ("fig3", '{"beta_range": [-Infinity, 1]}'),
        ("decompose", '{"g": NaN}'),
        ("purify", '{"a": 1e999}'),
    ):
        cfg_path = tmp_path / "nonfinite_cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / f"nonfinite_{command}.out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config numbers must be finite")
        assert not out.exists()


@pytest.mark.parametrize(
    "command,cfg,rows",
    [
        ("fig2", {"L": 5}, "2^16 = 65536 rows"),
        ("fig2", {"L": 4}, "2^13 = 8192 rows"),
        ("decompose", {"code": {"type": "heisenberg", "n": 12}}, "2^13 = 8192 rows"),
        ("decompose", {"code": {"type": "heisenberg", "n": 10**6}, "L": 3}, "2^3000001 rows"),
    ],
)
def test_oversized_joint_hamiltonian_exits_2_before_allocating(tmp_path, capsys, command, cfg, rows):
    tracemalloc.start()
    try:
        rc, out = run_cli(tmp_path, command, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"need a joint Hamiltonian of {rows}; the limit is 4096 rows" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20  # nothing of the joint size, or of the code's, was allocated


def test_joint_size_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    """At the limit a config runs; one qubit more is refused."""
    monkeypatch.setattr(cli, "MAX_JOINT_ROWS", 16)  # the repetition code and its auxiliary qubit
    rc, out = run_cli(tmp_path, "fig2", SMALL_FIG2)
    assert rc == 0 and out.exists()
    rc, out = run_cli(tmp_path, "fig2", {**SMALL_FIG2, "L": 2}, name="two")
    assert rc == 2
    assert "2^7 = 128 rows; the limit is 16 rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        ("fig2", {"a_points": 10**6, "t_points": 10**6}, "a 1000000 x 1000000 plane has 1000000000000 cells; the limit is 250000 cells"),
        ("fig3", {"j_points": 1000, "beta_points": 1000}, "a 1000 x 1000 plane has 1000000 cells"),
        ("fig4", {"a_points": 500, "t_points": 501, "max_rounds": 1}, "a 500 x 501 plane has 250500 cells"),
        ("fig4", {"max_rounds": 4001}, "2500 cells of 4001 rounds make 10002500 cell rounds; the limit is 10000000 cell rounds"),
        ("fig4", {"max_rounds": 10**18}, "2500 cells of 1000000000000000000 rounds make"),
        ("table1", {"max_rounds": 416667}, "24 cells of 416667 rounds make 10000008 cell rounds"),
        ("table1", {"rows": [12], "max_rounds": 5 * 10**6 + 1}, "2 cells of 5000001 rounds make 10000002 cell rounds"),
        ("fig2", {"L": 3, "t_points": 33}, "33 durations need round operators of 17301504 entries on 1024 joint rows; the limit is 16777216"),
    ],
    ids=["fig2-plane", "fig3-plane", "fig4-plane", "fig4-rounds", "fig4-huge-rounds", "table1", "table1-one-row", "fig2-operators"],
)
def test_oversized_configs_exit_2_before_allocating(tmp_path, capsys, command, cfg, message):
    """A plane, a number of rounds or a stack of round operators past its limit in cli is refused
    with exit 2, no file and a message, before its grids, codes or arrays exist."""
    tracemalloc.start()
    try:
        rc, out = run_cli(tmp_path, command, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert peak < 5 << 20


def test_plane_and_round_limits_are_inclusive(tmp_path, capsys, monkeypatch):
    """A config at each limit runs; one past it is refused."""
    monkeypatch.setattr(cli, "MAX_PLANE_CELLS", 6)
    monkeypatch.setattr(cli, "MAX_CELL_ROUNDS", 12)
    monkeypatch.setattr(cli, "MAX_OPERATOR_ENTRIES", 2 * 128)  # two durations of 16 joint rows
    at_both = {"a_points": 3, "t_points": 2, "max_rounds": 2}  # 6 cells, 12 cell rounds
    for command, fits, past, message in (
        ("fig2", {"a_points": 2, "t_points": 2}, {"a_points": 2, "t_points": 3}, "the limit is 256 entries"),
        ("fig3", {"j_points": 2, "beta_points": 3}, {"j_points": 2, "beta_points": 4}, "the limit is 6 cells"),
        ("fig4", at_both, {"a_points": 2, "t_points": 2, "max_rounds": 4}, "the limit is 12 cell rounds"),
        ("fig4", at_both, {"a_points": 7, "t_points": 1, "max_rounds": 1}, "the limit is 6 cells"),
        ("table1", {"rows": [1], "max_rounds": 6}, {"rows": [1], "max_rounds": 7}, "the limit is 12 cell rounds"),
    ):
        rc, out = run_cli(tmp_path, command, fits, name=f"{command}fits")
        assert rc == 0 and out.exists()
        rc, out = run_cli(tmp_path, command, past, name=f"{command}past")
        assert rc == 2 and not out.exists()
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "code,message",
    [
        (
            {"type": "heisenberg", "n": 14},
            "a code of 14 qubits needs a Hamiltonian of 2^14 = 16384 rows; the limit is 4096 rows",
        ),
        (
            {"type": "stabilizer", "stabilizers": next_nearest_zz_chain(25)},  # rank 24, 2^23 dual words
            "47 stabilizers of rank 24 need an enumeration of 2^23 words, 159383552 bytes; the limit is 134217728 bytes",
        ),
    ],
    ids=["heisenberg-14", "stabilizer-past-budget"],
)
def test_fig4_refuses_an_oversized_code_before_allocating(tmp_path, capsys, code, message):
    """fig4 and purify build no joint matrix, so their limit is the code's own: they take any L
    up to cli.MAX_CODES, and refuse a chain past cli.MAX_JOINT_ROWS rows before building it, and
    a stabilizer code whose levels need an enumeration past codes.MAX_ENUMERATION_BYTES before
    allocating it."""
    for command, small in (("fig4", SMALL_FIG4), ("purify", {})):
        tracemalloc.start()
        try:
            rc, out = run_cli(tmp_path, command, {**small, "code": code})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20
        rc, out = run_cli(tmp_path, command, {**small, "L": cli.MAX_CODES + 1}, name="many")
        assert rc == 2 and not out.exists()
        assert f"L must lie in 1..{cli.MAX_CODES}" in capsys.readouterr().err
        rc, out = run_cli(tmp_path, command, {**small, "L": cli.MAX_CODES}, name=f"most_{command}")
        assert rc == 0  # the target's weight 1/Z and the excited weight underflow to 0
    # no fig4 cell reaches a target, and purify's +1 outcome needs the excited weight
    assert all(m == -1 for row in parse_csv(tmp_path / "most_fig4.csv")[2] for m in row[2:])
    doc = json.loads(out.read_text())
    assert doc["result"] == UNATTAINABLE_PLUS
    assert doc["complement"]["probability"] == 1.0 and doc["complement"]["fidelity"] == 0.0


def test_fig4_runs_eight_codes_in_little_memory(tmp_path):
    """Eight repetition codes (a joint matrix of 2^25 rows) run as fast as one: the default
    fig4 plane in well under 2 s, and a 2 x 2 plane or a purify shot within 1 MB of traced
    memory, code build included."""
    start = time.perf_counter()
    rc, out = run_cli(tmp_path, "fig4", {"L": 8})
    assert rc == 0 and time.perf_counter() - start < 2.0
    _, header, rows = parse_csv(out)
    assert len(rows) == 2500
    assert all(m == -1 or 1 <= m <= 200 for row in rows for m in row[2:])
    for command, grid in (("fig4", {"a_points": 2, "t_points": 2}), ("purify", {})):
        tracemalloc.start()
        try:
            rc, out = run_cli(tmp_path, command, {"L": 8, **grid}, name=f"small_{command}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1 << 20, (command, peak)
    doc = json.loads(out.read_text())
    assert abs(doc["result"]["probability_full"] + doc["complement"]["probability_full"] - 1.0) < 1e-12


def test_table1_agrees_across_blas_thread_counts(tmp_path):
    """Full-precision floats may move with the BLAS thread count, by 1e-14 at most."""
    src = str(Path(logipure.__file__).resolve().parents[1])
    reports = []
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"table1_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "logipure.cli", "table1", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(out.read_text()))
    assert_matches_golden(reports[1], reports[0], rel=0.0)


def check_purify_shot(proc, out):
    assert proc.returncode == 0, proc.stderr
    assert f"purify: wrote {out}" in proc.stdout
    assert json.loads(out.read_text())["result"]["attainable"]


def run_entry_point(*args):
    """Run the ``logipure`` script declared in pyproject.toml as pip's wrapper does.

    The child process imports ``logipure`` from the same directory as this
    test process, so the check needs no installed copy of the package.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["logipure"]
    module, _, attr = target.partition(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'logipure'; sys.exit({attr}())"
    )
    env = dict(os.environ)
    src = str(Path(logipure.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args], capture_output=True, text=True, env=env
    )


def test_console_script_smoke(tmp_path):
    out = tmp_path / "shot.json"
    check_purify_shot(run_entry_point("purify", "--out", str(out)), out)
    # the wrapper passes main()'s return value on as the process exit code
    bad = run_entry_point("purify", "--out", str(tmp_path / "nodir" / "x.json"))
    assert bad.returncode == 2
    assert "error:" in bad.stderr


@pytest.mark.skipif(shutil.which("logipure") is None, reason="logipure console script not on PATH")
def test_installed_console_script(tmp_path):
    out = tmp_path / "shot.json"
    proc = subprocess.run(
        [shutil.which("logipure"), "purify", "--out", str(out)], capture_output=True, text=True
    )
    check_purify_shot(proc, out)
