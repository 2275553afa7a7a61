"""End-to-end CLI runs: determinism, schemas, and failure exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logipure
from logipure.cli import main
from logipure.codes import LogicalTarget, code_from_json
from logipure.emr import CALIBRATED_AUX_ENERGY
from logipure.formulas import p_beta
from logipure.interaction import InteractionSpec, build_interaction, pauli_decompose

REPETITION = {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}

SMALL_FIG2 = {"a_points": 6, "t_points": 5}
SMALL_FIG4 = {"a_points": 5, "t_points": 4, "max_rounds": 8}


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


def assert_matches_golden(got, want, path="$"):
    """Non-floats equal; floats within 1e-10 relative plus 1e-14 absolute."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= 1e-10 * abs(want) + 1e-14, (path, got, want)
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
    ],
)
def test_fig4_matches_golden(tmp_path, name, cfg):
    """fig4 planes byte for byte against files saved before the cell-batched kernel.

    The default plane holds the t = 0 cells, where a = pi stops at the
    probability floor in round 1, and cells that never reach a target.
    """
    rc, out = run_cli(tmp_path, "fig4", cfg)
    assert rc == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


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
    fig4 = {"a_points": 2, "t_points": 2, "max_rounds": 5}
    for key, value, message in (
        ("aq_reset", "discard", "unknown reset policy 'discard'"),
        ("f_targets", [], "f_targets must be non-empty"),
    ):
        rc, out = run_cli(tmp_path, "fig4", {**fig4, key: value}, name=f"fig4{key}")
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
