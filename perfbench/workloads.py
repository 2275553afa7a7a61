"""Seeded workload configs and the correctness check of each workload.

A workload is one CLI experiment with a generated ``--config``.  The seed
perturbs continuous parameters only (inverse temperature, grid-range
ends, round duration); grid sizes, chain sizes and ``max_rounds`` stay
fixed so the work per run does not drift across seeds.  Seed 0 gives the
package's default configuration.  Every key the experiment reads is
written out, so a later change of the CLI defaults cannot change the
workload.

The two planes are kept small (a call takes about 0.2 s here) so that a
run makes a hundred or more calls: the shared machine's speed changes
within seconds, and the fastest of many short calls varies far less
from run to run than the fastest of a few long ones.

Each check recomputes the output through an independent path of the
package and returns a list of problems (empty when the output is right).
It runs outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

REPETITION_DOC = {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}
KEEP = "keep-post-measurement"
# Cells of the fig4 plane recomputed with the dense reference loop.
FIG4_SAMPLE = 12
# fig2's analytic and numeric columns must agree this closely.
FIG2_TOL = 1e-9
# Chain-table rows at most this long are recomputed with the dense loop.
DENSE_MAX_SITES = 4
# Rows that reproduce their printed m_min exactly at the default parameters.
EXACT_ROWS = (1, 2, 7, 9, 11)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    suffix: str
    make_config: Callable[[int], dict]
    warmup_config: Callable[[dict], dict]
    check: Callable[[dict, str], list[str]]


def _jitter(rng: random.Random, seed: int):
    """Return u(scale) in [-scale, scale], or 0 everywhere for seed 0."""
    if seed == 0:
        return lambda scale: 0.0
    return lambda scale: rng.uniform(-scale, scale)


def _plane(seed: int, points: int) -> dict:
    rng = random.Random(seed)
    u = _jitter(rng, seed)
    return {
        "code": REPETITION_DOC,
        "L": 1,
        "g": 1.0,
        "e_a": None,
        "beta": 0.1 * (1.0 + u(0.1)),
        "theta": 0.0,
        "phi": 0.0,
        "a_range": [abs(u(0.02)), math.pi - abs(u(0.02))],
        "a_points": points,
        "t_range": [abs(u(0.05)), 2 * math.pi - abs(u(0.05))],
        "t_points": points,
    }


def fig2_config(seed: int) -> dict:
    return _plane(seed, 30)


def fig4_config(seed: int) -> dict:
    cfg = _plane(seed, 10)
    cfg.update({"b": 0.0, "k": 1, "f_targets": [0.66, 0.9], "max_rounds": 200, "aq_reset": KEEP})
    return cfg


def table1_config(seed: int) -> dict:
    rng = random.Random(seed)
    u = _jitter(rng, seed)
    return {
        "rows": None,
        "beta": 0.1 * (1.0 + u(0.1)),
        "duration": 1.0 + u(0.05),
        "j_1": 1.0,
        "aux_energy": None,
        "max_rounds": 500,
    }


def _small_plane(cfg: dict) -> dict:
    return {**cfg, "a_points": 2, "t_points": 2}


def _table_rows(cfg: dict) -> dict:
    return {**cfg, "rows": [1, 7]}


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _same(x: float, y: float, tol: float) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= tol


def check_fig2(cfg: dict, path: str) -> list[str]:
    """The closed-form columns agree with the dense evolve-and-measure columns."""
    header, rows = _read_csv(path)
    problems = []
    if len(rows) != cfg["a_points"] * cfg["t_points"]:
        problems.append(f"fig2: {len(rows)} rows for a {cfg['a_points']}x{cfg['t_points']} plane")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        for ana, num in (("f_analytic", "f_numeric"), ("p_analytic", "p_numeric")):
            x, y = row[col[ana]], row[col[num]]
            if not _same(x, y, FIG2_TOL):
                problems.append(f"fig2: a={row[0]!r} t={row[1]!r}: {ana} {x!r} vs {num} {y!r}")
    return problems


def check_fig4(cfg: dict, path: str) -> list[str]:
    """A seeded sample of cells gives the same m_min under the dense ``run_emr`` loop."""
    from logipure import (
        AuxiliarySpec,
        InteractionSpec,
        LogicalTarget,
        MeasurementSetting,
        RoundSpec,
        ThermalSpec,
        build_interaction,
        build_total,
        code_from_json,
        find_m_min,
        initial_state,
        joint_target_state,
        run_emr,
    )

    header, rows = _read_csv(path)
    problems = []
    if len(rows) != cfg["a_points"] * cfg["t_points"]:
        problems.append(f"fig4: {len(rows)} rows for a {cfg['a_points']}x{cfg['t_points']} plane")
    codes = [code_from_json(cfg["code"])] * cfg["L"]
    targets = (LogicalTarget(cfg["theta"], cfg["phi"]),) * cfg["L"]
    spec = InteractionSpec(coupling=cfg["g"], targets=targets)
    e_a = sum(c.gap for c in codes) if cfg["e_a"] is None else cfg["e_a"]
    aux = AuxiliarySpec(count=1, energy=e_a)
    h_tot = build_total(codes, build_interaction(codes, spec), aux)
    rho0 = initial_state(codes, ThermalSpec.from_codes(codes, cfg["beta"]), aux)
    target = joint_target_state(codes, targets)

    cells = [row for row in rows if row[1] > 0.0]  # a round needs a positive duration
    rng = random.Random(json.dumps(cfg, sort_keys=True))
    for row in rng.sample(cells, min(FIG4_SAMPLE, len(cells))):
        a, t = row[0], row[1]
        setting = MeasurementSetting(a=a, b=cfg["b"], k=cfg["k"])
        traj = run_emr(h_tot, rho0, RoundSpec(t, (setting,)), target, cfg["max_rounds"], cfg["aq_reset"])
        for f_t, got in zip(cfg["f_targets"], row[2:]):
            m = find_m_min(traj, f_t, max_rounds=cfg["max_rounds"])
            want = -1 if m is None else m
            if got != want:
                problems.append(f"fig4: a={a!r} t={t!r} f={f_t}: m_min {got:g}, dense loop {want}")
    return problems


def check_table1(cfg: dict, path: str) -> list[str]:
    """Rows with N <= 4 match ``run_emr``; at the defaults, the exact rows hit their printed m_min."""
    import numpy as np

    from logipure import (
        CALIBRATED_AUX_ENERGY,
        CHAIN_BENCHMARK,
        HeisenbergSpec,
        MeasurementSetting,
        RoundSpec,
        XYSetup,
        build_heisenberg_code,
        build_xy_setup,
        cardinal_state,
        find_m_min,
        gibbs,
        kron,
        run_emr,
    )

    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    by_index = {row.index: row for row in CHAIN_BENCHMARK}
    wanted = sorted(by_index) if cfg["rows"] is None else sorted(cfg["rows"])
    got_rows = {r["row"]: r for r in report["rows"]}
    problems = []
    if sorted(got_rows) != wanted:
        problems.append(f"table1: rows {sorted(got_rows)}, expected {wanted}")
    e_a = CALIBRATED_AUX_ENERGY if cfg["aux_energy"] is None else cfg["aux_energy"]
    at_defaults = cfg["beta"] == 0.1 and cfg["duration"] == 1.0 and cfg["j_1"] == 1.0
    for index, got in sorted(got_rows.items()):
        ref, matched = by_index[index], got["matched"]
        if at_defaults and index in EXACT_ROWS:
            for key in ("m_min_066", "m_min_090"):
                if matched[key] != getattr(ref, key):
                    problems.append(f"table1 row {index}: {key} {matched[key]}, printed {getattr(ref, key)}")
        if ref.n_sites > DENSE_MAX_SITES:
            continue
        spec = HeisenbergSpec(n_qubits=ref.n_sites)
        n_aux = len(ref.settings)
        setup = XYSetup(ref.n_sites, n_aux, j_1=cfg["j_1"], j_2=ref.j_2, gamma=ref.gamma, aux_energy=e_a)
        code = build_heisenberg_code(spec)
        ground = np.zeros((2**n_aux, 2**n_aux))
        ground[0, 0] = 1.0
        rho0 = kron(gibbs(code.hamiltonian, cfg["beta"])[0], ground)
        settings = tuple(MeasurementSetting(a=a, b=b, k=k) for a, b, k in ref.settings)
        traj = run_emr(
            build_xy_setup(setup, spec),
            rho0,
            RoundSpec(cfg["duration"], settings),
            cardinal_state(code, matched["cardinal"]),
            cfg["max_rounds"],
            matched["policy"],
        )
        dense = {"n_rounds": traj.n_rounds, "truncated": traj.truncated}
        for key, f_t in (("m_min_066", 0.66), ("m_min_090", 0.9)):
            dense[key] = find_m_min(traj, f_t, max_rounds=cfg["max_rounds"])
        for key, want in dense.items():
            if matched[key] != want:
                problems.append(f"table1 row {index}: {key} {matched[key]}, dense loop {want}")
        fmax = float(np.max(traj.fidelity)) if traj.n_rounds else 0.0
        if abs(matched["max_fidelity_full"] - fmax) > 1e-9:
            problems.append(f"table1 row {index}: max_fidelity {matched['max_fidelity_full']!r}, dense loop {fmax!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4-sweep", "fig4", "csv", fig4_config, _small_plane, check_fig4),
        Workload("chain-table", "table1", "json", table1_config, _table_rows, check_table1),
        Workload("fig2-dense", "fig2", "csv", fig2_config, _small_plane, check_fig2),
    )
}
