"""Command-line front end: figure grids and reports as CSV/JSON.

Subcommands:

* ``fig2``      - resonant fidelity/probability over the (a, t) plane,
                  analytic and numeric columns side by side (CSV);
* ``fig3``      - thermal weight of the excited superposition over the
                  (J_S, beta) plane for the three-qubit code (CSV);
* ``fig4``      - minimum purification rounds over the (a, t) plane for
                  two fidelity targets, sentinel -1 when unreached (CSV);
* ``table1``    - chain benchmark reproduction report (JSON);
* ``purify``    - one evolve-and-postselect shot (JSON);
* ``decompose`` - Pauli-string expansion of the engineered coupling (CSV).

Every output embeds the fully resolved configuration, and identical
configurations produce byte-identical files.  CSV numbers carry 17
significant digits; JSON reports are rounded to 6 digits with
full-precision duplicates alongside.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .codes import LogicalTarget, code_from_json
from .emr import KEEP, plane_m_min, reproduce_table1, thermal_ensemble
from .formulas import f_plus_resonant, p_beta, p_plus_resonant
from .interaction import (
    AuxiliarySpec,
    InteractionSpec,
    VARIANTS,
    build_interaction,
    build_total,
    joint_target_state,
    pauli_decompose,
)
from .measurement import MeasurementSetting, measure_aq
from .operators import evolve, hermitian_eig
from .thermal import ThermalSpec, evolved_joint_state, initial_state

REPETITION_DOC = {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}

# Host code, coupling and logical target shared by every engine command.
ENGINE_DEFAULTS = {"code": REPETITION_DOC, "L": 1, "g": 1.0, "theta": 0.0, "phi": 0.0}
# The commands that also evolve need the auxiliary splitting (null: on
# resonance) and the bath temperature.
EVOLVE_DEFAULTS = {**ENGINE_DEFAULTS, "e_a": None, "beta": 0.1}

DEFAULTS: dict[str, dict] = {
    "fig2": {
        **EVOLVE_DEFAULTS,
        "a_range": [0.0, float(np.pi)],
        "a_points": 60,
        "t_range": [0.0, float(2 * np.pi)],
        "t_points": 60,
    },
    "fig3": {
        "j_range": [0.1, 3.0],
        "j_points": 60,
        "beta_range": [0.0, 3.0],
        "beta_points": 60,
    },
    "fig4": {
        **EVOLVE_DEFAULTS,
        "b": 0.0,
        "k": 1,
        "a_range": [0.0, float(np.pi)],
        "a_points": 50,
        "t_range": [0.0, float(2 * np.pi)],
        "t_points": 50,
        "f_targets": [0.66, 0.9],
        "max_rounds": 200,
        "aq_reset": KEEP,
    },
    "table1": {
        "rows": None,
        "beta": 0.1,
        "duration": 1.0,
        "j_1": 1.0,
        "aux_energy": None,
        "max_rounds": 500,
    },
    "purify": {
        **EVOLVE_DEFAULTS,
        "t": float(np.pi / 2),
        "a": float(np.pi),
        "b": 0.0,
        "k": 1,
    },
    "decompose": {**ENGINE_DEFAULTS, "variant": "rank-one"},
}


def load_config(experiment: str, path: str | None) -> dict:
    """Merge the user's JSON document over the experiment defaults.

    Unknown keys are rejected so typos fail loudly instead of silently
    running the default.
    """
    cfg = json.loads(json.dumps(DEFAULTS[experiment]))  # deep copy
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        unknown = sorted(set(user) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys for {experiment}: {unknown}")
        cfg.update(user)
    cfg["experiment"] = experiment
    return cfg


def _grid(rng, points) -> np.ndarray:
    lo, hi = float(rng[0]), float(rng[1])
    n = int(points)
    if n < 2 or hi <= lo:
        raise ValueError(f"bad grid: range {rng} with {points} points")
    return np.linspace(lo, hi, n)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_line(cfg: dict) -> str:
    return "# config: " + json.dumps(cfg, sort_keys=True)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write output {path}: {e}") from e


def _round_floats(obj, digits: int = 6):
    """Round floats for readability, keeping full-precision duplicates.

    Dicts gain a ``<key>_full`` sibling for every float-valued key;
    floats inside lists are left at full precision.
    """
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            if isinstance(val, float):
                out[key] = round(val, digits)
                out[key + "_full"] = val
            else:
                out[key] = _round_floats(val, digits)
        return out
    if isinstance(obj, list):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _json_dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _build_engine(cfg: dict, need_aux: bool = True):
    """Shared setup: codes, interaction, thermal state, total Hamiltonian."""
    n_codes = int(cfg["L"])
    if n_codes < 1:
        raise ValueError(f"L must be >= 1, got {n_codes}")
    code = code_from_json(cfg["code"])
    codes = [code] * n_codes
    target = LogicalTarget(float(cfg["theta"]), float(cfg["phi"]))
    spec = InteractionSpec(
        coupling=float(cfg["g"]),
        targets=(target,) * n_codes,
        variant=cfg.get("variant", "rank-one"),
    )
    if not need_aux:
        return codes, spec, None, None
    delta_sum = float(sum(c.gap for c in codes))
    e_a = delta_sum if cfg["e_a"] is None else float(cfg["e_a"])
    cfg["e_a_resolved"] = e_a
    aux = AuxiliarySpec(count=1, energy=e_a)
    thermal = ThermalSpec.from_codes(codes, float(cfg["beta"]))
    return codes, spec, aux, thermal


def cmd_fig2(cfg: dict) -> str:
    codes, spec, aux, thermal = _build_engine(cfg)
    delta_sum = float(sum(c.gap for c in codes))
    if abs(aux.energy - delta_sum) > 1e-12 * max(1.0, delta_sum):
        raise ValueError(
            "fig2's closed-form columns hold at resonance only; leave e_a null "
            f"or set it to the summed gap {delta_sum}"
        )
    g, beta = float(cfg["g"]), float(cfg["beta"])
    pw = thermal.p_weight
    h_tot = build_total(codes, build_interaction(codes, spec), aux)
    spectral = hermitian_eig(h_tot)
    rho0 = initial_state(codes, thermal, aux)
    target_vec = joint_target_state(codes, spec.targets)

    a_grid = _grid(cfg["a_range"], cfg["a_points"])
    t_grid = _grid(cfg["t_range"], cfg["t_points"])
    crossings = {"f>=0.66,p>0": 0, "f>=0.9,p>0": 0}
    lines = []
    for t in t_grid:
        rho_t = evolve(h_tot, t, rho0, spectral=spectral)
        for a in a_grid:
            p_ana = p_plus_resonant(a, t, g, pw)
            try:
                f_ana = f_plus_resonant(a, t, g, beta, codes)
            except ValueError:
                f_ana = float("nan")
            rec = measure_aq(rho_t, 1, (MeasurementSetting(a=a),), target=target_vec)[(+1,)]
            p_num = rec.probability
            f_num = rec.fidelity if rec.attainable else float("nan")
            if p_num > 0 and not np.isnan(f_num):
                if f_num >= 0.66:
                    crossings["f>=0.66,p>0"] += 1
                if f_num >= 0.9:
                    crossings["f>=0.9,p>0"] += 1
            lines.append(
                ",".join(_fmt(x) for x in (a, t, f_ana, p_ana, f_num, p_num))
            )
    head = [
        _config_line(cfg),
        "# crossings: " + json.dumps(crossings, sort_keys=True),
        "a,t,f_analytic,p_analytic,f_numeric,p_numeric",
    ]
    return "\n".join(head + lines) + "\n"


def cmd_fig3(cfg: dict) -> str:
    from .codes import build_repetition_code

    j_grid = _grid(cfg["j_range"], cfg["j_points"])
    b_grid = _grid(cfg["beta_range"], cfg["beta_points"])
    lines = []
    for j_s in j_grid:
        code = build_repetition_code(float(j_s))
        for beta in b_grid:
            lines.append(",".join(_fmt(x) for x in (j_s, beta, p_beta([code], beta))))
    head = [_config_line(cfg), "j_s,beta,p_beta"]
    return "\n".join(head + lines) + "\n"


def cmd_fig4(cfg: dict) -> str:
    """m_min over the (a, t) plane: one :func:`plane_m_min` pass, then one row per cell."""
    codes, spec, aux, thermal = _build_engine(cfg)
    f_targets = [float(f) for f in cfg["f_targets"]]
    h_tot = build_total(codes, build_interaction(codes, spec), aux)
    b, k = float(cfg["b"]), int(cfg["k"])
    a_grid = _grid(cfg["a_range"], cfg["a_points"])
    t_grid = _grid(cfg["t_range"], cfg["t_points"])
    m_min = plane_m_min(
        hermitian_eig(h_tot),
        thermal_ensemble(codes, thermal.beta),
        [(MeasurementSetting(a=a, b=b, k=k),) for a in a_grid],
        t_grid,
        joint_target_state(codes, spec.targets),
        f_targets,
        int(cfg["max_rounds"]),
        cfg["aq_reset"],
    )
    a_text = [_fmt(a) for a in a_grid.tolist()]
    lines = []
    for t, row in zip(t_grid.tolist(), m_min.tolist()):
        t_text = _fmt(t)
        lines += [f"{a},{t_text}," + ",".join(map(str, cell)) for a, cell in zip(a_text, row)]
    header = "a,t," + ",".join(f"m_min_{f:g}" for f in f_targets)
    return "\n".join([_config_line(cfg), header] + lines) + "\n"


def cmd_table1(cfg: dict) -> str:
    rows = cfg["rows"]
    if rows is not None:
        rows = [int(r) for r in rows]
    report = reproduce_table1(
        rows=rows,
        beta=float(cfg["beta"]),
        duration=float(cfg["duration"]),
        j_1=float(cfg["j_1"]),
        aux_energy=None if cfg["aux_energy"] is None else float(cfg["aux_energy"]),
        max_rounds=int(cfg["max_rounds"]),
    )
    return _json_dump({"config": cfg, "report": _round_floats(report)})


def cmd_purify(cfg: dict) -> str:
    codes, spec, aux, thermal = _build_engine(cfg)
    setting = MeasurementSetting(a=float(cfg["a"]), b=float(cfg["b"]), k=int(cfg["k"]))
    rho_t = evolved_joint_state(codes, spec, aux, thermal, float(cfg["t"]))
    records = measure_aq(rho_t, aux.count, (setting,), target=joint_target_state(codes, spec.targets))
    rec, rec_other = records[(setting.k,)], records[(-setting.k,)]

    def pack(r):
        return {
            "outcome": list(r.outcome),
            "probability": float(r.probability),
            "fidelity": None if np.isnan(r.fidelity) else float(r.fidelity),
            "attainable": bool(r.attainable),
        }

    payload = {"config": cfg, "result": _round_floats(pack(rec)), "complement": _round_floats(pack(rec_other))}
    return _json_dump(payload)


def cmd_decompose(cfg: dict) -> str:
    if cfg["variant"] not in VARIANTS:
        raise ValueError(f"unknown variant {cfg['variant']!r}; expected one of {VARIANTS}")
    codes, spec, _, _ = _build_engine(cfg, need_aux=False)
    h_sa = build_interaction(codes, spec)
    terms = pauli_decompose(h_sa)
    lines = [_config_line(cfg), "pauli_string,real_coeff,imag_coeff"]
    for term in terms:
        c = term.coefficient
        lines.append(f"{term.letters},{_fmt(c.real)},{_fmt(c.imag)}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "table1": cmd_table1,
    "purify": cmd_purify,
    "decompose": cmd_decompose,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building it takes about 1.5 ms, a tenth of a small table run, so a
    caller that runs many commands in one process pays it once.
    """
    parser = argparse.ArgumentParser(
        prog="logipure",
        description="Measurement-based purification of logical qubits from thermal states.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON configuration (defaults applied)")
        p.add_argument("--out", required=True, help="output file path (CSV or JSON)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.experiment, args.config)
        text = COMMANDS[args.experiment](cfg)
        _write_text(args.out, text)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
