"""Command-line front end: figure grids and reports as CSV/JSON.

Subcommands:

* ``fig2``      - resonant fidelity/probability over the (a, t) plane,
                  analytic and numeric columns side by side (CSV): the
                  closed forms in one array evaluation, the numeric
                  columns in one contraction of the joint spectrum;
* ``fig3``      - thermal weight of the excited superposition over the
                  (J_S, beta) plane for the three-qubit code, from its
                  levels in one array evaluation (CSV);
* ``fig4``      - minimum purification rounds over the (a, t) plane for
                  two fidelity targets, sentinel -1 when unreached, from
                  the rank-one coupling's 2 x 2 recursion, with no joint
                  matrix for any number of codes (CSV);
* ``table1``    - chain benchmark reproduction report (JSON);
* ``purify``    - one evolve-and-postselect shot and its complement, from
                  the same 2 x 2 recursion as ``fig4`` (JSON);
* ``decompose`` - Pauli-string expansion of the engineered coupling (CSV).

Every output embeds the fully resolved configuration, and identical
configurations produce byte-identical files at a fixed BLAS thread
count (full-precision floats may move in their last digits with it).
Integer keys take JSON integers only, and number keys JSON numbers only
(no booleans or strings).  ``fig3``, ``fig4`` and ``purify`` read a
stabilizer code's levels only (:func:`~logipure.codes.stabilizer_levels`),
so no matrix of the code's 2^n rows is built, and an enumeration past
:data:`~logipure.codes.MAX_ENUMERATION_BYTES` is refused before it is
allocated.  The engine commands refuse a config whose largest matrix
would exceed :data:`MAX_JOINT_ROWS` rows before building anything: the
joint Hamiltonian for ``fig2`` and ``decompose``, and a chain's own for
``fig4`` and ``purify``, which build no joint matrix and so take
``"L": 8`` and up to :data:`MAX_CODES` codes.  Planes of
more than :data:`MAX_PLANE_CELLS` cells, fig4 planes and table1 runs of
more than :data:`MAX_CELL_ROUNDS` cells times rounds, and fig2 round
operators of more than :data:`MAX_OPERATOR_ENTRIES` entries are refused
the same way, before any grid or code is built, and so is a negative
round duration (``t_range`` of fig2 and fig4, ``t`` of purify).
``decompose`` refuses the ground-prep variant, which needs hosts with a
unique ground state: every code the CLI builds has a two-fold ground
manifold.  A command
whose arithmetic overflows float64 (a code ``J`` of 1e308, say) exits 2
with a message, not a numpy warning.  CSV numbers carry 17 significant
digits; JSON reports are rounded to 6 digits with full-precision
duplicates alongside.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .codes import (
    LogicalTarget,
    code_document,
    code_from_json,
    is_json_int,
    is_json_number,
    stabilizer_levels,
)
from .emr import CHAIN_BENCHMARK, KEEP, _first_rounds, plane_one_round, reproduce_table1, thermal_ensemble
from .formulas import emr_rank_one, resonant_plus
from .interaction import (
    GROUND_PREP,
    AuxiliarySpec,
    InteractionSpec,
    build_interaction,
    build_total,
    joint_target_state,
    pauli_decompose,
)
from .measurement import MeasurementSetting
from .operators import hermitian_eig
from .thermal import ResonanceContext, ThermalSpec

REPETITION_DOC = {"type": "stabilizer", "stabilizers": ["ZZI", "IZZ", "ZIZ"], "J": 1.0}

# Most rows of the largest matrix an engine command builds: the joint
# (codes + one auxiliary qubit) Hamiltonian for fig2 and decompose, and a
# chain's own Hamiltonian for fig4 and purify, which build no joint matrix
# and take a stabilizer code's levels from its group, with no matrix.
# A larger config is refused before anything is allocated.  Measured on 2
# vCPUs with OpenBLAS 0.3.31: 4096 rows is the joint size of a 10-site chain
# with two auxiliary qubits, whose 500-round table row runs as a library
# call in 5.3 s at 417 MB peak RSS; on an 11-qubit code, fig4 took 4.6 s
# at 1.64 GB and purify 19.9 s at 1,966 MB while they built the joint
# matrix.  The next size, 8192 rows, is a 1.07 GB dense complex matrix
# before any copy or eigensolve.
MAX_JOINT_ROWS = 4096
# Most codes a config may hold; fig4 and purify, which build nothing of
# joint size, are bounded by this alone.  Each code has two ground states,
# so the target's thermal weight 1/Z is at most 2^-L, which leaves the
# normal float64 range past this many codes: more could only report that
# no cell reaches a target.
MAX_CODES = 1022
# Most cells of a fig2, fig3 or fig4 plane, checked before any grid is
# built.  A cell costs about 0.6 KB in fig2, 1.2 KB in fig4 and 11-17 us
# of Python in fig3, whatever the code.  Peak RSS of fresh processes on 2
# vCPUs: at 1000 x 1000, fig2 took 3.4 s at 633 MB, fig4 (5 rounds) 3.6 s
# at 1,269 MB and fig3 10.7 s at 262 MB; at this limit (500 x 500), fig2
# 1.3 s at 182 MB, fig4 (1 round) 0.7 s at 199 MB and fig3 4.2 s at 90 MB.
MAX_PLANE_CELLS = 250_000
# Most cells times rounds of a fig4 plane or a table1 run, whose outputs
# and weight arrays grow as that product, about 34 bytes each; a table1
# row counts as two cells, one per reset policy.  The default fig4 plane
# took 1.8 s at 695 MB at 8000 rounds.  At this limit: the default fig4
# plane at 4000 rounds 1.1 s at 373 MB, a 500 x 500 one at 40 rounds 2.4 s
# at 849 MB; table1's twelve rows at 416,666 rounds 10.7 s at 412 MB, and
# row 12 alone at 5,000,000 rounds 59 s at 472 MB.
MAX_CELL_ROUNDS = 10_000_000
# Most entries of fig2's round operators: per duration, one system-size
# operator per auxiliary basis state, (joint rows)^2 / 2 entries, at about
# 32 bytes each with their product by the thermal factor.  fig2 on the
# 8-site chain (512 joint rows) at 60 durations took 1.3 s at 299 MB, and
# on three repetition codes (1024 rows) at 100 durations 5.4 s at
# 1,664 MB; at this limit (1024 rows, 32 durations), 2.5 s at 574 MB.
MAX_OPERATOR_ENTRIES = 2**24

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
    running the default, and so are ``NaN``, ``Infinity`` and numbers
    that overflow a float.
    """
    cfg = json.loads(json.dumps(DEFAULTS[experiment]))  # deep copy
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)
        if not isinstance(user, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        unknown = sorted(set(user) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys for {experiment}: {unknown}")
        cfg.update(user)
    cfg["experiment"] = experiment
    return cfg


def _finite_float(text: str) -> float:
    """A JSON number or constant as a float; NaN, Infinity and overflow raise."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config numbers must be finite, got {text}")
    return value


def _int(cfg: dict, key: str) -> int:
    if not is_json_int(cfg[key]):
        raise ValueError(f"{key} must be an integer, got {json.dumps(cfg[key])}")
    return cfg[key]


def _float(cfg: dict, key: str, nullable: bool = False) -> float | None:
    """``cfg[key]`` as a float; it must be a JSON number, or null where ``nullable``."""
    value = cfg[key]
    if value is None and nullable:
        return None
    if not is_json_number(value):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def _floats(cfg: dict, key: str) -> list[float]:
    """``cfg[key]`` as a list of floats; it must be a JSON list of numbers."""
    values = cfg[key]
    if not (isinstance(values, list) and all(map(is_json_number, values))):
        raise ValueError(f"{key} must be a list of numbers, got {json.dumps(values)}")
    return [float(v) for v in values]


def _grid(cfg: dict, axis: str) -> np.ndarray:
    """The ``<axis>_points`` evenly spaced values over ``<axis>_range``."""
    rng, n = _floats(cfg, f"{axis}_range"), _int(cfg, f"{axis}_points")
    if len(rng) != 2 or n < 2 or rng[1] <= rng[0]:
        raise ValueError(f"bad grid: range {cfg[f'{axis}_range']} with {n} points")
    return np.linspace(rng[0], rng[1], n)


def _duration(value: float) -> float:
    """A round duration from the config: 0 is an empty round, and a negative one is refused."""
    if value < 0:
        raise ValueError(f"round duration must be >= 0, got {value}")
    return value


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


def _plane_cells(cfg: dict, rows: str, cols: str) -> int:
    """The cells of the ``rows`` x ``cols`` plane, refused past :data:`MAX_PLANE_CELLS` before its grids exist."""
    n, m = _int(cfg, f"{rows}_points"), _int(cfg, f"{cols}_points")
    if n * m > MAX_PLANE_CELLS:
        raise ValueError(f"a {n} x {m} plane has {n * m} cells; the limit is {MAX_PLANE_CELLS} cells")
    return n * m


def _max_rounds(cfg: dict, cells: int) -> int:
    """``max_rounds``; ``cells`` cells of that many rounds past :data:`MAX_CELL_ROUNDS` are refused."""
    rounds = _int(cfg, "max_rounds")
    if cells * rounds > MAX_CELL_ROUNDS:
        raise ValueError(
            f"{cells} cells of {rounds} rounds make {cells * rounds} cell rounds; "
            f"the limit is {MAX_CELL_ROUNDS} cell rounds"
        )
    return rounds


def _build_engine(cfg: dict, need_aux: bool = True, joint: bool = True, durations: int = 0):
    """Shared setup: codes, interaction spec, auxiliary spec, thermal state.

    With ``joint`` False (fig4, purify) a stabilizer document gives the
    code's levels only, from :func:`stabilizer_levels`, which bounds its
    own work.  Otherwise the size of the largest matrix the command
    builds, the joint Hamiltonian or, with ``joint`` False, the chain's
    own, is checked against :data:`MAX_JOINT_ROWS` from the code document
    alone, before any code is built.  So are the round operators of
    ``durations`` durations (fig2), two system-size operators each,
    against :data:`MAX_OPERATOR_ENTRIES`.
    """
    n_codes = _int(cfg, "L")
    if not 1 <= n_codes <= MAX_CODES:
        raise ValueError(f"L must lie in 1..{MAX_CODES}, got {n_codes}")
    kind, j, payload = code_document(cfg["code"])
    levels_only = kind == "stabilizer" and not joint
    if not levels_only:
        # a stabilizer code counts the letters of its longest string; unequal lengths raise in the build
        n_qubits = max(map(len, payload)) if kind == "stabilizer" else payload
        qubits = n_qubits * n_codes + 1 if joint else n_qubits
        if qubits > math.log2(MAX_JOINT_ROWS):  # compare exponents: 2**qubits may be astronomically large
            rows = f"2^{qubits} = {2**qubits}" if qubits <= 64 else f"2^{qubits}"
            needs = (
                f"{n_codes} code(s) of {n_qubits} qubits and one auxiliary qubit need a joint Hamiltonian"
                if joint
                else f"a code of {n_qubits} qubits needs a Hamiltonian"
            )
            raise ValueError(f"{needs} of {rows} rows; the limit is {MAX_JOINT_ROWS} rows")
        entries = durations * 2 * 4 ** (qubits - 1)
        if entries > MAX_OPERATOR_ENTRIES:
            raise ValueError(
                f"{durations} durations need round operators of {entries} entries on {2**qubits} joint rows; "
                f"the limit is {MAX_OPERATOR_ENTRIES} entries"
            )
    code = stabilizer_levels(payload, j) if levels_only else code_from_json(cfg["code"])
    codes = [code] * n_codes
    target = LogicalTarget(_float(cfg, "theta"), _float(cfg, "phi"))
    spec = InteractionSpec(
        coupling=_float(cfg, "g"),
        targets=(target,) * n_codes,
        variant=cfg.get("variant", "rank-one"),
    )
    if not need_aux:
        return codes, spec, None, None
    delta_sum = float(sum(c.gap for c in codes))
    e_a = _float(cfg, "e_a", nullable=True)
    e_a = delta_sum if e_a is None else e_a
    cfg["e_a_resolved"] = e_a
    aux = AuxiliarySpec(count=1, energy=e_a)
    thermal = ThermalSpec.from_codes(codes, _float(cfg, "beta"))
    return codes, spec, aux, thermal


def cmd_fig2(cfg: dict) -> str:
    """One round over the (a, t) plane: one :func:`resonant_plus` and one
    :func:`plane_one_round` call, then one row per cell."""
    _plane_cells(cfg, "a", "t")
    _duration(min(_floats(cfg, "t_range"), default=0.0))
    codes, spec, aux, thermal = _build_engine(cfg, durations=_int(cfg, "t_points"))
    delta_sum = float(sum(c.gap for c in codes))
    if abs(aux.energy - delta_sum) > 1e-12 * max(1.0, delta_sum):
        raise ValueError(
            "fig2's closed-form columns hold at resonance only; leave e_a null "
            f"or set it to the summed gap {delta_sum}"
        )
    h_tot = build_total(codes, build_interaction(codes, spec), aux)
    a_grid, t_grid = _grid(cfg, "a"), _grid(cfg, "t")
    p_ana, f_ana = resonant_plus(a_grid[None, :], t_grid[:, None], spec.coupling, thermal)
    p_num, f_num = plane_one_round(
        hermitian_eig(h_tot),
        thermal_ensemble(codes, thermal.beta),
        [(MeasurementSetting(a=a),) for a in a_grid],
        t_grid,
        joint_target_state(codes, spec.targets),
    )
    # f_num is NaN on unattainable cells, so these count attainable cells only
    crossings = {"f>=0.66,p>0": int(np.sum(f_num >= 0.66)), "f>=0.9,p>0": int(np.sum(f_num >= 0.9))}
    a_text = [_fmt(a) for a in a_grid.tolist()]
    lines = []
    rows = zip(t_grid.tolist(), f_ana.tolist(), p_ana.tolist(), f_num.tolist(), p_num.tolist())
    for t, f_a, p_a, f_n, p_n in rows:
        t_text = _fmt(t)
        cells = zip(a_text, f_a, p_a, f_n, p_n)
        lines += [f"{a},{t_text},{w:.17g},{x:.17g},{y:.17g},{z:.17g}" for a, w, x, y, z in cells]
    head = [
        _config_line(cfg),
        "# crossings: " + json.dumps(crossings, sort_keys=True),
        "a,t,f_analytic,p_analytic,f_numeric,p_numeric",
    ]
    return "\n".join(head + lines) + "\n"


def cmd_fig3(cfg: dict) -> str:
    """p_beta over the (J_S, beta) plane in one array evaluation of the repetition code's levels.

    The levels scale with J_S, so the weight at (J_S, beta) is the unit
    code's at beta J_S: e^{-beta J_S gap} / Z(beta J_S).
    """
    _plane_cells(cfg, "j", "beta")
    j_grid, b_grid = _grid(cfg, "j"), _grid(cfg, "beta")
    stabilizers = REPETITION_DOC["stabilizers"]
    stabilizer_levels(stabilizers, float(j_grid[0]))  # the smallest J_S, refused as a code build refuses it
    if b_grid[0] < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {float(b_grid[0])}")
    unit = stabilizer_levels(stabilizers)
    scaled = j_grid[:, None] * b_grid[None, :]
    weight = np.exp(-scaled * unit.gap) / unit.partition(scaled)
    lines = []
    for j_s, row in zip(j_grid.tolist(), weight.tolist()):
        j_text = _fmt(j_s)
        lines += [f"{j_text},{_fmt(beta)},{_fmt(p)}" for beta, p in zip(b_grid.tolist(), row)]
    head = [_config_line(cfg), "j_s,beta,p_beta"]
    return "\n".join(head + lines) + "\n"


def _rank_one(cfg: dict, durations, settings: list[MeasurementSetting], max_rounds: int, aq_reset: str = KEEP):
    """:func:`emr_rank_one` over every (duration, setting) cell: a 2 x 2 recursion each,
    so only the codes are built, never a joint matrix or state, for any number of codes."""
    codes, spec, aux, thermal = _build_engine(cfg, joint=False)
    ctx = ResonanceContext.from_codes(codes, aux.energy, spec.coupling)
    return emr_rank_one(ctx, thermal, durations, settings, max_rounds, aq_reset)


def cmd_fig4(cfg: dict) -> str:
    """m_min over the (a, t) plane: one :func:`_rank_one` call, then one row per cell."""
    max_rounds = _max_rounds(cfg, _plane_cells(cfg, "a", "t"))
    _duration(min(_floats(cfg, "t_range"), default=0.0))
    f_targets = _floats(cfg, "f_targets")
    b, k = _float(cfg, "b"), _int(cfg, "k")
    a_grid, t_grid = _grid(cfg, "a"), _grid(cfg, "t")
    settings = [MeasurementSetting(a=a, b=b, k=k) for a in a_grid]
    fidelity = _rank_one(cfg, t_grid, settings, max_rounds, cfg["aq_reset"])[0]
    m_min = _first_rounds(fidelity, f_targets).reshape(len(t_grid), len(a_grid), len(f_targets))
    a_text = [_fmt(a) for a in a_grid.tolist()]
    lines = []
    for t, row in zip(t_grid.tolist(), m_min.tolist()):
        t_text = _fmt(t)
        lines += [f"{a},{t_text}," + ",".join(map(str, cell)) for a, cell in zip(a_text, row)]
    header = "a,t," + ",".join(f"m_min_{f:g}" for f in f_targets)
    return "\n".join([_config_line(cfg), header] + lines) + "\n"


def cmd_table1(cfg: dict) -> str:
    rows = cfg["rows"]
    if rows is not None and not (isinstance(rows, list) and all(map(is_json_int, rows))):
        raise ValueError(f"rows must be null or a list of integers, got {json.dumps(rows)}")
    # a row runs under at most two reset policies
    max_rounds = _max_rounds(cfg, 2 * len(CHAIN_BENCHMARK if rows is None else set(rows)))
    report = reproduce_table1(
        rows=rows,
        beta=_float(cfg, "beta"),
        duration=_float(cfg, "duration"),
        j_1=_float(cfg, "j_1"),
        aux_energy=_float(cfg, "aux_energy", nullable=True),
        max_rounds=max_rounds,
    )
    return _json_dump({"config": cfg, "report": _round_floats(report)})


def cmd_purify(cfg: dict) -> str:
    """One round of duration ``t`` from one :func:`_rank_one` call, a cell per outcome.

    An outcome below :data:`~logipure.measurement.UNATTAINABLE_P` stops its round, which zeroes it.
    """
    setting = MeasurementSetting(a=_float(cfg, "a"), b=_float(cfg, "b"), k=_int(cfg, "k"))
    settings = [setting, replace(setting, k=-setting.k)]
    fidelity, probability, _, n_rounds, _ = _rank_one(cfg, [_duration(_float(cfg, "t"))], settings, max_rounds=1)
    records = [
        {"outcome": [s.k], "probability": min(p, 1.0), "fidelity": min(f, 1.0) if n else None, "attainable": bool(n)}
        for s, p, f, n in zip(settings, probability[:, 0].tolist(), fidelity[:, 0].tolist(), n_rounds)
    ]
    result, complement = _round_floats(records)
    return _json_dump({"config": cfg, "result": result, "complement": complement})


def cmd_decompose(cfg: dict) -> str:
    if cfg["variant"] == GROUND_PREP:
        raise ValueError(
            "the ground-prep variant needs hosts with a unique ground state, but every code "
            "the CLI builds has a two-fold ground manifold (its logical qubit)"
        )
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
        try:
            with np.errstate(over="raise", invalid="raise"):
                text = COMMANDS[args.experiment](cfg)
        except (FloatingPointError, OverflowError) as e:
            raise ValueError(f"{e}: a config energy (a code's J, g, e_a) or time is too large for float64") from None
        _write_text(args.out, text)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
