"""Span tracing of logipure's layers, installed from outside the package.

:func:`install` wraps every public function (and every public method of
a public class) defined in each layer module, and rebinds the wrapper in
every module namespace that imported the original.  ``cli`` binds
``fast_trajectory`` separately from ``emr``, for example, so both names
are patched.  Each call records a span ``<layer>.<name>`` with its start,
end and parent; spans stay in memory until :meth:`Tracer.metrics` reduces
them.  Dense eigensolves made directly through ``numpy.linalg`` are
counted too, because ``formulas`` and ``thermal`` call ``eigvalsh``
without going through ``operators.hermitian_eig``.

Span names are ``<module>.<function>``; methods drop their class name,
so ``SpectralDecomposition.unitary`` records as ``operators.unitary``.
Metric names drop the leading underscore of ``_kernels`` because a
metric name must start with a letter.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = (
    "operators",
    "codes",
    "interaction",
    "thermal",
    "measurement",
    "formulas",
    "emr",
    "_kernels",
    "cli",
)

# Spans whose inclusive time is reported as ``<name>.s`` with ``.calls``.
TIMED = (
    "kernels.trajectory_kernel",
    "emr.round_contraction",
    "emr.find_m_min",
    "emr.build_xy_setup",
    "emr.thermal_ensemble",
    "operators.hermitian_eig",
    "operators.unitary",
    "operators.evolve",
    "measurement.measure_aq",
    "formulas.f_plus_resonant",
    "formulas.p_plus_resonant",
    "interaction.build_total",
    "interaction.build_interaction",
    "thermal.initial_state",
)
# Spans whose self time (duration minus child spans) is reported as ``<name>.self_s``.
SELF_TIMED = ("emr.fast_trajectory", "emr.reproduce_table1")
# Functions summed as ``codes.build.s``: every code builder, outermost calls only.
CODE_BUILDERS = ("codes.build_", "codes.code_from_")

# Per-layer metrics the harness fills in; :meth:`Tracer.metrics` returns the rest.
FROM_HARNESS = ("trace.untraced_wall_s", "trace.overhead_s", "cli.output_bytes")
# (metric, unit, better) for every per-layer metric.
PER_LAYER = (
    [
        ("kernels.trajectory_kernel.rounds", "count", "lower"),
        ("kernels.trajectory_kernel.truncated", "count", "lower"),
        ("kernels.trajectory_kernel.us_per_round", "us", "lower"),
        ("kernels.trajectory_kernel.gflop_computed", "GFLOP", "lower"),
        ("kernels.trajectory_kernel.useful_round_ratio", "ratio", "higher"),
        ("operators.hermitian_eig.max_dim", "count", "lower"),
        ("operators.spectrum_solves", "count", "lower"),
        ("codes.build.s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_coverage", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
    ]
    + [(f"{name}.s", "s", "lower") for name in TIMED]
    + [(f"{name}.calls", "count", "lower") for name in TIMED]
    + [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    + [(f"{layer.lstrip('_')}.self_s", "s", "lower") for layer in LAYERS]
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._needed_rounds: dict[int, int] = {}  # id(trajectory) -> rounds its readers need
        self._keep: list = []  # trajectories whose ids key _needed_rounds

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Reduce the spans of one run; ``wall_s`` is its wall time measured around ``cli.main``.

        ``trace.self_coverage`` is the self time of every span but the root
        ``cli.main``, divided by ``wall_s``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_s = dur - child[i]
            key = name.lstrip("_")
            out[key.split(".", 1)[0] + ".self_s"] += self_s
            if parent >= 0:
                # The root span's self time is whatever no other span claims,
                # so it does not count as covered.
                out["trace.covered_s"] += self_s
            out[key + ".calls"] += 1
            out[key + ".self_s"] += self_s
            if not _has_ancestor(spans, parent, lambda n: n == name):
                out[key + ".s"] += dur
            if name.startswith(CODE_BUILDERS) and not _has_ancestor(
                spans, parent, lambda n: n.startswith(CODE_BUILDERS)
            ):
                out["codes.build.s"] += dur

        rounds = self.counters["kernel.rounds"]
        kernel_s = out["kernels.trajectory_kernel.s"]
        needed = sum(self._needed_rounds.values())
        out.update(
            {
                "kernels.trajectory_kernel.rounds": rounds,
                "kernels.trajectory_kernel.truncated": self.counters["kernel.truncated"],
                "kernels.trajectory_kernel.us_per_round": 1e6 * kernel_s / rounds if rounds else 0.0,
                "kernels.trajectory_kernel.gflop_computed": self.counters["kernel.flop"] / 1e9,
                "kernels.trajectory_kernel.useful_round_ratio": needed / rounds if rounds else 0.0,
                "operators.hermitian_eig.max_dim": self.counters["hermitian_eig.max_dim"],
                "operators.spectrum_solves": self.counters["spectrum_solves"],
                "trace.wall_s": wall_s,
                "trace.self_coverage": out["trace.covered_s"] / wall_s,
                "trace.spans": float(len(spans)),
            }
        )
        return {
            name: float(out.get(name, 0.0)) for name, _, _ in PER_LAYER if name not in FROM_HARNESS
        }

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _has_ancestor(spans, parent: int, pred) -> bool:
    while parent >= 0:
        if pred(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _after_kernel(tracer: Tracer, args, kwargs, result) -> None:
    k_first, ensemble = _arg(args, kwargs, 0, "k_first"), _arg(args, kwargs, 2, "ensemble")
    fid, truncated = result[0], result[3]
    rounds = fid.shape[0] + int(truncated)  # the truncating round is computed too
    dim, cols = k_first.shape[0], (ensemble.shape[1] if ensemble.ndim == 2 else 1)
    tracer.counters["kernel.rounds"] += rounds
    tracer.counters["kernel.truncated"] += int(truncated)
    tracer.counters["kernel.flop"] += 8.0 * dim * dim * cols * rounds


def _after_fast_trajectory(tracer: Tracer, args, kwargs, result) -> None:
    tracer._keep.append(result)
    # The chain table reports every trajectory's max fidelity and round count,
    # so it reads every round; elsewhere only find_m_min reads rounds.
    table = any(tracer.spans[i][0] == "emr.reproduce_table1" for i in tracer._stack)
    tracer._needed_rounds[id(result)] = result.n_rounds if table else 0


def _after_find_m_min(tracer: Tracer, args, kwargs, result) -> None:
    traj = _arg(args, kwargs, 0, "trajectory")
    if id(traj) not in tracer._needed_rounds:
        return
    max_rounds = _arg(args, kwargs, 2, "max_rounds", 200)
    read = result if result is not None else min(traj.n_rounds, max_rounds)
    tracer._needed_rounds[id(traj)] = max(tracer._needed_rounds.get(id(traj), 0), read)


def _after_hermitian_eig(tracer: Tracer, args, kwargs, result) -> None:
    dim = float(result.eigenvalues.shape[0])
    tracer.counters["hermitian_eig.max_dim"] = max(tracer.counters["hermitian_eig.max_dim"], dim)


_AFTER = {
    "_kernels.trajectory_kernel": _after_kernel,
    "emr.fast_trajectory": _after_fast_trajectory,
    "emr.find_m_min": _after_find_m_min,
    "operators.hermitian_eig": _after_hermitian_eig,
}


def install(tracer: Tracer):
    """Patch logipure for ``tracer``; return a callable that undoes every patch.

    Besides module attributes, function tables held in module-level dicts
    (``cli.COMMANDS``) are patched too.
    """
    import numpy as np

    import logipure

    modules = {layer: importlib.import_module(f"logipure.{layer}") for layer in LAYERS}
    undo: list = []
    wrappers: dict[object, object] = {}

    def patch(owner, attr, value):
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, original))

    def patch_item(table: dict, key, value):
        original = table[key]
        table[key] = value
        undo.append(lambda: table.__setitem__(key, original))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    span = f"{layer}.{mname}"
                    if isinstance(member, classmethod):
                        patch(obj, mname, classmethod(tracer.wrap(span, member.__func__)))
                    elif isinstance(member, staticmethod):
                        patch(obj, mname, staticmethod(tracer.wrap(span, member.__func__)))
                    elif inspect.isfunction(member):
                        patch(obj, mname, tracer.wrap(span, member))

    for ns in [logipure, *modules.values()]:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patch(ns, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        patch_item(obj, key, wrappers[value])
    for attr in ("eigh", "eigvalsh"):
        patch(np.linalg, attr, tracer.count("spectrum_solves", getattr(np.linalg, attr)))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall
