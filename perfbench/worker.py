"""Timed runs of one CLI experiment in a fresh process.

Run by ``run.py``; it drives ``logipure.cli.main`` in this process as a
closed loop with one caller: each run starts when the previous one has
written its output.  A small warm-up run fills imports and BLAS thread
pools first.  Every timed run must write the same bytes as the first.

    python3 perfbench/worker.py --src SRC --experiment fig4 --config CFG \\
        --warmup-config WCFG --out OUT --seconds 35 --trace 0 --result RESULT.json

With ``--trace 1`` untraced and traced runs alternate; the fastest traced
run gives the per-layer metrics and its spans are written beside the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

MIN_RUNS = 3


def run_once(cli, experiment: str, config: str, out: str) -> tuple[float, float]:
    """One closed-loop call of the CLI; returns (wall seconds, process CPU seconds)."""
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    rc = cli.main([experiment, "--config", config, "--out", out])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if rc != 0:
        raise RuntimeError(f"logipure {experiment} exited with {rc}")
    return wall, cpu


def traced_run(cli, experiment: str, config: str, out: str):
    """One run with every layer wrapped; returns (wall, cpu, tracer)."""
    from tracer import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        wall, cpu = run_once(cli, experiment, config, out)
    finally:
        uninstall()
    return wall, cpu, tracer


def measure(cli, experiment: str, config: str, out: str, seconds: float, trace: bool) -> dict:
    """Run until ``seconds`` would be exceeded (at least MIN_RUNS runs)."""
    untraced, traced = [], []
    first = None
    mismatched = 0
    fastest_tracer = None
    start = time.perf_counter()
    last = 0.0
    while len(untraced) + len(traced) < MIN_RUNS or time.perf_counter() - start + last <= seconds:
        if trace and len(untraced) > len(traced):
            wall, cpu, tracer = traced_run(cli, experiment, config, out)
            if not traced or wall < min(run["wall_s"] for run in traced):
                fastest_tracer = tracer
            traced.append({"wall_s": wall, "cpu_s": cpu, "metrics": tracer.metrics(wall)})
        else:
            wall, cpu = run_once(cli, experiment, config, out)
            untraced.append({"wall_s": wall, "cpu_s": cpu})
        last = wall
        with open(out, "rb") as fh:
            data = fh.read()
        if first is None:
            first = data
        elif data != first:
            mismatched += 1
    return {
        "untraced": untraced,
        "traced": traced,
        "mismatched_outputs": mismatched,
        "output_bytes": len(first),
        "spans": fastest_tracer.dump() if fastest_tracer is not None else None,
    }


def per_layer(result: dict) -> dict[str, float]:
    """The fastest traced run's metrics, plus the harness-side ones."""
    out = dict(min(result["traced"], key=lambda run: run["wall_s"])["metrics"])
    untraced_wall = min(run["wall_s"] for run in result["untraced"])
    out["trace.untraced_wall_s"] = untraced_wall
    # Each traced run follows an untraced one, so the pair shares the machine's
    # speed at that moment; the median pair difference is the overhead.
    pairs = zip(result["untraced"], result["traced"])
    out["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    out["cli.output_bytes"] = float(result["output_bytes"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the logipure package")
    parser.add_argument("--experiment", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--warmup-config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from logipure import cli

    warm_start = time.perf_counter()
    run_once(cli, args.experiment, args.warmup_config, args.out)
    warmup_s = time.perf_counter() - warm_start
    result = measure(cli, args.experiment, args.config, args.out, args.seconds, bool(args.trace))
    result["warmup_s"] = warmup_s
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        spans = result.pop("spans")
        result["per_layer"] = per_layer(result)
        with open(os.path.join(os.path.dirname(args.result), "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    else:
        result.pop("spans")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
