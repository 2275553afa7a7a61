"""Layered benchmark of the logipure CLI experiments.

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every metric of every workload

Each run generates the workload's config from ``--seed``, then

1. starts one worker process that drives ``logipure.cli.main`` with the
   config as a closed loop with one caller for ``--seconds``
   (``wall_s`` and ``cpu_s`` of the fastest call, ``peak_rss_mb``);
2. starts fresh processes that import logipure and resolve that config
   (``setup_s``, the median of several);
3. checks the output against an independent path of the package.

A run reports the fastest of its calls: on a shared machine slow phases
stretch some calls by tens of percent, and the minimum is far steadier
from run to run than the median of a few calls.  Comparisons take the
median of these values across runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs that wrap every layer's public functions (see
``tracer.py``) and reports the per-layer metrics, the share of wall time
the layers' self times cover, and the tracing overhead.

Results, the generated config (replay it with ``logipure <experiment>
--config``; the summary prints the exact command), the machine facts
and the spans go to
``perfbench/results/<workload>-seed<seed>-trace<0|1>/``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program runs with at
most ``nproc`` BLAS threads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 20
# The worker is stopped if it outlives --seconds by this much.
WORKER_SLACK_S = 120

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_threads() -> dict[str, str]:
    """Cap every BLAS thread variable at nproc; return the resulting settings."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(threads: dict[str, str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": threads,
        "blas": vendor,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
        "loop": "closed, 1 caller",
    }


def setup_times(experiment: str, config: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), experiment, str(config)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int, facts: dict) -> dict:
    """Set up, time and check one workload; return its summary."""
    wl = WORKLOADS[name]
    out_dir = RESULTS / f"{name}-seed{seed}-trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = wl.make_config(seed)
    config, warmup = out_dir / "config.json", out_dir / "warmup.json"
    config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    warmup.write_text(json.dumps(wl.warmup_config(cfg), sort_keys=True) + "\n", encoding="utf-8")
    output, worker_json = out_dir / f"output.{wl.suffix}", out_dir / "worker.json"

    subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--src", str(SRC),
            "--experiment", wl.experiment,
            "--config", str(config),
            "--warmup-config", str(warmup),
            "--out", str(output),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--result", str(worker_json),
        ],
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_SLACK_S,
        check=True,
    )
    result = json.loads(worker_json.read_text(encoding="utf-8"))
    # After the worker, so the probes do not pay for a processor waking from idle.
    setup = setup_times(wl.experiment, config)

    problems = wl.check(cfg, str(output))
    attempted = len(result["untraced"]) + len(result["traced"])
    failed = attempted if problems else result["mismatched_outputs"]
    if result["mismatched_outputs"]:
        problems.append(f"{result['mismatched_outputs']} calls wrote different bytes than the first")

    untraced = result["untraced"]
    if trace:
        units = {m: u for m, u, _ in PER_LAYER}
        samples = len(result["traced"])
        metrics = {m: (v, units[m], samples) for m, v in result["per_layer"].items()}
    else:
        fastest = min(untraced, key=lambda r: r["wall_s"])
        metrics = {
            "wall_s": (fastest["wall_s"], "s", len(untraced)),
            "cpu_s": (fastest["cpu_s"], "s", len(untraced)),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        }
    summary = {
        "workload": name,
        "experiment": wl.experiment,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "facts": facts,
        "config": str(config.relative_to(ROOT)),
        "replay": f"PYTHONPATH=src python3 -m logipure.cli {wl.experiment} --config {config.relative_to(ROOT)} --out OUT",
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": {m: {"value": v, "unit": u, "samples": n} for m, (v, u, n) in metrics.items()},
        "setup_samples": setup,
        "worker": result,
    }
    (out_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


def report(summary: dict) -> None:
    print(f"== {summary['workload']} seed={summary['seed']} trace={summary['trace']}")
    print(f"   replay: {summary['replay']}")
    for metric, m in summary["metrics"].items():
        print(f"   {metric:48s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    print(f"   {'error_rate':48s} {summary['error_rate']:>16.6g} {'ratio':6s} n={summary['attempted']}")
    for problem in summary["problems"][:10]:
        print(f"   FAILED CHECK: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logipure" / "cli.py").is_file():
        print(f"error: no logipure sources under {SRC}", file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(SRC))
    facts = machine_facts(threads)
    print("facts: " + json.dumps(facts, sort_keys=True))

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    summaries = []
    for name, trace in runs:
        try:
            summary = run_workload(name, args.seed, args.seconds, trace, facts)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}\n{e.stderr or ''}", file=sys.stderr)
            return 1
        report(summary)
        summaries.append(summary)

    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}/{m}" if prefix else m): {"value": v["value"], "unit": v["unit"]}
        for s in summaries
        for m, v in s["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(not s["problems"] for s in summaries),
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
