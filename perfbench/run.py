"""Product benchmark of the HWST128 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig4_small --seed 0 --seconds 30 --trace 0

Workloads: ``fig4_small`` (Fig. 4 regeneration), ``fuzz_campaign`` (a
differential fuzz campaign) and ``serve_check`` (``repro serve`` check
latency under open-loop load). ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that yields the
per-layer metrics (it also runs the workload once untraced, in a child
process, for ``trace.overhead_ratio``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (ROOT, measure_setup, percentile,  # noqa: E402
                    stop_helper_processes, use_source_tree)

WORKLOADS = ("fig4_small", "fuzz_campaign", "serve_check")

#: End-to-end metrics, in BENCHMARK.json order. ``p90_ms.low`` and
#: ``p90_ms.high`` are printed in the table but not bounded: across
#: seeds they spread too widely for a regression gate (see README).
END_TO_END = ("setup_s", "wall_s", "cells_per_s", "p50_ms.low",
              "p50_ms.high", "peak_rss_mb")

#: The metric whose traced/untraced ratio is ``trace.overhead_ratio``.
PRIMARY = {"fig4_small": "wall_s", "fuzz_campaign": "wall_s",
           "serve_check": "p50_ms.low"}

WORK_DIR = ROOT / ".perfbench_work"


def _module(workload: str):
    import fig4
    import fuzz
    import serve

    return {"fig4_small": fig4, "fuzz_campaign": fuzz,
            "serve_check": serve}[workload]


def probe_setup(workload: str, workdir: Path) -> None:
    """Body of one set-up sample (a fresh process): get the product
    ready, print ``ready``, tear down."""
    if workload == "serve_check":
        _module(workload).probe_setup(workdir)
        return
    if workload == "fig4_small":
        import repro.harness.experiments  # noqa: F401
    else:
        import repro.fuzz  # noqa: F401
    print("ready", flush=True)


def batch_latencies(outcome: Dict) -> Dict[str, tuple]:
    """Batch workloads run at one load level (one cell at a time), so
    ``.low`` and ``.high`` both carry their per-cell latency."""
    lat = outcome["latencies_ms"]
    out = {}
    for phase in ("low", "high"):
        out[f"p50_ms.{phase}"] = (percentile(lat, 50), "ms", len(lat))
        out[f"p90_ms.{phase}"] = (percentile(lat, 90), "ms", len(lat))
    return out


def untraced_primary(args) -> float:
    """The primary metric of an untraced run of the same workload and
    seed, in a fresh child process (so caches start cold there too)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--no-setup"]
    if args.size == "tiny":
        cmd += ["--size", "tiny"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"][PRIMARY[args.workload]]["value"]


def measure(args, workdir: Path):
    ctx = SimpleNamespace(seed=args.seed, seconds=args.seconds,
                          tiny=args.size == "tiny", plant=args.plant,
                          workdir=workdir, recorder=None)
    module = _module(args.workload)
    metrics: Dict[str, tuple] = {}
    if args.trace:
        import tracing

        baseline = untraced_primary(args)
        rec = ctx.recorder = tracing.Recorder()
        tracing.install(rec)
        from repro.harness.compile_cache import process_cache

        before = process_cache().stats_snapshot()
        outcome = module.run(ctx)
        metrics.update(tracing.layer_metrics(rec))
        metrics.update(tracing.cache_metrics(
            before, process_cache().stats_snapshot()))
        serve = _module("serve_check")
        if args.workload == "serve_check":
            metrics.update(serve.layer_metrics(rec, outcome))
        else:
            metrics.update(serve.layer_metrics(
                rec, {"requests": [], "window": (0.0, 0.0),
                      "scraped": {}}))
        start, end = outcome["window"]
        traced = outcome["metrics"][PRIMARY[args.workload]][0]
        metrics["trace.overhead_ratio"] = (traced / baseline, "ratio", 1)
        metrics["trace.unattributed_s"] = (
            rec.unattributed_s(start, end), "s", 1)
        metrics["trace.spans"] = (len(rec.spans), "count", 1)
        rec.dump(WORK_DIR / f"trace-{args.workload}-{args.seed}.json")
    else:
        setup = [] if args.no_setup else \
            measure_setup(args.workload, workdir)
        outcome = module.run(ctx)
        metrics.update(outcome["metrics"])
        if args.workload != "serve_check":
            metrics.update(batch_latencies(outcome))
        if setup:
            metrics["setup_s"] = (median(setup), "s", len(setup))
    return outcome, metrics


def report(args, outcome: Dict, metrics: Dict[str, tuple]) -> None:
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    for line in outcome["problems"][:20]:
        print(f"  FAILED {line}")
    shown = dict(metrics)
    shown["error_rate"] = (failed / attempted, "ratio", attempted)
    for name in sorted(shown):
        value, unit, samples = shown[name]
        print(f"  {name:<36} {value:>16.6f} {unit:<6} n={samples}")
    print(json.dumps({"info": outcome["info"]}, sort_keys=True,
                     default=str))
    names = [n for n in metrics if n in END_TO_END or args.trace]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="HWST128 reproduction product benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: self-test inputs (seconds, not minutes)")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one output before checking it "
                        "(self-test of the failure path)")
    parser.add_argument("--no-setup", action="store_true",
                        help="skip the set-up samples")
    parser.add_argument("--probe-setup", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_source_tree()
    if args.probe_setup:
        try:
            probe_setup(args.probe_setup, Path(args.workdir))
        finally:
            stop_helper_processes()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir()
    try:
        outcome, metrics = measure(args, workdir)
    finally:
        stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, outcome, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
