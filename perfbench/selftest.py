"""Fast self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits every
end-to-end metric of ``BENCHMARK.json`` with its unit and reports a
correct result, that a traced run emits every per-layer metric, and
that a planted wrong output is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, plant: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--size", "tiny"]
    if plant:
        cmd += ["--plant", "--no-setup"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, spec: list, label: str) -> None:
    metrics = result["metrics"]
    for entry in spec:
        got = metrics.get(entry["name"])
        if got is None:
            raise AssertionError(f"{label}: metric {entry['name']} missing")
        if got["unit"] != entry["unit"]:
            raise AssertionError(f"{label}: {entry['name']} unit "
                                 f"{got['unit']} != {entry['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {entry['name']} not a number")
    extra = set(metrics) - {entry["name"] for entry in spec}
    if extra:
        raise AssertionError(f"{label}: unexpected metrics {sorted(extra)}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = run(workload, 0)
        assert plain["correct"] and plain["failed"] == 0, plain
        assert plain["attempted"] >= 1
        expect_metrics(plain, SPEC["end_to_end"], f"{workload} trace=0")
        traced = run(workload, 1)
        assert traced["correct"], traced
        expect_metrics(traced, SPEC["per_layer"], f"{workload} trace=1")
        planted = run(workload, 0, plant=True)
        assert not planted["correct"] and planted["failed"] >= 1, planted
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics; planted "
              f"failure counted ({planted['failed']}/"
              f"{planted['attempted']})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
