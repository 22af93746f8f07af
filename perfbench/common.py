"""Helpers shared by the benchmark's workloads.

Everything here is benchmark bookkeeping: locating the package under
test, percentiles, peak RSS, the set-up probe and the reference files.
Nothing in this module touches program code beyond importing it.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

#: Programs per fuzz campaign (two full coverage rounds of 25).
FUZZ_N = 50
#: The fuzz seed is ``workload seed % FUZZ_SEEDS``; every one of these
#: seeds has a recorded report digest in ``reference/fuzz_campaign.json``.
FUZZ_SEEDS = 32

#: Fresh processes sampled for ``setup_s`` (the median is reported).
SETUP_SAMPLES = {"fig4_small": 7, "fuzz_campaign": 7, "serve_check": 5}


def use_source_tree() -> None:
    """Make ``repro`` importable from ``src/`` for this process and for
    every process it starts (pool workers, set-up probes)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package under test at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    parts = [str(SRC)] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile (``q`` in 0..100) of a non-empty list, interpolated
    linearly between the closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB), or of
    process ``pid`` (its ``VmHWM``; 0 if it has gone)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live process under ``pid`` (children, grandchildren, ...),
    from ``/proc``: serve pool workers are children of the forkserver,
    not of the process that asked for them."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # The command name may hold spaces; the fields after it don't.
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [p for p, pp in parents.items() if pp == parent]
        found += children
        frontier += children
    return found


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(name: str) -> Dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def measure_setup(workload: str, workdir: Path) -> List[float]:
    """Seconds from process start to ready, in fresh processes.

    Each sample starts ``run.py --probe-setup <workload>``; the child
    prints ``ready`` once the product is usable and then exits. The
    time runs from spawning the child to reading that line.
    """
    samples = []
    for index in range(SETUP_SAMPLES[workload]):
        probe_dir = workdir / f"setup-{index}"
        cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
               workload, "--workdir", str(probe_dir)]
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed (exit {code}, "
                f"first line {line!r})")
        samples.append(elapsed)
    return samples


def default_of(fn, parameter: str):
    """The product's own default for ``parameter`` of ``fn``."""
    import inspect

    return inspect.signature(fn).parameters[parameter].default


class CallLog:
    """Notes when each call of ``cls.<attr>`` returns, and the class of
    its receiver, while the ``with`` block runs.

    A one-line shim that calls straight through: one extra Python call
    per cell, cheap enough for untraced runs. On ``Machine.run`` (both
    engines inherit it) it tells which engine each program ran on; on a
    per-cell method it gives per-cell latencies without any tracing.
    """

    def __init__(self, cls, attr: str):
        self.cls, self.attr = cls, attr
        self.ends: List[float] = []
        self.receivers: Dict[str, int] = {}

    def __enter__(self) -> "CallLog":
        inner = self._inner = getattr(self.cls, self.attr)
        ends, receivers = self.ends, self.receivers

        def call(receiver, *args, **kwargs):
            try:
                return inner(receiver, *args, **kwargs)
            finally:
                ends.append(time.perf_counter())
                name = type(receiver).__name__
                receivers[name] = receivers.get(name, 0) + 1

        setattr(self.cls, self.attr, call)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.cls, self.attr, self._inner)

    def intervals_ms(self, start: float) -> List[float]:
        """Time from ``start`` (or the previous return) to each return."""
        marks = [start] + self.ends
        return [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]


def engine_log() -> CallLog:
    """A :class:`CallLog` on ``Machine.run``; see :func:`engines_of`."""
    from repro.sim import Machine

    return CallLog(Machine, "run")


def engines_of(log: CallLog) -> Dict[str, int]:
    """Simulated programs per engine name (``repro.sim.ENGINES``)."""
    from repro.sim import ENGINES

    names = {cls.__name__: name for name, cls in ENGINES.items()}
    return {names.get(cls, cls): runs for cls, runs in log.receivers.items()}


def stop_helper_processes(timeout_s: float = 30.0) -> None:
    """Wait for every child process, then stop and reap the helpers
    ``multiprocessing`` starts on demand (the forkserver that templates
    serve workers, the resource tracker), so no process outlives the
    benchmark."""
    from multiprocessing import forkserver, resource_tracker

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and \
            time.monotonic() < deadline:
        time.sleep(0.02)
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
