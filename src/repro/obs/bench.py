"""Performance-trajectory bench: scenario registry, runner, envelope.

This is the instrument the ROADMAP's fast-ISS work gets measured
against: ``repro bench`` executes a fixed scenario suite — workload
kernels under representative schemes plus small fuzz / fault-injection
campaign smokes — ``reps`` times each, measures guest instructions,
host wall time, guest MIPS, compile-phase wall time, peak RSS and GC
activity, aggregates the noisy host-side numbers with median/IQR
bands, and writes a versioned ``repro.bench/v1`` envelope
(``BENCH_SIM.json``, tracked per-PR).

Envelope determinism contract: every field *outside* the per-scenario
``"measured"`` subtree and the top-level ``"host"`` section is a pure
function of ``(seed, scenario set)`` — guest instructions, simulated
cycles, the per-function cycle profile, the ``sim.*``/``cyc_*``
counter census. :func:`strip_measured` removes the host-timing parts;
what remains must be byte-identical across reruns at the same seed
(asserted in ``tests/test_bench.py``). The measured parts are what
:mod:`repro.obs.compare` gates on.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["BenchScenario", "SCENARIOS", "QUICK_SCENARIOS",
           "ENVELOPE_SCHEMA", "run_bench", "run_scenario",
           "strip_measured", "scenario_names", "envelope_to_json",
           "load_envelope", "save_envelope"]

ENVELOPE_SCHEMA = "repro.bench/v1"

#: Workloads small enough to repeat a handful of times yet diverse in
#: pointer/heap behaviour (hash kernel, graph walk, tree build, string
#: scan, DP table). All run at ``small`` scale.
_BENCH_WORKLOADS = ("sha", "dijkstra", "treeadd", "stringsearch",
                    "hmmer", "bzip2")

#: The two schemes the trajectory tracks: the uninstrumented
#: interpreter floor and the fully-checked HWST128 hot path.
_BENCH_SCHEMES = ("baseline", "hwst128_tchk")


@dataclass(frozen=True)
class BenchScenario:
    """One named bench cell: a workload run or a campaign smoke."""

    name: str
    kind: str                       # "workload" | "campaign"
    description: str
    workload: str = ""
    scheme: str = ""
    scale: str = "small"
    campaign: str = ""              # "fuzz" | "faultinject"
    n: int = 0                      # campaign size
    quick: bool = True              # part of the --quick subset?


def _build_registry() -> Dict[str, BenchScenario]:
    scenarios: Dict[str, BenchScenario] = {}
    quick_workloads = ("sha", "treeadd", "dijkstra")
    for workload in _BENCH_WORKLOADS:
        for scheme in _BENCH_SCHEMES:
            name = f"{workload}/{scheme}"
            scenarios[name] = BenchScenario(
                name=name, kind="workload",
                description=f"{workload} kernel under {scheme} "
                            "(small scale, timed pipeline)",
                workload=workload, scheme=scheme,
                quick=workload in quick_workloads)
    scenarios["fuzz_smoke"] = BenchScenario(
        name="fuzz_smoke", kind="campaign", campaign="fuzz", n=6,
        description="6-program differential-fuzz campaign "
                    "(generator + 4 oracles, no reduction)")
    scenarios["faultinject_smoke"] = BenchScenario(
        name="faultinject_smoke", kind="campaign",
        campaign="faultinject", n=8,
        description="8-injection fault campaign (metadata+keybuffer "
                    "families, differential oracle)")
    return scenarios


SCENARIOS: Dict[str, BenchScenario] = _build_registry()
QUICK_SCENARIOS = tuple(name for name, s in SCENARIOS.items() if s.quick)


def scenario_names(quick: bool = False) -> List[str]:
    if quick:
        return list(QUICK_SCENARIOS)
    return list(SCENARIOS)


# ---------------------------------------------------------------------------
# Aggregation helpers (deterministic, no numpy)
# ---------------------------------------------------------------------------

def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a sorted sample, q in [0, 1]."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def _band(samples: Sequence[float], digits: int = 4) -> Dict[str, object]:
    """Median/IQR noise band of a repeated host-side measurement."""
    ordered = sorted(float(s) for s in samples)
    q1 = _quantile(ordered, 0.25)
    q3 = _quantile(ordered, 0.75)
    return {
        "median": round(_quantile(ordered, 0.5), digits),
        "iqr": round(q3 - q1, digits),
        "min": round(ordered[0], digits) if ordered else 0.0,
        "max": round(ordered[-1], digits) if ordered else 0.0,
        "reps": len(ordered),
    }


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def _engine_name(engine: Optional[str]) -> str:
    from repro import sim

    return sim.DEFAULT_ENGINE if engine is None else engine


def _run_workload_scenario(scenario: BenchScenario, reps: int,
                           engine: str) -> dict:
    from repro.harness.runner import timed_run
    from repro.workloads import WORKLOADS

    source = WORKLOADS[scenario.workload].source(scenario.scale)
    samples: List[dict] = []
    deterministic: Optional[dict] = None
    for rep in range(reps):
        result, sample = timed_run(source, scenario.scheme,
                                   profile=(rep == 0), engine=engine)
        if result.status != "exit" or result.exit_code != 0:
            raise RuntimeError(
                f"bench scenario {scenario.name} did not run clean: "
                f"{result.status}/exit={result.exit_code} "
                f"{result.detail}")
        samples.append(sample)
        if rep == 0:
            deterministic = {
                "guest_instructions": result.instret,
                "guest_cycles": result.cycles,
                "counters": {key: int(value) for key, value
                             in sorted(result.stats.items())},
                "profile": sample["profile"],
            }
    walls = [s["wall_s"] for s in samples]
    compiles = [s["compile_s"] for s in samples]
    instret = deterministic["guest_instructions"]
    entry = {
        "kind": "workload",
        "workload": scenario.workload,
        "scheme": scenario.scheme,
        "scale": scenario.scale,
        "engine": engine,
    }
    entry.update(deterministic)
    phase_medians = {}
    for phase in sorted(samples[0]["phases_ms"]):
        phase_medians[phase] = round(_quantile(
            sorted(s["phases_ms"].get(phase, 0.0) for s in samples),
            0.5), 4)
    entry["measured"] = {
        "wall_ms": _band([w * 1e3 for w in walls]),
        "guest_mips": _band([instret / w / 1e6 for w in walls]),
        "compile_ms": _band([c * 1e3 for c in compiles]),
        "compile_phases_ms": phase_medians,
        "peak_rss_kb": max(s["peak_rss_kb"] for s in samples),
        "gc_collections": max(s["gc_collections"] for s in samples),
    }
    return entry


def _run_campaign_scenario(scenario: BenchScenario, reps: int,
                           seed: int) -> dict:
    from repro.obs.host import gc_collections, peak_rss_kb

    walls: List[float] = []
    deterministic: Optional[dict] = None
    for rep in range(reps):
        # Same measurement isolation as timed_run(): drain the cyclic
        # collector so the previous rep's dead machines don't bill
        # their GC pauses to this rep's wall.
        gc.collect()
        t0 = time.perf_counter()
        if scenario.campaign == "fuzz":
            from repro.fuzz import run_fuzz

            report = run_fuzz(n=scenario.n, seed=seed,
                              reduce_divergences=False)
            digest = {
                "cells": scenario.n,
                "divergences": len(report.divergences),
            }
        elif scenario.campaign == "faultinject":
            from repro.faultinject import run_campaign

            report = run_campaign(
                scheme="hwst128", families=("metadata", "keybuffer"),
                n=scenario.n, seed=seed)
            digest = {
                "cells": scenario.n,
                "scoreboard": dict(sorted(report.scoreboard.items())),
            }
        else:
            raise ValueError(
                f"unknown campaign kind {scenario.campaign!r}")
        walls.append(time.perf_counter() - t0)
        if rep == 0:
            deterministic = digest
    entry = {
        "kind": "campaign",
        "campaign": scenario.campaign,
        "seed": seed,
    }
    entry.update(deterministic)
    entry["measured"] = {
        "wall_ms": _band([w * 1e3 for w in walls]),
        "cells_per_sec": _band([scenario.n / w for w in walls]),
        "peak_rss_kb": peak_rss_kb(),
        "gc_collections": gc_collections(),
    }
    return entry


def run_scenario(scenario: BenchScenario, reps: int = 3,
                 seed: int = 7, engine: Optional[str] = None) -> dict:
    """Run one scenario ``reps`` times; returns its envelope entry.

    ``engine`` (None: the default engine) selects the execution core
    for *workload* scenarios (the deterministic subtree is
    engine-independent by the lockstep contract, so only the measured
    bands move). Campaign smokes run their own orchestration.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1: {reps}")
    if scenario.kind == "workload":
        return _run_workload_scenario(scenario, reps,
                                      engine=_engine_name(engine))
    return _run_campaign_scenario(scenario, reps, seed)


# ---------------------------------------------------------------------------
# Suite runner + envelope
# ---------------------------------------------------------------------------

def run_bench(scenarios: Optional[Sequence[str]] = None,
              reps: int = 3, seed: int = 7, quick: bool = False,
              engine: Optional[str] = None,
              progress: Optional[Callable[[str, int, int], None]] = None,
              ) -> dict:
    """Run the bench suite and build the ``repro.bench/v1`` envelope.

    ``scenarios`` selects by name (default: the full registry, or the
    ``--quick`` subset). ``engine`` selects the workload-scenario
    execution core (``ref`` | ``fast``, None: the default); the envelope
    records it.
    ``progress(name, index, total)`` is called before each scenario
    starts (the CLI prints a status line).
    """
    import platform
    import sys as _sys

    engine = _engine_name(engine)
    names = list(scenarios) if scenarios else scenario_names(quick)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown bench scenarios {unknown}; known: "
                         f"{sorted(SCENARIOS)}")
    entries: Dict[str, dict] = {}
    for index, name in enumerate(names):
        if progress is not None:
            progress(name, index, len(names))
        entries[name] = run_scenario(SCENARIOS[name], reps=reps,
                                     seed=seed, engine=engine)
    return {
        "schema": ENVELOPE_SCHEMA,
        "seed": seed,
        "reps": reps,
        "quick": bool(quick),
        "engine": engine,
        "scenarios": entries,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": _sys.platform,
            "machine": platform.machine(),
        },
    }


def strip_measured(envelope: dict) -> dict:
    """The deterministic skeleton of an envelope.

    Removes every per-scenario ``"measured"`` subtree and the
    ``"host"`` section; what is left must be byte-identical across
    reruns at the same seed (the determinism contract ``repro bench``
    promises and ``tests/test_bench.py`` asserts).
    """
    out = {key: value for key, value in envelope.items()
           if key != "host"}
    out["scenarios"] = {
        name: {key: value for key, value in entry.items()
               if key != "measured"}
        for name, entry in envelope.get("scenarios", {}).items()
    }
    return out


def envelope_to_json(envelope: dict) -> str:
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def load_envelope(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != ENVELOPE_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {ENVELOPE_SCHEMA!r}, "
            f"got {schema!r}")
    return doc


def save_envelope(envelope: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(envelope_to_json(envelope))
