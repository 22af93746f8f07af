"""Experiment harness: runners, sweeps, coverage, figure tables.

* :mod:`repro.harness.runner` — compile-and-run helpers,
  perf.oh (Eq. 7) and speedup (Eq. 8) math, detection classification;
* :mod:`repro.harness.parallel` — process-pool sweep executor with
  per-cell failure envelopes (``--jobs N``);
* :mod:`repro.harness.campaign` — the campaign skeleton (plan →
  batches → fold → report) under fuzz, faultcampaign and conform;
* :mod:`repro.harness.compile_cache` — content-addressed compile cache
  (``compile.cache.*`` counters);
* :mod:`repro.harness.coverage` — Fig. 6 Juliet coverage evaluation;
* :mod:`repro.harness.experiments` — one entry point per paper artefact
  (``python -m repro.harness.experiments --list``).
"""

from repro.harness.runner import (
    detected,
    perf_overhead_pct,
    run_program,
    run_workload,
    speedup,
)
from repro.harness.compile_cache import CompileCache, process_cache
from repro.harness.coverage import evaluate_coverage, CoverageResult
from repro.harness.parallel import (
    CellResult,
    CellSpec,
    SweepExecutor,
    run_cells,
)

__all__ = [
    "detected",
    "perf_overhead_pct",
    "run_program",
    "run_workload",
    "speedup",
    "evaluate_coverage",
    "CoverageResult",
    "CellResult",
    "CellSpec",
    "SweepExecutor",
    "run_cells",
    "CompileCache",
    "process_cache",
]
