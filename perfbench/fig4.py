"""Workload ``fig4_small``: regenerate the paper's Fig. 4 at small scale.

The product call is ``fig4_overhead(scale="small")`` at its default
``jobs`` (1) — every registered workload under baseline, SBCETS,
HWST128, HWST128_tchk and HWST128_tchk with check elision.
``collect_metrics=True`` only copies the per-run counter snapshots the
sweep already produced into the rows, so the per-cell cycles and
instret can be checked against the reference recorded at the commit
that introduced this benchmark.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from common import (default_of, engine_log, engines_of, load_reference,
                    peak_rss_mb)

#: Workloads of the tiny self-test size (one pointer-chasing Olden
#: kernel, one MiBench kernel).
TINY_WORKLOADS = ("treeadd", "CRC32")


def cell_table(data: Dict) -> Dict[str, List[int]]:
    """``{"<workload>/<scheme>": [cycles, instret]}`` for every row."""
    cells = {}
    for row in data["rows"]:
        for scheme, snap in sorted(row["metrics"].items()):
            cells[f"{row['workload']}/{scheme}"] = [
                int(snap["sim.cycles"]), int(snap["sim.instret"])]
    return cells


def regenerate(workloads: Optional[List[str]]) -> Dict:
    from repro.harness.experiments import fig4_overhead

    return fig4_overhead(scale="small", workloads=workloads,
                         collect_metrics=True)


def check(data: Dict, reference: Dict, tiny: bool) -> List[str]:
    """Every mismatch against the reference, one line each."""
    problems = [f"failed cell: {line}" for line in data.get("failures", [])]
    got = cell_table(data)
    want = reference["cells"]
    if tiny:
        want = {key: value for key, value in want.items()
                if key.split("/", 1)[0] in TINY_WORKLOADS}
    for key in sorted(set(want) | set(got)):
        if got.get(key) != want.get(key):
            problems.append(f"cell {key}: cycles/instret {got.get(key)} "
                            f"!= reference {want.get(key)}")
    if not tiny and data["geomean"] != reference["geomean"]:
        problems.append(f"geomean {data['geomean']} != reference "
                        f"{reference['geomean']}")
    return problems


def paper_error(data: Dict) -> Dict[str, float]:
    """Geomean perf.oh minus the paper's, in percentage points."""
    paper = data["paper_geomean"]
    return {scheme: round(data["geomean"][scheme] - paper[scheme], 4)
            for scheme in sorted(paper) if scheme in data["geomean"]}


def run(ctx) -> Dict:
    from repro.harness.experiments import fig4_overhead
    from repro.workloads import WORKLOADS

    workloads = list(TINY_WORKLOADS) if ctx.tiny else None
    with engine_log() as runs:
        started = time.perf_counter()
        data = regenerate(workloads)
        ended = time.perf_counter()
    wall = ended - started
    cells = 5 * len(workloads or WORKLOADS)
    if ctx.plant:
        # Planted wrong output: one cell's cycle count off by one.
        row = data["rows"][0]
        row["metrics"]["baseline"]["sim.cycles"] += 1
    problems = check(data, load_reference("fig4_small"), ctx.tiny)
    return {
        "attempted": cells,
        "failed": min(cells, len(problems)),
        "problems": problems,
        "window": (started, ended),
        "metrics": {
            "wall_s": (wall, "s", 1),
            "cells_per_s": (cells / wall, "1/s", cells),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        },
        # Every cell simulates one program, so the time between two
        # Machine.run returns is one cell's compile + run.
        "latencies_ms": runs.intervals_ms(started),
        "info": {
            "product": "fig4_overhead(scale='small')",
            "jobs": default_of(fig4_overhead, "jobs"),
            "engines": engines_of(runs),
            "cells": cells,
            "geomean_minus_paper_pp": paper_error(data),
        },
    }
