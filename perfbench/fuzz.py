"""Workload ``fuzz_campaign``: one coverage-guided differential fuzz
campaign, ``run_fuzz(n=FUZZ_N, seed=<workload seed % FUZZ_SEEDS>)`` at
its default ``jobs`` (1) and with the default oracles.

Many short generated programs, each compiled under every oracle
scheme, simulated and linted: compile-, lint- and start-up-bound, the
opposite mix to ``fig4_small``. The report is deterministic for a
seed, so its digest is checked against the one recorded for that seed.
"""

from __future__ import annotations

import time
from typing import Dict

from common import (FUZZ_N, FUZZ_SEEDS, CallLog, default_of, engine_log,
                    engines_of, load_reference, peak_rss_mb, sha256_text)

#: Programs per campaign at the tiny self-test size.
TINY_N = 4


def campaign(n: int, seed: int):
    from repro.fuzz import run_fuzz

    return run_fuzz(n=n, seed=seed)


def report_digest(report) -> str:
    return sha256_text(report.to_json())


def run(ctx) -> Dict:
    n = TINY_N if ctx.tiny else FUZZ_N
    seed = ctx.seed % FUZZ_SEEDS
    from repro.fuzz import run_fuzz
    from repro.fuzz.campaign import FuzzCell

    with engine_log() as runs, CallLog(FuzzCell, "execute") as cells:
        started = time.perf_counter()
        report = campaign(n, seed)
        ended = time.perf_counter()
    wall = ended - started
    digest = report_digest(report)
    if ctx.plant:
        # Planted wrong output: a report that differs in one byte.
        digest = sha256_text(report.to_json() + " ")
    reference = load_reference("fuzz_campaign")
    want = reference["tiny" if ctx.tiny else "full"]["digests"].get(str(seed))
    problems = [f"divergent program {d['name']}: "
                + ", ".join(f"{x['oracle']}/{x['kind']}"
                            for x in d["divergences"])
                for d in report.divergences]
    if report.interrupted or len(report.programs) != n:
        problems.append(f"campaign ran {len(report.programs)}/{n} programs")
    if digest != want:
        problems.append(f"report digest {digest[:16]} != reference "
                        f"{str(want)[:16]} for fuzz seed {seed}")
    return {
        "attempted": n,
        "failed": min(n, len(problems)),
        "problems": problems,
        "window": (started, ended),
        "metrics": {
            "wall_s": (wall, "s", 1),
            "cells_per_s": (n / wall, "1/s", n),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        },
        "latencies_ms": cells.intervals_ms(started),
        "info": {
            "product": f"run_fuzz(n={n}, seed={seed})",
            "jobs": default_of(run_fuzz, "jobs"),
            "engines": engines_of(runs),
            "fuzz_seed": seed,
            "report_sha256": digest,
        },
    }
