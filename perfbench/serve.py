"""Workload ``serve_check``: ``POST /v1/check`` latency of ``repro serve``.

The server is booted in-process exactly as ``repro serve`` builds it,
with every option at the CLI's default (``--jobs``, ``--queue-limit``,
deadline, drain budget) except ``--port 0`` and ``--cache-dir``, which
points at a fresh, empty artifact-store directory.

Load is an **open loop**: evenly spaced requests at two fixed rates,
``low`` then ``high`` (:data:`RATES`), with at most ``nproc``
connections in flight. Each request is timed from when it was due, so a
stall also charges the requests queued behind it; how late the
generator itself ran is reported as ``loadgen.lag_ms``. The request mix
— Juliet bad/good programs across every CWE of the corpus, and
fuzz-generated programs — is generated before the clock starts; it
resends an earlier source where the Juliet corpus itself repeats one. Every 200 body, with ``transport`` removed, must be
byte-identical to an offline ``evaluate()`` of the same source, which
is computed after the load, untimed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import descendants, peak_rss_mb, percentile

#: Offered load, requests per second. Closed-loop capacity with two
#: connections is about 12 req/s for this mix on a 2-core host, so
#: ``low`` sits near a quarter of it (latency is service time) and
#: ``high`` at half (queueing shows; at two thirds the latency varied
#: too much between runs to bound).
RATES = {"low": 3.0, "high": 6.0}
#: Share of the run's ``--seconds`` spent at each rate; ``low`` gets the
#: larger share because it produces fewer samples per second.
PHASE_SHARE = {"low": 0.6, "high": 0.4}
#: The phases alternate in this many low/high block pairs, so that a
#: passing slowdown of the host hits both rates alike instead of one.
BLOCKS = 5
#: Juliet sample the mix draws from: the corpus at 2% (170 cases), in
#: the corpus's own CWE and subtype proportions.
JULIET_FRACTION = 0.02
#: Fuzz seed of the generated programs in the mix (fixed: the workload
#: seed orders the mix, it does not change its programs).
POOL_SEED = 0
#: Share of fuzz programs among the fresh sources: one per Juliet case,
#: which sends its bad and its good program (the corpus pairs them one
#: to one). The Juliet-to-fuzz ratio is an assumption of this benchmark,
#: not measured traffic.
FUZZ_SHARE = 1 / 3
#: Client-side budget per request before it counts as a timeout.
CLIENT_TIMEOUT_S = 60.0
#: Fixed warm-up request of the set-up phase (not part of the mix).
WARMUP_SOURCE = "int main() { int a[4]; a[1] = 2; return a[1] - 2; }\n"


class Request:
    __slots__ = ("due", "phase", "kind", "cwe", "source", "fingerprint",
                 "repeat", "status", "body", "lag", "sent", "done")

    def __init__(self, due: float, phase: str, kind: str,
                 cwe: Optional[int], source: str, repeat: bool):
        from repro.serve.protocol import (DEFAULT_MAX_INSTRUCTIONS,
                                          DEFAULT_SCHEMES,
                                          request_fingerprint)

        self.due = due
        self.phase = phase
        self.kind = kind
        self.cwe = cwe
        self.source = source
        self.repeat = repeat
        self.fingerprint = request_fingerprint(
            source, DEFAULT_SCHEMES, False, DEFAULT_MAX_INSTRUCTIONS)
        self.status = 0
        self.body = b""
        self.lag = 0.0
        self.sent = 0.0
        self.done = 0.0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def interleave(counts: Dict[str, int]) -> List[str]:
    """``counts`` spread evenly over one sequence: each slot takes the
    kind whose share is furthest behind, so no kind clusters."""
    total = sum(counts.values())
    taken = dict.fromkeys(counts, 0)
    order = []
    for slot in range(1, total + 1):
        kind = max(counts, key=lambda k: counts[k] * slot / total - taken[k])
        taken[kind] += 1
        order.append(kind)
    return order


def juliet_programs() -> List[Tuple[str, int, str]]:
    """``(kind, cwe, source)`` of every program of the Juliet sample,
    cases ordered so that every prefix holds each (CWE, subtype) in its
    corpus share; each case gives its bad program, then its good one.

    The corpus repeats some sources (43 of the sample's 340 programs
    equal an earlier one), and the mix resends earlier sources in that
    same share; see :func:`build_schedule`.
    """
    from repro.workloads.juliet import generate_corpus

    groups: Dict[Tuple[int, str], list] = {}
    for case in generate_corpus(fraction=JULIET_FRACTION):
        groups.setdefault((case.cwe, case.subtype), []).append(case)
    programs = []
    for key in interleave({key: len(cases)
                           for key, cases in groups.items()}):
        case = groups[key].pop(0)
        programs.append(("juliet_bad", case.cwe, case.bad_source))
        programs.append(("juliet_good", case.cwe, case.good_source))
    return programs


def build_schedule(seed: int, seconds: float) -> List[Request]:
    """The seeded request schedule; ``due`` is seconds from load start.

    Requests are evenly spaced at each phase's rate (the phases
    alternate in :data:`BLOCKS` pairs), and the kinds are interleaved
    evenly, so heavy requests never bunch up by chance. Fresh sources
    are Juliet and fuzz programs (:data:`FUZZ_SHARE`); besides them,
    each block resends sources of earlier blocks in the share in which
    the Juliet sample repeats its own programs — a result-cache hit
    unless the server is a whole block behind. Each phase offers the same fresh programs
    whatever the seed — the next ones of the Juliet sample and of a
    fixed fuzz sequence — so every seed sees the same service-time
    distribution. The seed orders the programs within each block and
    picks which earlier source each repeat resends.
    """
    from repro.fuzz.gen import generate_program, plan_programs

    rng = random.Random(f"perfbench.serve/{seed}")
    programs = juliet_programs()
    repeat_share = 1 - len({p[2] for p in programs}) / len(programs)
    juliet = itertools.cycle(programs)
    fuzz_plan = iter(plan_programs(POOL_SEED, 10_000))

    def fresh(kind: str) -> Tuple[str, Optional[int], str]:
        if kind == "juliet":
            return next(juliet)
        index, planted = next(fuzz_plan)
        return "fuzz", None, generate_program(POOL_SEED, index,
                                              planted).source

    requests: List[Request] = []
    seen = set()
    start = 0.0
    for phase in ("low", "high") * BLOCKS:
        length = seconds * PHASE_SHARE[phase] / BLOCKS
        count = max(1, round(length * RATES[phase]))
        earlier = [req for req in requests if not req.repeat]
        repeats = round(count * repeat_share) if earlier else 0
        fuzz = round((count - repeats) * FUZZ_SHARE)
        counts = {"juliet": count - repeats - fuzz, "fuzz": fuzz,
                  "repeat": repeats}
        order = interleave(counts)
        batches = {kind: [fresh(kind) for k in order if k == kind]
                   for kind in ("juliet", "fuzz")}
        batches["repeat"] = [
            (req.kind, req.cwe, req.source)
            for req in (rng.choice(earlier) for _ in range(repeats))]
        for batch in batches.values():
            rng.shuffle(batch)
        for index, kind in enumerate(order):
            name, cwe, source = batches[kind].pop()
            requests.append(Request(start + index / RATES[phase], phase,
                                    name, cwe, source, source in seen))
            seen.add(source)
        start += length
    return requests


def mix_info(requests: List[Request]) -> Dict:
    """What the mix held: requests per kind (a repeat counts as the kind
    of the source it resends), the measured share that resent an
    earlier source, and the Juliet requests' CWE and spatial/temporal
    shares."""
    from repro.workloads.juliet import TEMPORAL_CWES

    total = len(requests)
    juliet = [req for req in requests if req.cwe is not None]
    cwes: Dict[str, int] = {}
    for req in juliet:
        cwes[f"CWE-{req.cwe}"] = cwes.get(f"CWE-{req.cwe}", 0) + 1
    temporal = sum(1 for req in juliet if req.cwe in TEMPORAL_CWES)
    kinds: Dict[str, int] = {}
    for req in requests:
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
    return {
        "kinds": kinds,
        "repeat_share": round(sum(r.repeat for r in requests) / total, 4),
        "juliet_cwe_share": {name: round(n / len(juliet), 4)
                             for name, n in sorted(cwes.items())},
        "juliet_temporal_share": round(temporal / len(juliet), 4),
        "juliet_spatial_share": round(1 - temporal / len(juliet), 4),
    }


# -- server ------------------------------------------------------------------

def cli_defaults(store_dir: str):
    """``repro serve`` arguments at their CLI defaults (plus port 0 and
    the given artifact-store directory)."""
    from repro.cli import build_parser

    return build_parser().parse_args(
        ["serve", "--port", "0", "--cache-dir", store_dir])


def build_server(store_dir: str):
    """Supervisor + app wired exactly as ``repro serve`` wires them."""
    from repro.serve import ServeApp, Supervisor

    args = cli_defaults(store_dir)
    supervisor = Supervisor(
        jobs=args.jobs,
        disk_root=args.cache_dir,
        disk_max_bytes=args.cache_max_mb * 1024 * 1024,
        breaker_cooldown_s=args.breaker_cooldown)
    app = ServeApp(
        supervisor,
        host=args.host, port=args.port,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        drain_timeout_s=args.drain_timeout,
        allow_debug=args.debug_faults)
    return supervisor, app


async def http(port: int, method: str, path: str,
               body: bytes = b"") -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, payload = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, payload


def check_body(source: str) -> bytes:
    return json.dumps({"source": source}).encode("utf-8")


async def boot(store_dir: str):
    """Boot, warm the pool and answer one warm-up request."""
    supervisor, app = build_server(store_dir)
    await app.start()
    status, _ = await http(app.port, "POST", "/v1/check",
                           check_body(WARMUP_SOURCE))
    if status != 200:
        raise RuntimeError(f"warm-up request answered {status}")
    return supervisor, app


async def shutdown(supervisor, app) -> None:
    app.request_shutdown()
    await app.drain()
    supervisor.close()


def probe_setup(workdir) -> None:
    """Set-up probe body: boot to ready, report, then tear down."""
    async def main():
        supervisor, app = await boot(str(workdir / "store"))
        print("ready", flush=True)
        await shutdown(supervisor, app)

    asyncio.run(main())


# -- load --------------------------------------------------------------------

async def drive(port: int, requests: List[Request], connections: int
                ) -> Tuple[float, float]:
    """Send the schedule open-loop; returns the load window."""
    slots = asyncio.Semaphore(connections)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    clock_offset = time.perf_counter() - loop.time()

    async def one(req: Request) -> None:
        due = start + req.due
        await asyncio.sleep(max(0.0, due - loop.time()))
        req.due = due + clock_offset           # perf_counter timebase
        req.lag = time.perf_counter() - req.due
        async with slots:
            req.sent = time.perf_counter()
            try:
                req.status, req.body = await asyncio.wait_for(
                    http(port, "POST", "/v1/check",
                         check_body(req.source)),
                    timeout=CLIENT_TIMEOUT_S)
            except (asyncio.TimeoutError, OSError):
                req.status = 0
            req.done = time.perf_counter()

    await asyncio.gather(*(one(req) for req in requests))
    return start + clock_offset, max(req.done for req in requests)


def scrape(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


async def load_phase(ctx, requests: List[Request]):
    supervisor, app = await boot(str(ctx.workdir / "store"))
    try:
        window = await drive(app.port, requests, os.cpu_count() or 1)
        status, text = await http(app.port, "GET", "/metrics")
        scraped = scrape(text.decode("utf-8")) if status == 200 else {}
        rss_mb = peak_rss_mb() + sum(
            peak_rss_mb(pid) for pid in descendants(os.getpid()))
    finally:
        await shutdown(supervisor, app)
    return window, scraped, rss_mb, supervisor.jobs, app.queue_limit


# -- offline check -------------------------------------------------------------

def offline(source: str) -> Tuple[str, Dict[str, int]]:
    """Canonical offline envelope of ``source`` plus the engines its
    runs used (pool-worker body, run in a spawned child)."""
    from common import engine_log, engines_of
    from repro.harness.compile_cache import process_cache
    from repro.serve.protocol import canonical_json, evaluate

    with engine_log() as runs:
        envelope = evaluate(source, cache=process_cache())
    return canonical_json(envelope), engines_of(runs)


def expected_envelopes(sources: List[str], jobs: int
                       ) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Offline envelope text per source, and engine run counts."""
    context = multiprocessing.get_context("spawn")
    engines: Dict[str, int] = {}
    expected = {}
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        for source, (text, used) in zip(sources,
                                        pool.map(offline, sources)):
            expected[source] = text
            for name, runs in used.items():
                engines[name] = engines.get(name, 0) + runs
    return expected, engines


def served_text(body: bytes) -> Optional[str]:
    from repro.serve.protocol import canonical_json

    try:
        doc = json.loads(body.decode("utf-8"))
    except ValueError:
        return None
    doc.pop("transport", None)
    return canonical_json(doc)


# -- workload ------------------------------------------------------------------

def run(ctx) -> Dict:
    seconds = 2.0 if ctx.tiny else float(ctx.seconds)
    if ctx.recorder is not None:
        ctx.recorder.enabled = False   # input preparation is not measured
    requests = build_schedule(ctx.seed, seconds)
    if ctx.recorder is not None:
        ctx.recorder.enabled = True
    window, scraped, rss_mb, jobs, queue_limit = asyncio.run(
        load_phase(ctx, requests))
    if ctx.recorder is not None:
        ctx.recorder.enabled = False        # the check is not measured
    if ctx.plant:
        # Planted wrong output: one served body altered in transit.
        victim = next(r for r in requests if r.status == 200)
        victim.body = victim.body.replace(b'"verdicts"', b'"verdictz"', 1)
    unique = list(dict.fromkeys(req.source for req in requests))
    expected, engines = expected_envelopes(unique, os.cpu_count() or 1)
    problems = []
    for index, req in enumerate(requests):
        if req.status != 200:
            problems.append(f"request {index}: HTTP {req.status or 'timeout'}")
        elif served_text(req.body) != expected[req.source]:
            problems.append(f"request {index}: body differs from offline "
                            "evaluate()")
    ok = [req for req in requests if req.status == 200]
    wall = window[1] - window[0]
    metrics = {
        "wall_s": (wall, "s", 1),
        "cells_per_s": (len(ok) / wall, "1/s", len(ok)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    for phase in RATES:
        lat = [req.latency_ms for req in ok if req.phase == phase]
        metrics[f"p50_ms.{phase}"] = (percentile(lat, 50), "ms", len(lat))
        metrics[f"p90_ms.{phase}"] = (percentile(lat, 90), "ms", len(lat))
    return {
        "attempted": len(requests),
        "failed": len(problems),
        "problems": problems,
        "window": window,
        "metrics": metrics,
        "requests": requests,
        "scraped": scraped,
        "info": {
            "product": "repro serve (CLI defaults, in-process)",
            "jobs": jobs,
            "queue_limit": queue_limit,
            "engines": engines,
            "rates_per_s": RATES,
            "requests": {phase: sum(1 for r in requests if r.phase == phase)
                         for phase in RATES},
            "unique_sources": len(unique),
            "mix": mix_info(requests),
            "lag_ms_median": median([r.lag * 1000.0 for r in requests]),
        },
    }


def layer_metrics(rec, outcome) -> Dict[str, tuple]:
    """Serve-layer metrics of a traced run (parent-process spans plus
    the server's own ``/metrics`` counters)."""
    from tracing import distribution

    requests = outcome["requests"]
    window = outcome["window"]
    workers = [s for s in rec.spans if s.name == "serve.worker"
               and window[0] <= s.start <= window[1]]
    first_sent: Dict[str, float] = {}
    for req in sorted(requests, key=lambda r: r.sent):
        first_sent.setdefault(req.fingerprint, req.sent)
    waits = [(s.start - first_sent[s.rid]) * 1000.0 for s in workers
             if s.rid in first_sent]
    encode = [s.duration * 1000.0 for s in rec.spans
              if s.name == "serve.encode"
              and window[0] <= s.start <= window[1]]
    scraped = outcome["scraped"]
    total = scraped.get("repro_serve_requests_total", 0.0)
    hits = scraped.get("repro_serve_requests_cache_hits", 0.0)
    coalesced = scraped.get("repro_serve_requests_coalesced", 0.0)
    out = {}
    out.update(distribution([s.duration * 1000.0 for s in workers], "ms",
                            "serve.worker_ms"))
    out.update(distribution(waits, "ms", "serve.admission_wait_ms"))
    out.update(distribution(encode, "ms", "serve.encode_ms", (50,)))
    out["serve.requests"] = (total, "count", 1)
    out["serve.result_cache_hit_ratio"] = (hits / total if total else 0.0,
                                           "ratio", int(total))
    out["serve.coalesced_ratio"] = (coalesced / total if total else 0.0,
                                    "ratio", int(total))
    out["serve.worker_deaths"] = (
        scraped.get("repro_serve_worker_deaths", 0.0), "count", 1)
    out.update(distribution([r.lag * 1000.0 for r in requests], "ms",
                            "loadgen.lag_ms", (90,)))
    return out
