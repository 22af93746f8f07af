"""Span tracing for the benchmark's traced run (``--trace 1``).

The benchmark wraps the public entry points of each layer — from its
own files, without editing program code — and records one span per
call: name, start, end, parent span and request id. Spans stay in
memory and are written once, when the traced run ends. A layer's self
time is its span's duration minus the time its direct child spans
cover; children of one span run on the same thread and never overlap,
so that coverage is the sum of their durations.

Layer names are the repo's module names (see ``README.md`` for which
end-to-end metric each one should move). Front-end spans are split by
translation unit: ``.runtime`` for the scheme's runtime library,
``.user`` for everything else.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from common import percentile


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "label",
                 "child_s")

    def __init__(self, name, start, parent, rid, label):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.label = label
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.enabled = True
        self._local = threading.local()
        self._runtime_sources = set()

    # -- span stack (per thread) --------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @property
    def unit(self) -> str:
        return getattr(self._local, "unit", "user")

    @unit.setter
    def unit(self, value: str) -> None:
        self._local.unit = value

    def wrap(self, name: str, fn: Callable,
             label: Optional[Callable] = None,
             rid: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call while the recorder is on.

        ``label(args)`` / ``rid(args)`` name the span's unit and request;
        ``after(span, args, result)`` takes counts from the result.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None,
                        rid(args) if rid else None,
                        label(args) if label else None)
            recorder.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if after is not None:
                after(span, args, result)
            return result

        return traced

    # -- reporting ----------------------------------------------------------

    def seconds(self, name: str, label: Optional[str] = None,
                self_time: bool = False) -> float:
        return sum(s.self_s if self_time else s.duration
                   for s in self.spans
                   if s.name == name and (label is None or s.label == label))

    def durations_ms(self, name: str) -> List[float]:
        return [s.duration * 1000.0 for s in self.spans if s.name == name]

    def unattributed_s(self, start: float, end: float) -> float:
        """Wall time in ``[start, end]`` covered by no root span (on any
        thread): the part of the run no layer accounts for."""
        intervals = sorted((max(s.start, start), min(s.end, end))
                           for s in self.spans if s.parent is None)
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered

    def dump(self, path) -> None:
        """Write every span once, as Chrome trace events (microseconds)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            args = {"id": index,
                    "parent": ids.get(id(span.parent)) if span.parent
                    else None}
            if span.rid is not None:
                args["request"] = span.rid
            if span.label is not None:
                args["unit"] = span.label
            args["self_us"] = round(span.self_s * 1e6, 1)
            events.append({"name": span.name, "ph": "X", "pid": 0,
                           "tid": 0, "ts": round((span.start - t0) * 1e6, 1),
                           "dur": round(span.duration * 1e6, 1),
                           "args": args})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original``
    (including ``from x import f`` copies) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every traced layer entry point of the loaded product code."""
    import repro.analyze.elide as elide
    import repro.analyze.interproc as interproc
    import repro.analyze.linter as linter
    import repro.codegen.link as link
    import repro.codegen.lower as lower
    import repro.codegen.runtime as runtime
    import repro.fuzz.campaign  # noqa: F401  (binds names to patch)
    import repro.fuzz.gen as gen
    import repro.fuzz.oracle as oracle
    import repro.ir.instrument as instrument
    import repro.ir.irgen as irgen
    import repro.ir.verify as verify
    import repro.minic.lexer as lexer
    import repro.minic.parser as parser
    import repro.minic.sema as sema
    import repro.schemes.compile  # noqa: F401
    import repro.serve.app  # noqa: F401
    import repro.serve.protocol as protocol
    import repro.serve.supervisor as supervisor
    from repro.harness.compile_cache import CompileCache
    from repro.sim import Machine

    rec = recorder

    def patch(module, attr, name, **hooks):
        original = getattr(module, attr)
        _replace_everywhere(original, rec.wrap(name, original, **hooks))

    def patch_method(cls, attr, name, **hooks):
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), **hooks))

    # Which translation unit is being compiled: the runtime library's
    # text comes from runtime_source(); anything else is user code.
    def note_runtime(span, args, result):
        rec._runtime_sources.add(result)

    def lex_unit(args):
        rec.unit = "runtime" if args[0] in rec._runtime_sources else "user"
        return rec.unit

    def current_unit(args):
        return rec.unit

    def irgen_unit(args):
        name = args[1] if len(args) > 1 else "program"
        return "runtime" if name == "runtime" else "user"

    def elide_caller(args):
        # The linter runs the same interprocedural analysis; only the
        # compile-time (check elision) calls belong to analyze.elide.
        inside_lint = any(s.name == "analyze.lint" for s in rec._stack())
        return "lint" if inside_lint else "compile"

    def count_tokens(span, args, result):
        rec.count(f"minic.tokens.{span.label}", len(result))

    def count_text(span, args, result):
        rec.count("codegen.text_instructions", len(result.instrs))

    def count_run(span, args, result):
        stats = result.stats
        rec.count("sim.runs", 1)
        rec.count("sim.guest_instructions", result.instret)
        rec.count("pipeline.cycles", result.cycles)
        rec.count("pipeline.dcache_hits", stats.get("dcache_hits", 0))
        rec.count("pipeline.dcache_misses", stats.get("dcache_misses", 0))
        rec.count("sim.kb_hits", stats.get("kb_hits", 0))
        rec.count("sim.kb_misses", stats.get("kb_misses", 0))

    patch(runtime, "runtime_source", "codegen.runtime_source",
          after=note_runtime)
    patch(lexer, "tokenize", "minic.lex", label=lex_unit,
          after=count_tokens)
    patch_method(parser.Parser, "parse_translation_unit", "minic.parse",
                 label=current_unit)
    patch(sema, "analyze", "minic.sema", label=current_unit)
    patch(irgen, "lower_unit", "ir.irgen", label=irgen_unit)
    patch(instrument, "instrument_module", "ir.instrument")
    patch(verify, "verify_module", "ir.verify")
    patch(linter, "analyze_source", "analyze.lint")
    patch(interproc, "analyze_module_interproc", "analyze.elide",
          label=elide_caller)
    patch(elide, "hoist_loop_checks", "analyze.elide", label=elide_caller)
    patch(elide, "elide_module", "analyze.elide", label=elide_caller)
    patch(lower, "compile_function", "codegen.lower")
    patch(link, "build_program", "codegen.link", after=count_text)
    patch_method(CompileCache, "compile", "harness.compile_cache")
    patch_method(Machine, "run", "sim.run", after=count_run)
    patch(gen, "generate_program", "fuzz.generate")
    patch(oracle, "probe_program", "fuzz.probe")
    patch(oracle, "classify_program", "fuzz.classify")
    patch_method(supervisor.Supervisor, "run_cell", "serve.worker",
                 rid=lambda args: args[1].fingerprint)
    patch(protocol, "canonical_json", "serve.encode")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder) -> Dict[str, tuple]:
    """Per-layer metrics of the compile/sim/fuzz layers, as
    ``name -> (value, unit, samples)``."""
    out: Dict[str, tuple] = {}
    for layer in ("minic.lex", "minic.parse", "minic.sema", "ir.irgen"):
        for unit in ("user", "runtime"):
            spans = sum(1 for s in rec.spans
                        if s.name == layer and s.label == unit)
            out[f"{layer}_s.{unit}"] = (rec.seconds(layer, unit), "s", spans)
    for unit in ("user", "runtime"):
        out[f"minic.tokens.{unit}"] = (
            rec.counts.get(f"minic.tokens.{unit}", 0), "count", 1)
    for layer in ("ir.instrument", "ir.verify", "codegen.lower",
                  "fuzz.generate", "fuzz.classify"):
        out[f"{layer}_s"] = (rec.seconds(layer), "s",
                             len(rec.durations_ms(layer)))
    # The linter's own analysis: its span minus its front end (counted
    # under minic.*/ir.irgen .user), keeping the interprocedural pass.
    out["analyze.lint_s"] = (
        rec.seconds("analyze.lint", self_time=True)
        + rec.seconds("analyze.elide", "lint"), "s",
        len(rec.durations_ms("analyze.lint")))
    out["analyze.elide_s"] = (
        rec.seconds("analyze.elide", "compile"), "s",
        sum(1 for s in rec.spans
            if s.name == "analyze.elide" and s.label == "compile"))
    out["codegen.link_s"] = (rec.seconds("codegen.link", self_time=True),
                             "s", len(rec.durations_ms("codegen.link")))
    out["codegen.text_instructions"] = (
        rec.counts.get("codegen.text_instructions", 0), "count", 1)
    out["fuzz.probe.self_s"] = (
        rec.seconds("fuzz.probe", self_time=True), "s",
        len(rec.durations_ms("fuzz.probe")))
    out["harness.compile_cache.self_s"] = (
        rec.seconds("harness.compile_cache", self_time=True), "s",
        len(rec.durations_ms("harness.compile_cache")))
    run_s = rec.seconds("sim.run")
    instret = rec.counts.get("sim.guest_instructions", 0)
    out["sim.run_s"] = (run_s, "s", int(rec.counts.get("sim.runs", 0)))
    out["sim.runs"] = (rec.counts.get("sim.runs", 0), "count", 1)
    out["sim.guest_instructions"] = (instret, "count", 1)
    out["sim.guest_mips"] = (_ratio(instret, run_s) / 1e6, "MIPS", 1)
    out["pipeline.cycles"] = (rec.counts.get("pipeline.cycles", 0),
                              "count", 1)
    dhits = rec.counts.get("pipeline.dcache_hits", 0)
    dmiss = rec.counts.get("pipeline.dcache_misses", 0)
    out["pipeline.dcache_accesses"] = (dhits + dmiss, "count", 1)
    out["pipeline.dcache_miss_ratio"] = (_ratio(dmiss, dhits + dmiss),
                                         "ratio", dhits + dmiss)
    khits = rec.counts.get("sim.kb_hits", 0)
    kmiss = rec.counts.get("sim.kb_misses", 0)
    out["sim.kb_lookups"] = (khits + kmiss, "count", 1)
    out["sim.kb_miss_ratio"] = (_ratio(kmiss, khits + kmiss), "ratio",
                                khits + kmiss)
    return out


def cache_metrics(before: Dict[str, int], after: Dict[str, int]
                  ) -> Dict[str, tuple]:
    """Compile-cache hit ratio over a run (program, unit and disk tiers
    together), with its base: the number of lookups."""
    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    hits = delta("compile.cache.hits") + delta("compile.cache.disk_hits")
    lookups = hits + delta("compile.cache.misses") + \
        delta("compile.cache.unit_misses")
    return {"harness.compile_cache.hit_ratio": (_ratio(hits, lookups),
                                                "ratio", lookups),
            "harness.compile_cache.lookups": (lookups, "count", 1)}


def distribution(values: List[float], unit: str, name: str,
                 quantiles=(50, 90)) -> Dict[str, tuple]:
    out = {}
    for q in quantiles:
        value = percentile(values, q) if values else 0.0
        out[f"{name}.p{q}"] = (value, unit, len(values))
    return out


__all__ = ["Recorder", "Span", "cache_metrics", "distribution", "install",
           "layer_metrics"]
