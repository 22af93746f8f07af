"""Source -> Program compile pipelines, one per protection scheme."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.codegen.link import RuntimeObject, build_program, lower_runtime
from repro.codegen.lower import CodegenOptions
from repro.codegen.runtime import runtime_source
from repro.core.config import HwstConfig
from repro.ir.ir import Module
from repro.ir.irgen import lower_unit
from repro.ir.verify import verify_module
from repro.minic import analyze, tokenize
from repro.minic.parser import Parser
from repro.obs.phases import NULL_PHASES
from repro.sim.memory import DEFAULT_LAYOUT


@dataclass(frozen=True)
class SchemeSpec:
    """How to build a program under one protection scheme."""

    name: str
    runtime: str                       # scheme runtime family
    instrument: Optional[str] = None   # instrumentation pass name
    spill_meta: Optional[str] = None   # codegen metadata-spill flavour
    sbcets_shadow: str = "trie"
    description: str = ""


SCHEMES: Dict[str, SchemeSpec] = {
    "baseline": SchemeSpec(
        "baseline", runtime="baseline",
        description="unprotected build (perf.oh denominator)"),
    "sbcets": SchemeSpec(
        "sbcets", runtime="sbcets", instrument="sbcets",
        description="SoftboundCETS software spatial+temporal safety"),
    "sbcets_lmsm": SchemeSpec(
        "sbcets_lmsm", runtime="sbcets", instrument="sbcets",
        sbcets_shadow="linear",
        description="SBCETS with linear-mapped shadow (ABL-LMSM ablation)"),
    "hwst128": SchemeSpec(
        "hwst128", runtime="hwst", instrument="hwst128",
        spill_meta="hwst",
        description="HWST128 without tchk (software temporal key load)"),
    "hwst128_tchk": SchemeSpec(
        "hwst128_tchk", runtime="hwst", instrument="hwst128_tchk",
        spill_meta="hwst",
        description="full HWST128: tchk + keybuffer"),
    "bogo": SchemeSpec(
        "bogo", runtime="bogo", instrument="bogo", spill_meta="mpx",
        description="BOGO on MPX: spatial + free-time bound nullification"),
    "wdl_narrow": SchemeSpec(
        "wdl_narrow", runtime="wdl", instrument="wdl_narrow",
        description="WatchdogLite, scalar metadata handling"),
    "wdl_wide": SchemeSpec(
        "wdl_wide", runtime="wdl", instrument="wdl_wide", spill_meta="avx",
        description="WatchdogLite, AVX 256-bit metadata handling"),
    "asan": SchemeSpec(
        "asan", runtime="asan", instrument="asan",
        description="AddressSanitizer: redzones + quarantine"),
    "gcc": SchemeSpec(
        "gcc", runtime="gcc", instrument="gcc",
        description="GCC stack-protector canaries"),
}


def scheme_names():
    return list(SCHEMES)


def _string_prefix(source: str, name: str) -> str:
    """String-literal symbol prefix of one unit: a pure function of
    its text and name, so units linked together never collide and a
    unit's symbols do not depend on what the process compiled before."""
    digest = hashlib.sha256(f"{name}\0{source}".encode()).hexdigest()
    return f"__str_{digest[:8]}_"


def _compile_unit(source: str, name: str, phases=NULL_PHASES,
                  unit_cache=None) -> Module:
    """Front end for one translation unit, phase-timed stage by stage.

    ``unit_cache`` (a :class:`repro.harness.compile_cache.CompileCache`)
    memoises the scheme-independent front-end result; a hit returns a
    fresh unpickled ``Module`` that later passes may mutate freely.
    """
    if unit_cache is not None:
        module = unit_cache.load_unit(source, name)
        if module is not None:
            return module
    with phases.phase("lex"):
        tokens = tokenize(source)
    with phases.phase("parse"):
        unit = Parser(tokens).parse_translation_unit()
    with phases.phase("sema"):
        sema = analyze(unit, _string_prefix(source, name))
    with phases.phase("irgen"):
        module = lower_unit(sema, name)
    if unit_cache is not None:
        unit_cache.store_unit(source, name, module)
    return module


_RUNTIME_OBJECTS: Dict[Tuple[str, str, CodegenOptions], RuntimeObject] = {}


def runtime_object(spec: SchemeSpec, options: CodegenOptions,
                   phases=NULL_PHASES) -> RuntimeObject:
    """``spec``'s runtime library, compiled, verified and lowered once.

    Memoised per process by exactly what the output depends on: the
    runtime variant, its SBCETS shadow map and the codegen options.
    The first call per key runs (and records into ``phases``) the
    runtime's front end, verify and lower; later calls are a lookup.
    """
    key = (spec.runtime, spec.sbcets_shadow, options)
    obj = _RUNTIME_OBJECTS.get(key)
    if obj is None:
        module = _compile_unit(
            runtime_source(spec.runtime, spec.sbcets_shadow), "runtime",
            phases)
        verify_module(module)
        obj = _RUNTIME_OBJECTS.setdefault(
            key, lower_runtime(module, options, phases))
    return obj


def _scheme_spec(scheme: str) -> SchemeSpec:
    spec = SCHEMES.get(scheme)
    if spec is None:
        raise ValueError(
            f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
    return spec


def instrumented_unit(source: str, scheme: str, config: HwstConfig,
                      program_name: str = "program", phases=NULL_PHASES,
                      unit_cache=None) -> Module:
    """Front end plus ``scheme``'s instrumentation (and, when
    ``config.elide_checks`` is set, check elision) of the user unit."""
    spec = _scheme_spec(scheme)
    module = _compile_unit(source, program_name, phases, unit_cache)
    if spec.instrument is None:
        return module
    from repro.ir.instrument import PASSES, instrument_module

    elide = config.elide_checks and \
        getattr(PASSES.get(spec.instrument), "elidable", False)
    if elide:
        from repro.analyze.elide import hoist_loop_checks
        from repro.analyze.interproc import analyze_module_interproc

        with phases.phase("analyze"):
            # Interprocedural: call-graph summaries refine call sites,
            # call-site contexts refine callees, and proven
            # loop-invariant temporal checks move to preheaders before
            # instrumentation.
            per_function, istats = analyze_module_interproc(
                module, config, stamp=True)
            istats.checks_hoisted = hoist_loop_checks(
                module, per_function)
    with phases.phase("instrument"):
        instrument_module(module, spec.instrument, config=config)
    if elide:
        from repro.analyze.elide import elide_module

        with phases.phase("analyze"):
            stats = elide_module(module, config)
        istats.cross_call_elided = stats.cross_call_elided
        module.meta["analyze"] = {
            "checks_total": stats.checks_total,
            "checks_proven": stats.checks_proven,
            "checks_elided": stats.checks_elided,
            "spatial_elided": stats.spatial_elided,
            "temporal_elided": stats.temporal_elided,
            "ops_removed": stats.ops_removed,
            **istats.to_meta(),
        }
        scope = phases.metrics
        if scope is not None:
            for key, value in module.meta["analyze"].items():
                scope.counter(f"analyze.{key}").inc(value)
    return module


def compile_source(source: str, scheme: str = "baseline",
                   config: Optional[HwstConfig] = None,
                   program_name: str = "program",
                   phases=None, unit_cache=None):
    """Compile mini-C ``source`` under ``scheme`` into a Program.

    The user unit goes through the front end (memoised by
    ``unit_cache`` when given), the scheme's instrumentation and a
    verify that sees the runtime's signatures; it is then linked beside
    the scheme's :func:`runtime_object`, which each process builds once
    per key. A user unit that redefines a runtime function or global
    raises ``ValueError``; a call of the wrong arity across the two
    raises ``IRError``.

    ``phases`` is an optional :class:`repro.obs.phases.PhaseTimers`;
    when attached, lex/parse/sema/irgen/instrument/lower/link wall
    times accumulate into its ``compile.*`` metrics (the runtime's
    front end and lower only on the compile that builds its object).

    When ``config.elide_checks`` is set and the scheme's pass is
    elidable, the static memory-safety analysis runs before
    instrumentation (stamping per-access facts) and the redundant-check
    eliminator runs after it; elision counts land in
    ``module.meta["analyze"]`` and, with ``phases`` attached, in the
    ``compile.analyze.*`` counters.
    """
    spec = _scheme_spec(scheme)
    config = config or HwstConfig()
    phases = phases if phases is not None else NULL_PHASES

    module = instrumented_unit(source, scheme, config, program_name,
                               phases, unit_cache)
    options = CodegenOptions(spill_meta=spec.spill_meta)
    runtime = runtime_object(spec, options, phases)
    runtime.check_unit(module)
    verify_module(module, externs=runtime.signatures)
    runtime.check_external_calls(module)

    meta: Dict[str, object] = {"scheme": scheme, "name": program_name}
    if "analyze" in module.meta:
        # Keep the elision summary on the Program so cached builds can
        # replay the compile.analyze.* counters without re-analysing.
        meta["analyze"] = dict(module.meta["analyze"])
    return build_program(module, config=config, layout=DEFAULT_LAYOUT,
                         options=options, meta=meta, phases=phases,
                         runtime=runtime)
