"""Conformance campaign: the executable spec against the ISS engines.

This is the harness side of ``repro.spec`` — the only layer that knows
both worlds. It builds picklable cells for the sweep executor:

* :class:`ConformEquivCell` — one mnemonic's per-instruction
  equivalence battery (``repro.spec.equiv``) against a real machine,
  across all four compression geometries;
* :class:`ConformLockstepCell` — one program (workload kernel or fuzz
  program) co-simulated instruction-by-instruction against the
  reference engine, then replayed end-to-end on the fast engine with
  the run-level observables (status / exit code / instret / output /
  trap class / trap pc) compared against the agreed outcome.

:class:`ConformReport` is the campaign: it runs the cells on the
:mod:`repro.harness.campaign` skeleton (the same executor, heartbeat
and interruption discipline as the fuzz and fault-injection campaigns)
and folds the envelopes into a deterministic ``repro.spec/v1`` report:
results appear in cell input order, no timestamps or host state, so
same-seed runs are byte-identical at any ``--jobs``.

Divergence is *data* here (campaigns complete and report), and becomes
an exit code only at the CLI (``repro conform`` exits
``EXIT_SPEC_DIVERGENCE``). A ``stop`` flag yields a valid truncated
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FieldWidths, HwstConfig
from repro.harness.compile_cache import process_cache
from repro.harness.campaign import Campaign, chunks
from repro.harness.parallel import CellResult, SweepExecutor
from repro.harness.runner import WORKLOADS
from repro.isa.instructions import SPEC_TABLE
from repro.sim import make_machine
from repro.spec import geometry
from repro.spec.equiv import all_mnemonics, run_mnemonic
from repro.spec.lockstep import classify_trap, run_lockstep
from repro.spec.state import STATUS_BY_KIND

REPORT_SCHEMA = "repro.spec/v1"
DEFAULT_SEED = 20260807
DEFAULT_FUZZ_COUNT = 200
DEFAULT_MAX_INSTRUCTIONS = 2_000_000

#: Scheme selection for lockstep: the full HWST128 pipeline with
#: temporal checks, plus the MPX- and AVX-comparator extensions, so
#: every custom instruction class appears in real instruction streams.
CONFORM_SCHEMES: Tuple[str, ...] = ("hwst128_tchk", "bogo", "wdl_wide")
FUZZ_SCHEME = "hwst128"

__all__ = [
    "REPORT_SCHEMA", "DEFAULT_SEED", "CONFORM_SCHEMES", "EquivBench",
    "ConformEquivCell", "ConformLockstepCell", "ConformReport",
    "build_cells", "run_conform", "run_spec_lockstep",
]


def run_spec_lockstep(program, config: HwstConfig,
                      max_instructions: int):
    """Co-simulate ``program`` against the executable spec on the
    reference engine (by name, never the default engine)."""
    w = config.widths
    return run_lockstep(
        make_machine("ref", config=config), program,
        widths=(w.base, w.range, w.lock, w.key),
        lock_base=config.lock_base, shadow_budget=config.shadow_budget,
        max_instructions=max_instructions)


# ---------------------------------------------------------------------------
# Equivalence bench (the machine factory injected into repro.spec.equiv)
# ---------------------------------------------------------------------------

class EquivBench:
    """Per-geometry machines for single-instruction cases.

    One machine per compression geometry, reused across cases —
    ``machine.load`` fully resets architectural state, so each case
    starts from reset with exactly one instruction at ``text_base``.
    """

    def __init__(self):
        self._machines: Dict[int, object] = {}

    def machine_for(self, geom: int, ins):
        from repro.sim.memory import DEFAULT_LAYOUT
        from repro.sim.program import Program

        machine = self._machines.get(geom)
        if machine is None:
            widths = geometry.GEOMETRIES[geom]
            config = HwstConfig(
                widths=FieldWidths(*widths),
                lock_entries=min(1 << widths[2], 1 << 20))
            machine = make_machine("ref", config=config)
            self._machines[geom] = machine
        program = Program(instrs=[ins], entry=DEFAULT_LAYOUT.text_base)
        machine.load(program)
        return machine


@dataclass(frozen=True)
class ConformEquivCell:
    """Sweep cell: one mnemonic's full equivalence battery."""

    mnemonic: str
    seed: int

    @property
    def tag(self) -> str:
        return f"equiv/{self.mnemonic}"

    @property
    def workload(self) -> Optional[str]:
        return None

    @property
    def scheme(self) -> str:
        return "equiv"

    @property
    def group_key(self) -> str:
        return self.tag

    def execute(self) -> CellResult:
        bench = EquivBench()
        result = run_mnemonic(self.mnemonic, self.seed, bench)
        divergences = result["divergences"]
        return CellResult(
            tag=self.tag, workload=None, scheme="equiv",
            ok=not divergences,
            status="ok" if not divergences else "divergence",
            stats={"cases": result["cases"],
                   "divergences": len(divergences)},
            extra={"mnemonic": self.mnemonic,
                   "cases": result["cases"],
                   "divergences": divergences})


# ---------------------------------------------------------------------------
# Lockstep cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformLockstepCell:
    """Sweep cell: one program in lockstep against the reference
    engine, then the fast engine compared at run level."""

    tag: str
    source: str
    scheme: str
    workload: Optional[str] = None
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS

    @property
    def group_key(self) -> str:
        return self.workload or self.tag

    def execute(self) -> CellResult:
        config = HwstConfig()
        program = process_cache().compile(self.source, self.scheme, config)
        result = run_spec_lockstep(program, config, self.max_instructions)
        divergence = result.divergence
        outcome = result.outcome
        if divergence is None:
            fast_deltas = self._compare_fast(config, program, outcome)
            if fast_deltas:
                divergence = {"reason": "fast-engine mismatch",
                              "retire": result.retires,
                              "pc": hex(outcome.trap_pc or 0),
                              "mnemonic": "<run>",
                              "deltas": fast_deltas}
        return CellResult(
            tag=self.tag, workload=self.workload, scheme=self.scheme,
            ok=divergence is None,
            status="divergence" if divergence else outcome.status,
            exit_code=outcome.exit_code,
            detail=outcome.detail,
            instret=result.retires,
            stats={"retires": result.retires,
                   "mnemonics": len(result.mnemonics)},
            trap_class=outcome.trap_class,
            trap_pc=outcome.trap_pc,
            extra={"divergence": divergence,
                   "mnemonics": list(result.mnemonics)})

    def _compare_fast(self, config, program, outcome) -> List[dict]:
        """Run the fast engine end-to-end and diff the run-level
        observables against the spec/reference agreed outcome."""
        fast = make_machine("fast", config=config)
        try:
            rr = fast.run(program, max_instructions=self.max_instructions)
        except Exception as exc:  # noqa: BLE001 — classified below
            kind = classify_trap(exc)
            if kind is None:
                raise
            status = STATUS_BY_KIND[kind]
            if status != outcome.status:
                return [{"field": "fast.status", "spec": outcome.status,
                         "iss": status}]
            return []
        deltas: List[dict] = []
        pairs = (
            ("status", outcome.status, rr.status),
            ("exit_code", outcome.exit_code, rr.exit_code),
            ("instret", outcome.instret, rr.instret),
            ("output", outcome.output, rr.output),
            ("trap_class", outcome.trap_class, rr.trap_class),
            ("trap_pc", outcome.trap_pc, rr.trap_pc),
        )
        for name, spec_value, fast_value in pairs:
            if spec_value != fast_value:
                deltas.append({"field": f"fast.{name}",
                               "spec": repr(spec_value),
                               "iss": repr(fast_value)})
        return deltas


# ---------------------------------------------------------------------------
# Corpus assembly and campaign
# ---------------------------------------------------------------------------

def build_cells(workloads: Optional[Sequence[str]] = None,
                schemes: Sequence[str] = CONFORM_SCHEMES,
                scale: str = "small",
                fuzz_count: int = DEFAULT_FUZZ_COUNT,
                seed: int = DEFAULT_SEED,
                equiv: bool = True,
                lockstep: bool = True,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                ) -> List[object]:
    """The campaign's cell list, in deterministic report order:
    equivalence batteries first, then workload lockstep, then the
    fuzz-program lockstep corpus."""
    cells: List[object] = []
    if equiv:
        cells.extend(ConformEquivCell(mnemonic=m, seed=seed)
                     for m in all_mnemonics())
    if lockstep:
        names = sorted(workloads) if workloads else sorted(WORKLOADS)
        for scheme in schemes:
            for name in names:
                cells.append(ConformLockstepCell(
                    tag=f"lockstep/{scheme}/{name}",
                    source=WORKLOADS[name].source(scale),
                    scheme=scheme, workload=name,
                    max_instructions=max_instructions))
        if fuzz_count:
            from repro.fuzz.gen import generate_program, plan_programs
            for index, kind in plan_programs(seed, fuzz_count):
                generated = generate_program(seed, index, kind)
                cells.append(ConformLockstepCell(
                    tag=f"lockstep/fuzz/{generated.name}",
                    source=generated.source, scheme=FUZZ_SCHEME,
                    max_instructions=max_instructions))
    return cells


class ConformReport(Campaign):
    """A planned conformance campaign (see :func:`build_cells`); it
    folds into the ``repro.spec/v1`` report: results in cell input
    order, no timestamps or host state, so same-seed runs are
    byte-identical at any ``--jobs``."""

    label = "conform"

    def __init__(self, workloads: Optional[Sequence[str]] = None,
                 schemes: Sequence[str] = CONFORM_SCHEMES,
                 scale: str = "small",
                 fuzz_count: int = DEFAULT_FUZZ_COUNT,
                 seed: int = DEFAULT_SEED,
                 equiv: bool = True,
                 lockstep: bool = True,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS):
        self.cells = build_cells(
            workloads=workloads, schemes=schemes, scale=scale,
            fuzz_count=fuzz_count, seed=seed, equiv=equiv,
            lockstep=lockstep, max_instructions=max_instructions)
        self.total = len(self.cells)
        self.seed = seed
        self.lockstep = lockstep
        self.corpus = {
            "schemes": list(schemes) if lockstep else [],
            "scale": scale,
            "workloads": (sorted(workloads) if workloads
                          else sorted(WORKLOADS)) if lockstep else [],
            "fuzz_count": fuzz_count if lockstep else 0,
            "fuzz_scheme": FUZZ_SCHEME,
            "equiv_mnemonics": len(all_mnemonics()) if equiv else 0,
            "max_instructions": max_instructions,
        }
        self.equiv: Dict[str, dict] = {}
        self.rows: List[dict] = []
        self.exercised: set = set()
        self.totals = {"cells": 0, "equiv_cases": 0, "retires": 0,
                       "divergences": 0, "mnemonics_covered": 0}

    def batches(self):
        return chunks(self.cells)

    def fold(self, batch, results) -> None:
        totals = self.totals
        for cell, result in zip(batch, results):
            if isinstance(cell, ConformEquivCell):
                divergences = result.extra.get("divergences", [])
                if not result.measured:
                    divergences = [{"case": cell.mnemonic,
                                    "deltas": [{"field": "cell.status",
                                                "spec": "ok",
                                                "iss": result.status}],
                                    "error": result.error}]
                cases = result.extra.get("cases", 0)
                self.equiv[cell.mnemonic] = {
                    "cases": cases, "divergences": divergences}
                totals["equiv_cases"] += cases
                totals["divergences"] += len(divergences)
            else:
                divergence = result.extra.get("divergence")
                if not result.measured:
                    divergence = {"reason": result.status,
                                  "error": result.error}
                self.rows.append({
                    "tag": result.tag,
                    "scheme": result.scheme,
                    "status": result.status,
                    "exit_code": result.exit_code,
                    "retires": result.instret,
                    "trap_class": result.trap_class,
                    "trap_pc": result.trap_pc,
                    "divergence": divergence,
                })
                self.exercised.update(result.extra.get("mnemonics", ()))
                totals["retires"] += result.instret
                if divergence is not None:
                    totals["divergences"] += 1
        totals["cells"] = len(self.rows) + len(self.equiv)
        totals["mnemonics_covered"] = len(self.exercised)

    def count(self, registry) -> None:
        scope = registry.scope("spec")
        scope.counter("retires").inc(self.totals["retires"])
        scope.counter("divergences").inc(self.totals["divergences"])
        scope.gauge("mnemonics_covered").set(
            self.totals["mnemonics_covered"])

    @property
    def never_exercised(self) -> List[str]:
        return sorted(set(SPEC_TABLE) - self.exercised)

    @property
    def clean(self) -> bool:
        return not self.totals["divergences"]

    def document(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "corpus": self.corpus,
            "equiv": self.equiv,
            "lockstep": self.rows,
            "coverage": {
                "exercised": sorted(self.exercised),
                "never_exercised": self.never_exercised,
            },
            "totals": dict(self.totals),
        }

    def table(self) -> str:
        totals = self.totals
        lines = [f"conform: {totals['cells']} cells, "
                 f"{totals['equiv_cases']} equivalence cases, "
                 f"{totals['retires']} lockstep retires, "
                 f"{totals['mnemonics_covered']} mnemonics covered, "
                 f"{totals['divergences']} divergences"]
        never = self.never_exercised
        if never and self.lockstep:
            lines.append(f"never exercised by the lockstep corpus "
                         f"({len(never)}): " + " ".join(never))
        return "\n".join(lines)


def run_conform(executor: Optional[SweepExecutor] = None, jobs: int = 1,
                heartbeat=None, stop=None, **options) -> dict:
    """Plan a :class:`ConformReport` (``options`` are its planning
    arguments), run it and return the ``repro.spec/v1`` report;
    divergence is data here, the CLI turns it into an exit code. See
    :meth:`repro.harness.campaign.Campaign.run` for ``executor``,
    ``jobs``, ``heartbeat`` and ``stop``."""
    return ConformReport(**options).run(executor, jobs, heartbeat,
                                        stop).to_dict()
