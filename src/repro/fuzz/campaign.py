"""Fuzz campaign driver: generate → probe → classify → reduce → report.

A campaign runs in *rounds*.  Each round plans ``round_size`` programs,
generates them with the current coverage-derived production weights,
fans the oracle probes across the :class:`~repro.harness.parallel.\
SweepExecutor` worker pool, then folds the observed coverage back into
the weights for the next round.  Coverage is merged in program-index
order at the round barrier, so the generated corpus — and therefore the
whole report — is a pure function of ``(seed, n, round_size)``; the
jobs count only changes wallclock, never a byte of the report.

Divergent programs are shrunk in the parent process with
:func:`repro.fuzz.reduce.reduce_source`; the predicate re-probes the
candidate and accepts it iff it still shows every original divergence
signature.  Reduced repros (plus the original source and a metadata
record) land in ``corpus_dir`` when one is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fuzz.coverage import FuzzCoverage
from repro.fuzz.gen import generate_program, plan_programs
from repro.fuzz.oracle import (
    DEFAULT_SCHEMES, Divergence, classify_program, probe_program,
)
from repro.harness.campaign import Campaign, report_json
from repro.harness.parallel import (
    CellResult, STATUS_HANG, STATUS_WORKER_DIED, SweepExecutor,
)

__all__ = ["FuzzCell", "FuzzReport", "REPORT_SCHEMA", "run_fuzz"]

REPORT_SCHEMA = "repro.fuzz/v1"

#: Programs per generation round (the coverage-feedback barrier).
ROUND_SIZE = 25


@dataclass(frozen=True)
class FuzzCell:
    """One generated program's full oracle probe, as an executor cell."""

    index: int
    name: str
    kind: str                       # "safe" or a planted-bug kind
    expect: str                     # "" | "spatial" | "temporal"
    source: str
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    max_instructions: int = 2_000_000
    wallclock_budget: Optional[float] = 60.0
    engine_lockstep: bool = False
    spec_lockstep: bool = False

    @property
    def tag(self) -> str:
        return f"fuzz/{self.index}"

    @property
    def scheme(self) -> str:
        return "fuzz"

    @property
    def workload(self) -> str:
        return self.name

    @property
    def group_key(self) -> str:
        # Batch neighbouring programs onto one worker for cache locality.
        return f"fuzz.{self.index // 4}"

    def execute(self) -> CellResult:
        probe = probe_program(self.source, self.schemes,
                              max_instructions=self.max_instructions,
                              engine_lockstep=self.engine_lockstep,
                              spec_lockstep=self.spec_lockstep)
        verdicts, divergences = classify_program(
            self.kind, self.expect, probe, self.schemes)
        reference = probe.profiles[self.schemes[-1]]
        return CellResult(
            tag=self.tag, workload=self.name, scheme="fuzz",
            ok=not divergences,
            status="agree" if not divergences else "divergence",
            exit_code=reference.exit_code,
            instret=reference.instret,
            extra={
                "verdicts": verdicts,
                "divergences": [d.to_dict() for d in divergences],
                "functions": list(probe.functions),
                "lint": list(probe.lint_kinds),
                "statuses": {key: profile.status
                             for key, profile in probe.profiles.items()},
            })


def _crash_signature(error: str) -> Tuple[str, str]:
    """Harness-divergence signature for a worker traceback."""
    last = error.strip().splitlines()[-1] if error.strip() else ""
    name = last.split(":", 1)[0].strip()
    name = name.rsplit(".", 1)[-1] or "Exception"
    return ("harness", f"crash.{name}")


def _envelope_divergence(result: CellResult) -> Divergence:
    if result.status == STATUS_HANG:
        return Divergence("harness", "hang", result.detail)
    if result.status == STATUS_WORKER_DIED:
        return Divergence("harness", "worker_died", result.detail)
    oracle, kind = _crash_signature(result.error)
    detail = result.error.strip().splitlines()[-1] if result.error else ""
    return Divergence(oracle, kind, detail)


def _signatures_of(source: str, kind: str, expect: str,
                   schemes: Sequence[str],
                   max_instructions: int,
                   engine_lockstep: bool = False,
                   spec_lockstep: bool = False) -> Set[Tuple[str, str]]:
    """Divergence signatures a candidate source exhibits (for ddmin)."""
    try:
        probe = probe_program(source, schemes,
                              max_instructions=max_instructions,
                              collect_coverage=False,
                              engine_lockstep=engine_lockstep,
                              spec_lockstep=spec_lockstep)
    except Exception as exc:                    # toolchain crash class
        return {("harness", f"crash.{type(exc).__name__}")}
    _, divergences = classify_program(kind, expect, probe, schemes)
    return {d.signature for d in divergences}


class FuzzReport(Campaign):
    """A planned campaign of ``n`` programs from ``seed``; it folds
    into the deterministic ``repro.fuzz/v1`` report.

    Byte-identical for the same ``(seed, n, round_size, schemes)`` at
    any ``jobs``. ``engine_lockstep`` (opt-in) adds the ref-vs-fast
    engine oracle to every probe; ``spec_lockstep`` (opt-in) adds the
    executable golden spec (``repro.spec``) co-simulated against the
    reference engine. Both default off, keeping reports unchanged.
    """

    label = "fuzz"

    def __init__(self, n: int, seed: int,
                 schemes: Sequence[str] = DEFAULT_SCHEMES,
                 round_size: int = ROUND_SIZE,
                 max_instructions: int = 2_000_000,
                 wallclock_budget: Optional[float] = 60.0,
                 engine_lockstep: bool = False,
                 spec_lockstep: bool = False,
                 corpus_dir=None,
                 reduce_divergences: bool = True,
                 reduce_checks: int = 300):
        self.n = self.total = n
        self.seed = seed
        self.schemes = tuple(schemes)
        self.round_size = round_size
        self._cell_options = dict(
            schemes=self.schemes, max_instructions=max_instructions,
            wallclock_budget=wallclock_budget,
            engine_lockstep=engine_lockstep, spec_lockstep=spec_lockstep)
        self.corpus_dir = corpus_dir
        self.reduce_divergences = reduce_divergences
        self.reduce_checks = reduce_checks
        self.programs: List[dict] = []
        self.divergences: List[dict] = []
        self.coverage = FuzzCoverage()
        self._features: Dict[int, list] = {}
        self._divergent: List[Tuple[FuzzCell, List[Divergence]]] = []

    def batches(self):
        """One round per batch, generated with the coverage weights
        folded from every earlier round."""
        weights: Optional[Dict[str, float]] = None
        for start in range(0, self.n, self.round_size):
            cells = []
            for index, kind in plan_programs(
                    self.seed, min(self.round_size, self.n - start),
                    start=start):
                program = generate_program(self.seed, index, kind, weights)
                self._features[index] = program.features
                cells.append(FuzzCell(
                    index=index, name=program.name, kind=program.kind,
                    expect=program.expect, source=program.source,
                    **self._cell_options))
            yield cells
            weights = self.coverage.weights()

    def fold(self, batch, results) -> None:
        # Results arrive in index order — the only order that exists
        # as far as the report is concerned, whatever jobs= was.
        for cell, result in zip(batch, results):
            features = self._features.pop(cell.index)
            if result.measured:
                verdicts = result.extra["verdicts"]
                found = [Divergence(**d)
                         for d in result.extra["divergences"]]
                self.coverage.observe(features, result.extra["functions"])
                status = result.extra["statuses"].get(self.schemes[-1], "")
            else:
                verdicts = {"harness": "divergence"}
                found = [_envelope_divergence(result)]
                status = result.status
            self.programs.append({
                "index": cell.index,
                "name": cell.name,
                "kind": cell.kind,
                "expect": cell.expect,
                "status": status,
                "verdicts": verdicts,
                "findings": len(found),
            })
            if found:
                self._divergent.append((cell, found))

    def finish(self, stopped, tick) -> None:
        """Record every divergence and shrink it with ddmin; a stop
        skips the remaining reductions, never the (cheap) facts."""
        corpus = Path(self.corpus_dir) if self.corpus_dir else None
        if corpus is not None:
            corpus.mkdir(parents=True, exist_ok=True)
        for cell, found in self._divergent:
            tick(phase="reduce", reducing=cell.name)
            record = {
                "index": cell.index,
                "name": cell.name,
                "kind": cell.kind,
                "expect": cell.expect,
                "divergences": [d.to_dict() for d in found],
                "source": cell.source,
            }
            if self.reduce_divergences and not stopped() and not any(
                    d.kind in ("hang", "worker_died") for d in found):
                record.update(self._reduce(cell, found))
            self.divergences.append(record)
            if corpus is not None:
                stem = corpus / cell.name
                stem.with_suffix(".c").write_text(cell.source)
                if "reduced_source" in record:
                    (corpus / f"{cell.name}.min.c").write_text(
                        record["reduced_source"])
                stem.with_suffix(".json").write_text(report_json(record))

    def _reduce(self, cell: FuzzCell, found: List[Divergence]) -> dict:
        from repro.fuzz.reduce import reduce_source

        wanted = frozenset(d.signature for d in found)

        def predicate(candidate: str) -> bool:
            return wanted <= _signatures_of(
                candidate, cell.kind, cell.expect, cell.schemes,
                cell.max_instructions,
                engine_lockstep=cell.engine_lockstep,
                spec_lockstep=cell.spec_lockstep)

        shrunk = reduce_source(cell.source, predicate,
                               max_checks=self.reduce_checks)
        return {"reduced_source": shrunk.source,
                "reduced_statements": shrunk.statements,
                "reduce_checks": shrunk.checks}

    def heartbeat_fields(self) -> dict:
        return {"divergent_programs": len(self._divergent)}

    @property
    def clean(self) -> bool:
        return not self.divergences

    def scoreboard(self) -> dict:
        kinds: Dict[str, int] = {}
        oracle_tallies: Dict[str, Dict[str, int]] = {}
        for record in self.programs:
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
            for oracle, verdict in record["verdicts"].items():
                tally = oracle_tallies.setdefault(oracle, {})
                tally[verdict] = tally.get(verdict, 0) + 1
        return {
            "programs": len(self.programs),
            "safe": kinds.get("safe", 0),
            "planted": {k: kinds[k] for k in sorted(kinds) if k != "safe"},
            "oracles": {k: dict(sorted(v.items()))
                        for k, v in sorted(oracle_tallies.items())},
            "divergent_programs": len(
                {d["index"] for d in self.divergences}),
            "divergences": sum(len(d["divergences"])
                               for d in self.divergences),
        }

    def document(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "n": self.n,
            "schemes": list(self.schemes),
            "round_size": self.round_size,
            "scoreboard": self.scoreboard(),
            "coverage": self.coverage.to_dict(),
            "programs": self.programs,
            "divergences": self.divergences,
        }

    def table(self) -> str:
        board = self.scoreboard()
        lines = [
            f"fuzz campaign: seed={self.seed} n={self.n} "
            f"schemes={'/'.join(self.schemes)}",
            f"  programs: {board['programs']} "
            f"({board['safe']} safe, "
            f"{board['programs'] - board['safe']} planted)",
        ]
        for oracle, tally in board["oracles"].items():
            cells = " ".join(f"{verdict}={count}"
                             for verdict, count in tally.items())
            lines.append(f"  oracle {oracle:<12} {cells}")
        if self.divergences:
            lines.append(f"  DIVERGENT: {board['divergent_programs']} "
                         f"program(s), {board['divergences']} finding(s)")
            for record in self.divergences:
                sigs = ", ".join(sorted(
                    {f"{d['oracle']}/{d['kind']}"
                     for d in record["divergences"]}))
                shrunk = record.get("reduced_statements")
                note = f" -> reduced to {shrunk} stmts" \
                    if shrunk is not None else ""
                lines.append(f"    {record['name']}: {sigs}{note}")
        else:
            lines.append("  no divergences")
        return "\n".join(lines)


def run_fuzz(n: int, seed: int, jobs: int = 1,
             executor: Optional[SweepExecutor] = None,
             heartbeat=None, stop=None, **options) -> FuzzReport:
    """Plan a :class:`FuzzReport` of ``n`` programs from ``seed``
    (``options`` are its planning arguments) and run it; see
    :meth:`repro.harness.campaign.Campaign.run` for ``executor``,
    ``jobs``, ``heartbeat`` and ``stop``."""
    return FuzzReport(n, seed, **options).run(executor, jobs, heartbeat,
                                              stop)
