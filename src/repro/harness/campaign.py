"""The campaign skeleton: plan → batches → fold → report.

``repro fuzz``, ``repro faultcampaign`` and ``repro conform`` are all
one shape. A :class:`Campaign` subclass plans its work when it is
constructed and supplies:

* ``label`` and ``total`` — its name and planned cell count;
* :meth:`~Campaign.batches` — a generator of cell lists. It is resumed
  only after the previous batch has been folded, so a batch may depend
  on what earlier ones found (fuzz's coverage weights do);
* :meth:`~Campaign.fold` — merge one batch's results, in input order;
* :meth:`~Campaign.document` — the deterministic report document.

:meth:`Campaign.run` is the only code that knows how a campaign runs.
It owns the transient-or-given :class:`SweepExecutor`, the heartbeat's
``total`` and ticks, the one stop-flag poll before each batch, and the
``interrupted``/``completed`` keys, which appear only on a truncated
report so a completed campaign keeps its exact bytes. Single-plan
campaigns yield :func:`chunks` of :data:`STOP_CHUNK` cells; fuzz yields
its generation rounds. :func:`report_json` is the one report writer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence

from repro.harness.parallel import CellResult, SweepExecutor

__all__ = ["Campaign", "STOP_CHUNK", "chunks", "report_json"]

#: Cells per batch of a single-plan campaign: the granularity at which
#: a stop flag can cut it short. A multiple of the fault campaign's
#: target count, keeping its per-target grouping.
STOP_CHUNK = 16


def chunks(cells: Sequence) -> Iterator[Sequence]:
    """``cells`` in :data:`STOP_CHUNK`-sized batches."""
    for start in range(0, len(cells), STOP_CHUNK):
        yield cells[start:start + STOP_CHUNK]


def report_json(document: dict) -> str:
    """The deterministic JSON rendering every campaign report uses."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


class Campaign:
    """Base class of the three bug-finding campaigns; see the module
    docstring for what a subclass supplies."""

    label = "campaign"
    #: Planned cell count (the heartbeat's total).
    total = 0
    #: Set only by :meth:`run`: a stop flag cut the campaign short.
    interrupted = False
    #: Cells folded so far.
    completed = 0

    def batches(self) -> Iterator[Sequence]:
        raise NotImplementedError

    def fold(self, batch: Sequence, results: List[CellResult]) -> None:
        raise NotImplementedError

    def document(self) -> dict:
        raise NotImplementedError

    def finish(self, stopped: Callable[[], bool],
               tick: Callable[..., None]) -> None:
        """Parent-side work after the last batch (fuzz's reductions).
        ``stopped()`` polls the stop flag; ``tick(**fields)`` sends a
        heartbeat."""

    def count(self, registry) -> None:
        """Land the campaign's counters on the executor's registry."""

    def heartbeat_fields(self) -> dict:
        """Extra fields for every heartbeat event."""
        return {}

    @property
    def clean(self) -> bool:
        """No findings: the campaign's own CLI gate."""
        raise NotImplementedError

    def table(self) -> str:
        raise NotImplementedError

    def to_dict(self) -> dict:
        doc = self.document()
        if self.interrupted:
            doc["interrupted"] = True
            doc["completed"] = self.completed
        return doc

    def to_json(self) -> str:
        return report_json(self.to_dict())

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    def run(self, executor: Optional[SweepExecutor] = None,
            jobs: int = 1, heartbeat=None,
            stop: Optional[Callable[[], bool]] = None) -> "Campaign":
        """Run every batch on ``executor`` (or a transient one with
        ``jobs`` workers, closed after); returns ``self``, folded.

        ``heartbeat`` (a :class:`repro.obs.heartbeat.Heartbeat`) gets
        its ``total`` set and a tick after each cell group.
        ``stop`` (a zero-argument flag, e.g. set by a SIGTERM handler)
        is polled before each batch; once True the report covers the
        completed batches and is marked interrupted.
        """
        if executor is None:
            with SweepExecutor(jobs=jobs) as transient:
                return self.run(transient, heartbeat=heartbeat, stop=stop)

        def stopped() -> bool:
            if not self.interrupted and stop is not None and stop():
                self.interrupted = True
            return self.interrupted

        def tick(done: Optional[int] = None, **fields) -> None:
            if heartbeat is not None:
                heartbeat.tick(self.completed if done is None else done,
                               **self.heartbeat_fields(), **fields)

        if heartbeat is not None:
            heartbeat.total = self.total
        batches = self.batches()
        # Poll only while work remains: a stop during the last batch
        # leaves a complete report.
        while self.completed < self.total and not stopped():
            batch = next(batches)
            base = self.completed
            results = executor.run(
                batch, progress=lambda done, _total: tick(base + done))
            self.fold(batch, results)
            self.completed += len(results)
        self.finish(stopped, tick)
        self.count(executor.registry)
        return self
