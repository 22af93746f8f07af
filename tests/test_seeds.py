"""Seed-plumbing audit: nothing consumes unseeded global random state.

Two layers of defence:

* behavioural — exercising the randomised subsystems (fault-injection
  planning/campaigns, Juliet corpus generation, workload rendering)
  must leave ``random.getstate()`` untouched, because they all draw
  from private ``random.Random(seed)`` instances;
* static — the sources of ``workloads/`` and ``faultinject/`` must not
  call module-level ``random.<fn>()`` at all (``random.Random(...)``
  construction is the only permitted use).
"""

import random
import re
from pathlib import Path

import repro
from repro.faultinject import plan_campaign, kinds_for, run_campaign
from repro.faultinject.oracle import RunProfile

SRC_ROOT = Path(repro.__file__).resolve().parent

#: module-level ``random.<something>`` that is not ``random.Random(``.
#: ``(?<![\w.])`` keeps ``self.rng.random()`` and ``numpy.random`` out.
_GLOBAL_RANDOM_USE = re.compile(r"(?<![\w.])random\.(?!Random\b)\w+\s*\(")


def _profile() -> RunProfile:
    return RunProfile(status="exit", exit_code=0, output=b"",
                      heap_digest="0" * 64, trap_class="",
                      trap_pc=None, instret=500)


class TestGlobalStateUntouched:
    def _snapshot(self):
        random.seed(0xC0FFEE)
        return random.getstate()

    def test_campaign_plan(self):
        state = self._snapshot()
        plan_campaign(64, 3, kinds_for(["metadata", "checks"]),
                      ["vecsum"], {"vecsum": _profile()})
        assert random.getstate() == state

    def test_full_campaign(self):
        state = self._snapshot()
        run_campaign(n=6, seed=1, jobs=1, wallclock_budget=None)
        assert random.getstate() == state

    def test_juliet_corpus(self):
        from repro.workloads.juliet import generate_corpus

        state = self._snapshot()
        generate_corpus(fraction=1.0, cwes=[416], max_per_subtype=2)
        assert random.getstate() == state

    def test_workload_rendering(self):
        from repro.workloads import WORKLOADS

        state = self._snapshot()
        for workload in WORKLOADS.values():
            workload.source("small")
        assert random.getstate() == state

    def test_fuzz_generation(self):
        from repro.fuzz import generate_program, plan_programs

        state = self._snapshot()
        for index, kind in plan_programs(5, 6):
            generate_program(5, index, kind)
        assert random.getstate() == state

    def test_fuzz_campaign(self):
        from repro.fuzz import run_fuzz

        state = self._snapshot()
        run_fuzz(4, seed=2, jobs=1)
        assert random.getstate() == state

    def test_spec_equiv_generation(self):
        from repro.spec.equiv import all_mnemonics, cases_for

        state = self._snapshot()
        for mnemonic in all_mnemonics():
            cases_for(mnemonic, 99)
        assert random.getstate() == state

    def test_conform_campaign(self):
        from repro.harness.conform import run_conform

        state = self._snapshot()
        run_conform(workloads=["treeadd"], schemes=["hwst128_tchk"],
                    fuzz_count=2, equiv=False, jobs=1)
        assert random.getstate() == state


class TestNoGlobalRandomInSources:
    @staticmethod
    def _violations(package: str):
        hits = []
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            for number, line in enumerate(
                    path.read_text().splitlines(), start=1):
                code = line.split("#", 1)[0]
                if _GLOBAL_RANDOM_USE.search(code):
                    hits.append(f"{path.name}:{number}: {line.strip()}")
        return hits

    def test_workloads_use_private_rngs_only(self):
        assert self._violations("workloads") == []

    def test_faultinject_uses_private_rngs_only(self):
        assert self._violations("faultinject") == []

    def test_fuzz_uses_private_rngs_only(self):
        assert self._violations("fuzz") == []

    def test_spec_uses_private_rngs_only(self):
        assert self._violations("spec") == []

    def test_the_audit_regex_catches_offenders(self):
        assert _GLOBAL_RANDOM_USE.search("x = random.randrange(4)")
        assert _GLOBAL_RANDOM_USE.search("random.seed(1)")
        assert not _GLOBAL_RANDOM_USE.search("rng = random.Random(7)")
        assert not _GLOBAL_RANDOM_USE.search("value = self.random.pick()")
        assert not _GLOBAL_RANDOM_USE.search("rng.random()")
