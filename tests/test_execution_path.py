"""One execution path: every product builds its simulator through
:func:`repro.sim.make_machine`.

Two guards:

* an AST audit — no module under ``src/repro`` except
  ``repro/sim/__init__.py`` calls ``Machine(``, ``FastMachine(`` or
  ``InOrderPipeline(`` directly;
* a default-engine switch — with ``repro.sim.DEFAULT_ENGINE = "fast"``
  the fig4 sweep cell, the fuzz probe, fault goldens and injections,
  serve's ``evaluate`` and ``run_program`` all run on the fast engine
  with observables identical to the reference engine, while the spec
  lockstep stays pinned to the reference engine.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.sim
from repro.faultinject.oracle import profile_run
from repro.sim import FastMachine, Machine

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
FACTORY = SRC_ROOT / "sim" / "__init__.py"
CONSTRUCTORS = {"Machine", "FastMachine", "InOrderPipeline"}


def constructor_calls(source: str):
    """Names in :data:`CONSTRUCTORS` called directly in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name in CONSTRUCTORS:
            hits.append((name, node.lineno))
    return hits


class TestConstructionAudit:
    def test_only_make_machine_constructs_engines(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path == FACTORY:
                continue
            for name, line in constructor_calls(path.read_text()):
                offenders.append(
                    f"{path.relative_to(SRC_ROOT)}:{line}: {name}(")
        assert offenders == []

    def test_the_factory_is_where_construction_lives(self):
        names = {name for name, _ in constructor_calls(FACTORY.read_text())}
        assert names == {"InOrderPipeline"}   # engines via ENGINES[name]

    def test_the_audit_catches_offenders(self):
        planted = (
            "machine = Machine(config=config, timing=None)\n"
            "fast = sim.FastMachine()\n"
            "pipe = timing.InOrderPipeline(metrics=registry)\n"
        )
        assert [name for name, _ in constructor_calls(planted)] == [
            "Machine", "FastMachine", "InOrderPipeline"]
        clean = (
            "machine = make_machine('ref', config=config)\n"
            "class Fast(Machine):\n    pass\n"
            "ok = isinstance(machine, FastMachine)\n"
        )
        assert constructor_calls(clean) == []


# ---------------------------------------------------------------------------
# Default-engine switch
# ---------------------------------------------------------------------------

SOURCE = """
int main(void) {
    long *p = (long *)malloc(64);
    long s = 0;
    int i;
    for (i = 0; i < 8; i++) { p[i] = i * 3; s = s + p[i]; }
    free(p);
    print_int(s);
    return s == 84 ? 0 : 1;
}
"""


@pytest.fixture
def runs(monkeypatch):
    """``runs(engine, product)`` calls ``product()`` with
    ``DEFAULT_ENGINE = engine`` and returns one ``(engine class,
    cycles, RunProfile)`` per ``Machine.run`` (both engines inherit it)."""
    inner = Machine.run

    def observe(engine, product):
        log = []

        def spy(self, *args, **kwargs):
            result = inner(self, *args, **kwargs)
            log.append((type(self), result.cycles,
                        profile_run(self, result)))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(repro.sim, "DEFAULT_ENGINE", engine)
            patch.setattr(Machine, "run", spy)
            product()
        return log

    return observe


def assert_switches(runs, product, expected_runs):
    ref = runs("ref", product)
    fast = runs("fast", product)
    assert len(ref) == len(fast) == expected_runs
    assert {cls for cls, _, _ in ref} == {Machine}
    assert {cls for cls, _, _ in fast} == {FastMachine}
    for (_, ref_cycles, ref_profile), (_, fast_cycles, fast_profile) \
            in zip(ref, fast):
        assert fast_cycles == ref_cycles
        assert fast_profile.identical(ref_profile)
        assert fast_profile.heap_digest == ref_profile.heap_digest


class TestDefaultEngine:
    def test_fig4_cell(self, runs):
        from repro.harness.parallel import CellSpec, run_cells

        cell = CellSpec(workload="bitcounts", scheme="hwst128_tchk",
                        scale="small", tag="bitcounts/hwst128_tchk")
        assert_switches(runs, lambda: run_cells([cell]), 1)

    def test_fuzz_probe(self, runs):
        from repro.fuzz.oracle import probe_program

        # gcc, sbcets, hwst128, hwst128@alt, hwst128@timed
        assert_switches(runs, lambda: probe_program(SOURCE), 5)

    def test_fault_golden_and_injection(self, runs):
        from repro.faultinject.campaign import (
            InjectionCell, plan_campaign,
        )
        from repro.faultinject.faults import kinds_for
        from repro.faultinject.oracle import golden_run
        from repro.faultinject.targets import DEFAULT_TARGETS, TARGETS

        target = DEFAULT_TARGETS[0]

        def product():
            golden = golden_run(TARGETS[target], "hwst128")
            [(_, fault)] = plan_campaign(
                1, 3, kinds_for(("metadata",)), [target],
                {target: golden})
            InjectionCell(index=0, target=target, source=TARGETS[target],
                          scheme="hwst128", fault=fault, golden=golden,
                          max_instructions=golden.instret * 4 + 50_000
                          ).execute()

        assert_switches(runs, product, 2)

    def test_serve_evaluate(self, runs):
        from repro.serve.protocol import DEFAULT_SCHEMES, evaluate

        assert_switches(runs, lambda: evaluate(SOURCE),
                        1 + len(set(DEFAULT_SCHEMES) - {"baseline"}))

    def test_run_program(self, runs):
        from repro.harness.runner import run_program

        assert_switches(runs, lambda: run_program(SOURCE, "hwst128_tchk"),
                        1)

    def test_spec_lockstep_stays_on_the_reference_engine(self, monkeypatch):
        import repro.harness.conform as conform
        from repro.fuzz.oracle import probe_program

        engines = []
        inner = conform.run_lockstep

        def spy(machine, *args, **kwargs):
            engines.append(type(machine))
            return inner(machine, *args, **kwargs)

        monkeypatch.setattr(repro.sim, "DEFAULT_ENGINE", "fast")
        monkeypatch.setattr(conform, "run_lockstep", spy)
        probe = probe_program(SOURCE, spec_lockstep=True)
        assert probe.spec["divergence"] is None
        assert engines == [Machine]
