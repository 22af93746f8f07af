"""Lockstep and engine tests for the fast superblock interpreter.

The fast engine's whole contract is *observational equivalence*: every
architecturally visible outcome — status, exit code, stdout, instret,
cycles, trap class and pc, the sim/pipeline counter census — must be
byte-identical to the reference interpreter's. These tests enforce the
contract over real workloads, fuzz-generated programs (including
planted bugs, which exercise every trap path), and hand-built
instruction sequences that hit the translation cache's edge cases:
stores into text, branches into the middle of a cached block,
superblock extension across ``jal``, traps inside a fused
``tchk``+checked-access pair, and CSR reads of the live instret.

The nightly CI job runs the same fuzz-lockstep loop at 200 programs
via ``REPRO_LOCKSTEP_FUZZ_N``; the tier-1 default keeps it small.
"""

import os

import pytest

from repro.core.config import HwstConfig
from repro.harness.runner import run_program
from repro.isa import csr as csrdef
from repro.isa.instructions import Instr, li_sequence
from repro.schemes import compile_source
from repro.sim import ENGINES, FastMachine, make_machine
from repro.sim.machine import (
    Machine, STATUS_EXIT, STATUS_FAULT, STATUS_LIMIT, STATUS_SPATIAL,
    STATUS_TEMPORAL,
)
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program
from repro.workloads import WORKLOADS

TEXT = DEFAULT_LAYOUT.text_base
#: First byte of the unmapped gap between heap and stack.
UNMAPPED = DEFAULT_LAYOUT.heap_top + 0x1000

#: RunResult fields that must match between engines, bit for bit.
OBSERVABLES = ("status", "exit_code", "detail", "instret", "cycles",
               "output", "trap_class", "trap_pc")


def make_program(instrs, segments=None):
    return Program(instrs=list(instrs), entry=TEXT,
                   segments=segments or [])


def exit_seq():
    return [Instr("addi", rd=17, rs1=0, imm=93), Instr("ecall")]


def assert_results_equal(ref, fast, context=""):
    for key in OBSERVABLES:
        assert getattr(ref, key) == getattr(fast, key), (
            f"{context}: {key} diverged: "
            f"ref={getattr(ref, key)!r} fast={getattr(fast, key)!r}")
    ref_stats = dict(ref.stats or {})
    fast_stats = dict(fast.stats or {})
    # The fast engine adds its own sim.fast.* gauges; everything the
    # reference engine reports must match exactly.
    diffs = {key: (ref_stats[key], fast_stats.get(key))
             for key in ref_stats if fast_stats.get(key) != ref_stats[key]}
    assert not diffs, f"{context}: counter census diverged: {diffs}"


def run_both(instrs, **kwargs):
    """Run an instruction sequence on both engines; return machines
    and results after asserting observational equivalence."""
    ref = Machine(**kwargs)
    fast = FastMachine(**kwargs)
    a = ref.run(make_program(instrs))
    b = fast.run(make_program(instrs))
    assert_results_equal(a, b)
    assert ref.regs == fast.regs
    return ref, fast, a, b


class TestEngineRegistry:
    def test_registry_contents(self):
        assert ENGINES["ref"] is Machine
        assert ENGINES["fast"] is FastMachine

    def test_make_machine(self):
        assert type(make_machine("ref")) is Machine
        assert type(make_machine("fast")) is FastMachine

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_machine("qemu")

    def test_fast_is_drop_in(self):
        # Same constructor surface: FastMachine must accept everything
        # Machine does (make_machine forwards kwargs blindly).
        machine = make_machine("fast", config=HwstConfig(), timing=None)
        assert isinstance(machine, Machine)


class TestWorkloadLockstep:
    """Ref-vs-fast over real workload kernels, timed and untimed."""

    @pytest.mark.parametrize("workload", ("sha", "treeadd", "dijkstra"))
    @pytest.mark.parametrize("scheme", ("baseline", "hwst128_tchk"))
    @pytest.mark.parametrize("timed", (False, True),
                             ids=("untimed", "timed"))
    def test_lockstep(self, workload, scheme, timed):
        source = WORKLOADS[workload].source("small")
        ref = run_program(source, scheme, timing=timed, engine="ref")
        fast = run_program(source, scheme, timing=timed, engine="fast")
        assert ref.status == STATUS_EXIT and ref.exit_code == 0
        assert_results_equal(ref, fast, f"{workload}/{scheme}")


class TestFuzzLockstep:
    """Ref-vs-fast over generated programs, planted bugs included.

    Planted programs end in spatial/temporal traps, so this sweep
    exercises the fast engine's trap-boundary instret accounting on
    every violation class the generator can plant. CI runs the same
    loop at 200 programs (REPRO_LOCKSTEP_FUZZ_N=200).
    """

    N = int(os.environ.get("REPRO_LOCKSTEP_FUZZ_N", "20"))

    def test_lockstep_over_generated_corpus(self):
        from repro.fuzz.gen import generate_program, plan_programs
        from repro.harness.compile_cache import CompileCache

        cache = CompileCache()
        divergences = []
        trapping = 0
        for index, kind in plan_programs(seed=29, count=self.N):
            program = generate_program(29, index, kind)
            for scheme in ("hwst128", "sbcets"):
                ref = run_program(program.source, scheme, timing=False,
                                  engine="ref", cache=cache,
                                  max_instructions=2_000_000)
                fast = run_program(program.source, scheme, timing=False,
                                   engine="fast", cache=cache,
                                   max_instructions=2_000_000)
                if ref.status in (STATUS_SPATIAL, STATUS_TEMPORAL):
                    trapping += 1
                for key in OBSERVABLES:
                    if getattr(ref, key) != getattr(fast, key):
                        divergences.append(
                            (program.name, scheme, key,
                             getattr(ref, key), getattr(fast, key)))
        assert not divergences, f"engine lockstep broke: {divergences}"
        assert trapping > 0, (
            "corpus never trapped — the sweep is not exercising "
            "trap-boundary accounting; regenerate with planted bugs")


class TestSelfModifyingStore:
    def test_store_into_text_invalidates_overlapping_block(self):
        # The executing block stores over its own entry instruction:
        # the translation cache must drop it (QEMU-style tb_invalidate)
        # even though this run's closures keep executing.
        seq = li_sequence(5, TEXT)
        seq.append(Instr("sd", rs1=5, rs2=0, imm=0))
        seq += exit_seq()
        ref, fast, a, b = run_both(seq)
        stats = fast.fast_stats()
        assert stats["invalidated_blocks"] == 1
        assert stats["blocks"] == 0          # the only block was dropped
        assert a.status == STATUS_EXIT

    def test_store_outside_text_invalidates_nothing(self):
        heap = DEFAULT_LAYOUT.heap_base
        seq = li_sequence(5, heap)
        seq.append(Instr("sd", rs1=5, rs2=0, imm=0))
        seq += exit_seq()
        _, fast, _, _ = run_both(seq)
        assert fast.fast_stats()["invalidated_blocks"] == 0

    def test_invalidated_block_retranslates_on_reentry(self):
        # A two-iteration loop whose body stores into its own text:
        # iteration 2 must re-enter through a fresh translation.
        patch = li_sequence(5, TEXT)
        head = (len(patch) + 1) * 4          # loop head offset
        body = [
            Instr("addi", rd=5, rs1=5, imm=head),  # x5 = &loop head
            Instr("sd", rs1=5, rs2=0, imm=0),      # clobber own text
            Instr("addi", rd=6, rs1=6, imm=1),
            Instr("addi", rd=7, rs1=0, imm=2),
            Instr("blt", rs1=6, rs2=7, imm=-12),   # back to the sd
        ]
        seq = patch + body + exit_seq()
        _, fast, _, _ = run_both(seq)
        stats = fast.fast_stats()
        assert stats["invalidated_blocks"] >= 2
        assert stats["translations"] >= 2


class TestSuperblockBoundaries:
    def test_branch_into_block_middle(self):
        # The backward branch lands in the *middle* of the entry block:
        # the cache is keyed by entry pc, so a second block must be
        # translated at the branch target and both must retire the
        # same architectural state as the reference loop.
        mid = TEXT + 8                        # the addi x5 += 1
        seq = [
            Instr("addi", rd=6, rs1=0, imm=3),            # counter
            Instr("addi", rd=5, rs1=0, imm=0),
            Instr("addi", rd=5, rs1=5, imm=1),            # mid: x5 += 1
            Instr("addi", rd=6, rs1=6, imm=-1),
            Instr("bne", rs1=6, rs2=0, imm=mid - (TEXT + 16)),
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 3
        assert fast.fast_stats()["translations"] >= 2

    def test_superblock_extends_across_jal(self):
        # jal over a gap: the trace continues at the target, so the
        # whole program is ONE block even though it is discontiguous.
        seq = [
            Instr("addi", rd=5, rs1=0, imm=7),
            Instr("jal", rd=0, imm=12),               # skip 2 instrs
            Instr("addi", rd=5, rs1=0, imm=0),        # dead
            Instr("addi", rd=5, rs1=0, imm=0),        # dead
            Instr("addi", rd=5, rs1=5, imm=1),        # jal target
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 8
        stats = fast.fast_stats()
        assert stats["translations"] == 1
        # Dead instructions are never decoded into the superblock.
        assert stats["translated_instrs"] == 5

    def test_block_cache_reused_across_iterations(self):
        seq = [
            Instr("addi", rd=6, rs1=0, imm=50),
            Instr("addi", rd=5, rs1=0, imm=0),
            Instr("addi", rd=5, rs1=5, imm=2),
            Instr("addi", rd=6, rs1=6, imm=-1),
            Instr("bne", rs1=6, rs2=0, imm=-8),
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 100
        stats = fast.fast_stats()
        # 50 iterations, but each distinct entry pc translates once.
        assert stats["block_runs"] > stats["translations"]


class TestTrapAccounting:
    """Satellite: instret/cycle audit at trap boundaries."""

    def test_instret_pinned_on_trapping_program(self):
        # The trapping instruction itself is NOT retired: instret is
        # pinned to exactly the count of completed instructions, and
        # the trap pc to the faulting load.
        setup = li_sequence(5, UNMAPPED)
        setup.append(Instr("addi", rd=6, rs1=0, imm=1))
        seq = setup + [Instr("ld", rd=7, rs1=5, imm=0)]
        pinned = len(setup)
        trap_pc = TEXT + 4 * len(setup)
        for engine in ("ref", "fast"):
            machine = make_machine(engine)
            result = machine.run(make_program(seq + exit_seq()))
            assert result.status == STATUS_FAULT, engine
            assert result.instret == pinned, engine
            assert result.trap_pc == trap_pc, engine

    def test_instret_pinned_mid_block(self):
        # Same, but the trap fires deep inside one straight-line block
        # (the bulk instret add must be unwound to the trap position).
        seq = li_sequence(5, UNMAPPED)
        seq += [Instr("addi", rd=6, rs1=0, imm=i) for i in range(10)]
        pinned = len(seq)
        seq += [Instr("ld", rd=7, rs1=5, imm=0)] + exit_seq()
        _, _, a, b = run_both(seq)
        assert a.status == STATUS_FAULT
        assert a.instret == pinned
        assert b.instret == pinned

    @pytest.mark.parametrize("source,status", (
        ("""
         int main(void) {
             long *p = (long*)malloc(8);
             free(p);
             return (int)(p[0] & 0);
         }
         """, STATUS_TEMPORAL),
        ("""
         int main(void) {
             long *p = (long*)malloc(8);
             long v = p[20];
             free(p);
             return (int)(v & 0);
         }
         """, STATUS_SPATIAL),
    ), ids=("temporal", "spatial"))
    def test_trap_inside_fused_pair(self, source, status):
        # hwst128_tchk emits tchk immediately before every checked
        # access, which the translator fuses into one closure. A UAF
        # traps in the first half (tchk), an OOB in the second (the
        # checked access) — both must report the reference instret.
        config = HwstConfig()
        program = compile_source(source, "hwst128_tchk", config)
        results = {}
        for engine in ("ref", "fast"):
            machine = make_machine(engine, config=HwstConfig())
            results[engine] = machine.run(program)
            if engine == "fast":
                assert machine.fast_stats()["fused_pairs"] > 0
        assert results["ref"].status == status
        assert_results_equal(results["ref"], results["fast"], status)

    def test_csr_instret_read_is_exact(self):
        # A csrrs of instret in the middle of hot code must observe
        # the exact architectural count despite the fast engine's
        # bulk per-block crediting.
        seq = [
            Instr("addi", rd=6, rs1=0, imm=1),
            Instr("addi", rd=6, rs1=6, imm=1),
            Instr("csrrs", rd=5, rs1=0, imm=csrdef.INSTRET),
            Instr("addi", rd=6, rs1=6, imm=1),
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 2
        assert fast.regs[5] == 2

    def test_limit_trap_matches(self):
        # Budget exhaustion mid-loop: the fast engine's budget tail
        # runs on the reference loop and must report the same limit.
        seq = [
            Instr("addi", rd=5, rs1=5, imm=1),
            Instr("jal", rd=0, imm=-4),
        ]
        ref = Machine().run(make_program(seq), max_instructions=1001)
        fast = FastMachine().run(make_program(seq),
                                 max_instructions=1001)
        assert ref.status == STATUS_LIMIT
        assert_results_equal(ref, fast, "limit")


class TestObservedModes:
    """Per-instruction observers route to the reference loop."""

    SOURCE = """
    int main(void) {
        long *p = (long*)malloc(64);
        long i; long s = 0;
        for (i = 0; i < 8; i = i + 1) { p[i] = i * 3; }
        for (i = 0; i < 8; i = i + 1) { s = s + p[i]; }
        free(p);
        print_int(s);
        return 0;
    }
    """

    def test_profiler_lockstep(self):
        from repro.obs.profiler import CycleProfiler

        reports = {}
        for engine in ("ref", "fast"):
            profiler = CycleProfiler()
            config = HwstConfig()
            program = compile_source(self.SOURCE, "hwst128_tchk", config)
            machine = make_machine(engine, config=config, timing=True,
                                   profiler=profiler)
            result = machine.run(program)
            assert result.status == STATUS_EXIT
            reports[engine] = (result, profiler.report(program))
        a, ra = reports["ref"]
        b, rb = reports["fast"]
        assert_results_equal(a, b, "profiled")
        # The per-pc cycle attribution itself must agree: a profiled
        # run executes on the reference loop, every retire observed.
        assert ra.to_collapsed() == rb.to_collapsed()

    def test_fault_hook_falls_back_to_reference_loop(self):
        fired = []
        machine = FastMachine()
        machine.fault_hook = lambda m: fired.append(m.pc)
        seq = [Instr("addi", rd=5, rs1=0, imm=1)] + exit_seq()
        result = machine.run(make_program(seq))
        assert result.status == STATUS_EXIT
        # Hook saw every instruction; nothing was block-executed.
        assert len(fired) == result.instret + 1  # +1: trapping ecall
        assert machine.fast_stats()["block_runs"] == 0
