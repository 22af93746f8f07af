"""Separate compilation: user units linked beside a runtime object.

``compile_source`` compiles, verifies and lowers each scheme's runtime
library once per process (``repro.schemes.compile.runtime_object``) and
links it beside the instrumented user unit. The reference here is the
monolithic build the linker used to do: merge the runtime module into
the user module, verify the whole, link. Every ``Program`` field must
match it — instructions with their comments, segments, entry, symbols,
layout and meta.

Tier-1 checks a slice of the sweep; the full one (23 workloads x 10
schemes, 20 fuzz programs, config variants) runs with::

    python -m tests.test_runtime_object
"""

import copy
import dataclasses

import pytest

from repro.codegen.link import build_program, mutate_check_ops
from repro.codegen.lower import CodegenOptions
from repro.codegen.runtime import runtime_source
from repro.core.config import HwstConfig
from repro.errors import IRError
from repro.fuzz.gen import generate_program, plan_programs
from repro.fuzz.oracle import alt_config
from repro.harness.compile_cache import CompileCache
from repro.ir.ir import Call
from repro.ir.verify import verify_module
from repro.schemes import SCHEMES, compile_source
from repro.schemes.compile import (_compile_unit, instrumented_unit,
                                   runtime_object)
from repro.sim.memory import DEFAULT_LAYOUT
from repro.workloads import WORKLOADS

PROGRAM_FIELDS = ("instrs", "entry", "text_base", "segments", "symbols",
                  "layout", "meta")

CONFIGS = {
    "default": HwstConfig(),
    "alt_geometry": alt_config(),
    "elide_checks": HwstConfig(elide_checks=True),
    "keybuffer_4": HwstConfig(keybuffer_entries=4),
}

SLICE_WORKLOADS = ("treeadd", "CRC32", "bitcounts")
SLICE_FUZZ = 5


def monolithic_program(source, scheme, config, name="program",
                       unit=None):
    """The reference build: one merged module, verified whole."""
    spec = SCHEMES[scheme]
    module = unit if unit is not None else \
        instrumented_unit(source, scheme, config, name)
    module.merge(_compile_unit(
        runtime_source(spec.runtime, spec.sbcets_shadow), "runtime"))
    verify_module(module)
    meta = {"scheme": scheme, "name": name}
    return build_program(module, config=config, layout=DEFAULT_LAYOUT,
                         options=CodegenOptions(spill_meta=spec.spill_meta),
                         meta=meta)


def assert_same_program(got, want, where):
    for name in PROGRAM_FIELDS:
        assert getattr(got, name) == getattr(want, name), (where, name)


def check_build(source, scheme, config, name="program"):
    assert_same_program(compile_source(source, scheme, config, name),
                        monolithic_program(source, scheme, config, name),
                        (name, scheme))


def fuzz_sources(count, seed=0):
    return [(f"fuzz{index}", generate_program(seed, index, kind).source)
            for index, kind in plan_programs(seed, count)]


def sweep(workloads, fuzz_count, config_names):
    """Compare every build of the sweep; returns how many it checked."""
    units = [(name, WORKLOADS[name].source("small")) for name in workloads]
    units += fuzz_sources(fuzz_count)
    checked = 0
    for config_name in config_names:
        for name, source in units:
            for scheme in SCHEMES:
                check_build(source, scheme, CONFIGS[config_name], name)
                checked += 1
    return checked


class TestByteIdentity:
    def test_workload_slice(self):
        assert sweep(SLICE_WORKLOADS, 0, ["default"]) == 30

    def test_fuzz_slice(self):
        assert sweep((), SLICE_FUZZ, ["default"]) == 10 * SLICE_FUZZ

    @pytest.mark.parametrize("config_name",
                             ["alt_geometry", "elide_checks", "keybuffer_4"])
    def test_config_stays_out_of_the_runtime_key(self, config_name):
        # One runtime object per key serves every config: geometry and
        # runtime knobs reach only _start and the assembly stubs.
        assert sweep(SLICE_WORKLOADS[:1], 0, [config_name]) == 10


STRINGS = r"""
int main(void) {
    char buf[8];
    strcpy(buf, "abc");
    print_str("hello\n");
    return strcmp(buf, "abc");
}
"""

OTHER = r"""
int main(void) { print_str("x"); print_str("y"); return 0; }
"""


class TestStringSymbols:
    def test_symbols_do_not_depend_on_process_history(self):
        before = CompileCache().compile(STRINGS, "asan")
        for scheme in ("asan", "gcc", "baseline"):
            compile_source(OTHER, scheme)
            compile_source(OTHER + "\n", scheme, program_name="other")
        after = CompileCache().compile(STRINGS, "asan")
        assert after.symbols == before.symbols
        assert after.meta == before.meta
        assert after.meta["asan_global_tail"]

    def test_unit_literals_stay_distinct_from_the_runtime(self):
        # The baseline runtime has a literal of its own (print_hex);
        # a user unit that shares the runtime's name still links.
        program = compile_source(STRINGS, "baseline",
                                 program_name="runtime")
        literals = [name for name in program.symbols
                    if name.startswith("__str")]
        assert len(literals) == 4


class TestAliasing:
    def test_mutating_a_program_leaves_later_builds_alone(self):
        source = WORKLOADS["treeadd"].source("small")
        config = HwstConfig()
        for scheme, spec in SCHEMES.items():
            runtime = runtime_object(
                spec, CodegenOptions(spill_meta=spec.spill_meta))
            template = copy.deepcopy(runtime.functions)
            first = compile_source(source, scheme, config)
            pristine = copy.deepcopy(first)
            for kind in ("check_drop", "check_dup"):
                for select in range(8):
                    mutate_check_ops(first, kind, select)
            second = compile_source(source, scheme, config)
            assert_same_program(second, pristine, scheme)
            assert runtime.functions == template, scheme

    def test_relocated_instructions_are_never_shared(self):
        config = HwstConfig()
        source = WORKLOADS["treeadd"].source("small")
        for scheme, spec in SCHEMES.items():
            runtime = runtime_object(
                spec, CodegenOptions(spill_meta=spec.spill_meta))
            relocated = {id(ins) for _, code in runtime.functions
                         for ins in code if ins.sym is not None}
            program = compile_source(source, scheme, config)
            assert not relocated & {id(ins) for ins in program.instrs}


def both_errors(source, scheme="baseline"):
    """(separate, monolithic) exceptions raised compiling ``source``."""
    errors = []
    for build in (lambda: compile_source(source, scheme),
                  lambda: monolithic_program(source, scheme, HwstConfig())):
        with pytest.raises(Exception) as info:
            build()
        errors.append(info.value)
    return errors


class TestErrorParity:
    @pytest.mark.parametrize("source, kind, message", [
        ("long strlen(char *s) { return 0; }\n"
         "int main(void) { return 0; }",
         ValueError, "duplicate function 'strlen'"),
        ("long __heap_ptr = 3;\n"
         "int main(void) { return (int)__heap_ptr; }",
         ValueError, "duplicate global '__heap_ptr'"),
        # The runtime calls abort() and __heap_base() itself: a user
        # redefinition of the wrong arity breaks the runtime's calls.
        ("void abort(int code) { exit(code); }\n"
         "int main(void) { return 0; }",
         IRError, "call to 'abort' passes 0 argument(s)"),
        ("long __heap_base(long x) { return x; }\n"
         "int main(void) { return 0; }",
         IRError, "call to '__heap_base' passes 0 argument(s)"),
    ])
    def test_same_error_as_a_merged_build(self, source, kind, message):
        separate, monolithic = both_errors(source)
        assert type(separate) is type(monolithic) is kind
        assert str(separate) == str(monolithic)
        assert message in str(separate)

    def test_wrong_arity_call_into_the_runtime(self):
        # Mini-C sema rejects such a call in source, so plant it in the
        # IR the front end hands over (through the unit-cache hook).
        source = "int main(void) { print_int(7); return 0; }"

        def tampered():
            module = instrumented_unit(source, "baseline", HwstConfig())
            for blk in module.functions["main"].blocks:
                for index, ins in enumerate(blk.instrs):
                    if isinstance(ins, Call) and ins.name == "print_int":
                        blk.instrs[index] = dataclasses.replace(
                            ins, args=ins.args * 2)
            return module

        class Planted:
            def load_unit(self, source, name):
                return tampered()

            def store_unit(self, source, name, module):
                pass

        with pytest.raises(IRError) as separate:
            compile_source(source, "baseline", unit_cache=Planted())
        with pytest.raises(IRError) as monolithic:
            monolithic_program(source, "baseline", HwstConfig(),
                               unit=tampered())
        assert str(separate.value) == str(monolithic.value)
        assert "call to 'print_int' passes 2 argument(s) but its " \
            "definition takes 1" in str(separate.value)


def main():
    checked = sweep(sorted(WORKLOADS), 20, list(CONFIGS))
    print(f"runtime object: {checked} builds byte-identical to the "
          f"monolithic link")


if __name__ == "__main__":
    main()
