"""Functional simulation substrate: memory, ISS, keybuffer, programs.

* :mod:`repro.sim.memory` — paged byte-addressable memory with mapped
  regions (unmapped access faults, which is how null derefs surface on
  the unprotected baseline);
* :mod:`repro.sim.keybuffer` — the TLB-like lock->key buffer from
  Section 3.5;
* :mod:`repro.sim.program` — linked program images (text + data + symbols);
* :mod:`repro.sim.machine` — the instruction-set simulator executing the
  RV64 subset plus the HWST128/MPX/AVX extensions, in the role the
  augmented SPIKE plays in the paper (the *reference engine*);
* :mod:`repro.sim.fastmachine` — the translation-cached superblock
  engine, architecturally identical to the reference but decoding each
  basic block once (``--engine fast``).
"""

from typing import Optional

from repro.pipeline.timing import InOrderPipeline
from repro.sim.memory import Memory, MemoryLayout
from repro.sim.keybuffer import KeyBuffer
from repro.sim.program import Program, Segment
from repro.sim.machine import Machine, RunResult
from repro.sim.fastmachine import FastMachine

#: Engine registry: name -> Machine class. "ref" is the golden
#: fetch/decode/execute interpreter; "fast" the translation-cached one.
ENGINES = {
    "ref": Machine,
    "fast": FastMachine,
}
DEFAULT_ENGINE = "ref"


def make_machine(engine: Optional[str] = None, *, timing: bool = False,
                 metrics=None, **kwargs) -> Machine:
    """Construct a simulator by engine name (``ref`` | ``fast``) — the
    package's only constructor of a machine or pipeline.

    ``engine=None`` reads :data:`DEFAULT_ENGINE` at call time.
    ``timing`` attaches an :class:`InOrderPipeline` on the machine's
    ``metrics`` registry (each keeps its own when none is given). Other
    keyword arguments go to the engine's constructor, which is the same
    for both engines.
    """
    name = DEFAULT_ENGINE if engine is None else engine
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; choose from "
            f"{', '.join(sorted(ENGINES))}") from None
    pipeline = InOrderPipeline(metrics=metrics) if timing else None
    return cls(timing=pipeline, metrics=metrics, **kwargs)


__all__ = [
    "Memory",
    "MemoryLayout",
    "KeyBuffer",
    "Program",
    "Segment",
    "Machine",
    "FastMachine",
    "RunResult",
    "ENGINES",
    "DEFAULT_ENGINE",
    "make_machine",
]
