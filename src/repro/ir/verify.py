"""IR structural verifier.

Checks the invariants the -O0 code generator relies on:

* every basic block ends in exactly one terminator and contains no
  terminator earlier;
* every vreg is defined exactly once, before all of its uses, and all
  uses are inside the defining block (block-local expression trees);
* branch targets exist;
* block labels are unique, including case-insensitively (codegen and
  ``Function.block`` look labels up by exact string, so two labels that
  differ only by case silently shadow each other);
* locals referenced by AddrLocal exist in the frame;
* calls to in-module functions, and to the ``externs`` defined in a
  separately verified object, pass the right number of arguments
  (unknown callees — assembly stubs — are skipped);
* optionally (``allow_unreachable=False``) no block is unreachable
  from the entry block.  The default is permissive because irgen
  deliberately emits ``dead.*`` landing blocks for statements after a
  ``return``; use :func:`unreachable_blocks` to inspect them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.errors import IRError
from repro.ir.ir import AddrLocal, Br, Call, Function, Jmp, Module


def unreachable_blocks(fn: Function) -> List[str]:
    """Labels of blocks with no path from the entry block, layout order."""
    if not fn.blocks:
        return []
    succs: Dict[str, tuple] = {}
    for blk in fn.blocks:
        term = blk.instrs[-1] if blk.instrs else None
        if isinstance(term, Br):
            succs[blk.label] = (term.then_label, term.else_label)
        elif isinstance(term, Jmp):
            succs[blk.label] = (term.label,)
        else:
            succs[blk.label] = ()
    entry = fn.blocks[0].label
    seen = {entry}
    stack = [entry]
    while stack:
        for nxt in succs.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return [blk.label for blk in fn.blocks if blk.label not in seen]


def _arities(module: Optional[Module],
              externs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
    arity = dict(externs or {})
    if module is not None:
        for name, fn in module.functions.items():
            arity[name] = len(fn.param_names)
    return arity


def check_call_arity(caller: str, label: str, callee: str, nargs: int,
                     arity: Mapping[str, int]):
    """Raise IRError when ``callee``'s definition takes other than
    ``nargs`` parameters (callees missing from ``arity`` pass)."""
    nparams = arity.get(callee)
    if nparams is not None and nargs != nparams:
        raise IRError(
            f"{caller}/{label}: call to {callee!r} passes {nargs} "
            f"argument(s) but its definition takes {nparams}")


def verify_function(fn: Function, module: Optional[Module] = None, *,
                    allow_unreachable: bool = True,
                    arity: Optional[Mapping[str, int]] = None):
    """Verify ``fn``; calls are arity-checked against ``arity`` (name
    -> parameter count), by default the functions of ``module``."""
    if arity is None:
        arity = _arities(module)
    labels = {blk.label for blk in fn.blocks}
    if len(labels) != len(fn.blocks):
        counts: Dict[str, int] = {}
        for blk in fn.blocks:
            counts[blk.label] = counts.get(blk.label, 0) + 1
        dupes = sorted(label for label, n in counts.items() if n > 1)
        raise IRError(f"{fn.name}: duplicate block labels {dupes}")
    folded: Dict[str, str] = {}
    for blk in fn.blocks:
        prev = folded.setdefault(blk.label.casefold(), blk.label)
        if prev != blk.label:
            raise IRError(
                f"{fn.name}: block labels {prev!r} and {blk.label!r} "
                f"differ only by case and would shadow each other")
    defined_in: Dict[int, str] = {}

    for blk in fn.blocks:
        if not blk.instrs:
            raise IRError(f"{fn.name}/{blk.label}: empty block")
        for index, ins in enumerate(blk.instrs):
            last = index == len(blk.instrs) - 1
            if ins.is_terminator() != last:
                raise IRError(
                    f"{fn.name}/{blk.label}: terminator misplaced at "
                    f"{index} ({ins})"
                )
            for v in ins.defs():
                if v in defined_in:
                    raise IRError(
                        f"{fn.name}/{blk.label}: vreg {v} redefined")
                if not 0 <= v < len(fn.vreg_types):
                    raise IRError(f"{fn.name}: vreg {v} never allocated")
                defined_in[v] = blk.label
            if isinstance(ins, AddrLocal) and ins.name not in fn.locals:
                raise IRError(
                    f"{fn.name}/{blk.label}: unknown local {ins.name!r}")
            if isinstance(ins, Call):
                check_call_arity(fn.name, blk.label, ins.name,
                                 len(ins.args), arity)
            if isinstance(ins, Br):
                for target in (ins.then_label, ins.else_label):
                    if target not in labels:
                        raise IRError(
                            f"{fn.name}/{blk.label}: branch to missing "
                            f"block {target!r}")
            if isinstance(ins, Jmp) and ins.label not in labels:
                raise IRError(
                    f"{fn.name}/{blk.label}: jump to missing block "
                    f"{ins.label!r}")

    # Uses: defined earlier in the same block.
    for blk in fn.blocks:
        seen: Set[int] = set()
        for ins in blk.instrs:
            for v in ins.uses():
                if v in seen:
                    continue
                if defined_in.get(v) != blk.label:
                    raise IRError(
                        f"{fn.name}/{blk.label}: vreg {v} used in "
                        f"{blk.label} but defined in "
                        f"{defined_in.get(v)} ({ins})")
                raise IRError(
                    f"{fn.name}/{blk.label}: vreg {v} used before its "
                    f"definition ({ins})")
            for v in ins.defs():
                seen.add(v)
            # A use after the def in the same block is fine; re-walk:
        # Second pass done implicitly: the loop above flags any use whose
        # def has not yet been seen in this block.

    if not allow_unreachable:
        dead = unreachable_blocks(fn)
        if dead:
            raise IRError(
                f"{fn.name}: unreachable block(s) {dead} — no path from "
                f"entry {fn.blocks[0].label!r}")


def verify_module(module: Module, *, allow_unreachable: bool = True,
                  externs: Optional[Mapping[str, int]] = None):
    """Verify every function; raises IRError on the first violation.

    ``externs`` maps functions defined outside ``module`` (the runtime
    object it links against) to their parameter counts, so calls into
    them are arity-checked as if both were one module.
    """
    arity = _arities(module, externs)
    for fn in module.functions.values():
        verify_function(fn, allow_unreachable=allow_unreachable,
                        arity=arity)
