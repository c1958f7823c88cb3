"""The cost plan: what entering one basic block charges the counters.

The paper counts executed instructions and range checks (section 4).
Every instruction of a block runs when the block does, so each engine
charges a block's whole cost once, on entry, and :func:`block_cost` is
the only place that prices an instruction: ``Load``/``Store`` cost
``1 + rank`` instructions (the access plus its addressing arithmetic),
a ``Check`` costs one check (and one guarded check if conditional),
and ``phis`` counts one move per SSA phi per block entry: a ``Phi``,
or on destructed IR the write half of its lowered copy, which stands
where the phi stood.  The staging half, split-edge landing jumps and
``SpecGuard`` are free; ``Trap`` and the guard counters are charged
when they fire.  Fuel is separate: one step per instruction.
"""

from __future__ import annotations

from typing import Tuple

from .basicblock import BasicBlock
from .instructions import (PHI_WRITE, Assign, Check, Jump, Load, Phi,
                           SpecGuard, Store, Trap)

#: the counters a block charges on entry, in :func:`block_cost` order
COST_FIELDS: Tuple[str, ...] = ("instructions", "checks",
                                "guarded_checks", "phis")


def block_cost(block: BasicBlock) -> Tuple[int, int, int, int]:
    """``(instructions, checks, guarded_checks, phis)`` charged each
    time ``block`` is entered."""
    instructions = checks = guarded = phis = 0
    for inst in block.instructions:
        if isinstance(inst, Check):
            checks += 1
            if inst.is_conditional:
                guarded += 1
        elif isinstance(inst, (Load, Store)):
            instructions += 1 + len(inst.indices)
        elif isinstance(inst, Phi):
            phis += 1
        elif isinstance(inst, Assign) and inst.phi_copy:
            if inst.phi_copy == PHI_WRITE:
                phis += 1
        elif isinstance(inst, Jump) and inst.is_synthetic:
            pass
        elif not isinstance(inst, (SpecGuard, Trap)):
            instructions += 1
    return instructions, checks, guarded, phis
