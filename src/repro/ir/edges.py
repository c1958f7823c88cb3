"""CFG-edge attribution helpers shared by every execution engine.

SSA destruction splits critical edges through synthetic *landing*
blocks (a run of phi copies ending in a Jump flagged ``is_synthetic``)
that the interpreter running SSA form never sees.  Edge profiles must
therefore be attributed on the *original* CFG: an engine executing a
destructed module records the edge ``(pred, landing)`` + ``(landing,
target)`` as the single original edge ``(pred, target)``.  Both the
interpreter and the generated back-end code use these helpers so the
three engines agree on every edge count.
"""

from __future__ import annotations

from .basicblock import BasicBlock
from .instructions import Jump


def is_landing_block(block: BasicBlock) -> bool:
    """True for a synthetic landing block created by edge splitting."""
    term = block.terminator
    return isinstance(term, Jump) and term.is_synthetic


def edge_target(block: BasicBlock) -> BasicBlock:
    """Look through landing blocks to the original edge target."""
    hops = 0
    while is_landing_block(block) and hops < 64:
        block = block.terminator.target
        hops += 1
    return block
