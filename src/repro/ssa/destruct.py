"""SSA destruction: replace phis with copies.

Critical edges are split first, then every phi ``x = phi(v1, v2, ...)``
of a block becomes a copy through one temporary: each predecessor
*stages* its incoming value (``pc = vi``, before its terminator) and
the phi itself is replaced in place by the *write* ``x = pc``.  All
stagings of an edge run before any write, so the copies act as the
parallel copy the phis denote (immune to the classic lost-copy and swap
problems), and the writes stand exactly where the phis stood: one phi
move per phi per block entry, which is what the interpreter charges for
the SSA form (:mod:`repro.ir.cost`).
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import PHI_STAGE, PHI_WRITE, Assign
from ..ir.values import Var
from ..ir.verify import verify_function


def split_critical_edges(function: Function) -> int:
    """Split every edge whose source has multiple successors and whose
    target has multiple predecessors.  Returns the number split.

    The landing blocks exist only to host phi copies, so their jump is
    marked synthetic: it costs nothing (:mod:`repro.ir.cost`), keeping
    dynamic counts identical to the SSA module being destructed.
    """
    preds = function.predecessor_map()
    split = 0
    for block in list(function.blocks):
        if len(preds.get(block, [])) < 2:
            continue
        for pred in list(preds[block]):
            if len(pred.successors()) > 1:
                middle = function.split_edge(pred, block)
                middle.terminator.is_synthetic = True
                split += 1
    return split


def destruct_ssa(function: Function) -> None:
    """Lower all phis to copies, in place.

    Each copy is marked with its half (:data:`PHI_STAGE` or
    :data:`PHI_WRITE`) so the cost plan can charge the write as the
    phi move and the staging as nothing.
    """
    split_critical_edges(function)
    counter = 0
    for block in list(function.blocks):
        for index, phi in enumerate(block.phis()):
            counter += 1
            temp = Var("pc%d" % counter, phi.dest.type, is_temp=True)
            function.declare_scalar(temp)
            for pred, value in phi.incoming:
                pred.insert_before_terminator(
                    Assign(temp, value, PHI_STAGE))
            block.remove(phi)
            block.insert(index, Assign(phi.dest, temp, PHI_WRITE))
    function.ssa_form = False
    verify_function(function)


def is_ssa(function: Function) -> bool:
    """True when every variable has at most one definition."""
    seen = set()
    for inst in function.instructions():
        dest = inst.def_var()
        if dest is not None:
            if dest.name in seen:
                return False
            seen.add(dest.name)
    return True
