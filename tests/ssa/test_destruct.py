"""Tests for SSA destruction."""

import pickle

import pytest

from repro.checks import CheckKind, OptimizerOptions, Scheme
from repro.errors import RangeTrap
from repro.interp import Machine
from repro.ir import Assign, Phi
from repro.ir.edges import is_landing_block
from repro.ir.instructions import PHI_STAGE, PHI_WRITE
from repro.pipeline import compile_source
from repro.ssa import destruct_ssa, split_critical_edges

from ..conftest import lower_ssa


SWAPPY = """
program p
  integer :: a, b, t, i
  a = 1
  b = 2
  do i = 1, 5
    t = a
    a = b
    b = t
  end do
  print a
  print b
end program
"""


class TestDestruction:
    def test_no_phis_remain(self, loop_program):
        module = lower_ssa(loop_program)
        destruct_ssa(module.main)
        assert not any(isinstance(i, Phi)
                       for i in module.main.instructions())

    def test_semantics_preserved(self, loop_program):
        reference = lower_ssa(loop_program)
        m1 = Machine(reference, {"n": 6})
        m1.run()
        module = lower_ssa(loop_program)
        destruct_ssa(module.main)
        m2 = Machine(module, {"n": 6})
        m2.run()
        assert m1.output == m2.output

    def test_swap_pattern_is_correct(self):
        reference = lower_ssa(SWAPPY)
        m1 = Machine(reference)
        m1.run()
        module = lower_ssa(SWAPPY)
        destruct_ssa(module.main)
        m2 = Machine(module)
        m2.run()
        assert m1.output == m2.output == [2, 1]

    def test_checks_survive(self, loop_program):
        module = lower_ssa(loop_program)
        from repro.ir import Check
        before = sum(1 for i in module.main.instructions()
                     if isinstance(i, Check))
        destruct_ssa(module.main)
        after = sum(1 for i in module.main.instructions()
                    if isinstance(i, Check))
        assert before == after

    def test_whole_module_destruction(self):
        source = """
program p
  input integer :: n = 4
  real :: a(10)
  call fill(n, a)
  print a(1)
end program
subroutine fill(n, a)
  integer :: n, i
  real :: a(10)
  do i = 1, n
    a(i) = real(i)
  end do
end subroutine
"""
        reference = lower_ssa(source)
        m1 = Machine(reference)
        m1.run()
        module = lower_ssa(source)
        for function in module:
            destruct_ssa(function)
        m2 = Machine(module)
        m2.run()
        assert m1.output == m2.output


class TestCriticalEdges:
    def test_no_critical_edges_after_split(self):
        source = """
program p
  integer :: i, s
  s = 0
  do i = 1, 3
    if (mod(i, 2) == 0) then
      s = s + 1
    end if
  end do
  print s
end program
"""
        module = lower_ssa(source)
        main = module.main
        split_critical_edges(main)
        preds = main.predecessor_map()
        for block in main.blocks:
            if len(preds[block]) < 2:
                continue
            for pred in preds[block]:
                assert len(pred.successors()) == 1

    def test_split_preserves_behavior(self):
        source = """
program p
  integer :: i, s
  s = 0
  do i = 1, 4
    if (mod(i, 2) == 0) then
      s = s + i
    end if
  end do
  print s
end program
"""
        reference = lower_ssa(source)
        m1 = Machine(reference)
        m1.run()
        module = lower_ssa(source)
        split_critical_edges(module.main)
        m2 = Machine(module)
        m2.run()
        assert m1.output == m2.output


SPEC_REDUCTION = """
program p
  input integer :: n = 50
  integer :: i, s
  integer :: a(100)
  s = 0
  do i = 1, n
    a(i) = i
    s = s + a(i)
  end do
  print s
end program
"""

PRED_TRAP = """
program p
  input integer :: n = 20
  integer :: s
  integer :: a(10)
  s = 0
  if (n > 5) then
    s = n
    a(n) = s
  end if
  print s
end program
"""


class TestPhiAccounting:
    """One phi move per SSA phi per block entry, on every engine."""

    def test_halves_are_marked(self):
        module = lower_ssa(SWAPPY)
        phis = sum(len(block.phis()) for block in module.main.blocks)
        destruct_ssa(module.main)
        halves = [inst.phi_copy for inst in module.main.instructions()
                  if isinstance(inst, Assign) and inst.phi_copy]
        # one write per phi, standing where the phi stood
        assert halves.count(PHI_WRITE) == phis
        assert halves.count(PHI_STAGE) >= phis
        for block in module.main.blocks:
            kinds = [getattr(inst, "phi_copy", "")
                     for inst in block.instructions]
            writes = kinds.count(PHI_WRITE)
            assert kinds[:writes] == [PHI_WRITE] * writes

    def test_spec_landing_edges_charge_equal_phis(self):
        program = compile_source(
            SPEC_REDUCTION, OptimizerOptions(Scheme.SPEC, CheckKind.INX))
        module = pickle.loads(pickle.dumps(program.module))
        destruct_ssa(module.main)
        landings = [block for block in module.main.blocks
                    if is_landing_block(block)]
        # SPEC's versioned loop splits edges whose landing blocks host
        # staged phi copies: both halves of the cost rule are exercised
        assert any(isinstance(inst, Assign) and inst.phi_copy == PHI_STAGE
                   for block in landings for inst in block.instructions)
        want = program.run({"n": 50}).counters.snapshot()
        assert want["phis"] > 0
        for engine in ("compiled", "specialized"):
            got = program.run_compiled({"n": 50}, engine=engine)
            assert got.counters.snapshot() == want, engine

    def test_threaded_counters_match_at_a_trap(self):
        # the trap fires in the then-block, which stages the join's phi
        # for s: its write half is charged on entry to the join, which
        # never runs -- exactly like the interpreter's phi
        program = compile_source(PRED_TRAP, OptimizerOptions(Scheme.NI))
        with pytest.raises(RangeTrap) as interp:
            program.run()
        with pytest.raises(RangeTrap) as threaded:
            program.run_compiled()
        assert threaded.value.runtime.counters.snapshot() == \
            interp.value.runtime.counters.snapshot()
