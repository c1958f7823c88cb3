"""Differential tests for REAL subscript/store coercion parity.

The interpreter's :class:`~repro.interp.values.ArrayStorage` coerces on
every store (``int()`` truncation toward zero for INT elements) and
bounds-faults inside the accessor; the back-ends duplicate both on the
guarded fast path and must fall back to the same accessor when an index
escapes the fast-path window.  These tests pin the three engines to
identical behavior on the cases where those paths could drift:
negative fractional index expressions, implicit REAL->INT stores, and
out-of-bounds accesses taking the fallback accessor.
"""

import pickle

import pytest

from repro.backend import compile_to_python, compile_to_specialized
from repro.errors import InterpError, RangeTrap
from repro.interp import Machine
from repro.ir import Check
from repro.ssa import destruct_ssa

from ..conftest import lower_ssa
from .test_specialized import tri_parity


def _clone(module):
    return pickle.loads(pickle.dumps(module))


def _engines(module):
    """The two back-end modules for one SSA module."""
    threaded_mod = _clone(module)
    for function in threaded_mod:
        destruct_ssa(function)
    return (compile_to_python(threaded_mod),
            compile_to_specialized(_clone(module)))


class TestNegativeFractionalIndices:
    def test_truncation_toward_zero_in_subscript(self):
        # int(-2.5) is -2 (not floor's -3) in every engine; the
        # resulting index lands on the fast path in-bounds
        tri_parity("""
program p
  input real :: x = -2.5
  integer :: i
  real :: a(5)
  i = int(x) + 4
  a(i) = x * 2.0
  print a(i)
  print int(x)
  print int(-0.5) + 1
end program
""", {"x": -2.5})

    @pytest.mark.parametrize("x", [-2.5, -0.25, 0.75, 2.5])
    def test_fractional_index_sweep(self, x):
        tri_parity("""
program p
  input real :: x = 0.0
  integer :: i
  real :: a(0:5)
  i = int(x) + 3
  a(i) = x
  print a(i)
end program
""", {"x": x})

    def test_out_of_bounds_fractional_index_traps_identically(self):
        module = lower_ssa("""
program p
  input real :: x = -9.5
  integer :: i
  real :: a(5)
  i = int(x) + 4
  a(i) = 1.0
  print a(1)
end program
""")
        machine = Machine(_clone(module), {"x": -9.5})
        with pytest.raises(RangeTrap) as interp_info:
            machine.run()
        threaded, specialized = _engines(module)
        for compiled in (threaded, specialized):
            with pytest.raises(RangeTrap) as info:
                compiled.run({"x": -9.5})
            # messages legitimately differ (the interpreter includes
            # the evaluated value; the back-ends print the static
            # check), but the typed error, the trap-time output, the
            # counters, and the failing check must all agree
            assert "array a, lower bound" in str(info.value)
            assert "array a, lower bound" in str(interp_info.value)
            runtime = info.value.runtime
            assert list(runtime.output) == list(machine.output)
            # block-entry accounting: the threaded engine charges each
            # block on entry, as the interpreter does, so every counter
            # agrees at the trap; the specialized engine charges whole
            # straight-line regions on entry, so it may run ahead
            want = machine.counters.snapshot()
            got = runtime.counters.snapshot()
            if compiled is threaded:
                assert got == want
            else:
                assert all(got[field] >= want[field] for field in want)
            assert runtime.counters.traps == machine.counters.traps


class TestRealToIntStores:
    def test_implicit_store_truncates_on_fast_path(self):
        # k(i) = x stores int(x): truncation toward zero, matching
        # ArrayStorage.store, on the guarded in-bounds fast path
        tri_parity("""
program p
  input real :: x = -2.5
  integer :: k(5)
  k(2) = x
  k(3) = x * 3.0
  k(4) = 0.0 - x
  print k(2)
  print k(3)
  print k(4)
end program
""", {"x": -2.5})

    def test_store_in_loop(self):
        tri_parity("""
program p
  input integer :: n = 7
  integer :: i, k(10)
  real :: x
  do i = 1, n
    x = real(i) * 1.5 - 4.0
    k(i) = x
  end do
  print k(1)
  print k(n)
end program
""", {"n": 7})

    def test_int_to_real_store_parity(self):
        tri_parity("""
program p
  input integer :: n = 3
  real :: a(5)
  a(2) = n
  a(3) = n * 2
  print a(2)
  print a(3)
end program
""", {"n": 3})


class TestOutOfBoundsFallback:
    def _unchecked(self, source):
        """SSA module with every Check deleted: accesses reach the
        storage accessor's independent safety net."""
        module = lower_ssa(source)
        for function in module:
            for block in function.blocks:
                for inst in list(block.instructions):
                    if isinstance(inst, Check):
                        block.remove(inst)
        return module

    def test_oob_real_to_int_store_faults_identically(self):
        module = self._unchecked("""
program p
  input real :: x = -2.5
  integer :: k(5)
  k(9) = x
  print k(1)
end program
""")
        machine = Machine(_clone(module), {"x": -2.5})
        error = None
        try:
            machine.run()
        except InterpError as exc:
            error = exc
        assert error is not None
        for compiled in _engines(module):
            with pytest.raises(InterpError) as info:
                compiled.run({"x": -2.5})
            assert str(info.value) == str(error)

    def test_oob_load_faults_identically(self):
        module = self._unchecked("""
program p
  input integer :: i = 12
  real :: a(10)
  print a(i)
end program
""")
        machine = Machine(_clone(module), {"i": 12})
        error = None
        try:
            machine.run()
        except InterpError as exc:
            error = exc
        assert error is not None
        for compiled in _engines(module):
            with pytest.raises(InterpError) as info:
                compiled.run({"i": 12})
            assert str(info.value) == str(error)
