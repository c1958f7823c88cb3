"""Tests for the compiled-module cache (:class:`BackendCache`)."""

import os

from repro.interp import Machine
from repro.pipeline import (BackendCache, compile_source,
                            reset_shared_backend_cache,
                            shared_backend_cache)
from repro.pipeline.cache import build_fingerprint
from repro.pipeline.trace import PipelineTrace

from ..conftest import lower_ssa


SOURCE = """
program p
  input integer :: n = 6
  real :: a(10)
  integer :: i
  do i = 1, n
    a(i) = real(i)
  end do
  print a(n)
end program
"""


class TestMemoryLayer:
    def test_second_compile_is_a_hit(self):
        cache = BackendCache()
        first = cache.compiled(lower_ssa(SOURCE))
        second = cache.compiled(lower_ssa(SOURCE))
        stats = cache.stats()
        assert stats["translations"] == 1
        assert stats["hits"] == 1
        assert first is second  # compiled modules are shareable
        assert set(stats) == {"translations", "hits", "misses",
                              "disk_hits", "evictions", "entries",
                              "lock_waits", "lock_degraded"}

    def test_key_carries_engine_version(self):
        # the build fingerprint versions the engine; the engine name
        # scopes the key to one back-end tier
        key = BackendCache.key(lower_ssa(SOURCE))
        assert key.startswith(build_fingerprint() + "-")
        assert key.endswith("-compiled")

    def test_distinct_programs_get_distinct_keys(self):
        other = SOURCE.replace("a(n)", "a(1)")
        assert BackendCache.key(lower_ssa(SOURCE)) != \
            BackendCache.key(lower_ssa(other))

    def test_source_module_is_not_mutated(self):
        # translation destructs SSA on a clone, never on the argument
        module = lower_ssa(SOURCE)
        had_phis = any(block.phis()
                       for function in module
                       for block in function.blocks)
        BackendCache().compiled(module)
        still_has = any(block.phis()
                        for function in module
                        for block in function.blocks)
        assert had_phis == still_has

    def test_cached_module_matches_interpreter(self):
        cache = BackendCache()
        compiled = cache.compiled(lower_ssa(SOURCE))
        runtime = compiled.run({"n": 6})
        machine = Machine(lower_ssa(SOURCE), {"n": 6})
        machine.run()
        assert runtime.output == machine.output
        assert runtime.counters.checks == machine.counters.checks
        assert runtime.counters.instructions == \
            machine.counters.instructions

    def test_eviction_bound(self):
        cache = BackendCache(max_entries=1)
        cache.compiled(lower_ssa(SOURCE))
        cache.compiled(lower_ssa(SOURCE.replace("a(n)", "a(1)")))
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1


SPEC_SOURCE = """
program p
  input integer :: n = 6
  real :: a(10)
  integer :: i
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
"""


class TestSchemeSensitiveKeys:
    """Regression (check-configuration audit): the cache key is the
    printed IR, so every semantic difference the optimizer introduces
    must reach an instruction's ``__str__``.  A SpecGuard that printed
    only its destination would let two different envelope guards
    collide on one cached compiled module."""

    @staticmethod
    def _key(scheme):
        from repro.checks.config import OptimizerOptions
        program = compile_source(SPEC_SOURCE,
                                 OptimizerOptions(scheme=scheme))
        return BackendCache.key(program.module)

    def test_spec_and_lls_schemes_get_distinct_keys(self):
        from repro.checks.config import Scheme
        assert self._key(Scheme.SPEC) != self._key(Scheme.LLS)

    def test_envelope_bound_reaches_the_key(self):
        from repro.checks.config import OptimizerOptions, Scheme
        from repro.ir.instructions import SpecGuard

        program = compile_source(SPEC_SOURCE,
                                 OptimizerOptions(scheme=Scheme.SPEC))
        module = program.module
        before = BackendCache.key(module)
        guards = [inst for function in module
                  for inst in function.instructions()
                  if isinstance(inst, SpecGuard)]
        assert guards, "SPEC should have versioned the loop"
        # modules identical except for one envelope bound must not
        # share a cache entry
        guards[0].guards[0].bound += 1
        assert BackendCache.key(module) != before

    def test_trip_pre_guard_reaches_the_key(self):
        from repro.checks.config import OptimizerOptions, Scheme
        from repro.ir.instructions import SpecGuard

        program = compile_source(SPEC_SOURCE,
                                 OptimizerOptions(scheme=Scheme.SPEC))
        module = program.module
        before = BackendCache.key(module)
        guards = [inst for function in module
                  for inst in function.instructions()
                  if isinstance(inst, SpecGuard)]
        assert guards and guards[0].pre_guards
        guards[0].pre_guards[0].bound += 1
        assert BackendCache.key(module) != before


class TestDiskLayer:
    def test_fresh_instance_hits_disk(self, tmp_path):
        writer = BackendCache(disk_dir=str(tmp_path))
        writer.compiled(lower_ssa(SOURCE))
        reader = BackendCache(disk_dir=str(tmp_path))
        compiled = reader.compiled(lower_ssa(SOURCE))
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["translations"] == 0
        assert compiled.run({"n": 6}).output == [6.0]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        writer = BackendCache(disk_dir=str(tmp_path))
        module = lower_ssa(SOURCE)
        writer.compiled(module)
        entry = os.path.join(str(tmp_path),
                             "%s.pybackend.pickle" % BackendCache.key(module))
        with open(entry, "wb") as handle:
            handle.write(b"not a pickle")
        reader = BackendCache(disk_dir=str(tmp_path))
        reader.compiled(lower_ssa(SOURCE))
        assert reader.stats()["translations"] == 1


class TestIntegration:
    def test_run_compiled_records_cached_trace_event(self):
        cache = BackendCache()
        program = compile_source(SOURCE)
        program.run_compiled({"n": 6}, backend_cache=cache)
        trace = PipelineTrace()
        again = compile_source(SOURCE, trace=trace)
        again.run_compiled({"n": 6}, backend_cache=cache)
        events = [event for event in trace.events
                  if event.name == "backend"]
        assert events and events[0].cached

    def test_shared_cache_is_a_singleton(self):
        reset_shared_backend_cache()
        try:
            assert shared_backend_cache() is shared_backend_cache()
        finally:
            reset_shared_backend_cache()
