"""The in-process workloads: ``matrix`` and the three ``exec-*`` ones.

Each op is one call into the program's public API on a fixed key.  A
run visits the keys in passes, each pass in a seeded order, so every
key runs at least once and the deterministic totals repeat exactly.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchstats import Outcome, Tally
from calibrate import Calibrator
from layers import OP
from reference import (Expected, Optimized, check_run, naive_reference,
                       parity)
from spans import Patcher, Tracer, paused

from repro.benchsuite.registry import all_programs, cross_call_programs
from repro.benchsuite.runner import TABLE2_SCHEMES
from repro.checks.config import (CheckKind, ImplicationMode,
                                 OptimizerOptions, Scheme)
from repro.errors import RangeTrap, ReproError
from repro.ir.verify import verify_module
from repro.pipeline import FrontendCache, compile_source, module_size
from repro.pipeline import profile

KINDS = (CheckKind.PRX, CheckKind.INX)
#: Table 3's primed rows (implications ablated).
PRIMED = ((Scheme.NI, ImplicationMode.NONE),
          (Scheme.SE, ImplicationMode.NONE),
          (Scheme.LLS, ImplicationMode.CROSS_FAMILY))
#: Schemes the cross-call kernels run under, with and without inlining.
CROSS_CALL_SCHEMES = (Scheme.NI, Scheme.LLS, Scheme.SPEC)
#: The configurations ``exec`` runs: the paper's recommendation and
#: the scheme that leaves the most loops free of checks.
EXEC_CONFIGS = (OptimizerOptions(Scheme.LLS, CheckKind.PRX),
                OptimizerOptions(Scheme.SPEC, CheckKind.INX))


class KeyedWorkload:
    """A workload whose ops are ``op(key)`` over a fixed key list."""

    name = ""
    #: every key runs in every run, so counter totals are exact
    canonical = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: the traced run's wrappers, paused around reference runs
        self.patcher: Optional[Patcher] = None
        #: (key, measured seconds) of every timed op
        self.runs: List[Tuple[Any, float]] = []

    def setup(self, mark: Callable[[], None]) -> None:
        """Everything before the first timed op; calls ``mark``
        between its steps (see :class:`calibrate.SetupClock`)."""
        raise NotImplementedError

    def keys(self) -> List[Any]:
        raise NotImplementedError

    def op(self, key: Any) -> Any:
        """The timed call; returns what :meth:`judge` checks."""
        raise NotImplementedError

    def judge(self, key: Any, result: Any) -> Outcome:
        raise NotImplementedError

    def sample_keys(self, count: int) -> List[Any]:
        """A seeded sample of keys for the cross-process check."""
        keys = self.keys()
        return random.Random(self.seed).sample(keys, min(count, len(keys)))

    def det_for(self, key: Any,
                seen: Optional[Dict[Any, Any]] = None) -> Any:
        """The deterministic results of ``key``: from ``seen`` (the
        first results of a timed loop) or from one untimed run."""
        if seen and key in seen:
            return seen[key]
        once = Tally()
        self._timed(key, once)
        return once.first_det.get(key)

    def close(self) -> None:
        pass

    def _passes(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.keys())
            rng.shuffle(order)
            yield order

    def drive(self, seconds: float, tally: Tally,
              tracer: Optional[Tracer] = None,
              patcher: Optional[Patcher] = None) -> float:
        """Run whole passes until ``seconds`` have gone by.

        Untraced, every op is timed on its own and calibrated (see
        :mod:`calibrate`) into ``calibrated``.  Traced, each key runs
        twice in a row, once with the layer wrappers and once without
        (alternating which goes first), so ``pairs`` compares the two
        on identical work.  Returns the elapsed wall time.
        """
        started = time.perf_counter()
        deadline = started + seconds
        self.pairs: List[Tuple[float, float]] = []
        self.calibrated: List[float] = []
        calibrator = Calibrator() if tracer is None else None
        flip = False
        for order in self._passes():
            for key in order:
                if tracer is None:
                    self.calibrated.append(
                        calibrator.scale(self._timed(key, tally)))
                    continue
                flip = not flip
                plain = traced = 0.0
                for with_trace in ((True, False) if flip else (False, True)):
                    if with_trace:
                        patcher.apply()
                        traced = self._timed(key, tally, tracer)
                        patcher.restore()
                    else:
                        plain = self._timed(key, tally)
                self.pairs.append((plain, traced))
            if time.perf_counter() >= deadline:
                return time.perf_counter() - started

    def _timed(self, key: Any, tally: Tally,
               tracer: Optional[Tracer] = None) -> float:
        root = None
        if tracer is not None:
            root = tracer.open(OP)
            root.attrs["key"] = key
        start = time.perf_counter()
        try:
            result = self.op(key)
            error = None
        except Exception as exc:  # a failed op; the run goes on
            result, error = None, exc
        seconds = time.perf_counter() - start
        if root is not None:
            tracer.close(root)
        if error is not None:
            outcome = Outcome(False, "%s: %s" % (type(error).__name__, error))
        else:
            outcome = self.judge(key, result)
        tally.record(key, outcome, seconds)
        self.runs.append((key, seconds))
        return seconds

    def report(self, tally: Tally) -> Dict[str, Any]:
        """Workload-specific figures for the human-readable report."""
        return {}


def _cells() -> List[Tuple[Any, OptimizerOptions]]:
    cells = []
    for program in all_programs():
        for kind in KINDS:
            for scheme in TABLE2_SCHEMES:
                cells.append((program, OptimizerOptions(scheme, kind)))
            for scheme, mode in PRIMED:
                cells.append((program, OptimizerOptions(scheme, kind, mode)))
    for program in cross_call_programs():
        for kind in KINDS:
            for scheme in CROSS_CALL_SCHEMES:
                for inline in (False, True):
                    cells.append((program, OptimizerOptions(
                        scheme, kind, inline=inline)))
    return cells


class Matrix(KeyedWorkload):
    """Compile every Table 2/3 cell; nothing is translated or run."""

    name = "matrix"

    def setup(self, mark: Callable[[], None]) -> None:
        self.cache = FrontendCache()
        self.cells: Dict[Tuple[str, str], Tuple[str, OptimizerOptions]] = {}
        for program, options in _cells():
            mark()
            self.cache.frontend(program.source, inline=options.inline)
            if options.scheme is Scheme.LO:
                # LO places checks from an edge profile; train it once
                # here, on the small inputs, as the tables do per cell
                options = OptimizerOptions(
                    options.scheme, options.kind, options.implication,
                    # looked up on the module, so a traced run sees it
                    profile=profile.train_profile(
                        program.source, options, program.test_inputs,
                        cache=self.cache),
                    inline=options.inline)
            self.cells[(program.name, options.label())] = (program.source,
                                                          options)

    def keys(self) -> List[Any]:
        return sorted(self.cells)

    def op(self, key: Any) -> Any:
        source, options = self.cells[key]
        return compile_source(source, options, cache=self.cache)

    def judge(self, key: Any, program: Any) -> Outcome:
        try:
            verify_module(program.module)
        except ReproError as error:
            return Outcome(False, "ir.verify: %s" % error)
        stats = program.total_stats()
        return Outcome(True, det={
            "static_before": stats.checks_before,
            "static_after": stats.checks_after,
            "inserted": stats.inserted,
            "eliminated": stats.eliminated,
            "proved": stats.proved,
            "speculated": stats.speculated,
            "lospre_cuts": stats.lospre_cuts,
            "instructions": module_size(program.module),
        })

    def report(self, tally: Tally) -> Dict[str, Any]:
        before = sum(tally.first_det[key]["static_before"]
                     for key in self.keys() if key in tally.first_det)
        after = sum(tally.first_det[key]["static_after"]
                    for key in self.keys() if key in tally.first_det)
        removed = 100.0 * (before - after) / before if before else 0.0
        return {"matrix.checks_removed_pct": removed,
                "matrix.cells": len(self.cells)}


class Exec(KeyedWorkload):
    """Run the compiled registry programs on one engine."""

    #: engine name as the program's API spells it, per workload name
    ENGINES = {"exec-interp": "interp", "exec-threaded": "compiled",
               "exec-specialized": "specialized"}

    def __init__(self, seed: int, name: str) -> None:
        super().__init__(seed)
        self.name = name
        self.engine = self.ENGINES[name]

    def setup(self, mark: Callable[[], None]) -> None:
        cache = FrontendCache()
        self.programs: Dict[Tuple[str, str], Any] = {}
        self.inputs: Dict[str, Dict[str, int]] = {}
        self.expected: Dict[str, Expected] = {}
        self.optimized: Dict[Tuple[str, str], Optimized] = {}
        for program in all_programs() + cross_call_programs():
            self.inputs[program.name] = program.inputs
            with paused(self.patcher):
                self.expected[program.name] = naive_reference(
                    program.source, program.inputs)
            for options in EXEC_CONFIGS:
                mark()
                key = (program.name, options.label())
                compiled = compile_source(program.source, options,
                                          cache=cache)
                self.programs[key] = compiled
                with paused(self.patcher):
                    self.optimized[key] = Optimized.of(compiled,
                                                    program.inputs)
                if self.engine != "interp":
                    # translation happens once, here, as in a long-lived
                    # process; the timed runs reuse the translated module
                    self.op(key)

    def keys(self) -> List[Any]:
        return sorted(self.programs)

    def op(self, key: Any) -> Any:
        program = self.programs[key]
        inputs = self.inputs[key[0]]
        try:
            if self.engine == "interp":
                runtime = program.run(inputs)
            else:
                runtime = program.run_compiled(inputs, engine=self.engine)
            return runtime.counters, runtime.output, False
        except RangeTrap as trap:
            return trap.runtime.counters, trap.runtime.output, True

    def judge(self, key: Any, result: Any) -> Outcome:
        counters, output, trapped = result
        counts = parity(counters)
        reason = check_run(self.expected[key[0]], self.optimized[key],
                           output, trapped, counts)
        return Outcome(not reason, reason, det=counts)

    def report(self, tally: Tally) -> Dict[str, Any]:
        checks = sum(self.optimized[key].counters["checks"]
                     for key in self.keys())
        instructions = sum(self.optimized[key].counters["instructions"]
                           for key in self.keys())
        engine = self.name.split("-", 1)[1]
        executed = sum(self.optimized[key].counters["instructions"]
                       for key, _ in self.runs)
        busy = sum(seconds for _, seconds in self.runs)
        return {
            "exec.dyn_checks_per_kinstr": 1e3 * checks / instructions,
            # measured, not calibrated: a figure for the reader
            "exec.%s_minstr_per_s" % engine: executed / busy / 1e6,
        }


def make(name: str, seed: int) -> KeyedWorkload:
    if name == "matrix":
        return Matrix(seed)
    return Exec(seed, name)
