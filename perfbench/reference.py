"""Reference results every timed op is checked against.

The reference output of a program is an interpreter run of its
*unoptimized* module with naive checks: no check optimizer and no
back-end is involved, so it is independent of everything the
benchmark times.  Dynamic counters cannot come from that module (the
optimizer exists to change them); the expected counters of an
optimized program are those of an interpreter run of that same
optimized module (:class:`Optimized`), which the back-ends must match
on every ``BENCH_PARITY_FIELDS`` counter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.benchsuite.runner import BENCH_PARITY_FIELDS
from repro.errors import RangeTrap
from repro.pipeline import compile_source

#: Step budget for reference and timed runs alike (the service's).
MAX_STEPS = 50_000_000


class Expected:
    """What a correct run of one program at one input must show."""

    __slots__ = ("output", "trapped")

    def __init__(self, output: List[Any], trapped: bool) -> None:
        self.output = output
        self.trapped = trapped


def _run(program, inputs: Mapping[str, Any]) -> Tuple[Any, List[Any], bool]:
    try:
        machine = program.run(inputs, max_steps=MAX_STEPS)
        return machine.counters, list(machine.output), False
    except RangeTrap as trap:
        runtime = trap.runtime
        return runtime.counters, list(runtime.output), True


def naive_reference(source: str, inputs: Mapping[str, Any]) -> Expected:
    """Output and trap flag of the unoptimized naive-check module."""
    _, output, trapped = _run(compile_source(source, optimize=False), inputs)
    return Expected(output, trapped)


def parity(counters: Any) -> Dict[str, int]:
    """The counters every engine must agree on."""
    return {field: getattr(counters, field) for field in BENCH_PARITY_FIELDS}


class Optimized:
    """An interpreter run of an optimized module: what every engine
    running that module must reproduce."""

    __slots__ = ("output", "trapped", "counters")

    def __init__(self, output: List[Any], trapped: bool,
                 counters: Dict[str, int]) -> None:
        self.output = output
        self.trapped = trapped
        self.counters = counters

    @classmethod
    def of(cls, program, inputs: Mapping[str, Any]) -> "Optimized":
        counters, output, trapped = _run(program, inputs)
        return cls(output, trapped, parity(counters))


def check_run(naive: Expected, optimized: Optimized, output: List[Any],
              trapped: bool, counters: Dict[str, int]) -> str:
    """Empty when a run matches its references, else the reason."""
    if trapped != naive.trapped:
        return "trap flag differs from the reference"
    if not trapped:
        if list(output) != naive.output:
            return "output differs from the reference"
        if counters != optimized.counters:
            return "parity counters differ from the reference"
        return ""
    # A hoisted check may trap before output the naive program printed,
    # and the back-ends charge a block's checks on entry, so a trapped
    # run must print what the interpreter printed up to the same trap
    # (a prefix of the naive output) and its counters are not compared,
    # as in repro.fuzz.oracle.
    if list(output) != optimized.output or \
            naive.output[:len(optimized.output)] != optimized.output:
        return "output before the trap differs from the reference"
    return ""

