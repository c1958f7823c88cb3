"""A machine-speed probe that brackets every timed op.

The machine this benchmark runs on is shared: the same pure-Python
loop runs up to a third slower for seconds at a time while other work
holds the core.  A fixed piece of pure-Python work (:data:`PROBES`)
is timed right before and right after each op, and between the steps
of set-up.  An op's *calibrated* time is its measured time scaled by
``REFERENCE_PROBE_S / (mean of the two probes)``: what the op would
have taken on a machine running the probe in ``REFERENCE_PROBE_S``.
On a quiet machine the two times agree; under load the calibrated
one stays put while the measured one moves.

The probe shares no code with the program, so a change to the
program moves the calibrated figures exactly as it moves the op.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

#: A fixed probe time that calibrated figures are scaled to (seconds):
#: about what :func:`probe` takes on the 2.1 GHz cores the bounds in
#: BENCHMARK.json were set on, so calibrated and measured times are
#: of the same size there.
REFERENCE_PROBE_S = 120e-6


class _Node:
    __slots__ = ("name", "kids", "value")

    def __init__(self, name: str, value: int) -> None:
        self.name = name
        self.kids: List["_Node"] = []
        self.value = value


def _graph() -> int:
    """Objects and strings: build, walk and sort a small graph."""
    nodes = [_Node("n%d" % index, index) for index in range(120)]
    for index in range(1, len(nodes)):
        nodes[(index * 7) % index].kids.append(nodes[index])
    seen = {}
    stack = [nodes[0]]
    total = 0
    while stack:
        node = stack.pop()
        if node.name in seen:
            continue
        seen[node.name] = node.value
        total += node.value if isinstance(node.value, int) else 0
        stack.extend(node.kids)
    order = sorted(seen.items(), key=lambda item: (item[1] % 7, item[0]))
    return total + len(order)


def _arithmetic() -> int:
    """Integer arithmetic and small-dict stores in a tight loop."""
    total = 0
    table = {}
    for index in range(1500):
        total += index * index
        table[index & 63] = total
    return total


_OPS = {"add": lambda a, b: a + b, "mul": lambda a, b: (a * b) & 0xFFFF,
        "sub": lambda a, b: a - b}
_CODE = [("add", "x", "y", "x"), ("mul", "x", "y", "z"),
         ("sub", "z", "x", "y"), ("add", "y", "z", "x")] * 8


def _dispatch() -> int:
    """A register machine: table dispatch through small functions."""
    registers = {"x": 1, "y": 2, "z": 3}
    for _ in range(12):
        for op, left, right, target in _CODE:
            registers[target] = _OPS[op](registers[left], registers[right])
    return registers["x"]


#: Each kind of work slows differently under load; the compiler, the
#: interpreter and the back-ends each track one of them best, and the
#: geometric mean of the three tracks all of them.
PROBES: Tuple[Callable[[], int], ...] = (_graph, _arithmetic, _dispatch)


def probe_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    """Geometric mean of the three probes' times (seconds)."""
    product = 1.0
    for work in PROBES:
        start = clock()
        work()
        product *= clock() - start
    return product ** (1.0 / len(PROBES))


class Calibrator:
    """Scales op times by the probe times measured around each op.

    The probe after one op is the probe before the next, so each op
    costs one probe.
    """

    def __init__(self) -> None:
        self.last = probe_seconds()

    def scale(self, seconds: float) -> float:
        """Calibrated ``seconds`` of the op that just ended."""
        after = probe_seconds()
        factor = REFERENCE_PROBE_S / ((self.last + after) / 2.0)
        self.last = after
        return seconds * factor


class SetupClock:
    """Calibrated time of one long block, cut into segments at marks.

    A probe runs at every :meth:`mark`; each segment is scaled by the
    probes at its two ends, and the probes' own time is left out.
    """

    def __init__(self) -> None:
        self.calibrated = 0.0
        self._calibrator = Calibrator()
        self._since = time.perf_counter()

    def mark(self, unscaled: float = 0.0) -> float:
        """End a segment and return its calibrated seconds.  The last
        ``unscaled`` seconds of it waited on something no machine speed
        changes (a network timer) and are kept as measured."""
        seconds = time.perf_counter() - self._since
        segment = self._calibrator.scale(seconds - unscaled) + unscaled
        self.calibrated += segment
        self._since = time.perf_counter()
        return segment
