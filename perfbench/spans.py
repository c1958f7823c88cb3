"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent)``.  Each thread keeps its own
stack, so a wrapped call's parent is the innermost open span of the
thread that made it; work handed to another thread names its parent
explicitly through :meth:`Tracer.hand_off` / :meth:`Tracer.adopt`.
Spans are only kept in memory while the benchmark runs and are written
out once, at exit.

Kept free of any ``repro`` import so its tests run without the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One timed call.  ``attrs`` holds counts taken at the boundary."""

    __slots__ = ("sid", "name", "start", "end", "parent", "attrs")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "attrs": self.attrs}


class Tracer:
    """Records spans; thread-safe for concurrent writers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._handoffs: Dict[object, List[Tuple[int, float, object]]] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[int] = None) -> Span:
        """Start a span under ``parent`` (default: this thread's
        innermost open span)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(len(self.spans), name, self.clock(), parent)
            self.spans.append(span)
        stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == span.sid:
            stack.pop()
        elif span.sid in stack:
            stack.remove(span.sid)

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def hand_off(self, token: object, keep: object = None) -> None:
        """Make this thread's current span the parent of the next
        :meth:`adopt` of ``token`` on any thread.  ``keep`` is held
        until then: when the token is an ``id()``, holding its object
        stops the id from being reused by another one meanwhile."""
        current = self.current()
        if current is not None:
            with self._lock:
                self._handoffs.setdefault(token, []).append(
                    (current, self.clock(), keep))

    def adopt(self, token: object) -> Optional[Tuple[int, float]]:
        """``(parent span id, hand-off time)`` for ``token``, oldest
        first, or ``None`` when nothing was handed off under it."""
        with self._lock:
            queue = self._handoffs.get(token)
            if not queue:
                return None
            parent, handed_at, _ = queue.pop(0)
            if not queue:
                del self._handoffs[token]
            return parent, handed_at

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children (work on several threads) count once.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()),
                            key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = max(0.0, span.seconds - covered)
    return result


def op_trees(spans: Iterable[Span], root_name: str
             ) -> Dict[int, List[Span]]:
    """Every span under each ``root_name`` span, keyed by root id.

    The root itself is not in its list; spans under no root (set-up
    work, checks the benchmark makes between ops) are left out.
    """
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    root_of: Dict[int, Optional[int]] = {}

    def find(sid: int) -> Optional[int]:
        path = []
        while sid not in root_of:
            span = by_id[sid]
            if span.name == root_name:
                root_of[sid] = sid
                break
            if span.parent is None or span.parent not in by_id:
                root_of[sid] = None
                break
            path.append(sid)
            sid = span.parent
        found = root_of[sid]
        for step in path:
            root_of[step] = found
        return found

    trees: Dict[int, List[Span]] = {}
    for span in spans:
        if span.name == root_name:
            trees.setdefault(span.sid, [])
            continue
        root = find(span.sid)
        if root is not None:
            trees.setdefault(root, []).append(span)
    return trees


def coverage(spans: Iterable[Span], root_name: str) -> float:
    """Summed self time of the layer spans under each op root over the
    ops' summed wall time: the share of op time the named layers
    account for (1.0 when nothing unnamed runs between them)."""
    spans = list(spans)
    selfs = self_times(spans)
    by_id = {span.sid: span for span in spans}
    covered = wall = 0.0
    for root, members in op_trees(spans, root_name).items():
        wall += by_id[root].seconds
        covered += sum(selfs[member.sid] for member in members)
    return covered / wall if wall else 0.0


class Patcher:
    """Replaces functions by wrappers everywhere the program bound them.

    A ``from x import f`` copies ``f`` into the importing module, so a
    function is replaced in its home module *and* in every loaded
    module of ``package`` that holds the same object under that name.
    :meth:`restore` puts every original back and :meth:`apply` the
    wrappers again, cheaply enough to toggle between two ops.
    """

    _MISSING = object()

    def __init__(self, package: str) -> None:
        self.package = package
        #: (owner, attr, original or _MISSING, wrapper)
        self._bindings: List[Tuple[Any, str, Any, Any]] = []
        self.applied = False

    def _bind(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner).get(attr, self._MISSING)
        self._bindings.append((owner, attr, original, value))
        setattr(owner, attr, value)
        self.applied = True

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        self._bind(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is None or module is owner or not (
                    name == self.package or name.startswith(prefix)):
                continue
            if vars(module).get(attr) is original:
                self._bind(module, attr, wrapper)

    def shadow(self, module: Any, attr: str, value: Any) -> None:
        """Bind ``attr`` in ``module``'s globals (shadowing a builtin)."""
        self._bind(module, attr, value)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            if original is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.applied = False

    def apply(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self.applied = True


@contextlib.contextmanager
def paused(patcher: Optional[Patcher]):
    """Run the block with the wrappers removed (work the benchmark does
    for itself, such as reference runs, is not the program's)."""
    active = patcher is not None and patcher.applied
    if active:
        patcher.restore()
    try:
        yield
    finally:
        if active:
            patcher.apply()
