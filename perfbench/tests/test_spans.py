"""Self time, op trees and coverage computed from recorded spans."""

import sys
import threading
import types

import pytest

from spans import Patcher, Span, Tracer, coverage, op_trees, paused, \
    self_times


def span(sid, name, start, end, parent=None):
    record = Span(sid, name, start, parent)
    record.end = end
    return record


def test_self_time_subtracts_nested_children():
    spans = [span(0, "op", 0.0, 10.0),
             span(1, "a", 1.0, 4.0, 0),
             span(2, "b", 5.0, 9.0, 0),
             span(3, "c", 2.0, 3.0, 1)]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    spans = [span(0, "op", 0.0, 10.0),
             span(1, "a", 1.0, 6.0, 0),
             span(2, "b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    spans = [span(0, "submit", 0.0, 1.0),
             span(1, "worker", 0.5, 3.0, 0)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(0.5)
    assert selfs[1] == pytest.approx(2.5)


def test_op_trees_and_coverage():
    spans = [span(0, "setup", 0.0, 1.0),
             span(1, "parse", 0.2, 0.8, 0),
             span(2, "op", 2.0, 6.0),
             span(3, "parse", 2.0, 3.0, 2),
             span(4, "lower", 3.0, 5.0, 2),
             span(5, "ssa", 3.5, 4.0, 4),
             span(6, "verify", 7.0, 8.0)]
    trees = op_trees(spans, "op")
    assert {root: [s.sid for s in members]
            for root, members in trees.items()} == {2: [3, 4, 5]}
    assert coverage(spans, "op") == pytest.approx(3.0 / 4.0)


def test_tracer_nests_per_thread_and_hands_off():
    tracer = Tracer()
    root = tracer.open("op")
    inner = tracer.open("layer")
    tracer.hand_off("job")
    tracer.close(inner)
    tracer.close(root)
    assert inner.parent == root.sid
    seen = []

    def worker():
        handed = tracer.adopt("job")
        work = tracer.open("worker", handed[0])
        tracer.close(work)
        seen.append(work)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen[0].parent == inner.sid
    assert tracer.adopt("job") is None


def test_patcher_replaces_every_binding_and_restores():
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def original():
        return "original"

    home.f = original
    user.f = original
    sys.modules["fakepkg.home"] = home
    sys.modules["fakepkg.user"] = user
    try:
        patcher = Patcher("fakepkg")
        patcher.replace(home, "f", lambda fn: lambda: "wrapped " + fn())
        assert home.f() == user.f() == "wrapped original"
        with paused(patcher):
            assert user.f() == "original"
        assert user.f() == "wrapped original"
        patcher.restore()
        assert home.f is original and user.f is original
        patcher.apply()
        assert user.f() == "wrapped original"
        patcher.restore()
        patcher.shadow(home, "compile", len)
        assert home.compile is len
        patcher.restore()
        assert not hasattr(home, "compile")
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]
