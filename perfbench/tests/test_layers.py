"""Per-layer figures formed from spans."""

import pytest

from layers import OP, SETUP, layer_metrics
from spans import Span


def span(sid, name, start, end, parent=None, **attrs):
    record = Span(sid, name, start, parent)
    record.end = end
    record.attrs.update(attrs)
    return record


def spans():
    return [
        span(0, SETUP, 0.0, 1.0),
        span(1, "ssa.construct", 0.1, 0.2, 0, instrs=5),
        span(2, "pipeline.profile_train", 0.3, 0.5, 0),
        span(3, OP, 2.0, 3.0, key="a"),
        span(4, "checks.optimize", 2.0, 2.8, 3, static_before=10,
             static_after=2),
        span(5, "analysis.refresh", 2.1, 2.5, 4),
        span(6, OP, 4.0, 5.0, key="a"),
        span(7, "checks.optimize", 4.0, 4.8, 6, static_before=10,
             static_after=2),
        span(8, "analysis.refresh", 4.1, 4.5, 7),
        span(9, OP, 6.0, 6.5, key="b"),
        span(10, "checks.optimize", 6.0, 6.4, 9, static_before=4,
             static_after=1),
        # outside every op and the set-up: not counted
        span(11, "checks.optimize", 7.0, 8.0, static_before=99),
    ]


def test_counters_count_each_key_once_plus_setup():
    metrics = layer_metrics(spans(), canonical=True)
    assert metrics["checks.static_before"] == 14
    assert metrics["checks.static_after"] == 3
    assert metrics["ir.instrs_ssa"] == 5


def test_counters_are_means_per_op_when_keys_do_not_repeat():
    metrics = layer_metrics(spans(), canonical=False)
    assert metrics["checks.static_before"] == pytest.approx(24 / 3)


def test_layer_ms_is_self_time_per_op():
    metrics = layer_metrics(spans(), canonical=True)
    assert metrics["analysis.refresh_ms"] == pytest.approx(800 / 3)
    assert metrics["checks.optimize_ms"] == pytest.approx(1200 / 3)
    assert metrics["pipeline.profile_train_ms"] == pytest.approx(200)


def test_a_key_whose_counters_change_is_reported():
    from layers import drifted_keys

    assert drifted_keys(spans()) == []
    changed = spans()
    changed[7].attrs["static_before"] = 11
    assert drifted_keys(changed) == ["a"]
