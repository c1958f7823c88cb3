"""The percentile rule and op accounting of the benchmark."""

import random

import pytest

from benchstats import (MIN_BEYOND, Outcome, Tally, beta_cdf, beyond,
                        percentile, qualifies, smoothed_percentile,
                        tail_percentile)


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 90.0) == 90
    assert percentile(samples, 100.0) == 100
    assert percentile([7.0], 90.0) == 7.0
    assert percentile([3, 1, 2], 50.0) == 2


def test_percentile_needs_samples():
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_samples_beyond_a_percentile():
    assert beyond(100, 90.0) == 10
    assert beyond(99, 90.0) == 9
    assert beyond(1000, 99.0) == 10
    assert beyond(1, 50.0) == 0


def test_p90_needs_ten_samples_beyond_it():
    assert not qualifies(99, 90.0)
    assert qualifies(100, 90.0)
    assert not qualifies(0, 50.0)
    assert MIN_BEYOND == 10


def test_tail_is_the_highest_qualifying_percentile():
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10000)))[0] == 99.9
    samples = list(range(1, 41))
    pct, value, past = tail_percentile(samples)
    assert (pct, past) == (75.0, 10)
    assert value == smoothed_percentile(samples, 75.0)
    assert tail_percentile(list(range(39))) is None


def test_beta_cdf_closed_forms():
    for x in (0.1, 0.5, 0.93):
        assert beta_cdf(1.0, 1.0, x) == pytest.approx(x)
        assert beta_cdf(3.0, 1.0, x) == pytest.approx(x ** 3)
        assert beta_cdf(1.0, 4.0, x) == pytest.approx(1 - (1 - x) ** 4)
        assert beta_cdf(2.5, 7.0, x) + beta_cdf(7.0, 2.5, 1 - x) \
            == pytest.approx(1.0)
    assert beta_cdf(5.0, 5.0, 0.0) == 0.0
    assert beta_cdf(5.0, 5.0, 1.0) == 1.0
    assert beta_cdf(5.0, 5.0, 0.5) == pytest.approx(0.5)


def test_smoothed_percentile_of_simple_samples():
    assert smoothed_percentile([7.0], 90.0) == pytest.approx(7.0)
    assert smoothed_percentile([3, 1, 2], 50.0) == pytest.approx(2.0)
    assert smoothed_percentile([5.0] * 20, 90.0) == pytest.approx(5.0)
    samples = list(range(1, 102))
    assert smoothed_percentile(samples, 50.0) == pytest.approx(51.0)
    assert 89.0 < smoothed_percentile(samples, 90.0) < 92.0


def test_smoothed_percentile_needs_samples_inside_the_range():
    with pytest.raises(ValueError):
        smoothed_percentile([], 50.0)
    for pct in (0.0, 100.0):
        with pytest.raises(ValueError):
            smoothed_percentile([1.0, 2.0], pct)


def test_smoothed_percentile_steps_less_than_the_nearest_rank():
    # latencies on a 4 ms grid: one request crossing a tick moves the
    # nearest-rank p90 by the whole tick
    before = [80.0] * 90 + [84.0] * 10
    after = [80.0] * 89 + [84.0] * 11
    assert percentile(after, 90.0) - percentile(before, 90.0) == 4.0
    step = smoothed_percentile(after, 90.0) - smoothed_percentile(before,
                                                                  90.0)
    assert 0.0 < step < 1.0


def test_smoothed_percentile_agrees_with_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    rng = random.Random(5)
    for count in (2, 9, 150, 2000):
        samples = [rng.expovariate(1.0) for _ in range(count)]
        for pct in (50.0, 90.0):
            expected = float(mstats.hdquantiles(samples,
                                                prob=[pct / 100.0])[0])
            assert smoothed_percentile(samples, pct) == pytest.approx(
                expected, rel=1e-9)


def test_failed_share_counts_failures_against_attempts():
    tally = Tally()
    tally.record("a", Outcome(True), 0.1)
    tally.record("b", Outcome(False, "output differs"), 0.2)
    tally.record("c", Outcome(True), 0.1)
    tally.record("d", Outcome(False, "output differs"), 0.2)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_share == 0.5
    assert tally.reasons == {"output differs": 2}


def test_failures_outside_the_loop_count_as_attempts():
    tally = Tally()
    tally.record("a", Outcome(True), 0.1)
    tally.fail("set-up: reference run failed")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.by_class == {"": [0.1]}


def test_drifting_counters_fail_the_repeat():
    tally = Tally()
    assert tally.record("k", Outcome(True, det={"checks": 3}), 0.1)
    assert tally.record("k", Outcome(True, det={"checks": 3}), 0.1)
    assert not tally.record("k", Outcome(True, det={"checks": 4}), 0.1)
    assert tally.failed == 1
    assert tally.first_det["k"] == {"checks": 3}


def test_merge_adds_segments():
    first, second = Tally(), Tally()
    first.record("a", Outcome(True, cls="warm"), 0.1)
    second.record("b", Outcome(False, "x", cls="cold"), 0.3)
    first.merge(second)
    assert (first.attempted, first.failed) == (2, 1)
    assert first.by_class == {"warm": [0.1], "cold": [0.3]}
