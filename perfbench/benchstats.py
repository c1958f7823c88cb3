"""Arithmetic the benchmark reports with: percentiles and op accounting.

Kept free of any ``repro`` import so its tests run without the program.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_CANDIDATES: Tuple[float, ...] = (99.9, 99.0, 90.0, 75.0)

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would make the figure one or two outliers.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    return max(1, math.ceil(round(pct / 100.0 * count, 6)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 100000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return result


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def smoothed_percentile(samples: Sequence[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A weighted mean of all order statistics, the weights a Beta
    distribution centred on the percentile's rank.  Unlike the nearest
    rank it does not jump from one sample to the next as the samples
    move: service latencies sit on a grid of timer ticks, and a nearest
    rank there changes by a whole tick when one request crosses it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct < 100.0:
        raise ValueError("percentile %g outside (0, 100)" % pct)
    ordered = sorted(samples)
    count = len(ordered)
    a = pct / 100.0 * (count + 1)
    b = (1.0 - pct / 100.0) * (count + 1)
    total, below = 0.0, 0.0
    for index, value in enumerate(ordered, start=1):
        upto = beta_cdf(a, b, index / count)
        total += (upto - below) * value
        below = upto
    return total


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``pct`` percentile."""
    return count - _rank(count, pct)


def qualifies(count: int, pct: float) -> bool:
    """True when ``count`` samples give ``pct`` at least
    :data:`MIN_BEYOND` samples beyond it."""
    return count > 0 and beyond(count, pct) >= MIN_BEYOND


def tail_percentile(samples: Sequence[float],
                    candidates: Iterable[float] = TAIL_CANDIDATES
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest candidate percentile with at least
    :data:`MIN_BEYOND` samples beyond it, as ``(pct, value, beyond)``;
    ``None`` when even the lowest candidate does not qualify."""
    for pct in sorted(candidates, reverse=True):
        if qualifies(len(samples), pct):
            return (pct, smoothed_percentile(samples, pct),
                    beyond(len(samples), pct))
    return None


def describe_latency(samples_s: Sequence[float]) -> str:
    """``p50 X ms, pNN Y ms (n=N, M beyond)`` for a human-readable line."""
    if not samples_s:
        return "no samples"
    text = "p50 %.3f ms" % (smoothed_percentile(samples_s, 50.0) * 1e3)
    tail = tail_percentile(samples_s)
    if tail is not None:
        pct, value, past = tail
        text += ", p%g %.3f ms" % (pct, value * 1e3)
        return text + " (n=%d, %d beyond)" % (len(samples_s), past)
    return text + " (n=%d, too few for a tail)" % len(samples_s)


class Outcome:
    """What one timed operation produced.

    ``ok`` is False when the op raised or disagreed with its
    reference.  An *expected* trap or an *expected* 4xx is a correct
    outcome, so it stays ``ok``.  ``det`` holds the op's deterministic
    observables (counters, static counts); the same key must always
    yield the same ``det``.
    """

    __slots__ = ("ok", "reason", "det", "cls")

    def __init__(self, ok: bool, reason: str = "",
                 det: Optional[Dict[str, object]] = None,
                 cls: str = "") -> None:
        self.ok = ok
        self.reason = reason
        self.det = det
        self.cls = cls


class Tally:
    """Counts ops attempted and failed, and checks ``det`` drift.

    ``record`` compares every repeat of a key against the first
    ``det`` seen for it; a difference is a failure of that op.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self.first_det: Dict[object, Dict[str, object]] = {}
        self.by_class: Dict[str, List[float]] = {}

    def record(self, key: object, outcome: Outcome,
               seconds: float) -> bool:
        """Account one op; returns whether it counted as correct."""
        self.attempted += 1
        ok, reason = outcome.ok, outcome.reason
        if ok and outcome.det is not None:
            seen = self.first_det.setdefault(key, outcome.det)
            if seen != outcome.det:
                ok, reason = False, "deterministic counters drifted"
        if not ok:
            self.failed += 1
            reason = reason or "failed"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.by_class.setdefault(outcome.cls, []).append(seconds)
        return ok

    def fail(self, reason: str) -> None:
        """A failure found outside the timed ops (set-up, self-checks).

        It counts as one attempted and failed op so that a clean
        timed loop cannot hide it."""
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Tally") -> None:
        """Add another tally's ops (one segment of a longer run)."""
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count
        for key, det in other.first_det.items():
            self.first_det.setdefault(key, det)
        for cls, samples in other.by_class.items():
            self.by_class.setdefault(cls, []).extend(samples)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_kib(pid: Any = "self") -> int:
    """Peak resident set size (VmHWM) of one process, in KiB."""
    try:
        with open("/proc/%s/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0

