"""Property test: the counted-baseline watchdog replays the list watchdog.

:class:`~repro.serving.health.HealthMonitor` keeps each per-kind
baseline as a counted multiset of distinct durations and reads its
median in O(1) through a cursor.  The contract is that
this is invisible: on any feed of durations — ties, mixed step kinds,
single steps interleaved with equal-duration runs — the trips, every log
entry and its threshold text equal those of a monitor that appends to
an insertion-order list and calls :func:`statistics.median` per step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.serving.health import FaultLogEntry, HealthMonitor


class _ReferenceMonitor:
    """The watchdog spelled out step by step over insertion-order lists."""

    def __init__(self, watchdog_factor: float, min_samples: int):
        self.watchdog_factor = watchdog_factor
        self.min_samples = min_samples
        self.watchdog_trips = 0
        self.log: List[FaultLogEntry] = []
        self._durations: Dict[str, List[float]] = {}

    def observe_step(self, at_s: float, duration_s: float,
                     kind: str = "step") -> bool:
        baseline = self._durations.setdefault(kind, [])
        if len(baseline) >= self.min_samples:
            threshold = self.watchdog_factor * statistics.median(baseline)
            if duration_s > threshold:
                self.watchdog_trips += 1
                self.log.append(FaultLogEntry(
                    at_s=at_s, kind="watchdog", action="watchdog",
                    detail=(
                        f"{kind} step took {duration_s:.3e}s against a "
                        f"{threshold:.3e}s watchdog threshold"
                    ),
                ))
                return True
        baseline.append(duration_s)
        return False


#: A small pool of durations so ties are common; the outliers trip.
durations = st.sampled_from(
    [1e-3, 1e-3, 2e-3, 2.5e-3, 3e-3, 0.0, 0.05, 0.2, 1.0]
) | st.floats(min_value=0.0, max_value=2.0,
              allow_nan=False, allow_infinity=False)

single = st.tuples(st.just("one"), st.sampled_from(["decode", "prefill"]),
                   durations, st.just(1))
run = st.tuples(st.just("run"), st.sampled_from(["decode", "prefill"]),
                durations, st.integers(min_value=0, max_value=12))
feeds = st.lists(st.one_of(single, run), max_size=60)


class TestSortedBaselineWatchdog:
    @given(feed=feeds, factor=st.sampled_from([1.5, 4.0, 20.0]),
           min_samples=st.integers(min_value=1, max_value=9))
    @settings(max_examples=300, deadline=None)
    def test_matches_statistics_median_reference(self, feed, factor,
                                                 min_samples):
        monitor = HealthMonitor(watchdog_factor=factor,
                                min_samples=min_samples,
                                max_log_entries=None)
        reference = _ReferenceMonitor(factor, min_samples)
        now = 0.0
        for op, kind, duration, count in feed:
            starts = [now + 0.5 * j for j in range(count)]
            now += 0.5 * count + 0.25
            if op == "one":
                tripped = monitor.observe_step(starts[0], duration, kind)
                assert tripped == reference.observe_step(
                    starts[0], duration, kind)
            else:
                trips = monitor.observe_steps(starts, duration, kind)
                assert trips == sum(
                    reference.observe_step(at, duration, kind)
                    for at in starts
                )
        assert monitor.watchdog_trips == reference.watchdog_trips
        assert list(monitor.log) == reference.log
        for kind, values in reference._durations.items():
            baseline = monitor._baselines[kind]
            expanded = [value for value, count
                        in zip(baseline.values, baseline.counts)
                        for _ in range(count)]
            assert expanded == sorted(values)
