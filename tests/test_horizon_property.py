"""Property tests for horizon planning: no boundary is ever skipped.

:func:`repro.serving.chunked.plan_decode_horizon` decides how many
decode steps commit in one vectorized update.  Its contract: a step may
*start* only strictly before the ``advance_to`` bound and the next
pending arrival, and must *end* strictly before the next scheduled
fault — and the plan must be maximal, never stopping early.  SLO
demotions and KV reservations cannot move during a horizon run (the
fast path requires an empty queue, and decode releases KV only at
completions, which bound the horizon via ``max_steps``), so arrivals,
faults, and the time bound are the complete set of external boundaries;
the end-to-end sweep at the bottom closes the loop on the internal ones
(completions and context-bucket crossings) by asserting bit-identity on
random workloads.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.device_presets import get_device
from repro.llm.config import get_model
from repro.serving.chunked import (
    ServeEngine,
    WaferServer,
    plan_decode_horizon,
    plan_decode_run,
)
from repro.serving.trace import synthetic_trace

times_s = st.floats(min_value=0.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False)
bounds_s = st.one_of(st.just(math.inf), times_s)
steps_s = st.floats(min_value=1e-6, max_value=0.5,
                    allow_nan=False, allow_infinity=False)


class TestPlanDecodeHorizon:
    @given(now=times_s, step=steps_s, max_steps=st.integers(1, 200),
           until=bounds_s, arrival=bounds_s, fault=bounds_s)
    @settings(max_examples=300, deadline=None)
    def test_no_boundary_skipped_and_plan_maximal(
        self, now, step, max_steps, until, arrival, fault
    ):
        k, times = plan_decode_horizon(now, step, max_steps, until,
                                       arrival, fault)
        assert 0 <= k <= max_steps
        assert times.shape == (max_steps + 1,)
        assert times[0] == now
        start_bound = min(until, arrival)
        # Every committed step starts strictly before the time bound and
        # the next arrival, and ends strictly before the next fault.
        for j in range(k):
            assert times[j] < start_bound
            assert times[j + 1] < fault
        # Maximality: when the plan stops short of max_steps, committing
        # one more step would cross a boundary.
        if k < max_steps:
            assert times[k] >= start_bound or times[k + 1] >= fault

    @given(now=times_s, step=steps_s, max_steps=st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_unbounded_plan_commits_everything(self, now, step, max_steps):
        k, times = plan_decode_horizon(now, step, max_steps,
                                       math.inf, math.inf, math.inf)
        assert k == max_steps
        # The prefix sums are the reference loop's accumulation order.
        expected = now
        for j in range(1, k + 1):
            expected += step
            assert times[j] == expected

    @given(now=times_s, step=steps_s, max_steps=st.integers(1, 50),
           until=bounds_s, arrival=bounds_s, fault=bounds_s)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference_walk(
        self, now, step, max_steps, until, arrival, fault
    ):
        """The vectorized plan equals a per-step reference simulation."""
        k, times = plan_decode_horizon(now, step, max_steps, until,
                                       arrival, fault)
        clock, ref_k = np.float64(now), 0
        while ref_k < max_steps:
            if not (clock < min(until, arrival)):   # step may not start
                break
            end = clock + np.float64(step)
            if not (end < fault):                   # fault strikes step
                break
            clock, ref_k = end, ref_k + 1
        assert k == ref_k
        if k:
            assert times[k] == clock


segments_st = st.lists(
    st.tuples(steps_s, st.integers(min_value=1, max_value=40)),
    min_size=1, max_size=6,
)


def _scalar_walk(now, durations, until, arrival, fault):
    """Reference stepping over per-step durations: (k, clock after k)."""
    clock, k = now, 0
    for duration in durations:
        if not clock < min(until, arrival):     # step may not start
            break
        end = clock + duration
        if not end < fault:                     # fault strikes step
            break
        clock, k = end, k + 1
    return k, clock


class TestPiecewiseConstantDurations:
    """A run crossing context buckets has one duration per bucket."""

    @given(now=times_s, segments=segments_st, until=bounds_s,
           arrival=bounds_s, fault=bounds_s)
    @settings(max_examples=300, deadline=None)
    def test_array_plan_matches_scalar_walk_and_is_maximal(
        self, now, segments, until, arrival, fault
    ):
        durations = [d for d, count in segments for _ in range(count)]
        max_steps = len(durations)
        k, times = plan_decode_horizon(
            now, np.array(durations), max_steps, until, arrival, fault)
        assert (k, times[k]) == _scalar_walk(now, durations, until,
                                             arrival, fault)
        clock = now
        for j, duration in enumerate(durations):
            clock += duration
            assert times[j + 1] == clock
        if k < max_steps:
            assert times[k] >= min(until, arrival) or times[k + 1] >= fault

    @given(now=times_s, segments=segments_st, until=bounds_s,
           arrival=bounds_s, fault=bounds_s)
    @settings(max_examples=300, deadline=None)
    def test_chained_segments_equal_one_plan_and_draw_lazily(
        self, now, segments, until, arrival, fault
    ):
        durations = [d for d, count in segments for _ in range(count)]
        drawn = []

        def lazily():
            for segment in segments:
                drawn.append(segment)
                yield segment

        plan, end = plan_decode_run(now, lazily(), until, arrival, fault)
        k = sum(steps for _, _, steps in plan)
        assert (k, end) == _scalar_walk(now, durations, until, arrival,
                                        fault)
        # Each planned segment starts where the previous one ended.
        clock = now
        for start, duration, steps in plan:
            assert start == clock
            for _ in range(steps):
                clock += duration
        # A segment is drawn exactly when the one before it fully
        # committed and its own first step may still start.
        clock, expected = now, 0
        for duration, count in segments:
            expected += 1
            taken, clock = _scalar_walk(clock, [duration] * count, until,
                                        arrival, fault)
            if taken < count or not clock < min(until, arrival):
                break
        assert len(drawn) == expected


class TestRandomWorkloadEquivalence:
    """Random schedules end to end: horizon on == horizon off, exactly."""

    DEVICE = get_device("ipu-like-crossbar")
    MODEL = get_model("tiny-gqa")

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 10),
           mode=st.sampled_from(["chunked", "exclusive"]),
           interarrival=st.sampled_from([0.0, 0.001, 0.01]))
    @settings(max_examples=25, deadline=None)
    def test_metrics_bit_identical(self, seed, n, mode, interarrival):
        trace = synthetic_trace(
            n, seed=seed, mean_interarrival_s=interarrival,
            seq_in_range=(32, 256), seq_out_range=(8, 96),
            ttft_slo_s=5.0, tpot_slo_s=0.5,
        )

        def run(horizon):
            server = WaferServer(
                self.MODEL, self.DEVICE, mode=mode, chunk_tokens=64,
                default_context_len=512,
            )
            return ServeEngine(server, trace, horizon=horizon).run()

        assert run(True) == run(False)
