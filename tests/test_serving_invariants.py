"""Invariants of the chunked-prefill serving loop.

Each test serves a seeded trace and checks a property that must hold on
*every* schedule: request conservation, the KV budget, monotone
per-request timelines, priority ordering under contention, and
bit-for-bit determinism.  Both modes are covered — the invariants are
mode-independent even though the schedules differ.
"""

from __future__ import annotations

import pytest

from repro.core import WSE2
from repro.llm import LLAMA3_8B
from repro.mesh import FaultInjector
from repro.serving import Request, WaferServer, compare_modes, synthetic_trace

MODES = ("chunked", "exclusive")


def _trace(**overrides):
    spec = dict(
        num_requests=12, seed=99, mean_interarrival_s=0.02,
        seq_in_range=(128, 1024), seq_out_range=(16, 64),
        ttft_slo_s=1.0, tpot_slo_s=0.05,
    )
    spec.update(overrides)
    return synthetic_trace(**spec)


def _serve(mode, requests, **kwargs):
    server = WaferServer(LLAMA3_8B, WSE2, mode=mode, max_batch=8, **kwargs)
    return server.serve(requests)


class TestConservation:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_request_accounted_for(self, mode):
        requests = _trace()
        metrics = _serve(mode, requests)
        # The loop only returns once nothing is in flight, so
        # submitted = finished + rejected exactly.
        assert metrics.submitted == len(requests)
        assert metrics.finished + len(metrics.rejected) == metrics.submitted
        finished_ids = {s.request.request_id for s in metrics.completed}
        rejected_ids = {r.request_id for r in metrics.rejected}
        assert finished_ids.isdisjoint(rejected_ids)
        assert finished_ids | rejected_ids == {
            r.request_id for r in requests
        }

    @pytest.mark.parametrize("mode", MODES)
    def test_decode_tokens_match_completions(self, mode):
        metrics = _serve(mode, _trace())
        assert metrics.total_decode_tokens == sum(
            s.request.seq_out for s in metrics.completed
        )


class TestKVBudget:
    @pytest.mark.parametrize("mode", MODES)
    def test_never_exceeded_at_any_event(self, mode):
        metrics = _serve(mode, _trace())
        assert metrics.events
        assert all(
            e.kv_tokens <= metrics.kv_capacity_tokens for e in metrics.events
        )
        assert 0 < metrics.peak_kv_tokens <= metrics.kv_capacity_tokens
        assert metrics.peak_kv_tokens == max(
            e.kv_tokens for e in metrics.events
        )


class TestTimelines:
    @pytest.mark.parametrize("mode", MODES)
    def test_monotone_per_request(self, mode):
        metrics = _serve(mode, _trace())
        assert metrics.completed
        for s in metrics.completed:
            assert s.request.arrival_s <= s.prefill_start_s
            assert s.prefill_start_s <= s.decode_start_s
            assert s.decode_start_s < s.first_token_s
            assert s.first_token_s <= s.finish_s
            assert s.prefill_chunks >= 1

    @pytest.mark.parametrize("mode", MODES)
    def test_events_cover_makespan_without_overlap(self, mode):
        metrics = _serve(mode, _trace())
        events = list(metrics.events)
        for prev, cur in zip(events, events[1:]):
            assert prev.end_s <= cur.start_s + 1e-12
        assert events[-1].end_s == pytest.approx(metrics.makespan_s)


class TestPriorityOrdering:
    def test_high_priority_preempts_and_finishes_first(self):
        # Background prompt hogs the prefill slot; an urgent arrival
        # must preempt it at a chunk boundary and finish first.
        requests = [
            Request(0, seq_in=2048, seq_out=64, arrival_s=0.0, priority=0),
            Request(1, seq_in=256, seq_out=16, arrival_s=0.001, priority=1),
        ]
        metrics = _serve("chunked", requests)
        stats = {s.request.request_id: s for s in metrics.completed}
        assert metrics.preemptions >= 1
        assert stats[0].preemptions >= 1
        assert stats[1].finish_s < stats[0].finish_s

    def test_equal_priority_is_deadline_ordered(self):
        # Same priority, no contention trickery: the tighter deadline
        # gets the slot first despite arriving at the same instant.
        requests = [
            Request(0, seq_in=512, seq_out=16, arrival_s=0.0,
                    priority=0, ttft_slo_s=5.0),
            Request(1, seq_in=512, seq_out=16, arrival_s=0.0,
                    priority=0, ttft_slo_s=2.0),
        ]
        metrics = _serve("chunked", requests)
        stats = {s.request.request_id: s for s in metrics.completed}
        assert stats[1].prefill_start_s <= stats[0].prefill_start_s


class TestDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    def test_same_seed_same_metrics(self, mode):
        first = _serve(mode, _trace())
        second = _serve(mode, _trace())
        assert first.makespan_s == second.makespan_s
        assert first.goodput_tokens_per_s == second.goodput_tokens_per_s
        assert first.events == second.events
        assert [s.finish_s for s in first.completed] == [
            s.finish_s for s in second.completed
        ]

    def test_compare_modes_is_reproducible(self):
        trace = _trace(num_requests=8)
        a = compare_modes(LLAMA3_8B, WSE2, trace, max_batch=8,
                          failure_rate=0.1, seed=5)
        b = compare_modes(LLAMA3_8B, WSE2, trace, max_batch=8,
                          failure_rate=0.1, seed=5)
        for mode in MODES:
            assert a[mode].makespan_s == b[mode].makespan_s
            assert a[mode].retries == b[mode].retries


class TestFaultRetry:
    @pytest.mark.parametrize("mode", MODES)
    def test_trace_completes_under_faults(self, mode):
        injector = FaultInjector(0.2, seed=3)
        requests = _trace(num_requests=8, ttft_slo_s=None, tpot_slo_s=None)
        metrics = _serve(mode, requests, fault_injector=injector)
        assert metrics.retries > 0
        assert metrics.retries == sum(
            1 for e in metrics.events if e.kind == "retry"
        )
        assert metrics.finished == len(requests)
        assert injector.steps_killed == metrics.retries

    def test_faults_only_add_latency(self):
        requests = _trace(num_requests=8, ttft_slo_s=None, tpot_slo_s=None)
        clean = _serve("chunked", requests)
        faulty = _serve("chunked", requests,
                        fault_injector=FaultInjector(0.2, seed=3))
        assert faulty.makespan_s > clean.makespan_s
        assert faulty.finished == clean.finished
