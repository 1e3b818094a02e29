"""Edge cases and regressions for the serving layer's building blocks.

These are the boundary conditions the invariant suite can't reach on a
realistic trace: single-token requests, a batch exactly filling the KV
budget, zero remaining budget, infeasible configurations, and the
validation surfaces of every serving component.
"""

from __future__ import annotations

import math

import pytest

from repro.core import TINY_MESH, WSE2
from repro.errors import CapacityExceeded, ConfigurationError
from repro.llm import LLAMA3_8B, KVTokenLedger
from repro.llm.wafer_system import (
    MAX_RESIDENT_CHUNK_TOKENS,
    WaferLLMSystem,
)
from repro.mesh import FaultInjector
from repro.runtime import PipelineSchedule
from repro.serving import (
    Request,
    SLOAdmission,
    WaferServer,
    backlog_tokens,
    percentile,
    synthetic_trace,
)


class TestRequestEdges:
    def test_single_token_prompt_and_output_serve(self):
        # seq_in=1, seq_out=1: one prefill chunk, one decode token.
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=4)
        metrics = server.serve([Request(0, seq_in=1, seq_out=1)])
        assert metrics.finished == 1
        stats = metrics.completed[0]
        assert stats.prefill_chunks == 1
        assert stats.first_token_s == stats.finish_s
        assert stats.ttft_s > 0
        assert metrics.total_decode_tokens == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Request(0, seq_in=0, seq_out=8)
        with pytest.raises(ConfigurationError):
            Request(0, seq_in=8, seq_out=0)
        with pytest.raises(ConfigurationError):
            Request(0, seq_in=8, seq_out=8, arrival_s=-1.0)
        with pytest.raises(ConfigurationError):
            Request(0, seq_in=8, seq_out=8, ttft_slo_s=0.0)
        with pytest.raises(ConfigurationError):
            Request(0, seq_in=8, seq_out=8, tpot_slo_s=-0.1)

    def test_deadline_defaults_to_infinity(self):
        request = Request(0, seq_in=8, seq_out=8, arrival_s=2.0)
        assert request.ttft_deadline_s == float("inf")
        assert Request(0, 8, 8, arrival_s=2.0,
                       ttft_slo_s=1.5).ttft_deadline_s == 3.5


class TestKVTokenLedger:
    def test_exact_fill_is_accepted(self):
        ledger = KVTokenLedger(100)
        assert ledger.can_reserve(100)
        ledger.reserve("a", 100)
        assert ledger.free_tokens == 0

    def test_zero_remaining_budget_rejects(self):
        ledger = KVTokenLedger(100)
        ledger.reserve("a", 100)
        assert not ledger.can_reserve(1)
        with pytest.raises(CapacityExceeded):
            ledger.reserve("b", 1)

    def test_one_over_rejects(self):
        ledger = KVTokenLedger(100)
        ledger.reserve("a", 99)
        assert not ledger.can_reserve(2)
        assert ledger.can_reserve(1)

    def test_release_returns_budget(self):
        ledger = KVTokenLedger(50)
        ledger.reserve("a", 50)
        ledger.release("a")
        assert ledger.free_tokens == 50
        ledger.reserve("a", 10)  # holder may come back

    def test_bad_reservations(self):
        ledger = KVTokenLedger(50)
        with pytest.raises(ConfigurationError):
            ledger.reserve("a", 0)
        ledger.reserve("a", 10)
        with pytest.raises(ConfigurationError):
            ledger.reserve("a", 10)  # duplicate holder
        with pytest.raises(ConfigurationError):
            ledger.release("ghost")


class TestKVBoundedBatch:
    def test_zero_when_capacity_below_context(self):
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=4)
        assert server.kv_bounded_batch(server.kv_capacity_tokens + 1) == 0
        assert server.kv_bounded_batch(server.kv_capacity_tokens) == 1
        with pytest.raises(ConfigurationError):
            server.kv_bounded_batch(0)

    def test_request_exactly_filling_budget_serves(self):
        # A request whose KV footprint equals the region budget to the
        # token is admitted and served; one token more is rejected (see
        # test_oversized_request_is_rejected_not_served).
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=4)
        capacity = server.kv_capacity_tokens
        metrics = server.serve([Request(0, seq_in=capacity - 8, seq_out=8)])
        assert metrics.finished == 1
        assert metrics.peak_kv_tokens == capacity

    def test_batch_filling_budget_serves(self):
        # Four requests that jointly cover the whole budget all finish,
        # and the ledger never overshoots even at full occupancy.
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=4)
        per_request = server.kv_capacity_tokens // 4
        requests = [
            Request(i, seq_in=per_request - 256, seq_out=256)
            for i in range(4)
        ]
        metrics = server.serve(requests)
        assert metrics.finished == 4
        assert per_request <= metrics.peak_kv_tokens \
            <= metrics.kv_capacity_tokens

    def test_oversized_request_is_rejected_not_served(self):
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=4)
        big = Request(0, seq_in=server.kv_capacity_tokens, seq_out=1)
        small = Request(1, seq_in=64, seq_out=8)
        metrics = server.serve([big, small])
        assert [r.request_id for r in metrics.rejected] == [0]
        assert metrics.finished == 1


class TestSLOAdmission:
    def test_best_effort_only_rejected_for_size(self):
        admission = SLOAdmission(1000, optimistic_prefill_s_per_token=1.0)
        assert admission.check(Request(0, 500, 100), 0.0, 10**9).admitted
        decision = admission.check(Request(0, 900, 101), 0.0, 0)
        assert not decision.admitted
        assert "capacity" in decision.reason

    def test_hopeless_deadline_rejected(self):
        admission = SLOAdmission(10**6, optimistic_prefill_s_per_token=0.01)
        hopeless = Request(0, 200, 10, ttft_slo_s=1.0)  # needs >= 2s
        decision = admission.check(hopeless, 0.0, 0)
        assert not decision.admitted
        assert "SLO" in decision.reason
        feasible = Request(0, 50, 10, ttft_slo_s=1.0)
        assert admission.check(feasible, 0.0, 0).admitted
        # Backlog at equal-or-higher priority pushes it over the edge.
        assert not admission.check(feasible, 0.0, 200).admitted

    def test_backlog_respects_priority_floor(self):
        # Prompt tokens waiting per priority: 100 at 0, 200 at 1, 400 at 2.
        waiting = {0: 100, 1: 200, 2: 400}
        assert backlog_tokens(waiting, 0, priority_floor=1) == 600
        assert backlog_tokens(waiting, 50, priority_floor=2) == 450
        assert backlog_tokens({}, 0, priority_floor=0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SLOAdmission(-1, 0.1)
        with pytest.raises(ConfigurationError):
            SLOAdmission(100, -0.1)


class TestFaultInjector:
    def test_zero_rate_never_fails(self):
        injector = FaultInjector(0.0)
        assert not any(injector.step_fails() for _ in range(100))
        assert injector.steps_attempted == 100
        assert injector.steps_killed == 0

    def test_seeded_rate_is_deterministic(self):
        first = FaultInjector(0.3, seed=7)
        second = FaultInjector(0.3, seed=7)
        a = [first.step_fails() for _ in range(50)]
        b = [second.step_fails() for _ in range(50)]
        assert a == b
        assert any(a) and not all(a)
        assert first.steps_killed == sum(a)

    def test_backoff_doubles_then_caps(self):
        injector = FaultInjector(0.5, base_backoff_s=1e-4, max_backoff_s=1e-3)
        assert injector.backoff_s(1) == pytest.approx(1e-4)
        assert injector.backoff_s(2) == pytest.approx(2e-4)
        assert injector.backoff_s(10) == pytest.approx(1e-3)
        with pytest.raises(ConfigurationError):
            injector.backoff_s(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(1.0)
        with pytest.raises(ConfigurationError):
            FaultInjector(-0.1)
        with pytest.raises(ConfigurationError):
            FaultInjector(0.1, base_backoff_s=2.0, max_backoff_s=1.0)


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.5) == 20.0
        assert percentile(values, 0.99) == 40.0
        assert percentile(values, 0.0) == 10.0
        assert percentile([5.0], 0.99) == 5.0
        assert percentile([], 0.5) == 0.0


class TestStepCostValidation:
    def test_fused_step_cost_bounds(self):
        system = WaferLLMSystem(WSE2)
        with pytest.raises(ConfigurationError):
            system.fused_step_cost(LLAMA3_8B, 2048, 0, 0)
        with pytest.raises(ConfigurationError):
            system.fused_step_cost(LLAMA3_8B, 2048, -1, 0)
        with pytest.raises(ConfigurationError):
            system.fused_step_cost(
                LLAMA3_8B, 2048, 1, MAX_RESIDENT_CHUNK_TOKENS + 1
            )

    def test_fused_step_is_affine_in_batch(self):
        system = WaferLLMSystem(WSE2)
        t1 = system.fused_step_cost(LLAMA3_8B, 2048, 1).seconds
        t2 = system.fused_step_cost(LLAMA3_8B, 2048, 2).seconds
        t3 = system.fused_step_cost(LLAMA3_8B, 2048, 3).seconds
        assert t2 - t1 == pytest.approx(t3 - t2, rel=1e-9)
        assert t2 > t1
        # Exactly t(b) = t_fixed + b * t_compute from the single-token
        # decode cost, the batched-decode model the serving tables use.
        # At b = 1 the sum rounds to within one ulp of the decode cost.
        for context, grid in ((1, 180), (2048, 360), (4096, 420)):
            d = system.decode_token_cost(LLAMA3_8B, context, grid)
            for b in (1, 2, 3, 8, 64):
                step = system.fused_step_cost(LLAMA3_8B, context, b, 0, grid)
                assert step.total_cycles == (
                    (d.total_cycles - d.compute_cycles)
                    + b * d.compute_cycles
                )
            one = system.fused_step_cost(LLAMA3_8B, context, 1, 0, grid)
            assert abs(one.total_cycles - d.total_cycles) \
                <= math.ulp(d.total_cycles)

    def test_tiny_chunk_bounded_by_decode_path(self):
        # Regression: a chunk can always run token-by-token through the
        # decode path, so a 1-token chunk costs one decode step — not a
        # degenerate 1-wide GEMM pass (which priced it at ~6 s).
        system = WaferLLMSystem(WSE2)
        one = system.chunked_prefill_cost(LLAMA3_8B, 1).seconds
        assert one == pytest.approx(
            system.decode_token_cost(LLAMA3_8B, 1).seconds
        )
        for chunk_len in (1, 8, 64, 256, 1024):
            chunk = system.chunked_prefill_cost(LLAMA3_8B, chunk_len)
            fallback = system.decode_token_cost(LLAMA3_8B, chunk_len)
            assert chunk.seconds <= fallback.seconds * chunk_len * (1 + 1e-9)

    def test_piggybacked_chunk_cheaper_than_standalone(self):
        system = WaferLLMSystem(WSE2)
        decode_only = system.fused_step_cost(LLAMA3_8B, 2048, 8, 0).seconds
        fused = system.fused_step_cost(LLAMA3_8B, 2048, 8, 256).seconds
        standalone = system.fused_step_cost(LLAMA3_8B, 2048, 0, 256).seconds
        assert fused > decode_only
        assert fused - decode_only < standalone


class TestWaferServerValidation:
    def test_bad_mode_and_chunk(self):
        with pytest.raises(ConfigurationError):
            WaferServer(LLAMA3_8B, WSE2, mode="priority")
        with pytest.raises(ConfigurationError):
            WaferServer(LLAMA3_8B, WSE2, chunk_tokens=0)
        with pytest.raises(ConfigurationError):
            WaferServer(
                LLAMA3_8B, WSE2,
                chunk_tokens=MAX_RESIDENT_CHUNK_TOKENS + 1,
            )

    def test_infeasible_default_batch_raises(self):
        # The tiny test mesh cannot hold a 4096-token stream, so the
        # constructor must refuse instead of clamping to batch 1.
        with pytest.raises(ConfigurationError, match="pass max_batch"):
            WaferServer(LLAMA3_8B, TINY_MESH, grid=4)
        # An explicit bad batch is named as such, not blamed on the KV region.
        with pytest.raises(ConfigurationError, match="max_batch must be >= 1"):
            WaferServer(LLAMA3_8B, WSE2, max_batch=0)

    def test_serve_rejects_bad_input(self):
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=4)
        with pytest.raises(ConfigurationError):
            server.serve([])
        with pytest.raises(ConfigurationError):
            server.serve([Request(0, 8, 8), Request(0, 16, 8)])


class TestTraceAndSchedule:
    def test_trace_is_deterministic_and_validated(self):
        a = synthetic_trace(6, seed=3)
        b = synthetic_trace(6, seed=3)
        assert a == b
        assert a != synthetic_trace(6, seed=4)
        assert a[0].arrival_s == 0.0
        with pytest.raises(ConfigurationError):
            synthetic_trace(0)
        with pytest.raises(ConfigurationError):
            synthetic_trace(4, seq_in_range=(8, 4))
        with pytest.raises(ConfigurationError):
            synthetic_trace(4, priorities=())

    def test_streams_for_utilization_inverts_utilization(self):
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, 360)
        for target in (0.5, 0.8, 0.95):
            streams = schedule.streams_for_utilization(target)
            assert schedule.utilization(streams) >= target
            if streams > 1:
                # Minimal: one stream fewer falls at or below the target.
                assert schedule.utilization(streams - 1) <= target
        with pytest.raises(ConfigurationError):
            schedule.streams_for_utilization(1.0)
        with pytest.raises(ConfigurationError):
            schedule.streams_for_utilization(0.0)
