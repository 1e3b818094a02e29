"""Tests for the continuous-batching serving layer."""

import math

import pytest

from repro.core import WSE2
from repro.errors import ConfigurationError
from repro.llm.config import LLAMA3_8B
from repro.serving import Request, WaferServer
from repro.serving.health import HealthMonitor
from repro.serving.trace import synthetic_trace


@pytest.fixture(scope="module")
def server() -> WaferServer:
    return WaferServer(LLAMA3_8B, WSE2, max_batch=8)


def _stat(metrics, request_id):
    return next(s for s in metrics.completed
                if s.request.request_id == request_id)


class TestRequestValidation:
    def test_valid_request(self):
        request = Request(1, seq_in=128, seq_out=64, arrival_s=0.5)
        assert request.seq_out == 64

    @pytest.mark.parametrize("kwargs", [
        {"seq_in": 0, "seq_out": 1},
        {"seq_in": 1, "seq_out": 0},
        {"seq_in": 1, "seq_out": 1, "arrival_s": -1.0},
        {"seq_in": 1, "seq_out": 1, "arrival_s": math.nan},
        {"seq_in": 1, "seq_out": 1, "arrival_s": math.inf},
        {"seq_in": 1, "seq_out": 1, "ttft_slo_s": math.nan},
        {"seq_in": 1, "seq_out": 1, "ttft_slo_s": math.inf},
        {"seq_in": 1, "seq_out": 1, "tpot_slo_s": math.nan},
        {"seq_in": 1, "seq_out": 1, "tpot_slo_s": -math.inf},
    ])
    def test_invalid_requests(self, kwargs):
        with pytest.raises(ConfigurationError):
            Request(1, **kwargs)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, -0.1])
    def test_trace_rejects_bad_interarrival(self, interval):
        with pytest.raises(ConfigurationError):
            synthetic_trace(4, mean_interarrival_s=interval)

    @pytest.mark.parametrize("factor", [math.nan, 1.0, 0.5])
    def test_watchdog_rejects_bad_factor(self, factor):
        with pytest.raises(ConfigurationError):
            HealthMonitor(watchdog_factor=factor)


class TestBatchedStep:
    """A decode-only step: the skeleton once, plus per-stream compute."""

    def _rate(self, server, batch):
        step = server.system.fused_step_cost(LLAMA3_8B, 2048, batch, 0,
                                             server.grid)
        return batch / step.seconds

    def test_step_grows_sublinearly(self, server):
        t1 = server.fused_step_seconds(1, 2048, 0)
        t8 = server.fused_step_seconds(8, 2048, 0)
        assert t8 > t1
        assert t8 < 8 * t1  # the fixed skeleton is shared

    def test_throughput_scales_with_batch(self, server):
        assert self._rate(server, 8) > 2 * self._rate(server, 1)

    def test_kv_bound_batch_positive(self, server):
        assert server.kv_bounded_batch() >= 1

    def test_single_stream_matches_table4_shape(self, server):
        # Batch 1 must agree with the single-stream decode model.
        single = server.system.decode_throughput(LLAMA3_8B, 2048, server.grid)
        assert self._rate(server, 1) == pytest.approx(single, rel=1e-12)


class TestServe:
    def test_single_request_timeline(self, server):
        metrics = server.serve([Request(0, seq_in=512, seq_out=32)])
        stat = metrics.completed[0]
        assert stat.prefill_start_s == 0.0
        assert stat.decode_start_s > 0.0
        assert stat.finish_s > stat.decode_start_s
        assert metrics.total_decode_tokens == 32

    def test_all_requests_complete(self, server):
        requests = [Request(i, 256, 16, arrival_s=0.001 * i) for i in range(6)]
        metrics = server.serve(requests)
        assert metrics.finished == 6
        assert metrics.total_decode_tokens == 6 * 16
        assert all(s.finish_s > 0 for s in metrics.completed)

    def test_batching_beats_serial(self, server):
        # Long decodes with short prompts: streams overlap in the batch.
        requests = [Request(i, 64, 1024) for i in range(8)]
        batched = server.serve(requests)
        serial = WaferServer(LLAMA3_8B, WSE2, max_batch=1).serve(requests)
        assert batched.makespan_s < serial.makespan_s
        assert batched.peak_batch > 1
        assert serial.peak_batch == 1

    def test_batch_cap_respected(self):
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=3)
        metrics = server.serve([Request(i, 64, 1024) for i in range(9)])
        assert metrics.finished == 9
        assert metrics.peak_batch == 3

    def test_late_arrivals_wait(self, server):
        metrics = server.serve([
            Request(0, 256, 8, arrival_s=0.0),
            Request(1, 256, 8, arrival_s=100.0),
        ])
        assert _stat(metrics, 1).prefill_start_s >= 100.0
        assert metrics.makespan_s >= 100.0

    def test_queueing_measured(self):
        server = WaferServer(LLAMA3_8B, WSE2, max_batch=1)
        metrics = server.serve([Request(0, 4096, 8), Request(1, 4096, 8)])
        assert _stat(metrics, 1).queueing_s > 0

    def test_latency_stats(self, server):
        metrics = server.serve([Request(i, 128, 16) for i in range(5)])
        assert metrics.p99_latency_s >= metrics.mean_latency_s > 0

    def test_empty_request_list_rejected(self, server):
        with pytest.raises(ConfigurationError):
            server.serve([])

    def test_invalid_max_batch(self):
        with pytest.raises(ConfigurationError):
            WaferServer(LLAMA3_8B, WSE2, max_batch=0)
