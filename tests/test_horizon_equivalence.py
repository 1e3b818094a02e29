"""Differential sweep: horizon-batched vs reference serving loops.

The macro-compiled serving loop (``ServeEngine(horizon=True)``) claims
*bit-identity* with the per-event reference loop, not statistical
agreement.  Every test here runs the same seeded workload through both
and asserts field-exact equality of the resulting metrics — clocks,
step events, per-request stats, fault logs, fleet timelines — across
serve modes, fault regimes, sliced stepping, and the whole fleet chaos
ladder.
"""

from __future__ import annotations

import pytest

from repro.core.device_presets import get_device
from repro.fleet.chaos import bursty_trace, poisson_trace, run_chaos
from repro.fleet.faults import FleetFaultEvent, FleetFaultSchedule
from repro.fleet.fleet import FleetConfig
from repro.llm.config import get_model
from repro.mesh.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.serving.chunked import ServeEngine, WaferServer
from repro.serving.events import run_clock
from repro.serving.trace import synthetic_trace

DEVICE = get_device("ipu-like-crossbar")
MODEL = get_model("tiny-gqa")


def _trace(n=12, seed=0, **kwargs):
    defaults = dict(
        mean_interarrival_s=0.005, seq_in_range=(64, 256),
        seq_out_range=(16, 64), ttft_slo_s=5.0, tpot_slo_s=0.5,
    )
    defaults.update(kwargs)
    return synthetic_trace(n, seed=seed, **defaults)


def _run(mode, horizon, schedule=None, failure_rate=0.0, trace=None,
         **server_kwargs):
    kwargs = dict(mode=mode, chunk_tokens=64, default_context_len=512)
    kwargs.update(server_kwargs)
    if schedule is not None:
        kwargs["fault_schedule"] = schedule
    if failure_rate > 0.0:
        kwargs["fault_injector"] = FaultInjector(failure_rate, seed=7)
    server = WaferServer(MODEL, DEVICE, **kwargs)
    engine = ServeEngine(server, trace if trace is not None else _trace(),
                         horizon=horizon)
    metrics = engine.run()
    return metrics, server


def _assert_serve_identical(mode, schedule_factory=None, failure_rate=0.0,
                            trace=None):
    ref, ref_server = _run(
        mode, horizon=False,
        schedule=schedule_factory() if schedule_factory else None,
        failure_rate=failure_rate, trace=trace,
    )
    fast, fast_server = _run(
        mode, horizon=True,
        schedule=schedule_factory() if schedule_factory else None,
        failure_rate=failure_rate, trace=trace,
    )
    # Field-exact dataclass equality: completed stats, rejections,
    # clocks, step events (via StepEventLog.__eq__), fault log, peaks.
    assert fast == ref
    # The fault-injector attempt ledger must match too: note_steps on
    # the fast path counts exactly what per-step fate draws would have.
    assert fast_server.faults.steps_attempted \
        == ref_server.faults.steps_attempted
    assert fast_server.faults.steps_killed == ref_server.faults.steps_killed
    return ref, fast


class TestServeModes:
    @pytest.mark.parametrize("mode", ["chunked", "exclusive"])
    def test_clean_trace(self, mode):
        ref, fast = _assert_serve_identical(mode)
        assert ref.finished > 0

    @pytest.mark.parametrize("mode", ["chunked", "exclusive"])
    def test_typed_fault_schedule(self, mode):
        # Transients, retrains, and a core death interleave with decode:
        # the horizon must stop strictly before every scheduled event.
        # Rates are sized to the trace's ~0.07s makespan so events
        # actually strike live steps.
        def schedule():
            return FaultSchedule.generate(
                0.06, seed=5, transient_rate_hz=150.0,
                retrain_rate_hz=60.0, core_dead_rate_hz=15.0,
            )

        ref, _ = _assert_serve_identical(mode, schedule_factory=schedule)
        assert ref.fault_log  # the regime actually exercised faults

    def test_bernoulli_fault_injection(self):
        # A nonzero failure rate gates the fast path off entirely; both
        # engines must walk the identical per-step fate sequence.
        ref, _ = _assert_serve_identical("chunked", failure_rate=0.2)
        assert ref.retries > 0

    def test_decode_heavy_trace(self):
        # Long outputs maximise horizon-run length (the regime the fast
        # path is built for).
        trace = _trace(8, seed=3, seq_out_range=(128, 256))
        _assert_serve_identical("chunked", trace=trace)

    def test_burst_arrivals_interrupt_horizon(self):
        # Arrivals landing mid-decode bound every horizon run; the
        # admission clocks must not shift by one step.
        trace = _trace(16, seed=11, mean_interarrival_s=0.0005)
        _assert_serve_identical("chunked", trace=trace)


class TestSlicedStepping:
    def test_advance_to_slicing_matches_closed_run(self):
        closed, _ = _run("chunked", horizon=True)
        server = WaferServer(MODEL, DEVICE, mode="chunked", chunk_tokens=64,
                             default_context_len=512)
        engine = ServeEngine(server, _trace(), horizon=True)
        t = 0.0
        while engine.active:
            t += 0.003
            engine.advance_to(t)
        assert engine.finish() == closed

    def test_horizon_stops_at_advance_bound(self):
        server = WaferServer(MODEL, DEVICE, mode="chunked", chunk_tokens=64,
                             default_context_len=512)
        engine = ServeEngine(server, _trace(), horizon=True)
        engine.advance_to(0.01)
        assert engine.now <= 0.01 or not engine.active


def _long_trace():
    # Outputs of 512+ tokens: one decode run crosses several 128-token
    # context buckets.
    return _trace(6, seed=2, seq_out_range=(512, 768))


def _bucket_run(metrics, min_segments):
    """Clock after each step of the first run row spanning enough buckets."""
    for start_s, segments, *_ in metrics.events._runs:
        if len(segments) >= min_segments:
            return [count for _, count in segments], run_clock(start_s,
                                                               segments)
    raise AssertionError(f"no horizon run spans {min_segments} buckets")


class TestCrossBucketHorizon:
    """One horizon run spans context buckets: every boundary inside a
    later bucket still lands exactly where reference stepping puts it."""

    def test_long_outputs_span_three_buckets(self):
        ref, fast = _assert_serve_identical("chunked", trace=_long_trace())
        counts, _ = _bucket_run(fast, 3)
        assert all(count <= 128 for count in counts)
        assert len(fast.events._runs) < len(fast.events) // 100

    @pytest.mark.parametrize("kind", ["transient", "link_retrain",
                                      "core_dead"])
    def test_fault_in_a_later_bucket(self, kind):
        clean, _ = _run("chunked", horizon=True, trace=_long_trace())
        counts, times = _bucket_run(clean, 3)
        # Mid-way through a step a few steps into the run's third bucket.
        j = counts[0] + counts[1] + 3
        at_s = (times[j] + times[j + 1]) / 2

        def schedule():
            return FaultSchedule(events=[FaultEvent(
                at_s=float(at_s), kind=kind, duration_s=0.002,
                bw_factor=0.5, detail="later-bucket strike",
            )])

        ref, fast = _assert_serve_identical(
            "chunked", schedule_factory=schedule, trace=_long_trace())
        assert any(e.kind == kind and e.at_s == at_s for e in ref.fault_log)

    def test_advance_to_ends_inside_a_later_bucket(self):
        closed, _ = _run("chunked", horizon=True, trace=_long_trace())
        counts, times = _bucket_run(closed, 3)
        j = counts[0] + counts[1] + 5
        t_s = float((times[j] + times[j + 1]) / 2)

        def engine(horizon):
            server = WaferServer(MODEL, DEVICE, mode="chunked",
                                 chunk_tokens=64, default_context_len=512)
            return ServeEngine(server, _long_trace(), horizon=horizon)

        fast, ref = engine(True), engine(False)
        fast.advance_to(t_s)
        ref.advance_to(t_s)
        # The slice stops after the step in flight at t_s, like the
        # reference loop, not at a bucket edge.
        assert fast.now == ref.now == times[j + 1]
        assert fast.events == ref.events
        while fast.active:
            fast.step()
        assert fast.finish() == closed


FLEET_SEED = 0


def _fleet_config(horizon):
    return FleetConfig(n_wafers=3, chunk_tokens=64, default_context_len=512,
                       seed=FLEET_SEED, horizon=horizon)


def _fleet_trace():
    return poisson_trace(
        12, seed=FLEET_SEED, mean_interarrival_s=0.003,
        seq_in_range=(64, 256), seq_out_range=(16, 64), n_sessions=3,
    )


def _chaos_ladder():
    """(name, trace, schedule factory) for every ladder scenario."""
    trace = _fleet_trace()
    clean = run_chaos(MODEL, DEVICE, trace, _fleet_config(False))
    horizon_s = clean.makespan_s

    def down_mid():
        return FleetFaultSchedule(events=[FleetFaultEvent(
            at_s=horizon_s * 0.4, kind="wafer_down", wafer=0,
            duration_s=horizon_s * 0.2, detail="mid-trace loss",
        )], seed=FLEET_SEED)

    def churn():
        return FleetFaultSchedule.generate(
            3, horizon_s, seed=FLEET_SEED,
            wafer_down_rate_hz=4.0 / horizon_s,
            wafer_degraded_rate_hz=2.0 / horizon_s,
            down_duration_s=horizon_s * 0.1,
            degraded_duration_s=horizon_s * 0.2,
        )

    def partition():
        return FleetFaultSchedule(events=[FleetFaultEvent(
            at_s=horizon_s * 0.2, kind="router_partition", wafer=1,
            duration_s=horizon_s * 0.3, detail="partition",
        )], seed=FLEET_SEED)

    bursts = bursty_trace(
        12, seed=FLEET_SEED, seq_in_range=(64, 256),
        seq_out_range=(64, 128), n_sessions=3,
    )
    return [
        ("clean", trace, None),
        ("wafer_down", trace, down_mid),
        ("churn", trace, churn),
        ("partition", trace, partition),
        ("bursty", bursts, down_mid),
    ]


class TestFleetChaosLadder:
    @pytest.mark.parametrize(
        "name,trace,schedule_factory", _chaos_ladder(),
        ids=[s[0] for s in _chaos_ladder()],
    )
    def test_ladder_scenario_bit_identical(self, name, trace,
                                           schedule_factory):
        ref = run_chaos(
            MODEL, DEVICE, trace, _fleet_config(False),
            schedule=schedule_factory() if schedule_factory else None,
        )
        fast = run_chaos(
            MODEL, DEVICE, trace, _fleet_config(True),
            schedule=schedule_factory() if schedule_factory else None,
        )
        assert fast.timeline_signature() == ref.timeline_signature()
        assert fast.summary() == ref.summary()
        assert fast.outcomes == ref.outcomes
        assert fast.wafer_segments == ref.wafer_segments
