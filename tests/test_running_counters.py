"""Property tests: the serve engine's running counters equal fresh sums.

The KV ledger's reserved total, the decode batch's context sum, the
router's prefill backlog and the admission backlog are kept as running
totals instead of being re-summed on every step, and the decode batch's
token counts and next finish are read off one shared clock and a finish
heap instead of a per-job walk.  Each test below keeps the re-summing
expression the engine used to evaluate as its reference and checks the
running value against it after every public call.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.device_presets import get_device
from repro.errors import CapacityExceeded, ConfigurationError
from repro.llm.config import get_model
from repro.llm.kvcache import KVTokenLedger
from repro.mesh.faults import FaultInjector, FaultSchedule
from repro.serving.admission import backlog_tokens
from repro.serving.chunked import ServeEngine, WaferServer
from repro.serving.trace import synthetic_trace

DEVICE = get_device("ipu-like-crossbar")
MODEL = get_model("tiny-gqa")
PRIORITIES = (0, 1, 2)


class TestLedgerTotal:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["reserve", "release", "resize"]),
                st.integers(0, 7),
                st.integers(-2, 400),
            ),
            max_size=60,
        ),
        capacity=st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_equals_sum_over_holders(self, ops, capacity):
        ledger = KVTokenLedger(capacity)
        for op, holder, tokens in ops:
            try:
                if op == "reserve":
                    ledger.reserve(holder, tokens)
                elif op == "release":
                    ledger.release(holder)
                else:
                    ledger.resize(tokens)
            except (CapacityExceeded, ConfigurationError):
                pass
            reserved = sum(ledger._reserved.values())
            assert ledger.reserved_tokens == reserved
            assert ledger.free_tokens == ledger.capacity_tokens - reserved


def _check(engine: ServeEngine) -> None:
    """Every running counter equals the expression it replaced."""
    ledger = engine.ledger
    assert ledger.reserved_tokens == sum(ledger._reserved.values())
    assert engine._decode_context_sum == sum(
        j.context for j in engine.decoding.values()
    )
    # The shared decode clock and the finish heap against a per-job walk.
    decoding = engine.decoding.values()
    for job in decoding:
        assert 0 <= job.generated < job.request.seq_out
    if decoding:
        assert engine._steps_to_next_finish() == min(
            j.request.seq_out - j.generated for j in decoding
        )
    current = (
        engine.current.prefill_remaining if engine.current is not None else 0
    )
    pending = sum(r.seq_in for _, _, r in engine._pending)
    assert engine.backlog_prefill_tokens() == (
        sum(j.prefill_remaining for j in engine.waiting) + current + pending
    )
    for floor in (min(PRIORITIES) - 1, *PRIORITIES, max(PRIORITIES) + 1):
        queued = sum(
            j.request.seq_in for j in engine.waiting
            if j.request.priority >= floor
        )
        assert backlog_tokens(
            engine._waiting_by_priority, current, floor
        ) == queued + max(0, current)


def _server(mode: str, faults: str, seed: int) -> WaferServer:
    kwargs = dict(mode=mode, chunk_tokens=64, default_context_len=512)
    if faults == "bernoulli":
        kwargs["fault_injector"] = FaultInjector(0.2, seed=seed)
    elif faults == "schedule":
        kwargs["fault_schedule"] = FaultSchedule.generate(
            0.06, seed=seed, transient_rate_hz=150.0,
            retrain_rate_hz=60.0, core_dead_rate_hz=15.0,
        )
    elif faults == "degrade":
        # Core deaths with no spare region on a one-row region: the
        # first death shrinks capacity to zero, so every waiting prompt
        # that holds no KV yet is shed.
        kwargs["fault_schedule"] = FaultSchedule.generate(
            0.01, seed=seed, core_dead_rate_hz=2000.0,
        )
        kwargs.update(spare_regions=0, grid=1, max_batch=4)
    return WaferServer(MODEL, DEVICE, **kwargs)


class TestEngineCounters:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 12),
        mode=st.sampled_from(["chunked", "exclusive"]),
        faults=st.sampled_from(["none", "bernoulli", "schedule", "degrade"]),
        slice_s=st.sampled_from([None, 0.0005, 0.003]),
        late=st.integers(0, 6),
        drain_after=st.one_of(st.none(), st.integers(1, 60)),
        # A burst (all arrivals at once) builds a waiting queue; the
        # tight SLO makes admission reject on backlog.
        interarrival_s=st.sampled_from([0.0, 0.002]),
        ttft_slo_s=st.sampled_from([2e-5, 0.05]),
    )
    # Pinned: a core death that sheds a waiting queue, and a drain that
    # evacuates one.
    @example(seed=1, n=12, mode="chunked", faults="degrade", slice_s=None,
             late=0, drain_after=None, interarrival_s=0.0, ttft_slo_s=0.05)
    @example(seed=0, n=12, mode="chunked", faults="none", slice_s=None,
             late=0, drain_after=2, interarrival_s=0.0, ttft_slo_s=0.05)
    @settings(max_examples=80, deadline=None)
    def test_counters_match_fresh_sums(
        self, seed, n, mode, faults, slice_s, late, drain_after,
        interarrival_s, ttft_slo_s,
    ):
        trace = synthetic_trace(
            n, seed=seed, mean_interarrival_s=interarrival_s,
            seq_in_range=(16, 256), seq_out_range=(4, 64),
            priorities=PRIORITIES, ttft_slo_s=ttft_slo_s, tpot_slo_s=0.5,
        )
        # Hold some requests back and submit them mid-run, the way the
        # fleet router dispatches.
        held = trace[len(trace) - min(late, len(trace) - 1):]
        engine = ServeEngine(
            _server(mode, faults, seed), trace[:len(trace) - len(held)]
        )
        _check(engine)
        calls = 0
        target = 0.0
        while engine.active or held:
            if slice_s is None:
                engine.step()
            else:
                target += slice_s
                engine.advance_to(target)
            calls += 1
            _check(engine)
            if held and calls % 3 == 0:
                engine.submit(held.pop(0))
                _check(engine)
            if calls == drain_after:
                engine.drain()
                _check(engine)
                return
        engine.finish()
        assert engine._decode_context_sum == 0
        assert engine.backlog_prefill_tokens() == 0
        assert engine.ledger.reserved_tokens == 0
