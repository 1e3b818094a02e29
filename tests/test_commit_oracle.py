"""Pinned oracle for the serve engine's decode commit.

``tests/test_horizon_equivalence.py`` checks the horizon fast path
against the reference loop, but both share one decode-commit helper, so
a bug in that helper shows up on both sides and cancels out.  This file
is the independent check: each scenario's harvest stream — every
completed request's ``(id, decode_start_s, first_token_s, finish_s,
retries, preemptions)`` in the order :meth:`ServeEngine.harvest` handed
it over, floats as ``float.hex`` — plus each engine's event count and
queue area is hashed with SHA-256 and compared to a digest recorded
from the per-job commit loop the helper replaced.

To re-derive a digest after a deliberate change to simulated results,
run ``PYTHONPATH=src python tests/test_commit_oracle.py``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

import pytest

from repro.core.device_presets import get_device
from repro.fleet.chaos import poisson_trace, run_chaos
from repro.fleet.faults import FleetFaultEvent, FleetFaultSchedule
from repro.fleet.fleet import FleetConfig
from repro.llm.config import get_model
from repro.mesh.faults import FaultSchedule
from repro.serving.chunked import ServeEngine, WaferServer
from repro.serving.trace import synthetic_trace

DEVICE = get_device("ipu-like-crossbar")
MODEL = get_model("tiny-gqa")


class _Recorder:
    """Harvest stream and per-engine event totals of one run."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.engines: List[ServeEngine] = []

    def install(self, monkeypatch) -> "_Recorder":
        """Record every ``ServeEngine.harvest`` call from now on."""
        harvest = ServeEngine.harvest

        def recording_harvest(engine):
            done, shed = harvest(engine)
            self.harvested(engine, done)
            return done, shed

        monkeypatch.setattr(ServeEngine, "harvest", recording_harvest)
        return self

    def harvested(self, engine: ServeEngine, done: List[int]) -> None:
        if not any(engine is e for e in self.engines):
            self.engines.append(engine)
        for request_id in done:
            s = engine.stats[request_id]
            self.rows.append((
                request_id, s.decode_start_s.hex(), s.first_token_s.hex(),
                s.finish_s.hex(), s.retries, s.preemptions,
            ))

    def digest(self) -> str:
        totals = [
            (len(e.events), e.events.queue_area_s.hex())
            for e in self.engines
        ]
        return hashlib.sha256(repr((self.rows, totals)).encode()).hexdigest()


def _drive(server: WaferServer, trace, slice_s=None) -> ServeEngine:
    """Run one engine, harvesting after every call."""
    engine = ServeEngine(server, trace)
    target = 0.0
    while engine.active:
        if slice_s is None:
            engine.step()
        else:
            target += slice_s
            engine.advance_to(target)
        engine.harvest()
    return engine


def _server(**kwargs) -> WaferServer:
    return WaferServer(MODEL, DEVICE, chunk_tokens=64,
                       default_context_len=512, **kwargs)


def chunked_priorities() -> None:
    # A burst of three priority classes under a tight TTFT budget:
    # higher-priority and over-budget preemptions both fire.
    trace = synthetic_trace(
        24, seed=0, mean_interarrival_s=0.0005, seq_in_range=(256, 1024),
        seq_out_range=(4, 96), priorities=(0, 1, 2), ttft_slo_s=0.004,
        tpot_slo_s=0.5,
    )
    engine = _drive(_server(mode="chunked"), trace, slice_s=0.0007)
    assert engine.preemptions > 0


def exclusive_mode() -> None:
    # A burst: decode stalls through every exclusive prefill block, so
    # the jobs join on the same tick, and the narrow output range makes
    # most of them finish on a shared tick too; harvest order is then
    # the join order alone.
    trace = synthetic_trace(
        16, seed=5, mean_interarrival_s=0.0, seq_in_range=(64, 256),
        seq_out_range=(16, 20), ttft_slo_s=5.0, tpot_slo_s=0.5,
    )
    engine = _drive(_server(mode="exclusive"), trace)
    finishes = [engine.stats[r.request_id].finish_s for r in trace]
    assert len(set(finishes)) < len(finishes) - 8


def fault_schedule() -> None:
    trace = synthetic_trace(
        16, seed=2, mean_interarrival_s=0.002, seq_in_range=(64, 256),
        seq_out_range=(16, 96), ttft_slo_s=5.0, tpot_slo_s=0.5,
    )
    schedule = FaultSchedule.generate(
        0.06, seed=2, transient_rate_hz=150.0, retrain_rate_hz=60.0,
        core_dead_rate_hz=30.0,
    )
    server = _server(mode="chunked", fault_schedule=schedule,
                     spare_regions=1)
    engine = _drive(server, trace, slice_s=0.001)
    kinds = {f.kind for f in engine.health.log}
    assert {"transient", "link_retrain", "core_dead"} <= kinds
    # The spare is used up: one remap, then in-place degradations.
    assert engine.remaps == 1 and engine.degradations > 0


def fleet_wafer_down() -> None:
    trace = poisson_trace(
        24, seed=2, mean_interarrival_s=0.0002, seq_in_range=(64, 128),
        seq_out_range=(16, 160), n_sessions=3,
    )
    config = FleetConfig(n_wafers=3, chunk_tokens=64,
                         default_context_len=256, seed=2)
    schedule = FleetFaultSchedule(events=[
        FleetFaultEvent(at_s=0.004, kind="wafer_down", wafer=0,
                        duration_s=0.004, detail="loss"),
    ], seed=2)
    metrics = run_chaos(MODEL, DEVICE, trace, config, schedule=schedule)
    assert metrics.failovers == 1 and metrics.migrations >= 1


SCENARIOS: Dict[str, Callable[[], None]] = {
    "chunked_priorities": chunked_priorities,
    "exclusive_mode": exclusive_mode,
    "fault_schedule": fault_schedule,
    "fleet_wafer_down": fleet_wafer_down,
}

#: SHA-256 of each scenario's harvest stream under the per-job commit.
DIGESTS = {
    "chunked_priorities":
        "088ac44a994d94e5f9c3c48347eb66ed5678297547721f0f989eab8bb21f70d2",
    "exclusive_mode":
        "765a7d7b4f045b107a085438ffec51c4a73c956fa32df0c4e9af51ea8fe14445",
    "fault_schedule":
        "7e16b6e89bc6e1248a29bab41371c650acf432f805163b8322216c790d84a553",
    "fleet_wafer_down":
        "471631365db7447697b39828b0b7eab2caec2b38b6bed6031ff4fbd565700da9",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_harvest_stream_matches_pinned_digest(name, monkeypatch):
    recorder = _Recorder().install(monkeypatch)
    SCENARIOS[name]()
    assert recorder.rows
    assert recorder.digest() == DIGESTS[name]


if __name__ == "__main__":
    for name, scenario in sorted(SCENARIOS.items()):
        with pytest.MonkeyPatch.context() as patch:
            recorder = _Recorder().install(patch)
            scenario()
            print(f"{name}: {recorder.digest()} ({len(recorder.rows)} rows)")
