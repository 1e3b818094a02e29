"""Each serving record has one owner, and readers read that owner.

* Incidents are counted by the :class:`HealthMonitor` alone.  The fault
  log it keeps is bounded, so a rollup that recounted incidents from the
  retained log would divide all-time downtime by a windowed count and
  overstate MTTR once the log rolled over.
* A :class:`ServeEngine` hands each completion and each shed request
  over exactly once through :meth:`ServeEngine.harvest`; sessions it
  evacuates through :meth:`ServeEngine.drain` go to the drain caller
  only.
* A fleet timeline row has one text form, shared by the timeline
  signature and the determinism audit.
"""

import hashlib

from repro.core.device_presets import PRESETS
from repro.fleet import (
    FleetConfig,
    FleetFaultEvent,
    FleetFaultSchedule,
    run_chaos,
    poisson_trace,
)
from repro.fleet.metrics import FleetMetrics, FleetTimelineEntry
from repro.llm.config import get_model
from repro.mesh.faults import FaultInjector
from repro.serving import HealthMonitor, ServeEngine, WaferServer
from repro.serving.trace import synthetic_trace

IPU = PRESETS["ipu-like-crossbar"]
TINY = get_model("tiny-gqa")


def _faulty_run(seed: int = 3, max_log_entries: int = 4):
    """A Bernoulli-faulted run whose four-entry fault log rolls over."""
    monitor = HealthMonitor(max_log_entries=max_log_entries)
    server = WaferServer(
        TINY, IPU, default_context_len=256,
        fault_injector=FaultInjector(0.2, seed=seed), health=monitor,
    )
    return server.serve(synthetic_trace(20)), monitor


def _small_engine(n: int = 6) -> ServeEngine:
    server = WaferServer(TINY, IPU, chunk_tokens=64, default_context_len=256)
    return ServeEngine(server, synthetic_trace(
        n, mean_interarrival_s=0.0,
        seq_in_range=(64, 128), seq_out_range=(8, 16),
    ))


class TestIncidentsOwnedByMonitor:
    def test_rolled_over_log_keeps_monitor_mttr(self):
        metrics, monitor = _faulty_run()
        assert monitor.dropped_entries > 0
        assert len(metrics.fault_log) == 4
        assert metrics.incidents == monitor.incidents
        assert metrics.mttr_s == monitor.mttr_s
        assert metrics.downtime_s == monitor.downtime_s

    def test_dropped_entries_are_recorded_minus_retained(self):
        metrics, monitor = _faulty_run()
        recorded = sum(monitor.action_counts().values())
        assert monitor.dropped_entries == recorded - len(monitor.log)

    def test_fleet_incidents_sum_segment_incidents(self):
        # Two wafer segments whose logs both rolled over, plus one down
        # window: the fleet reads each segment's monitor count.
        seg_a, mon_a = _faulty_run(seed=3)
        seg_b, mon_b = _faulty_run(seed=5)
        assert mon_a.dropped_entries > 0 and mon_b.dropped_entries > 0
        makespan = max(seg_a.makespan_s, seg_b.makespan_s)
        fleet = FleetMetrics(
            n_wafers=2, outcomes=[], wafer_segments=[[seg_a], [seg_b]],
            timeline=[], makespan_s=makespan,
            down_windows=[(0.0, makespan / 10, 1)],
        )
        assert fleet.incidents == 1 + mon_a.incidents + mon_b.incidents
        assert fleet.mttr_s == (
            fleet.unavailable_wafer_seconds / fleet.incidents
        )


class TestHarvest:
    def test_each_completion_is_handed_over_once_in_finish_order(self):
        engine = _small_engine()
        harvested = []
        while engine.active:
            engine.step()
            done, shed = engine.harvest()
            assert shed == []
            harvested.extend(done)
        assert engine.harvest() == ([], [])
        metrics = engine.finish()
        assert sorted(harvested) == sorted(
            s.request.request_id for s in metrics.completed
        )
        finish = [engine.stats[i].finish_s for i in harvested]
        assert finish == sorted(finish)

    def test_harvest_after_drain_returns_no_drained_session(self):
        engine = _small_engine()
        for _ in range(3):
            engine.step()
        engine.harvest()
        snapshots = engine.drain()
        assert snapshots
        done, shed = engine.harvest()
        drained = {s.request.request_id for s in snapshots}
        assert not drained & set(done)
        assert not drained & {r.request_id for r in shed}

    def test_router_leaves_no_unharvested_output(self, monkeypatch):
        trace = poisson_trace(
            12, seed=0, mean_interarrival_s=0.0,
            seq_in_range=(64, 128), seq_out_range=(8, 16), n_sessions=3,
        )

        def config() -> FleetConfig:
            return FleetConfig(
                n_wafers=3, chunk_tokens=64, default_context_len=256, seed=0,
            )

        horizon = run_chaos(TINY, IPU, trace, config()).makespan_s
        schedule = FleetFaultSchedule(events=[FleetFaultEvent(
            at_s=horizon * 0.4, kind="wafer_down", wafer=0,
            duration_s=horizon * 0.3,
        )], seed=0)
        leftovers = []
        original = ServeEngine.finish

        def finish(self):
            leftovers.append(self.harvest())
            return original(self)

        monkeypatch.setattr(ServeEngine, "finish", finish)
        metrics = run_chaos(TINY, IPU, trace, config(), schedule=schedule)
        assert metrics.failovers == 1 and metrics.migrations > 0
        assert metrics.finished == len(trace)
        # One finish per wafer epoch: the failed one and every survivor.
        assert len(leftovers) == sum(
            len(segs) for segs in metrics.wafer_segments
        )
        assert all(left == ([], []) for left in leftovers)


class TestTimelineRow:
    def test_row_format_and_signature_bytes(self):
        timeline = [
            FleetTimelineEntry(0.25, "wafer_down", 0, "planned loss"),
            FleetTimelineEntry(
                1.0 / 3, "migration", 0,
                "request 7: 96 ctx tokens re-prefill, 4 decode tokens owed",
            ),
            FleetTimelineEntry(0.5, "readmit", 0),
        ]
        assert timeline[1].row() == (
            "0.333333333|migration|0|request 7: 96 ctx tokens re-prefill, "
            "4 decode tokens owed"
        )
        metrics = FleetMetrics(
            n_wafers=2, outcomes=[], wafer_segments=[[], []],
            timeline=timeline, makespan_s=1.0,
        )
        expected = hashlib.sha256(
            "".join(f"{e.row()}\n" for e in timeline).encode()
        ).hexdigest()
        assert metrics.timeline_signature() == expected
        # Pinned before the row format was shared: the hashed bytes
        # must never change.
        assert metrics.timeline_signature() == (
            "65d99132e4004e3feb549a5aa397b88952b5180a9b9ec851635f621a41cc04f0"
        )
