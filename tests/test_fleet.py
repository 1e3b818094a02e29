"""Fleet layer: failover routing under deterministic chaos.

Covers the DESIGN.md §13 contracts: wafer-scoped fault schedules are
pure functions of their seed, two same-seed chaos runs replay identical
fault/failover timelines, a mid-trace wafer loss migrates every live
session with zero lost requests, session affinity pins sessions to one
wafer while it stays healthy, partitions and degradations steer new
dispatches away without touching in-flight work, and the router's loss
accounting fires only after the retry budget is exhausted everywhere.
"""

from pathlib import Path

import pytest

from repro.core.device_presets import PRESETS, WSE2
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    FleetFaultEvent,
    FleetFaultSchedule,
    FleetRouter,
    RouterConfig,
    WaferFleet,
    bursty_trace,
    poisson_trace,
    run_chaos,
    run_smoke,
    sessionize,
)
from repro.llm.config import get_model
from repro.mesh.faults import FaultSchedule
from repro.serving import Request

IPU = PRESETS["ipu-like-crossbar"]
TINY = get_model("tiny-gqa")

#: Small-wafer fleet knobs shared by most tests (tiny model, tiny KV).
SMALL = dict(n_wafers=3, chunk_tokens=64, default_context_len=256)


def small_config(seed: int = 0, **overrides) -> FleetConfig:
    kwargs = dict(SMALL, seed=seed)
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


def burst(n: int = 12, seed: int = 0, n_sessions: int = 3):
    """One burst at t=0: keeps wafers busy so faults strike live work."""
    return poisson_trace(
        n, seed=seed, mean_interarrival_s=0.0,
        seq_in_range=(64, 128), seq_out_range=(8, 16),
        n_sessions=n_sessions,
    )


# ----------------------------------------------------------------------
# Wafer-scoped fault schedules
# ----------------------------------------------------------------------

class TestFleetFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            FleetFaultEvent(at_s=0.0, kind="core_dead", wafer=0)
        with pytest.raises(ConfigurationError):
            FleetFaultEvent(at_s=-1.0, kind="wafer_down", wafer=0)
        with pytest.raises(ConfigurationError):
            FleetFaultEvent(at_s=0.0, kind="wafer_down", wafer=-1)
        with pytest.raises(ConfigurationError):
            FleetFaultEvent(at_s=0.0, kind="wafer_down", wafer=0,
                            duration_s=-0.1)

    def test_events_sorted_by_time(self):
        schedule = FleetFaultSchedule(events=[
            FleetFaultEvent(at_s=2.0, kind="wafer_down", wafer=0),
            FleetFaultEvent(at_s=1.0, kind="router_partition", wafer=1),
        ])
        assert [e.at_s for e in schedule.events] == [1.0, 2.0]

    def test_generate_is_seed_deterministic(self):
        kwargs = dict(wafer_down_rate_hz=3.0, wafer_degraded_rate_hz=2.0,
                      partition_rate_hz=1.0)
        a = FleetFaultSchedule.generate(3, 4.0, seed=5, **kwargs)
        b = FleetFaultSchedule.generate(3, 4.0, seed=5, **kwargs)
        c = FleetFaultSchedule.generate(3, 4.0, seed=6, **kwargs)
        assert a.events == b.events
        assert a.events != c.events
        assert sum(a.counts()) == len(a)
        assert all(0 <= e.at_s < 4.0 for e in a.events)
        assert all(0 <= e.wafer < 3 for e in a.events)

    def test_seed_zero_draws_are_pinned(self):
        # Both generators share the seeded Poisson draws; these are the
        # exact seed-0 schedules drawn before the draws were shared.
        mesh = FaultSchedule.generate(
            1.0, seed=0, transient_rate_hz=4.0, retrain_rate_hz=3.0,
            core_dead_rate_hz=2.0,
        )
        assert [(e.at_s, e.detail) for e in mesh.events] == [
            (0.2386515832557169, "retrain#0"),
            (0.32370173477665126, "core_dead#0"),
            (0.4116793119896892, "retrain#1"),
            (0.46515177776630584, "transient#0"),
            (0.7614945542159972, "core_dead#1"),
            (0.8198090660092463, "transient#1"),
            (0.9221942611879168, "retrain#2"),
            (0.9562373523946445, "transient#2"),
        ]
        assert all(
            (e.duration_s, e.bw_factor) == (5e-4, 0.25)
            for e in mesh.events if e.kind == "link_retrain"
        )
        fleet = FleetFaultSchedule.generate(
            4, 1.0, seed=0, wafer_down_rate_hz=3.0,
            wafer_degraded_rate_hz=2.0, partition_rate_hz=4.0,
        )
        assert [(e.at_s, e.wafer, e.detail) for e in fleet.events] == [
            (0.039510454792833126, 2, "router_partition#0"),
            (0.20530478786195858, 3, "router_partition#1"),
            (0.3156881356411869, 2, "wafer_degraded#0"),
            (0.4863689526347488, 3, "router_partition#2"),
            (0.6552171543232292, 3, "router_partition#3"),
            (0.7727112381418602, 2, "router_partition#4"),
            (0.8625471896086164, 0, "wafer_down#0"),
        ]

    def test_generate_validation(self):
        with pytest.raises(ConfigurationError):
            FleetFaultSchedule.generate(0, 1.0)
        with pytest.raises(ConfigurationError):
            FleetFaultSchedule.generate(3, 0.0)
        with pytest.raises(ConfigurationError):
            FleetFaultSchedule.generate(3, 1.0, wafer_down_rate_hz=-1.0)

    def test_derive_rng_requires_seed(self):
        bare = FleetFaultSchedule(events=[])
        with pytest.raises(ConfigurationError):
            bare.derive_rng("anything")
        seeded = FleetFaultSchedule(events=[], seed=3)
        assert seeded.derive_rng("x").random() == \
            seeded.derive_rng("x").random()
        assert seeded.derive_rng("x").random() != \
            seeded.derive_rng("y").random()


# ----------------------------------------------------------------------
# Fleet composition
# ----------------------------------------------------------------------

class TestWaferFleet:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_wafers=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(n_wafers=2, wafer_fault_schedules=[None])

    def test_wafers_run_in_fleet_failover_mode(self):
        fleet = WaferFleet(TINY, IPU, small_config())
        assert all(
            fleet.engine(w).server.fail_on_exhausted_spares
            for w in range(fleet.n_wafers)
        )

    def test_per_wafer_injector_streams_are_independent(self):
        config = small_config(failure_rate=0.5)
        fleet = WaferFleet(TINY, IPU, config)
        fates = [
            [fleet.engine(w).server.faults.step_fails() for _ in range(32)]
            for w in range(3)
        ]
        assert fates[0] != fates[1] or fates[1] != fates[2]

    def test_replace_boots_a_fresh_epoch(self):
        fleet = WaferFleet(TINY, IPU, small_config())
        fleet.engine(0).submit(Request(1, seq_in=64, seq_out=8))
        fleet.retire(0)
        assert not fleet.up[0]
        assert len(fleet.segments[0]) == 1
        eng = fleet.replace(0, at_s=2.5)
        assert fleet.up[0] and fleet.epochs[0] == 1
        assert eng.now == 2.5 and not eng.active


# ----------------------------------------------------------------------
# The failover contract (the PR's acceptance scenario)
# ----------------------------------------------------------------------

class TestFailover:
    def _mid_trace_loss(self, seed=0):
        trace = burst(seed=seed)
        clean = run_chaos(TINY, IPU, trace, small_config(seed))
        horizon = clean.makespan_s
        schedule = FleetFaultSchedule(events=[
            FleetFaultEvent(at_s=horizon * 0.4, kind="wafer_down", wafer=0,
                            duration_s=horizon * 0.3, detail="loss"),
        ], seed=seed)
        return trace, run_chaos(
            TINY, IPU, trace, small_config(seed), schedule=schedule
        )

    def test_wafer_down_migrates_all_sessions_zero_loss(self):
        trace, m = self._mid_trace_loss()
        assert m.finished == len(trace)
        assert m.lost_requests == 0
        assert m.failovers == 1
        assert m.migrations >= 1
        assert m.mttr_s > 0
        assert 0.0 < m.availability < 1.0
        assert any(e.kind == "wafer_down" for e in m.timeline)
        assert any(e.kind == "migration" for e in m.timeline)

    def test_token_conservation_across_migration(self):
        trace, m = self._mid_trace_loss()
        assert m.total_tokens_emitted == sum(r.seq_out for r in trace)

    def test_migrated_sessions_left_the_dead_wafer(self):
        _, m = self._mid_trace_loss()
        migrated = [o for o in m.outcomes if o.migrations > 0]
        assert migrated
        for o in migrated:
            assert o.wafers[0] == 0 or 0 in o.wafers
            assert o.wafers[-1] != 0
            assert o.completed

    def test_same_seed_runs_replay_identical_timelines(self):
        _, a = self._mid_trace_loss(seed=3)
        _, b = self._mid_trace_loss(seed=3)
        assert a.timeline_signature() == b.timeline_signature()
        assert a.summary() == b.summary()
        assert [o.wafers for o in a.outcomes] == \
            [o.wafers for o in b.outcomes]

    def test_different_seeds_diverge(self):
        _, a = self._mid_trace_loss(seed=1)
        _, b = self._mid_trace_loss(seed=2)
        assert a.timeline_signature() != b.timeline_signature()

    def test_readmitted_wafer_rejoins(self):
        trace = burst()
        clean = run_chaos(TINY, IPU, trace, small_config())
        schedule = FleetFaultSchedule(events=[
            FleetFaultEvent(at_s=clean.makespan_s * 0.3, kind="wafer_down",
                            wafer=0, duration_s=clean.makespan_s * 0.1),
        ], seed=0)
        fleet = WaferFleet(TINY, IPU, small_config())
        router = FleetRouter(fleet, schedule=schedule)
        m = router.run(trace)
        assert any(e.kind == "readmit" and e.wafer == 0 for e in m.timeline)
        assert fleet.epochs[0] == 1
        assert fleet.up[0]
        # The rebooted epoch contributes its own metrics segment.
        assert len(m.wafer_segments[0]) == 2

    def test_escalation_exhaustion_triggers_failover(self):
        """A wafer whose spare pool runs dry surfaces as down: its
        sessions fail over instead of degrading in place."""
        from repro.mesh.faults import FaultEvent, FaultSchedule

        trace = burst()
        clean = run_chaos(TINY, IPU, trace, small_config())
        deaths = FaultSchedule(events=[
            FaultEvent(at_s=clean.makespan_s * 0.2, kind="core_dead",
                       detail="d0"),
            FaultEvent(at_s=clean.makespan_s * 0.4, kind="core_dead",
                       detail="d1"),
        ])
        config = small_config(
            spare_regions=1,
            wafer_fault_schedules=[deaths, None, None],
        )
        m = run_chaos(TINY, IPU, trace, config)
        assert m.failovers == 1
        assert m.finished == len(trace)
        assert m.lost_requests == 0
        # The dead wafer's segment records the remap that preceded the
        # terminal escalation.
        assert m.wafer_segments[0][0].remaps == 1


# ----------------------------------------------------------------------
# Routing policy
# ----------------------------------------------------------------------

class TestRoutingPolicy:
    def test_session_affinity_pins_sessions(self):
        trace = poisson_trace(
            12, seed=0, mean_interarrival_s=0.05,
            seq_in_range=(64, 128), seq_out_range=(8, 16), n_sessions=3,
        )
        m = run_chaos(TINY, IPU, trace, small_config())
        by_session = {}
        for o in m.outcomes:
            by_session.setdefault(o.request.session_id, set()).update(
                o.wafers
            )
        # Healthy fleet: every session stayed on exactly one wafer.
        assert all(len(wafers) == 1 for wafers in by_session.values())

    def test_affinity_disabled_spreads_by_load(self):
        trace = burst(n=12)
        config = RouterConfig(session_affinity=False)
        fleet = WaferFleet(TINY, IPU, small_config())
        m = FleetRouter(fleet, config).run(trace)
        used = {w for o in m.outcomes for w in o.wafers}
        assert used == {0, 1, 2}

    def test_partitioned_wafer_gets_no_dispatches(self):
        trace = burst()
        schedule = FleetFaultSchedule(events=[
            FleetFaultEvent(at_s=0.0, kind="router_partition", wafer=1,
                            duration_s=1e9),
        ], seed=0)
        m = run_chaos(TINY, IPU, trace, small_config(), schedule=schedule)
        assert m.finished == len(trace)
        assert all(1 not in o.wafers for o in m.outcomes)

    def test_degraded_wafer_deprioritized(self):
        schedule = FleetFaultSchedule(events=[
            FleetFaultEvent(at_s=0.0, kind="wafer_degraded", wafer=0,
                            duration_s=1e9),
        ], seed=0)
        trace = [Request(0, seq_in=64, seq_out=8, arrival_s=0.01,
                         session_id=0)]
        m = run_chaos(TINY, IPU, trace, small_config(), schedule=schedule)
        assert m.finished == 1
        assert 0 not in m.outcomes[0].wafers

    def test_unroutable_request_is_lost_after_retry_budget(self):
        # KV footprint larger than any wafer's region: every wafer
        # bounces it at admission, and after max_attempts dispatches the
        # router declares it lost instead of looping forever.
        fleet = WaferFleet(TINY, IPU, small_config())
        capacity = fleet.engine(0).server.kv_capacity_tokens
        whale = Request(0, seq_in=capacity + 1, seq_out=8, arrival_s=0.0)
        minnow = Request(1, seq_in=64, seq_out=8, arrival_s=0.0)
        m = FleetRouter(fleet, RouterConfig(max_attempts=3)).run(
            [whale, minnow]
        )
        assert m.lost_requests == 1
        assert m.finished == 1
        whale_outcome = next(o for o in m.outcomes if o.request.request_id == 0)
        assert whale_outcome.lost and not whale_outcome.completed
        assert whale_outcome.dispatches == 3
        assert any(e.kind == "lost" for e in m.timeline)
        assert m.router_retries == 2

    def test_hedged_dispatch_duplicates_and_accounts_waste(self):
        # Affinity pins short-circuit hedging (a pinned session's KV
        # history lives on one wafer), so hedge behaviour is observed
        # with affinity off.
        trace = burst(n=12)
        config = RouterConfig(hedge_threshold_s=1e-9,
                              session_affinity=False)
        fleet = WaferFleet(TINY, IPU, small_config())
        m = FleetRouter(fleet, config).run(trace)
        assert m.hedges >= 1
        assert m.finished == len(trace)
        # Hedge copies burn tokens but never double-credit the client.
        assert m.hedge_wasted_tokens > 0
        assert m.total_tokens_emitted == sum(r.seq_out for r in trace)

    def test_hedging_off_by_default(self):
        m = run_chaos(TINY, IPU, burst(), small_config())
        assert m.hedges == 0 and m.hedge_wasted_tokens == 0


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------

class TestChaosHarness:
    def test_sessionize_round_robin(self):
        trace = sessionize(
            [Request(i, seq_in=8, seq_out=4) for i in range(6)], 2
        )
        assert [r.session_id for r in trace] == [0, 1, 0, 1, 0, 1]
        with pytest.raises(ConfigurationError):
            sessionize([], 0)

    def test_bursty_trace_shape(self):
        trace = bursty_trace(8, seed=0, burst_size=4, burst_gap_s=0.5)
        first, second = trace[:4], trace[4:]
        assert all(r.arrival_s < 0.5 * 0.05 for r in first)
        assert all(0.5 <= r.arrival_s < 0.5 + 0.5 * 0.05 for r in second)
        assert trace == bursty_trace(8, seed=0, burst_size=4,
                                     burst_gap_s=0.5)

    def test_run_smoke_contract(self):
        a = run_smoke(0)
        b = run_smoke(0)
        assert a.timeline_signature() == b.timeline_signature()
        assert a.lost_requests == 0
        assert a.failovers >= 1 and a.migrations >= 1

    def test_router_rejects_bad_traces(self):
        fleet = WaferFleet(TINY, IPU, small_config())
        router = FleetRouter(fleet)
        with pytest.raises(ConfigurationError):
            router.run([])
        fleet2 = WaferFleet(TINY, IPU, small_config())
        with pytest.raises(ConfigurationError):
            FleetRouter(fleet2).run(
                [Request(1, seq_in=8, seq_out=4),
                 Request(1, seq_in=8, seq_out=4)]
            )

    def test_fault_beyond_fleet_raises(self):
        schedule = FleetFaultSchedule(events=[
            FleetFaultEvent(at_s=0.0, kind="wafer_down", wafer=7),
        ], seed=0)
        with pytest.raises(ConfigurationError):
            run_chaos(TINY, IPU, burst(n=2), small_config(),
                      schedule=schedule)


# ----------------------------------------------------------------------
# Single-wafer equivalence and lint hygiene
# ----------------------------------------------------------------------

class TestFleetHygiene:
    def test_single_wafer_fleet_matches_lone_server(self):
        """A 1-wafer fleet with no fleet faults must reproduce the lone
        server's serving story for the same trace: same completions,
        same per-request finish times."""
        from repro.serving import WaferServer

        trace = [
            Request(i, seq_in=64, seq_out=8, arrival_s=i * 0.001)
            for i in range(6)
        ]
        lone = WaferServer(TINY, IPU, chunk_tokens=64,
                           default_context_len=256).serve(trace)
        m = run_chaos(TINY, IPU, trace, small_config(n_wafers=1))
        assert m.finished == lone.finished
        lone_finish = sorted(s.finish_s for s in lone.completed)
        fleet_finish = sorted(o.finish_s for o in m.outcomes)
        assert fleet_finish == pytest.approx(lone_finish)

    def test_fleet_sources_pass_unseeded_rng_lint(self):
        from repro.analysis.lint import lint_repo

        root = Path(__file__).resolve().parents[1] / "src/repro/fleet"
        findings = [
            f for f in lint_repo((root,))
            if f.rule == "unseeded-rng"
        ]
        assert findings == []
