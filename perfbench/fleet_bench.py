"""The two fleet workloads: 4 llama3-8b wafers on WSE-2.

Both are open loops in simulated time: the seeded trace fixes every
arrival, whether or not the fleet keeps up.  Every request is its own
session (independent users), so session affinity never pins a seed's
load onto one wafer.  Host-side, one timed run is one
``FleetRouter.run`` call on a freshly built fleet with a cold step-cost
cache, because every ``repro fleet`` process starts cold.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import WSE2
from repro.fleet.chaos import bursty_trace, poisson_trace
from repro.fleet.faults import FleetFaultEvent, FleetFaultSchedule
from repro.fleet.fleet import FleetConfig, WaferFleet
from repro.fleet.metrics import FleetMetrics
from repro.fleet.router import FleetRouter
from repro.llm.config import get_model
from repro.serving import stepcost
from repro.serving.stats import percentile_sorted

from common import Outcome

N_REQUESTS = 1024
N_WAFERS = 4


class FleetWorkload:
    """One seeded trace (and fault schedule) through a fresh fleet."""

    def __init__(self, seed: int):
        self.seed = seed
        self.model = get_model("llama3-8b")
        self.trace = self.make_trace(seed)
        self.schedule = self.make_schedule(seed)

    def make_trace(self, seed: int):
        raise NotImplementedError

    def make_schedule(self, seed: int) -> Optional[FleetFaultSchedule]:
        return None

    def build(self) -> FleetRouter:
        """Per-run set-up: cold step-cost cache, new fleet and router."""
        stepcost.invalidate()
        fleet = WaferFleet(self.model, WSE2, FleetConfig(
            n_wafers=N_WAFERS, chunk_tokens=256, default_context_len=2048,
            seed=self.seed,
        ))
        return FleetRouter(fleet, None, self.schedule)

    def run(self, router: FleetRouter) -> FleetMetrics:
        return router.run(self.trace)

    def outcome(self, router: FleetRouter, m: FleetMetrics) -> Outcome:
        """Conservation checks plus the exact record of the simulation."""
        done = m.completed_outcomes
        expected_tokens = sum(o.request.seq_out for o in done)
        problems = []
        if m.finished + m.lost_requests + m.rejected != m.submitted:
            problems.append(
                f"request conservation: {m.finished} finished + "
                f"{m.lost_requests} lost + {m.rejected} rejected != "
                f"{m.submitted} submitted"
            )
        if m.submitted != len(self.trace):
            problems.append(
                f"{m.submitted} outcomes for {len(self.trace)} requests")
        if m.total_tokens_emitted != expected_tokens:
            problems.append(
                f"token conservation: {m.total_tokens_emitted} emitted != "
                f"{expected_tokens} = sum of seq_out over completed"
            )
        tpots = sorted(o.tpot_s for o in done)
        record = {
            "timeline_signature": m.timeline_signature(),
            "finished": m.finished,
            "tokens": m.total_tokens_emitted,
            "sim_makespan_s": m.makespan_s,
            "sim_ttft_p50_s": m.p50_ttft_s,
            "sim_ttft_p99_s": m.p99_ttft_s,
            "sim_tpot_p99_s": percentile_sorted(tpots, 0.99),
            "sim_goodput_tok_s": m.goodput_tokens_per_s,
            "sim_slo_attainment": m.slo_attainment,
            "sim_steps": sum(
                len(seg.events) for segs in m.wafer_segments for seg in segs
            ),
            "dispatches": sum(o.dispatches for o in m.outcomes),
            "failovers": m.failovers,
            "migrations": m.migrations,
        }
        return Outcome(
            requests=m.finished,
            tokens=m.total_tokens_emitted,
            attempted=m.submitted,
            failed=m.lost_requests + m.rejected,
            problems=problems,
            record=record,
        )

    def facts(self, router: FleetRouter, m: FleetMetrics,
              outcome: Outcome) -> Dict[str, float]:
        """Per-layer inputs counted from the run's own outputs."""
        return {key: outcome.record[key] for key in FACT_KEYS}


#: Record fields that are also inputs of the per-layer metrics.
FACT_KEYS = (
    "sim_steps", "dispatches", "failovers", "migrations",
    "sim_ttft_p50_s", "sim_ttft_p99_s", "sim_tpot_p99_s",
    "sim_goodput_tok_s", "sim_slo_attainment",
)


class FleetAtLoad(FleetWorkload):
    """Poisson arrivals just below saturation, no faults."""

    name = "fleet_at_load"

    def make_trace(self, seed: int):
        return poisson_trace(
            N_REQUESTS, seed=seed, mean_interarrival_s=0.02,
            seq_in_range=(256, 2048), seq_out_range=(32, 256),
            ttft_slo_s=5.0, tpot_slo_s=0.5, n_sessions=N_REQUESTS,
        )


class FleetDecodeHeavy(FleetWorkload):
    """Flash-crowd bursts of long generations plus one wafer loss."""

    name = "fleet_decode_heavy"

    def make_trace(self, seed: int):
        return bursty_trace(
            N_REQUESTS, seed=seed, burst_size=16, burst_gap_s=2.0,
            seq_in_range=(128, 512), seq_out_range=(512, 1536),
            ttft_slo_s=5.0, tpot_slo_s=0.5, n_sessions=N_REQUESTS,
        )

    def make_schedule(self, seed: int) -> FleetFaultSchedule:
        # Wafer 0 goes down at 40% of the arrival span for 20% of it.
        # The fleet keeps up with this trace, so the span stands in for
        # the clean makespan without a second fleet run in set-up.
        span = max(r.arrival_s for r in self.trace)
        return FleetFaultSchedule(events=[FleetFaultEvent(
            at_s=span * 0.4, kind="wafer_down", wafer=0,
            duration_s=span * 0.2, detail="planned mid-trace loss",
        )], seed=seed)
