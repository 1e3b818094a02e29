"""Deterministic chaos harness: seeded arrival × fault sweeps.

The fleet claims are availability claims, and availability numbers mean
nothing without the failure story that produced them being replayable.
Every sweep here is a pure function of one seed: the arrival trace, the
wafer-scoped fault schedule, the per-wafer Bernoulli streams, and both
jitter streams (escalation backoff, router retry) all derive from it,
so two runs with the same seed replay the identical fault *and* reaction
timeline — :meth:`FleetMetrics.timeline_signature` is the proof the
determinism tests assert.

The ladder mirrors the single-wafer fault sweep (``run_fault_sweep``):
run the clean fleet first, reuse its makespan as every chaos scenario's
fault horizon, then walk scenarios of increasing unpleasantness —
a planned mid-trace wafer loss, seeded wafer churn, a router partition,
and bursty arrivals colliding with a wafer loss.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.fleet.faults import FleetFaultEvent, FleetFaultSchedule
from repro.fleet.fleet import FleetConfig, WaferFleet
from repro.fleet.metrics import FleetMetrics
from repro.fleet.router import FleetRouter, RouterConfig
from repro.llm.config import ModelConfig
from repro.mesh.faults import derive_seed
from repro.serving.request import Request
from repro.serving.trace import synthetic_trace


def sessionize(
    requests: Sequence[Request], n_sessions: int
) -> List[Request]:
    """Assign session ids round-robin so affinity has something to pin."""
    if n_sessions < 1:
        raise ConfigurationError("n_sessions must be >= 1")
    return [
        replace(r, session_id=r.request_id % n_sessions) for r in requests
    ]


def poisson_trace(
    num_requests: int,
    seed: int,
    mean_interarrival_s: float,
    n_sessions: int = 4,
    **kwargs,
) -> List[Request]:
    """Poisson arrivals with session ids (the default fleet workload)."""
    return sessionize(
        synthetic_trace(
            num_requests, seed=seed,
            mean_interarrival_s=mean_interarrival_s, **kwargs,
        ),
        n_sessions,
    )


def bursty_trace(
    num_requests: int,
    seed: int,
    burst_size: int = 4,
    burst_gap_s: float = 0.5,
    n_sessions: int = 4,
    **kwargs,
) -> List[Request]:
    """Closed bursts: ``burst_size`` near-simultaneous arrivals per gap.

    Models the flash-crowd pattern that defeats per-request smoothing:
    within a burst, arrivals land within a small seeded jitter of the
    burst instant, so the router must spread them across wafers rather
    than rely on arrival spacing.
    """
    if burst_size < 1:
        raise ConfigurationError("burst_size must be >= 1")
    base = synthetic_trace(
        num_requests, seed=seed, mean_interarrival_s=0.0, **kwargs
    )
    rng = random.Random(derive_seed(seed, "bursty-jitter"))
    shaped: List[Request] = []
    for request in base:
        burst = request.request_id // burst_size
        arrival = burst * burst_gap_s + rng.uniform(0.0, burst_gap_s * 0.05)
        shaped.append(replace(request, arrival_s=arrival))
    return sessionize(shaped, n_sessions)


def run_chaos(
    model: ModelConfig,
    device: PLMRDevice,
    requests: Sequence[Request],
    fleet_config: FleetConfig,
    router_config: Optional[RouterConfig] = None,
    schedule: Optional[FleetFaultSchedule] = None,
) -> FleetMetrics:
    """One chaos run: fresh fleet, fresh router, one trace, one schedule."""
    fleet = WaferFleet(model, device, fleet_config)
    router = FleetRouter(fleet, router_config, schedule)
    return router.run(list(requests))


def chaos_sweep(
    model: ModelConfig,
    device: PLMRDevice,
    n_wafers: int = 3,
    n_requests: int = 24,
    seed: int = 0,
    mean_interarrival_s: float = 0.02,
    seq_in_range: Tuple[int, int] = (256, 1024),
    seq_out_range: Tuple[int, int] = (32, 128),
    default_context_len: int = 2048,
    chunk_tokens: int = 256,
) -> List[Tuple[str, FleetMetrics]]:
    """The canonical fleet chaos ladder: one trace, five scenarios.

    Runs the clean fleet first and reuses its makespan as the fault
    horizon for every scenario, exactly like the single-wafer fault
    sweep — the whole ladder is a pure function of ``seed``.  It needs
    at least two wafers: the router-partition scenario isolates wafer 1.
    """
    if n_wafers < 2:
        raise ConfigurationError(
            f"the chaos sweep needs at least 2 wafers, got {n_wafers}: "
            f"its router-partition scenario isolates wafer 1"
        )
    trace = poisson_trace(
        n_requests, seed=seed, mean_interarrival_s=mean_interarrival_s,
        seq_in_range=seq_in_range, seq_out_range=seq_out_range,
        ttft_slo_s=5.0, tpot_slo_s=0.5,
    )

    def config() -> FleetConfig:
        return FleetConfig(
            n_wafers=n_wafers, chunk_tokens=chunk_tokens,
            default_context_len=default_context_len, seed=seed,
        )

    baseline = run_chaos(model, device, trace, config())
    horizon = baseline.makespan_s
    scenarios: List[Tuple[str, FleetMetrics]] = [("clean fleet", baseline)]

    down_mid = FleetFaultSchedule(events=[
        FleetFaultEvent(
            at_s=horizon * 0.4, kind="wafer_down", wafer=0,
            duration_s=horizon * 0.2, detail="planned mid-trace loss",
        ),
    ], seed=seed)
    scenarios.append((
        "wafer down mid-trace",
        run_chaos(model, device, trace, config(), schedule=down_mid),
    ))

    churn = FleetFaultSchedule.generate(
        n_wafers, horizon, seed=seed,
        wafer_down_rate_hz=4.0 / horizon,
        wafer_degraded_rate_hz=2.0 / horizon,
        down_duration_s=horizon * 0.1,
        degraded_duration_s=horizon * 0.2,
    )
    scenarios.append((
        "wafer churn",
        run_chaos(model, device, trace, config(), schedule=churn),
    ))

    partition = FleetFaultSchedule(events=[
        FleetFaultEvent(
            at_s=horizon * 0.2, kind="router_partition", wafer=1,
            duration_s=horizon * 0.3, detail="planned partition",
        ),
    ], seed=seed)
    scenarios.append((
        "router partition",
        run_chaos(model, device, trace, config(), schedule=partition),
    ))

    bursts = bursty_trace(
        n_requests, seed=seed,
        seq_in_range=seq_in_range, seq_out_range=seq_out_range,
        ttft_slo_s=5.0, tpot_slo_s=0.5,
    )
    scenarios.append((
        "bursty arrivals + wafer down",
        run_chaos(model, device, bursts, config(), schedule=down_mid),
    ))
    return scenarios


def fleet_rows(
    scenarios: Sequence[Tuple[str, FleetMetrics]]
) -> List[List[str]]:
    """Render ``chaos_sweep`` output as the shared fleet-table rows."""
    rows: List[List[str]] = []
    for label, m in scenarios:
        rows.append([
            label,
            str(m.finished), str(m.lost_requests),
            str(m.failovers), str(m.migrations), str(m.router_retries),
            f"{m.availability:.4f}",
            f"{m.mttr_s * 1e3:.2f}",
            f"{m.p99_ttft_s * 1e3:.1f}",
            f"{m.goodput_tokens_per_s:,.0f}",
        ])
    return rows


def run_smoke(seed: int = 0) -> FleetMetrics:
    """Tiny fixed-seed failover check for CI (``repro fleet --smoke``).

    Three small wafers, a short Poisson trace, one mid-trace
    ``wafer_down``; asserts the failover contract — availability dips
    below 1 but stays positive, at least one failover fires, and no
    admitted request is lost.
    """
    from repro.core.device_presets import get_device
    from repro.llm.config import get_model

    device = get_device("ipu-like-crossbar")
    model = get_model("tiny-gqa")
    # One burst at t=0 keeps every wafer busy until the work is done, so
    # a fault placed mid-window is guaranteed to strike live sessions.
    trace = poisson_trace(
        12, seed=seed, mean_interarrival_s=0.0,
        seq_in_range=(64, 128), seq_out_range=(8, 16),
        n_sessions=3,
    )

    def config() -> FleetConfig:
        return FleetConfig(
            n_wafers=3, chunk_tokens=64, default_context_len=256, seed=seed,
        )

    clean = run_chaos(model, device, trace, config())
    horizon = clean.makespan_s
    schedule = FleetFaultSchedule(events=[
        FleetFaultEvent(
            at_s=horizon * 0.4, kind="wafer_down", wafer=0,
            duration_s=horizon * 0.3, detail="smoke wafer loss",
        ),
    ], seed=seed)
    metrics = run_chaos(model, device, trace, config(), schedule=schedule)
    if metrics.failovers < 1:
        raise AssertionError("smoke: expected at least one failover")
    if metrics.migrations < 1:
        raise AssertionError(
            "smoke: expected live sessions to migrate off the dead wafer"
        )
    if metrics.lost_requests != 0:
        raise AssertionError(
            f"smoke: {metrics.lost_requests} requests lost in failover"
        )
    if not 0.0 < metrics.availability <= 1.0:
        raise AssertionError(
            f"smoke: availability {metrics.availability} out of range"
        )
    if metrics.finished != len(trace):
        raise AssertionError(
            f"smoke: {metrics.finished}/{len(trace)} requests finished"
        )
    return metrics
