"""Trace replay: lower a functional execution into the analytic cost model.

This module closes the loop between the two descriptions every kernel
carries — the functional ``run()`` executed on :class:`MeshMachine` and
the analytic ``plan()`` consumed by :func:`repro.mesh.cost_model.estimate`.
A recorded :class:`~repro.mesh.trace.Trace` is itself a phase stream:
:func:`trace_to_phases` lowers each phase group (opened by
``machine.phase(...)``) into the matching ``ComputePhase`` / ``CommPhase``
/ ``ReducePhase`` / ``LoopPhase`` object, and :func:`trace_cost` evaluates
the result on a device.  :func:`reconcile` then diffs the trace-derived
cost against an analytic plan cycle-bucket by cycle-bucket, with named
tolerances, so every registered kernel's ``plan()`` is continuously
validated against what the machine actually executed.

Lowering rules (per phase group, by scope ``kind``):

``serial``
    Each event costs on its own: a compute record becomes a
    :class:`ComputePhase` on the busiest core's MACs, a comm record a
    :class:`CommPhase` over its longest flow and busiest ingress link.

``overlap``
    The compute chain and the concurrent comm streams of the group run
    side by side — one step of a compute-shift loop.  Lowered to a
    single-step :class:`LoopPhase`; consecutive same-label steps are
    coalesced into one multi-step loop using the *worst step's*
    parameters (hops shrink as a cyclic alignment progresses; the plan
    charges the worst step throughout, so replay does too).

``reduce``
    The comm/add stages of the group form one streaming reduction and
    become a single :class:`ReducePhase` (``pipelined`` from the scope).

``gather``
    Concurrent gather streams serialize on the busiest ingress link of
    the whole group: one :class:`CommPhase` whose payload accumulates
    every event's bottleneck bytes.

Barrier records carry no cost and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.plmr import PLMRDevice
from repro.mesh.cost_model import (
    DEFAULT_PHASE_OVERHEAD_CYCLES,
    CommPhase,
    ComputePhase,
    KernelCost,
    LoopPhase,
    Phase,
    ReducePhase,
    estimate,
)
from repro.mesh.trace import (
    CommRecord,
    ComputeRecord,
    PhaseScope,
    Trace,
    TraceEvent,
    ingress_port,
)


def _merged_compute(label: str, comps: Sequence[ComputeRecord]) -> ComputePhase:
    """One compute phase covering the dependent chain of ``comps``.

    Events in one group run back to back on the critical core, so their
    busiest-core MACs add, and each event pays one launch overhead.
    """
    return ComputePhase(
        label=label,
        macs_per_core=sum(rec.max_macs for rec in comps),
        overhead_cycles=DEFAULT_PHASE_OVERHEAD_CYCLES * len(comps),
    )


def _merged_comm(label: str, comms: Sequence[CommRecord]) -> CommPhase:
    """One comm phase covering the concurrent streams of ``comms``.

    Streams of one group share the fabric: the head latency is the
    longest route, the body the busiest single event's ingress link.
    """
    return CommPhase(
        label=label,
        hop_distance=float(max(rec.max_hops for rec in comms)),
        payload_bytes=float(max(rec.ingress_bottleneck_bytes for rec in comms)),
    )


def _scope_ingress_bytes(comms: Sequence[CommRecord]) -> int:
    """Busiest receiving link accumulated over a whole gather scope.

    A core of an allgather receives from every *other* line member, so
    summing per-event bottlenecks would overcount by one source; instead
    the per-``(dst, ingress port)`` byte totals are accumulated across
    all events first.  Falls back to summed bottlenecks without per-flow
    detail.
    """
    ingress: dict = {}
    detailed = True
    for rec in comms:
        if not rec.flows:
            detailed = False
            break
        for flow in rec.flows:
            for dst in flow.dsts:
                key = (dst, ingress_port(flow.src, dst))
                ingress[key] = ingress.get(key, 0) + flow.nbytes
    if detailed and ingress:
        return max(ingress.values())
    return sum(rec.ingress_bottleneck_bytes for rec in comms)


def _lower_group(scope: PhaseScope, events: Sequence[TraceEvent]) -> List[Phase]:
    """Lower one phase group into cost-model phases."""
    comms = [ev for ev in events if isinstance(ev, CommRecord)]
    comps = [ev for ev in events if isinstance(ev, ComputeRecord)]
    if scope.kind == "reduce" and comms:
        adds = max((rec.max_macs for rec in comps), default=0.0)
        return [
            ReducePhase(
                label=scope.label,
                stages=len(comms),
                stage_hop_distance=float(max(rec.max_hops for rec in comms)),
                payload_bytes=float(max(rec.ingress_bottleneck_bytes for rec in comms)),
                stage_add_elems=float(adds),
                pipelined=scope.pipelined,
            )
        ]
    if scope.kind == "gather" and comms:
        phases: List[Phase] = [
            CommPhase(
                label=scope.label,
                hop_distance=float(max(rec.max_hops for rec in comms)),
                payload_bytes=float(_scope_ingress_bytes(comms)),
            )
        ]
        if comps:
            phases.append(_merged_compute(scope.label, comps))
        return phases
    if scope.kind == "overlap":
        if comps and comms:
            return [
                LoopPhase(
                    label=scope.label,
                    steps=1,
                    compute=_merged_compute(scope.label, comps),
                    comm=_merged_comm(scope.label, comms),
                    overlap=True,
                )
            ]
        if comps:
            return [_merged_compute(scope.label, comps)]
        if comms:
            return [_merged_comm(scope.label, comms)]
        return []
    # serial (and degenerate reduce/gather groups without comm events)
    lowered: List[Phase] = []
    for event in events:
        if isinstance(event, ComputeRecord):
            lowered.append(ComputePhase(label=event.label, macs_per_core=event.max_macs))
        elif isinstance(event, CommRecord):
            lowered.append(
                CommPhase(
                    label=event.pattern,
                    hop_distance=float(event.max_hops),
                    payload_bytes=float(event.ingress_bottleneck_bytes),
                )
            )
    return lowered


def _merge_loops(a: LoopPhase, b: LoopPhase) -> LoopPhase:
    """Two iterations of the same loop, as one loop at worst-step params."""
    compute = ComputePhase(
        label=a.compute.label,
        macs_per_core=max(a.compute.macs_per_core, b.compute.macs_per_core),
        overhead_cycles=max(a.compute.overhead_cycles, b.compute.overhead_cycles),
    )
    assert isinstance(a.comm, CommPhase) and isinstance(b.comm, CommPhase)
    comm = CommPhase(
        label=a.comm.label,
        hop_distance=max(a.comm.hop_distance, b.comm.hop_distance),
        payload_bytes=max(a.comm.payload_bytes, b.comm.payload_bytes),
        overhead_cycles=max(a.comm.overhead_cycles, b.comm.overhead_cycles),
    )
    return LoopPhase(
        label=a.label,
        steps=a.steps + b.steps,
        compute=compute,
        comm=comm,
        overlap=a.overlap,
    )


def _coalesce(phases: Sequence[Phase]) -> List[Phase]:
    """Merge same-label single-step loops into one multi-step loop.

    A compute-shift kernel emits one single-step :class:`LoopPhase` per
    iteration; the analytic plan writes one ``steps=n`` loop charged at
    the worst step.  The scope label identifies the loop, so all its
    iterations merge into the first occurrence (even when other phases —
    e.g. gemm-T's per-step row reductions — are interleaved between
    them), with element-wise max parameters.  This restores the single
    fill/drain term of the overlap model and makes the two phase shapes
    directly comparable.
    """
    out: List[Phase] = []
    loop_at: dict = {}
    for phase in phases:
        if (
            isinstance(phase, LoopPhase)
            and phase.overlap
            and isinstance(phase.comm, CommPhase)
        ):
            key = (phase.label, phase.comm.label)
            if key in loop_at:
                idx = loop_at[key]
                out[idx] = _merge_loops(out[idx], phase)
                continue
            loop_at[key] = len(out)
        out.append(phase)
    return out


def trace_to_phases(trace: Trace) -> List[Phase]:
    """Lower a recorded trace into an analytic phase list."""
    phases: List[Phase] = []
    for scope, events in trace.phase_groups():
        phases.extend(_lower_group(scope, events))
    return _coalesce(phases)


def trace_cost(device: PLMRDevice, trace: Trace, name: str = "trace") -> KernelCost:
    """Cycle cost of a functional run, derived from its own trace."""
    return estimate(name, device, trace_to_phases(trace))


# ----------------------------------------------------------------------
# Plan-vs-trace reconciliation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tolerances:
    """Named relative tolerances for plan-vs-trace reconciliation.

    * ``compute_rel`` — arithmetic is counted identically on both sides
      (same MACs on the same critical core), so only launch-overhead
      bookkeeping may differ.
    * ``comm_rel`` — communication models legitimately differ in shape:
      the plan charges a closed form (worst-step loops, per-level tree
      stages), replay recovers it from discrete events, and effects like
      alignment hops shrinking per step or per-step route setup land on
      different sides of the ledger.
    * ``total_rel`` — end-to-end agreement; tighter than ``comm_rel``
      because compute anchors the total.

    Defaults are calibrated in ``tests/test_reconcile.py`` across every
    registered kernel, two grids, and two device presets (see DESIGN.md).
    """

    compute_rel: float = 0.05
    comm_rel: float = 0.35
    total_rel: float = 0.25


@dataclass(frozen=True)
class BucketDiff:
    """One cycle bucket compared across the analytic and traced costs."""

    bucket: str
    analytic_cycles: float
    traced_cycles: float
    tolerance_rel: float

    @property
    def rel_diff(self) -> float:
        """Relative difference, normalized by the larger side."""
        scale = max(abs(self.analytic_cycles), abs(self.traced_cycles))
        if scale == 0.0:
            return 0.0
        return abs(self.analytic_cycles - self.traced_cycles) / scale

    @property
    def ok(self) -> bool:
        """Whether the two sides agree within tolerance."""
        return self.rel_diff <= self.tolerance_rel


@dataclass
class ReconcileReport:
    """Cycle-by-phase diff of an analytic plan against a trace replay."""

    name: str
    device: PLMRDevice
    analytic: KernelCost
    traced: KernelCost
    tolerances: Tolerances
    plan_phases: List[Phase] = field(default_factory=list)
    trace_phases: List[Phase] = field(default_factory=list)

    @property
    def buckets(self) -> List[BucketDiff]:
        """The three compared cycle buckets."""
        tol = self.tolerances
        return [
            BucketDiff(
                "compute",
                self.analytic.compute_cycles,
                self.traced.compute_cycles,
                tol.compute_rel,
            ),
            BucketDiff(
                "comm", self.analytic.comm_cycles, self.traced.comm_cycles, tol.comm_rel
            ),
            BucketDiff(
                "total",
                self.analytic.total_cycles,
                self.traced.total_cycles,
                tol.total_rel,
            ),
        ]

    @property
    def ok(self) -> bool:
        """True when every bucket agrees within its tolerance."""
        return all(bucket.ok for bucket in self.buckets)

    def check(self) -> "ReconcileReport":
        """Raise ``AssertionError`` with the full diff if any bucket fails."""
        if not self.ok:
            raise AssertionError(self.render())
        return self

    def render(self) -> str:
        """Human-readable reconciliation report."""
        lines = [
            f"reconcile {self.name!r} on {self.device.name} "
            f"({self.device.mesh_width}x{self.device.mesh_height}):"
        ]
        for bucket in self.buckets:
            verdict = "ok" if bucket.ok else "FAIL"
            lines.append(
                f"  {bucket.bucket:>7}: plan={bucket.analytic_cycles:12.1f}  "
                f"trace={bucket.traced_cycles:12.1f}  "
                f"diff={100 * bucket.rel_diff:6.2f}%  "
                f"(tol {100 * bucket.tolerance_rel:.0f}%)  {verdict}"
            )
        lines.append("  plan phases:")
        for phase in self.plan_phases:
            lines.append(
                f"    {type(phase).__name__:<12} {phase.label:<28} "
                f"{phase.cycles(self.device):12.1f}"
            )
        lines.append("  trace phases:")
        for phase in self.trace_phases:
            lines.append(
                f"    {type(phase).__name__:<12} {phase.label:<28} "
                f"{phase.cycles(self.device):12.1f}"
            )
        return "\n".join(lines)


def reconcile(
    analytic_plan: Sequence[Phase],
    trace: Trace,
    device: PLMRDevice,
    name: str = "kernel",
    tolerances: Optional[Tolerances] = None,
) -> ReconcileReport:
    """Diff an analytic plan against the trace of a functional run."""
    tol = tolerances if tolerances is not None else Tolerances()
    plan_phases = list(analytic_plan)
    trace_phases = trace_to_phases(trace)
    return ReconcileReport(
        name=name,
        device=device,
        analytic=estimate(f"{name}-plan", device, plan_phases),
        traced=estimate(f"{name}-trace", device, trace_phases),
        tolerances=tol,
        plan_phases=plan_phases,
        trace_phases=trace_phases,
    )


# ----------------------------------------------------------------------
# Timeline replay (the Figure 9/10 breakdown)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimelineRow:
    """Cycle breakdown of one phase group of a replayed trace."""

    label: str
    kind: str
    step: int
    events: int
    compute_cycles: float
    comm_cycles: float
    total_cycles: float


def trace_timeline(trace: Trace, device: PLMRDevice) -> List[TimelineRow]:
    """Per-step compute/comm timeline of a recorded run.

    Replays the stored trace — the kernel is *not* re-executed — and
    evaluates each phase group through the cost model, yielding the
    per-step compute/communication breakdown of Figures 9 and 10.
    """
    rows: List[TimelineRow] = []
    for scope, events in trace.phase_groups():
        lowered = _lower_group(scope, events)
        if not lowered:
            continue
        cost = estimate(scope.label, device, lowered)
        rows.append(
            TimelineRow(
                label=scope.label,
                kind=scope.kind,
                step=events[0].step,
                events=len(events),
                compute_cycles=cost.compute_cycles,
                comm_cycles=cost.comm_cycles,
                total_cycles=cost.total_cycles,
            )
        )
    return rows
