"""The ReplayAuditor: double-run divergence detection and localization.

Static rules catch determinism hazards by shape; this module catches
them by behaviour.  A *scenario* is a named, seeded, end-to-end run —
serving a trace, surviving a fleet fault, executing a kernel — distilled
into an ordered stream of :class:`AuditEvent` records, each tagged with
the phase of the run it belongs to (``steps``, ``timeline``,
``shift``, ...).  The auditor runs a scenario twice (or more) from the
same seed and compares:

1. the **run signature** — one sha256 over every event in order; equal
   signatures mean the runs told the identical story;
2. on mismatch, the **phase signatures** — one digest per phase, in
   first-appearance order, to bisect the divergence to a phase without
   reading any events;
3. inside the first divergent phase, a linear scan to the first
   differing event, reported as a :class:`Divergence` with both sides
   and a few events of surrounding context.

``audit_scenario(..., perturb=...)`` applies a caller-supplied
perturbation to the final run's event stream — the harness the tests
(and ``repro check --inject-divergence``) use to prove the auditor
*would* catch a real divergence and point at the right event.

Findings carry ``source="audit"`` under rule ``replay-divergence``, so
``repro check --determinism`` merges them with the static sides.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.errors import ConfigurationError

RULE_ID = "replay-divergence"

#: Events of context shown on each side of a divergent event.
_CONTEXT_EVENTS = 2


@dataclass(frozen=True)
class AuditEvent:
    """One replay-relevant fact of a run: a phase label and a payload.

    Payloads are pre-formatted strings (times rendered at nanosecond
    precision) so comparison and hashing are unambiguous.
    """

    phase: str
    payload: str


@dataclass
class ScenarioRun:
    """The distilled event stream of one seeded scenario execution."""

    scenario: str
    seed: int
    events: List[AuditEvent] = field(default_factory=list)

    def phases(self) -> List[str]:
        """Phase labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.phase)
        return list(seen)

    def phase_events(self, phase: str) -> List[str]:
        """Payloads of one phase, in stream order."""
        return [e.payload for e in self.events if e.phase == phase]

    def phase_signatures(self) -> Dict[str, str]:
        """Per-phase sha256 digests, keyed in first-appearance order."""
        digests: Dict[str, "hashlib._Hash"] = {}
        for event in self.events:
            h = digests.get(event.phase)
            if h is None:
                h = digests[event.phase] = hashlib.sha256()
            h.update(event.payload.encode("utf-8"))
            h.update(b"\n")
        return {phase: h.hexdigest() for phase, h in digests.items()}

    def signature(self) -> str:
        """One digest over the whole run (phase tags included)."""
        h = hashlib.sha256()
        for event in self.events:
            h.update(f"{event.phase}|{event.payload}\n".encode("utf-8"))
        return h.hexdigest()


@dataclass(frozen=True)
class Divergence:
    """First point two same-seed runs told different stories."""

    phase: str
    index: int  # event index within the phase
    left: Optional[str]  # payload in the reference run (None: missing)
    right: Optional[str]  # payload in the diverged run (None: missing)
    context: Tuple[str, ...] = ()  # shared events leading up to it

    def render(self) -> str:
        """Readable diff of the first divergent event."""
        lines = [f"first divergence: phase {self.phase!r}, event {self.index}"]
        for payload in self.context:
            lines.append(f"      = {payload}")
        lines.append(f"    run A: {self.left if self.left is not None else '<no event>'}")
        lines.append(f"    run B: {self.right if self.right is not None else '<no event>'}")
        return "\n".join(lines)


def _locate_divergence(a: ScenarioRun, b: ScenarioRun) -> Optional[Divergence]:
    """Bisect by phase signature, then scan the divergent phase."""
    sig_a, sig_b = a.phase_signatures(), b.phase_signatures()
    if sig_a == sig_b:
        return None
    ordered = list(sig_a)
    ordered.extend(p for p in sig_b if p not in sig_a)
    for phase in ordered:
        if sig_a.get(phase) == sig_b.get(phase):
            continue
        left, right = a.phase_events(phase), b.phase_events(phase)
        for i in range(max(len(left), len(right))):
            la = left[i] if i < len(left) else None
            rb = right[i] if i < len(right) else None
            if la != rb:
                context = tuple(left[max(0, i - _CONTEXT_EVENTS):i])
                return Divergence(
                    phase=phase, index=i, left=la, right=rb, context=context
                )
    # Same per-phase content but different phase ordering between runs.
    return Divergence(
        phase=ordered[0], index=0,
        left="|".join(sig_a), right="|".join(sig_b),
    )


@dataclass
class AuditReport:
    """Outcome of auditing one scenario across N same-seed runs."""

    scenario: str
    seed: int
    runs: List[ScenarioRun]
    divergence: Optional[Divergence] = None

    @property
    def ok(self) -> bool:
        """Whether every run produced the identical event stream."""
        return self.divergence is None

    @property
    def signature(self) -> str:
        """The (shared, when ok) run signature of the reference run."""
        return self.runs[0].signature() if self.runs else ""

    def findings(self) -> List[Finding]:
        """The divergence as analysis findings (empty when ok)."""
        if self.divergence is None:
            return []
        d = self.divergence
        return [
            Finding(
                rule=RULE_ID,
                message=(
                    f"two seed={self.seed} runs diverged in phase "
                    f"{d.phase!r} at event {d.index}: "
                    f"{d.left!r} != {d.right!r}"
                ),
                subject=f"{self.scenario} scenario",
                source="audit",
            )
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for ``repro check --json``."""
        data: Dict[str, object] = {
            "scenario": self.scenario,
            "seed": self.seed,
            "runs": len(self.runs),
            "ok": self.ok,
            "signature": self.signature,
            "phases": self.runs[0].phase_signatures() if self.runs else {},
            "divergence": None,
        }
        if self.divergence is not None:
            data["divergence"] = {
                "phase": self.divergence.phase,
                "index": self.divergence.index,
                "left": self.divergence.left,
                "right": self.divergence.right,
            }
        return data

    def render(self) -> str:
        """Human-readable audit block."""
        head = (
            f"{self.scenario}: {len(self.runs)} runs, seed {self.seed} — "
            + ("identical" if self.ok else "DIVERGED")
        )
        lines = [head]
        if self.runs:
            phases = self.runs[0].phase_signatures()
            counts = {
                p: len(self.runs[0].phase_events(p)) for p in phases
            }
            for phase, digest in phases.items():
                lines.append(
                    f"  {phase}: {counts[phase]} events, {digest[:16]}"
                )
        if self.divergence is not None:
            lines.append("  " + self.divergence.render().replace("\n", "\n  "))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _serve_scenario(seed: int) -> ScenarioRun:
    """One faulty serving run on the smoke model/device pair.

    Faults matter here: the injector's Bernoulli stream and the backoff
    jitter are exactly the state a replay bug would corrupt first.
    """
    from repro.core.device_presets import get_device
    from repro.llm.config import get_model
    from repro.mesh.faults import FaultInjector, derive_seed
    from repro.serving.chunked import WaferServer
    from repro.serving.trace import synthetic_trace

    device = get_device("ipu-like-crossbar")
    model = get_model("tiny-gqa")
    trace = synthetic_trace(
        10, seed=seed, mean_interarrival_s=0.01,
        seq_in_range=(64, 128), seq_out_range=(8, 16),
        ttft_slo_s=5.0, tpot_slo_s=0.5,
    )
    server = WaferServer(
        model, device, chunk_tokens=64, default_context_len=256,
        fault_injector=FaultInjector(
            0.05, seed=derive_seed(seed, "serve-audit"), jitter=True
        ),
    )
    metrics = server.serve(trace)
    events: List[AuditEvent] = []
    for request in metrics.rejected:
        events.append(AuditEvent("admission", f"reject|{request.request_id}"))
    for e in metrics.events:
        events.append(AuditEvent(
            "steps",
            f"{e.start_s:.9f}|{e.end_s:.9f}|{e.kind}|{e.decode_batch}"
            f"|{e.chunk_tokens}|{e.kv_tokens}|{e.queue_depth}",
        ))
    for s in metrics.completed:
        events.append(AuditEvent(
            "requests",
            f"{s.request.request_id}|{s.prefill_start_s:.9f}"
            f"|{s.first_token_s:.9f}|{s.finish_s:.9f}"
            f"|{s.prefill_chunks}|{s.preemptions}|{s.retries}",
        ))
    for f in metrics.fault_log:
        events.append(AuditEvent(
            "faults",
            f"{f.at_s:.9f}|{f.kind}|{f.action}|{f.downtime_s:.9f}|{f.detail}",
        ))
    return ScenarioRun("serve", seed, events)


def _fleet_scenario(seed: int) -> ScenarioRun:
    """The fleet smoke shape: burst trace, mid-trace wafer loss."""
    from repro.core.device_presets import get_device
    from repro.fleet.chaos import poisson_trace, run_chaos
    from repro.fleet.faults import FleetFaultEvent, FleetFaultSchedule
    from repro.fleet.fleet import FleetConfig
    from repro.llm.config import get_model

    device = get_device("ipu-like-crossbar")
    model = get_model("tiny-gqa")
    trace = poisson_trace(
        12, seed=seed, mean_interarrival_s=0.0,
        seq_in_range=(64, 128), seq_out_range=(8, 16), n_sessions=3,
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
            duration_s=horizon * 0.3, detail="audit wafer loss",
        ),
    ], seed=seed)
    metrics = run_chaos(model, device, trace, config(), schedule=schedule)
    events: List[AuditEvent] = []
    for e in metrics.timeline:
        events.append(AuditEvent("timeline", e.row()))
    for o in metrics.outcomes:
        wafers = ",".join(str(w) for w in o.wafers)
        events.append(AuditEvent(
            "outcomes",
            f"{o.request.request_id}|{o.dispatches}|{o.migrations}"
            f"|{o.retries}|{o.first_token_s:.9f}|{o.finish_s:.9f}"
            f"|{int(o.completed)}|{int(o.lost)}|{wafers}",
        ))
    for wafer, segments in enumerate(metrics.wafer_segments):
        for epoch, seg in enumerate(segments):
            events.append(AuditEvent(
                "segments",
                f"{wafer}|{epoch}|{seg.makespan_s:.9f}|{seg.finished}"
                f"|{seg.retries}|{seg.total_decode_tokens}",
            ))
    return ScenarioRun("fleet", seed, events)


def _kernel_scenario(seed: int) -> ScenarioRun:
    """One MeshGEMM execution, its trace replayed phase by phase."""
    from repro.mesh.trace import BarrierRecord, CommRecord, ComputeRecord
    from repro.profiling import build_case, run_case

    dim = 16 + 4 * (seed % 4)
    machine = run_case(build_case("meshgemm", 4, dim=dim))
    events: List[AuditEvent] = []
    for record in machine.trace.events():
        phase = record.phase or "unphased"
        if isinstance(record, CommRecord):
            payload = (
                f"comm|{record.step}|{record.pattern}|{record.num_flows}"
                f"|{record.max_hops}|{record.total_hops}"
                f"|{record.max_payload_bytes}|{record.total_payload_bytes}"
                f"|{record.group}|{record.seq}"
            )
        elif isinstance(record, ComputeRecord):
            payload = (
                f"compute|{record.step}|{record.label}|{record.max_macs:.3f}"
                f"|{record.total_macs:.3f}|{record.num_cores}"
                f"|{record.group}|{record.seq}"
            )
        else:
            assert isinstance(record, BarrierRecord)
            payload = (
                f"barrier|{record.step}|{record.pattern}"
                f"|{record.group}|{record.seq}"
            )
        events.append(AuditEvent(phase, payload))
    return ScenarioRun("kernel", seed, events)


#: Scenario name -> ``callable(seed) -> ScenarioRun``.
SCENARIOS: Dict[str, Callable[[int], ScenarioRun]] = {
    "serve": _serve_scenario,
    "fleet": _fleet_scenario,
    "kernel": _kernel_scenario,
}


def run_scenario(name: str, seed: int = 0) -> ScenarioRun:
    """Execute one scenario once and return its event stream."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown audit scenario {name!r}; choose from {list(SCENARIOS)}"
        ) from None
    return runner(seed)


def audit_scenario(
    name: str,
    seed: int = 0,
    runs: int = 2,
    perturb: Optional[
        Callable[[List[AuditEvent]], List[AuditEvent]]
    ] = None,
) -> AuditReport:
    """Run a scenario ``runs`` times from one seed and compare streams.

    ``perturb`` rewrites the final run's event list before comparison —
    the injected-divergence harness proving the auditor localizes a real
    mismatch (it never touches the scenario itself).
    """
    if runs < 2:
        raise ConfigurationError(
            "auditing needs at least 2 runs to compare"
        )
    executed = [run_scenario(name, seed) for _ in range(runs)]
    if perturb is not None:
        last = executed[-1]
        executed[-1] = ScenarioRun(
            last.scenario, last.seed, list(perturb(list(last.events)))
        )
    divergence: Optional[Divergence] = None
    reference = executed[0]
    for candidate in executed[1:]:
        divergence = _locate_divergence(reference, candidate)
        if divergence is not None:
            break
    return AuditReport(
        scenario=name, seed=seed, runs=executed, divergence=divergence
    )


def audit_all(
    seed: int = 0,
    runs: int = 2,
    scenarios: Optional[Sequence[str]] = None,
) -> List[AuditReport]:
    """Audit every (or the named) scenario; reports in scenario order."""
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    return [audit_scenario(name, seed=seed, runs=runs) for name in names]
