"""The fleet router: dispatch, retry, and cross-wafer failover.

The router is the client-facing control loop of the fleet.  It runs a
single deterministic event queue in global time (a heap keyed on
``(time, seq)`` — the monotone sequence number breaks ties, so two
same-seed runs pop events in the same order) and processes four event
kinds:

* **dispatch** — route one request (an original arrival, a retry, or a
  migrated continuation) to a wafer and submit it to that wafer's
  :class:`~repro.serving.chunked.ServeEngine`;
* **fleet_fault** — apply a wafer-scoped event from the
  :class:`~repro.fleet.faults.FleetFaultSchedule` (``wafer_down``
  drains and retires the wafer; ``wafer_degraded`` deprioritizes it;
  ``router_partition`` hides it from new dispatches);
* **readmit** — boot a fresh epoch of a previously-failed wafer after
  its recovery window;
* **harvest** ticks happen implicitly: every time the router advances a
  wafer's clock it collects new completions and rejections from that
  wafer and reacts (completion accounting, retry-with-backoff).

Each request has one copy in flight at a time: a retry or migration is
dispatched only once the previous copy was rejected or drained.

Routing policy: session affinity first (a session's KV history lives on
its pinned wafer — keep it there while that wafer is healthy), then
least-estimated-wait among healthy wafers, where the wait estimate is
the wafer's unprocessed prefill backlog costed at the admission
controller's optimistic per-token prefill rate.  Degraded wafers sort
behind healthy ones; partitioned and down wafers are not candidates at
all.

Failure handling is layered, innermost first:

1. **Per-wafer escalation** (PR 3's ladder) — retries, remaps,
   degradations happen inside the engine and the router never sees them.
2. **Router retry** — a request the wafer *rejects* (admission shed, or
   shed during capacity degradation) is re-dispatched after a seeded
   decorrelated-jitter backoff, excluding the wafer that bounced it;
   after ``max_attempts`` total dispatches it is declared **lost**.
3. **Cross-wafer failover** — when a wafer dies
   (:class:`~repro.errors.SpareExhaustionError` from an exhausted spare
   pool, or a scheduled ``wafer_down``), the router drains it into
   :class:`~repro.serving.chunked.SessionSnapshot` records and
   re-dispatches each as a *continuation* on a healthy wafer: the
   continuation's prompt is the session's full live context
   (``seq_in + generated`` tokens — the KV that must be rebuilt, billed
   naturally through the target's chunked prefill), its decode budget
   is the ``seq_out - generated`` tokens still owed, and it carries no
   SLOs (a refugee must not be bounced by admission for blowing a
   deadline the fault already blew).  Client-visible latency still
   judges the *original* SLOs in :class:`SessionOutcome.met_slo`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ConfigurationError,
    FaultEscalationError,
    require_positive_int,
)
from repro.fleet.faults import FleetFaultEvent, FleetFaultSchedule
from repro.fleet.fleet import WaferFleet
from repro.fleet.metrics import (
    FleetMetrics,
    FleetTimelineEntry,
    SessionOutcome,
)
from repro.mesh.faults import derive_seed
from repro.serving.chunked import ServeEngine, SessionSnapshot
from repro.serving.request import Request


@dataclass
class RouterConfig:
    """Knobs of the dispatch / retry / failover policy."""

    #: Total dispatches allowed per logical request (1 primary + retries).
    max_attempts: int = 4
    retry_base_backoff_s: float = 1e-3
    retry_max_backoff_s: float = 0.25
    #: Lag between draining a dead wafer and re-dispatching its sessions
    #: (detection + snapshot shipping).
    failover_delay_s: float = 1e-3
    #: Recovery time before a wafer that died of spare exhaustion may
    #: rejoin (scheduled ``wafer_down`` events carry their own duration).
    recovery_s: float = 0.05

    def __post_init__(self) -> None:
        require_positive_int("max_attempts", self.max_attempts)
        for name in (
            "retry_base_backoff_s", "retry_max_backoff_s",
            "failover_delay_s", "recovery_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.retry_base_backoff_s <= 0:
            raise ConfigurationError("retry_base_backoff_s must be > 0")
        if self.retry_max_backoff_s < self.retry_base_backoff_s:
            raise ConfigurationError(
                "retry_max_backoff_s must be >= retry_base_backoff_s"
            )
        for name in ("failover_delay_s", "recovery_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass
class _Dispatch:
    """One dispatch attempt of a logical request."""

    outcome: SessionOutcome
    request: Request          # what actually runs (continuation on migrate)
    exclude: Set[int]         # wafers not to route to (just bounced us)


class FleetRouter:
    """Health-checked load balancer over a :class:`WaferFleet`."""

    def __init__(
        self,
        fleet: WaferFleet,
        config: Optional[RouterConfig] = None,
        schedule: Optional[FleetFaultSchedule] = None,
    ):
        self.fleet = fleet
        self.config = config or RouterConfig()
        self.schedule = schedule
        # Retry jitter derives from the fleet fault schedule's seed when
        # it has one, else from the fleet seed — either way one root
        # seed pins the entire reaction timeline.
        root_seed = (
            schedule.seed
            if schedule is not None and schedule.seed is not None
            else fleet.config.seed
        )
        self._retry_rng = random.Random(
            derive_seed(root_seed, "router-retry-jitter")
        )
        self._prev_backoff = 0.0
        # Wafer state the router tracks on top of fleet.up.
        n = fleet.n_wafers
        self._degraded_until = [0.0] * n
        self._partitioned_until = [0.0] * n
        self._affinity: Dict[int, int] = {}      # session_id -> wafer
        # local request id -> outcome; local ids are globally unique
        # across the fleet so harvests map back exactly.
        self._inflight: Dict[int, SessionOutcome] = {}
        self._local_ids = itertools.count(1)
        # Bookkeeping for the rollup.
        self.timeline: List[FleetTimelineEntry] = []
        self.failovers = 0
        self.migrations = 0
        self.router_retries = 0
        self.down_windows: List[Tuple[float, float, int]] = []
        self._seq = itertools.count()
        self._heap: List[Tuple[float, int, str, object]] = []

    # -- event queue ----------------------------------------------------
    def _push(self, at_s: float, kind: str, payload: object) -> None:
        heapq.heappush(self._heap, (at_s, next(self._seq), kind, payload))

    def _retry_backoff(self) -> float:
        """Seeded decorrelated-jitter pause before a router retry."""
        cfg = self.config
        if self._prev_backoff <= 0:
            pause = cfg.retry_base_backoff_s
        else:
            pause = self._retry_rng.uniform(
                cfg.retry_base_backoff_s, self._prev_backoff * 3.0
            )
        pause = min(pause, cfg.retry_max_backoff_s)
        self._prev_backoff = pause
        return pause

    # -- wafer state ----------------------------------------------------
    def _advance_wafer(self, wafer: int, t_s: float) -> None:
        """Advance one wafer's clock, catching ladder exhaustion."""
        eng = self.fleet.engines[wafer]
        if eng is None:
            return
        try:
            eng.advance_to(t_s)
        except FaultEscalationError as exc:
            self._fail_wafer(
                wafer, eng.now, self.config.recovery_s, str(exc)
            )
            return
        self._harvest(wafer)

    def _advance_all(self, t_s: float) -> None:
        for wafer in range(self.fleet.n_wafers):
            if self.fleet.up[wafer]:
                self._advance_wafer(wafer, t_s)

    def _candidates(self, t_s: float) -> List[int]:
        return [
            w for w in range(self.fleet.n_wafers)
            if self.fleet.up[w] and t_s >= self._partitioned_until[w]
        ]

    def _est_wait_s(self, wafer: int) -> float:
        """Expected queueing before new work starts on this wafer."""
        eng = self.fleet.engines[wafer]
        if eng is None:
            return math.inf
        rate = eng.server.admission.optimistic_prefill_s_per_token
        return eng.backlog_prefill_tokens() * rate

    def _choose_wafer(
        self, t_s: float, dispatch: _Dispatch
    ) -> Optional[int]:
        """The target wafer for a dispatch, or ``None``.

        ``None`` means *no wafer can take this now* (every wafer is down
        or partitioned) — the caller requeues with backoff.
        """
        candidates = [
            w for w in self._candidates(t_s) if w not in dispatch.exclude
        ]
        if not candidates:
            # Everything eligible just bounced us (or is down): retry
            # anywhere that is at least alive.
            candidates = self._candidates(t_s)
        if not candidates:
            return None
        session = dispatch.request.session_id
        if session is not None:
            pinned = self._affinity.get(session)
            if pinned is not None and pinned in candidates:
                return pinned
        return min(
            candidates,
            key=lambda w: (
                t_s < self._degraded_until[w],
                self._est_wait_s(w),
                w,
            ),
        )

    # -- dispatch / harvest ---------------------------------------------
    def _submit(
        self, t_s: float, wafer: int, dispatch: _Dispatch
    ) -> None:
        """Materialize a dispatch as a local request on one wafer."""
        eng = self.fleet.engine(wafer)
        # Local ids are globally unique across the fleet, so harvests
        # map back to outcomes exactly across retries and migrations.
        local = replace(
            dispatch.request,
            request_id=next(self._local_ids),
            arrival_s=t_s,
        )
        eng.submit(local)
        self._inflight[local.request_id] = dispatch.outcome
        dispatch.outcome.dispatches += 1
        dispatch.outcome.wafers.append(wafer)
        session = dispatch.request.session_id
        if session is not None:
            self._affinity[session] = wafer

    def _dispatch(self, t_s: float, dispatch: _Dispatch) -> None:
        cfg = self.config
        self._advance_all(t_s)
        target = self._choose_wafer(t_s, dispatch)
        if target is None:
            # No wafer can take this now: everything is down or
            # partitioned.  Requeue with backoff — a down wafer always has a
            # readmit event pending, so the queue can never stall empty
            # with work parked.
            if not any(self.fleet.up):
                requeue_at = t_s + cfg.recovery_s
            else:
                requeue_at = t_s + self._retry_backoff()
            self._push(requeue_at, "dispatch", dispatch)
            return
        self._submit(t_s, target, dispatch)

    def _harvest(self, wafer: int) -> None:
        """Collect new completions/rejections from one wafer's engine."""
        eng = self.fleet.engines[wafer]
        if eng is None:
            return
        # The engine hands each completion over once, in finish order,
        # so a harvest is O(new output), not O(everything this wafer
        # ever served).
        completions, rejects = eng.harvest()
        for request_id in completions:
            stats = eng.stats[request_id]
            outcome = self._inflight.pop(request_id, None)
            if outcome is None:
                continue
            outcome.completed = True
            outcome.finish_s = stats.finish_s
            if outcome.first_token_s <= 0:
                # A migrated session keeps the first token the client
                # saw on the dead wafer; a continuation's is mid-stream.
                outcome.first_token_s = (
                    stats.first_token_s or stats.decode_start_s
                )
            outcome.tokens_emitted += stats.request.seq_out
        # Rejections: admission shed or capacity-degradation shed.
        # Drained sessions never show up here; failover handles them.
        for request in rejects:
            outcome = self._inflight.pop(request.request_id, None)
            if outcome is None:
                continue
            attempt = outcome.dispatches
            if attempt >= self.config.max_attempts:
                outcome.lost = True
                self.timeline.append(FleetTimelineEntry(
                    at_s=eng.now, kind="lost", wafer=wafer,
                    detail=f"request {outcome.request.request_id} "
                           f"exhausted {attempt} attempts",
                ))
                continue
            self.router_retries += 1
            outcome.retries += 1
            retry = _Dispatch(outcome=outcome, request=request,
                              exclude={wafer})
            self._push(
                eng.now + self._retry_backoff(), "dispatch", retry
            )

    # -- failover -------------------------------------------------------
    def _fail_wafer(
        self, wafer: int, t_s: float, recovery_s: float, detail: str = ""
    ) -> None:
        """Drain a dead wafer, migrate its sessions, schedule readmit."""
        cfg = self.config
        eng = self.fleet.engines[wafer]
        if eng is None:
            return
        self._harvest(wafer)
        snapshots = eng.drain()
        self.fleet.retire(wafer)
        self.failovers += 1
        self.timeline.append(FleetTimelineEntry(
            at_s=t_s, kind="wafer_down", wafer=wafer, detail=detail,
        ))
        rejoin_at = t_s + recovery_s
        self.down_windows.append((t_s, rejoin_at, wafer))
        self._push(rejoin_at, "readmit", wafer)
        # Sessions pinned here must re-home.
        self._affinity = {
            s: w for s, w in self._affinity.items() if w != wafer
        }
        for snap in snapshots:
            outcome = self._inflight.pop(snap.request.request_id, None)
            if outcome is None:
                continue
            continuation = self._continuation(snap, outcome)
            if continuation is None:
                continue
            if snap.started:
                self.migrations += 1
                outcome.migrations += 1
                self.timeline.append(FleetTimelineEntry(
                    at_s=t_s, kind="migration", wafer=wafer,
                    detail=(
                        f"request {outcome.request.request_id}: "
                        f"{snap.context} ctx tokens re-prefill, "
                        f"{snap.remaining_out} decode tokens owed"
                    ),
                ))
            self._push(
                t_s + cfg.failover_delay_s, "dispatch",
                _Dispatch(outcome=outcome, request=continuation,
                          exclude={wafer}),
            )

    def _continuation(
        self, snap: SessionSnapshot, outcome: SessionOutcome
    ) -> Optional[Request]:
        """Build the re-dispatch request for a drained session.

        The continuation re-prefills the session's full live context
        (prompt progress + generated tokens — the KV to rebuild) and
        decodes only the tokens still owed.  Tokens the client already
        received stay received: ``outcome.tokens_emitted`` was not
        credited for the dead wafer (it never completed there), so the
        continuation's ``seq_out`` is what completion will credit.
        """
        local = snap.request
        seq_in = local.seq_in + snap.generated
        seq_out = local.seq_out - snap.generated
        if seq_out < 1:
            return None
        if snap.generated > 0:
            # Tokens already streamed to the client count now — the
            # continuation will only be credited its own seq_out.
            outcome.tokens_emitted += snap.generated
            if outcome.first_token_s <= 0 and snap.stats.first_token_s > 0:
                outcome.first_token_s = snap.stats.first_token_s
        return Request(
            request_id=local.request_id,   # replaced at submit time
            seq_in=seq_in,
            seq_out=seq_out,
            arrival_s=local.arrival_s,     # replaced at submit time
            priority=local.priority,
            ttft_slo_s=None,               # refugees are best-effort
            tpot_slo_s=None,
            session_id=local.session_id,
        )

    # -- fleet faults ---------------------------------------------------
    def _apply_fleet_fault(self, event: FleetFaultEvent) -> None:
        wafer = event.wafer
        if wafer >= self.fleet.n_wafers:
            raise ConfigurationError(
                f"fault targets wafer {wafer} but the fleet has "
                f"{self.fleet.n_wafers}"
            )
        t = event.at_s
        if event.kind == "wafer_down":
            if not self.fleet.up[wafer]:
                return  # already down; the window is subsumed
            self._advance_wafer(wafer, t)
            if self.fleet.up[wafer]:
                self._fail_wafer(wafer, t, event.duration_s, event.detail)
        elif event.kind == "wafer_degraded":
            self._degraded_until[wafer] = max(
                self._degraded_until[wafer], t + event.duration_s
            )
            self.timeline.append(FleetTimelineEntry(
                at_s=t, kind="wafer_degraded", wafer=wafer,
                detail=event.detail,
            ))
        elif event.kind == "router_partition":
            self._partitioned_until[wafer] = max(
                self._partitioned_until[wafer], t + event.duration_s
            )
            self.timeline.append(FleetTimelineEntry(
                at_s=t, kind="router_partition", wafer=wafer,
                detail=event.detail,
            ))

    # -- main loop ------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> FleetMetrics:
        """Serve a trace through the fleet under the fault schedule."""
        if not requests:
            raise ConfigurationError("no requests to route")
        if len({r.request_id for r in requests}) != len(requests):
            raise ConfigurationError("request ids must be unique")
        # Fault events go on the queue first: at equal timestamps the
        # sequence tie-break then applies the fault before the dispatch,
        # so a partition at time t already governs routing at time t.
        if self.schedule is not None:
            for event in self.schedule.events:
                self._push(event.at_s, "fleet_fault", event)
        outcomes: List[SessionOutcome] = []
        for request in sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        ):
            outcome = SessionOutcome(request=request)
            outcomes.append(outcome)
            self._push(request.arrival_s, "dispatch", _Dispatch(
                outcome=outcome, request=request, exclude=set(),
            ))

        while self._heap:
            while self._heap:
                t_s, _, kind, payload = heapq.heappop(self._heap)
                if kind == "dispatch":
                    self._dispatch(t_s, payload)
                elif kind == "fleet_fault":
                    self._apply_fleet_fault(payload)
                elif kind == "readmit":
                    wafer = payload
                    self.fleet.replace(wafer, t_s)
                    self.timeline.append(FleetTimelineEntry(
                        at_s=t_s, kind="readmit", wafer=wafer,
                    ))
            # Queue drained: run every live wafer dry.  This can raise
            # new events (escalation failovers, rejections to retry),
            # so loop until the heap stays empty.
            for wafer in range(self.fleet.n_wafers):
                if self.fleet.up[wafer]:
                    self._advance_wafer(wafer, math.inf)

        self.fleet.finalize()
        makespan = self.fleet.makespan_s()
        for entry in self.timeline:
            makespan = max(makespan, entry.at_s)
        for outcome in outcomes:
            makespan = max(makespan, outcome.finish_s)
        return FleetMetrics(
            n_wafers=self.fleet.n_wafers,
            outcomes=outcomes,
            wafer_segments=[list(s) for s in self.fleet.segments],
            timeline=list(self.timeline),
            makespan_s=makespan,
            failovers=self.failovers,
            migrations=self.migrations,
            router_retries=self.router_retries,
            down_windows=list(self.down_windows),
        )
