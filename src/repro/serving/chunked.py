"""Chunked-prefill continuous batching on one wafer decode region.

The paper's Section 8 roadmap expects concurrent streams to fill the
pipeline bubbles; MOCAP shows the lever on wafer-scale hardware is
*memory-orchestrated chunked prefill*.  This scheduler implements it
over the calibrated :class:`WaferLLMSystem` costs:

* **Chunked mode** (the system) — prompts are split into fixed-size
  chunks that ride the batched decode step's launch/communication
  skeleton (:meth:`WaferLLMSystem.fused_step_cost`).  Decode never
  stalls; each step advances every live stream one token *and* one
  queued prompt by one chunk.  Weights stay resident, so chunks skip the
  prefill corridor's weight streaming.
* **Exclusive mode** (the baseline) — the vLLM-style alternative on the
  same region: a pending prompt's prefill runs as one exclusive block
  (prefill-mode cost, weight streaming included) while every decode
  stream stalls.  Same admission, same KV ledger, same trace — the
  benchmark compares the two modes and nothing else.

Scheduling policy, in priority order at every step boundary:

1. prefilled streams join the decode batch while it has room;
2. the highest-priority waiting prompt (deadline-ordered within a
   priority class, SLO-blown prompts demoted behind on-time ones) owns
   the prefill slot, reserving its full KV footprint first;
3. a running prefill is *preempted* at a chunk boundary when a strictly
   higher-priority prompt waits, or when it has blown its own TTFT
   deadline while an on-time prompt waits (over-budget preemption) —
   progress and KV reservation survive preemption;
4. if the fault injector kills the step, its time plus an exponential
   backoff elapses and nothing commits (retry-with-backoff); a chunked
   retry loses one chunk, an exclusive retry loses the whole block.

Fault escalation (retry → remap → degrade), driven by the typed events
of a :class:`~repro.mesh.faults.FaultSchedule`:

* **transient** — the step in flight dies; retry with backoff, exactly
  like a Bernoulli kill.  ``max_retries`` consecutive dead steps raise
  :class:`~repro.errors.FaultEscalationError` — the failure process is
  pathological, not noise.
* **link_retrain** — the region keeps running at the event's surviving
  bandwidth fraction for its duration; the current step stretches by the
  excess, which counts as downtime but commits normally.
* **core_dead** — no retry can succeed.  While spare regions remain the
  server *remaps*: weights re-shard onto a spare
  (:func:`~repro.placement.transition.reshard_cost`) and every live
  stream's KV is recomputed from its prompt (chunked prefill replay —
  SRAM state is disposable next to the NoC cost of moving it).  With
  spares exhausted the server *degrades*: the KV budget and admissible
  batch shrink by one row's worth, live streams run to completion, and
  waiting prompts that can never fit again are shed as rejected.  Under
  ``fail_on_exhausted_spares=True`` (the fleet configuration) a death
  past the spare pool instead raises
  :class:`~repro.errors.SpareExhaustionError`: the wafer declares itself
  down so a fleet router can evacuate its sessions to a healthy replica.

The simulation itself lives in :class:`ServeEngine`, a *resumable*
stepping core: :meth:`WaferServer.serve` runs one engine to completion
(bit-identical to the historical closed-form loop), while the fleet
layer drives many engines concurrently — submitting requests mid-run,
advancing each wafer's clock to a global event time, and draining
unfinished sessions for cross-wafer migration when a wafer dies.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.core.plmr import PLMRDevice
from repro.errors import (
    ConfigurationError,
    FaultEscalationError,
    SimulationError,
    SpareExhaustionError,
)
from repro.llm.config import ModelConfig
from repro.llm.kvcache import KVTokenLedger, region_token_capacity
from repro.llm.wafer_system import MAX_RESIDENT_CHUNK_TOKENS, WaferLLMSystem
from repro.mesh.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.placement.plan import decode_carve_for_grid
from repro.placement.transition import reshard_cost
from repro.serving import stepcost
from repro.serving.admission import SLOAdmission, backlog_tokens
from repro.serving.events import StepEventLog, run_clock
from repro.serving.health import HealthMonitor
from repro.serving.metrics import ServingMetrics
from repro.serving.request import Request, RequestStats

#: Context-length bucket for the step-cost memo: costs are affine in
#: context, so evaluating at the bucket ceiling is a tight conservative
#: rounding that keeps the cache small.
CONTEXT_BUCKET_TOKENS = 128


def _bucket_ceiling(context: int) -> int:
    """The context bucket a step of ``context`` tokens is priced at."""
    return (
        math.ceil(max(1, context) / CONTEXT_BUCKET_TOKENS)
        * CONTEXT_BUCKET_TOKENS
    )


#: Consecutive-failure ceiling: a step that cannot commit after this
#: many retries indicates a mis-configured failure process, not noise.
MAX_CONSECUTIVE_RETRIES = 64


class _DecodeClock:
    """Committed decode steps of one engine: every decoding job's shared
    token counter."""

    __slots__ = ("ticks",)

    def __init__(self) -> None:
        self.ticks = 0


class _Job:
    """Mutable serving state of one admitted request.

    While the job decodes, ``generated`` is read off its engine's
    :class:`_DecodeClock` against the tick the job joined at, so a
    committed step advances every decoding job without touching one.
    Leaving the batch freezes the count.
    """

    __slots__ = (
        "request", "stats", "prefilled", "kv_held",
        "_generated", "_clock", "_joined_tick",
    )

    def __init__(self, request: Request, stats: RequestStats):
        self.request = request
        self.stats = stats
        self.prefilled = 0
        self.kv_held = False
        self._generated = 0
        self._clock: Optional[_DecodeClock] = None
        self._joined_tick = 0

    @property
    def generated(self) -> int:
        """Tokens decoded so far."""
        clock = self._clock
        if clock is None:
            return self._generated
        return clock.ticks - self._joined_tick

    def start_decoding(self, clock: _DecodeClock) -> int:
        """Count tokens off ``clock`` from now; returns the finish tick.

        A job joins the batch once, with nothing generated yet.
        """
        self._clock = clock
        self._joined_tick = clock.ticks
        return clock.ticks + self.request.seq_out

    def stop_decoding(self) -> None:
        """Freeze the token count as the job leaves the batch."""
        self._generated = self.generated
        self._clock = None

    @property
    def prefill_remaining(self) -> int:
        return self.request.seq_in - self.prefilled

    @property
    def context(self) -> int:
        """Live context length (prompt prefilled so far + generated)."""
        return self.prefilled + self.generated

    def over_budget(self, now_s: float) -> bool:
        """Whether this prompt has already blown its TTFT deadline."""
        return now_s > self.request.ttft_deadline_s


@dataclass(frozen=True)
class SessionSnapshot:
    """Frozen progress of one unfinished session at wafer-drain time.

    A dying wafer's SRAM state is unrecoverable; what survives is the
    *logical* session — the prompt, how far prefill got, and how many
    tokens were already emitted to the client.  The fleet router turns a
    snapshot into a continuation request on a healthy wafer: the full
    live context (``prefilled + generated`` tokens) must be re-prefilled
    there to rebuild the KV cache before the remaining
    ``seq_out - generated`` tokens can decode.
    """

    request: Request
    prefilled: int
    generated: int
    stats: RequestStats

    @property
    def context(self) -> int:
        """Tokens of KV that must be rebuilt on the failover target."""
        return self.prefilled + self.generated

    @property
    def remaining_out(self) -> int:
        """Decode tokens still owed to the client."""
        return self.request.seq_out - self.generated

    @property
    def started(self) -> bool:
        """Whether the session made any progress on the dead wafer."""
        return self.context > 0


class WaferServer:
    """Continuous-batching server over one decode region.

    ``mode`` selects chunked-prefill interleaving (``"chunked"``) or the
    exclusive-prefill baseline (``"exclusive"``).
    """

    def __init__(
        self,
        model: ModelConfig,
        device: PLMRDevice,
        mode: str = "chunked",
        chunk_tokens: int = 256,
        max_batch: Optional[int] = None,
        grid: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        default_context_len: int = 4096,
        fault_schedule: Optional[FaultSchedule] = None,
        max_retries: int = MAX_CONSECUTIVE_RETRIES,
        spare_regions: Optional[int] = None,
        health: Optional[HealthMonitor] = None,
        plan=None,
        fail_on_exhausted_spares: bool = False,
    ):
        if mode not in ("chunked", "exclusive"):
            raise ConfigurationError(f"unknown serving mode: {mode!r}")
        if not 1 <= chunk_tokens <= MAX_RESIDENT_CHUNK_TOKENS:
            raise ConfigurationError(
                f"chunk_tokens must be in 1..{MAX_RESIDENT_CHUNK_TOKENS}"
            )
        self.model = model
        self.device = device
        self.mode = mode
        self.chunk_tokens = chunk_tokens
        # A placement plan (searched for this model) supplies the decode
        # region, the grid, and the spare-region pool; without one the
        # server falls back to the paper grid and a nominal carve-out.
        if plan is not None and not plan.matches(model.name):
            raise ConfigurationError(
                f"placement plan was searched for {plan.model!r}, "
                f"not {model.name!r}"
            )
        self.plan = plan
        self.system = WaferLLMSystem(device, plan=plan)
        self.grid = grid or self.system.decode_grid(model)
        if plan is not None and grid is None:
            self.region = plan.decode_region
            self._spare_pool = list(plan.spare_regions)
        else:
            self.region = decode_carve_for_grid(self.grid)
            self._spare_pool = []
        if spare_regions is None:
            spare_regions = len(self._spare_pool) if self._spare_pool else 1
        self.kv_capacity_tokens = region_token_capacity(
            model, self.grid, device.core_memory_bytes, device.num_cores
        )
        if max_batch is None:
            max_batch = self.kv_bounded_batch(default_context_len)
            if max_batch < 1:
                raise ConfigurationError(
                    f"KV region ({self.kv_capacity_tokens} tokens) cannot "
                    f"hold one {default_context_len}-token stream; pass "
                    f"max_batch explicitly"
                )
        elif max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        if spare_regions < 0:
            raise ConfigurationError("spare_regions must be >= 0")
        self.max_batch = max_batch
        self.faults = fault_injector or FaultInjector(0.0)
        self.fault_schedule = fault_schedule
        self.max_retries = max_retries
        self.spare_regions = spare_regions
        self.fail_on_exhausted_spares = fail_on_exhausted_spares
        self.health = health
        self._fused_steps = stepcost.FusedStepTable(
            self.system, model, self.grid
        )
        optimistic = self.device.cycles_to_seconds(
            stepcost.chunk_compute_cycles(
                self.system, model, chunk_tokens, self.grid
            )
        ) / chunk_tokens
        self.admission = SLOAdmission(self.kv_capacity_tokens, optimistic)

    # ------------------------------------------------------------------
    def kv_bounded_batch(self, context_len: int = 4096) -> int:
        """Streams of ``context_len`` KV tokens the region budget holds.

        Returns the true count — 0 when not even one stream fits — so
        callers see the infeasible case instead of a silently clamped 1.
        """
        if context_len < 1:
            raise ConfigurationError("context_len must be positive")
        return self.kv_capacity_tokens // context_len

    def fused_step_seconds(
        self, batch: int, mean_context: int, chunk: int
    ) -> float:
        """One step's wall-clock time, memoized on bucketed context.

        Looks up this server's bound table of the process-wide step-cost
        cache (:mod:`repro.serving.stepcost`): the cost is a pure
        function of ``(model, device, grid, batch, bucket, chunk)``, so
        every server and fleet epoch with the same shapes shares one
        entry.
        """
        return self._fused_steps.seconds(
            _bucket_ceiling(mean_context), batch, chunk
        )

    def exclusive_prefill_seconds(self, seq_in: int) -> float:
        """Whole-prompt prefill block on this region (prefill mode)."""
        return stepcost.exclusive_prefill_seconds(
            self.system, self.model, seq_in, self.grid
        )

    # ------------------------------------------------------------------
    def serve(self, requests: List[Request]) -> ServingMetrics:
        """Simulate serving the request list to completion."""
        if not requests:
            raise ConfigurationError("no requests to serve")
        if len({r.request_id for r in requests}) != len(requests):
            raise ConfigurationError("request ids must be unique")
        return ServeEngine(self, requests).run()


def plan_decode_horizon(
    now_s: float,
    step_s: Union[float, np.ndarray],
    max_steps: int,
    until_s: float,
    next_arrival_s: float,
    next_fault_s: float,
) -> Tuple[int, np.ndarray]:
    """How many decode steps commit before any boundary.

    ``step_s`` is one duration shared by every step, or a float64 array
    of ``max_steps`` per-step durations.  Returns ``(k, times)`` where
    ``times[j]`` is the clock after ``j`` steps.  The prefix sums come
    from ``np.add.accumulate``, which adds strictly left-to-right — the
    same IEEE-754 operation sequence as the per-step ``now += step_s``
    loop, so every boundary is bit-identical to reference stepping
    (never ``now + j * step_s``, whose rounding differs).

    Boundary semantics mirror the reference loop exactly:

    * step ``j`` runs only while its *start* is strictly before
      ``until_s`` (``advance_to`` steps while ``now < t_s``) and before
      ``next_arrival_s`` (arrivals at or before a step's start are
      admitted by that step, changing the schedule);
    * step ``j`` must *end* strictly before ``next_fault_s`` — the
      schedule strikes any step whose window reaches the event
      (``pop_until`` consumes ``at_s <= end``).

    ``max_steps`` caps the horizon at the nearest completion, which the
    caller computes from the live-job table.
    """
    times = np.empty(max_steps + 1, dtype=np.float64)
    times[0] = now_s
    times[1:] = step_s
    np.add.accumulate(times, out=times)
    k = min(
        max_steps,
        int(times[:-1].searchsorted(min(until_s, next_arrival_s), "left")),
        int(times[1:].searchsorted(next_fault_s, "left")),
    )
    return k, times


def plan_decode_run(
    now_s: float,
    segments: Iterable[Tuple[float, int]],
    until_s: float,
    next_arrival_s: float,
    next_fault_s: float,
) -> Tuple[List[Tuple[float, float, int]], float]:
    """Plan a decode run whose step durations are piecewise constant.

    ``segments`` yields ``(duration_s, steps)`` in step order.  Each is
    planned by :func:`plan_decode_horizon` from the clock the previous
    one ended at; ``np.add.accumulate`` adds left to right, so the
    chained clocks, and the plan, equal one horizon over the whole run's
    per-step durations while no array outlives its segment.  The next
    segment is drawn only once every step of the previous one committed
    and the clock is still before ``until_s`` and ``next_arrival_s`` —
    so a generator that prices segments on demand prices only steps the
    reference loop would price too.

    Returns ``(plan, end_s)``: ``(start_s, duration_s, steps)`` for each
    segment that commits at least one step, and the clock after the
    last committed step.
    """
    plan: List[Tuple[float, float, int]] = []
    clock = now_s
    start_bound = min(until_s, next_arrival_s)
    for step_s, count in segments:
        k, times = plan_decode_horizon(
            clock, step_s, count, until_s, next_arrival_s, next_fault_s
        )
        if k:
            plan.append((clock, step_s, k))
            clock = float(times[k])
        if k < count or not clock < start_bound:
            break
    return plan, clock


class ServeEngine:
    """Resumable stepping core of one :class:`WaferServer`.

    The engine holds the entire scheduler state — pending arrivals,
    prefill slot, decode batch, KV ledger, escalation ladder — and
    exposes it one step at a time:

    * :meth:`submit` injects a request at any point (the fleet router
      dispatches this way; arrivals in the past are admitted at the
      engine's current clock, exactly as a late arrival would be);
    * :meth:`step` executes one scheduler iteration (or jumps the idle
      clock to the next arrival);
    * :meth:`advance_to` runs steps until the wafer's clock reaches a
      global event time, never jumping an *idle* wafer past it — so a
      dispatch at that time lands on an up-to-date wafer;
    * :meth:`drain` evacuates every unfinished session as
      :class:`SessionSnapshot` for cross-wafer migration and marks them
      shed on this wafer (conservation stays exact per wafer);
    * :meth:`finish` closes the books into :class:`ServingMetrics`.

    ``WaferServer.serve`` is ``ServeEngine(server, requests).run()`` —
    the stepping form is the single implementation, and single-wafer
    results are bit-identical to the historical closed loop.

    With ``horizon=True`` (the default) the engine *macro-steps* pure
    decode: when nothing is queued and no arrival or scheduled fault
    falls inside the next ``k`` steps (:func:`plan_decode_run`, across
    context buckets), all ``k`` commit at once.  The fast path is
    bit-identical to per-step execution — same clocks, events, stats,
    and fault-injector ledger — which the differential sweep in
    ``tests/test_horizon_equivalence.py`` and the determinism replay
    audit both enforce.  ``horizon=False`` keeps the reference
    one-event-at-a-time loop for those oracles.

    Either way a committed step costs O(1 + finishers), not O(batch):
    decoding jobs read their token counts off one shared decode clock,
    and a heap of finish ticks hands over the jobs due, in join order
    (:meth:`_commit_decode`, which both paths call;
    ``tests/test_commit_oracle.py`` pins its output).
    """

    def __init__(
        self,
        server: WaferServer,
        requests: Iterable[Request] = (),
        start_s: float = 0.0,
        horizon: bool = True,
    ):
        self.server = server
        self.now = start_s
        self.horizon = horizon
        self.stats: Dict[int, RequestStats] = {}
        self._pending: List[Tuple[float, int, Request]] = []
        self._submitted: List[Request] = []
        self.waiting: List[_Job] = []
        self._waiting_sorted: List[_Job] = []
        self._waiting_keys: List[Tuple] = []
        self.current: Optional[_Job] = None
        self.decode_ready: Deque[_Job] = deque()
        self.decoding: Dict[int, _Job] = {}
        # One clock tick advances every decoding job; a heap of
        # ``(finish tick, join seq, job)`` yields the jobs due, in join
        # order on a tie (the order ``decoding`` iterates); jobs that
        # joined since the last committed step await their first token.
        self._clock = _DecodeClock()
        self._finishes: List[Tuple[int, int, _Job]] = []
        self._join_seq = itertools.count()
        self._awaiting_first: List[_Job] = []
        # Running totals, so no step re-sums a queue or the batch:
        # the decode batch's live context (an exact int, so the mean
        # context matches a fresh sum digit for digit), the prefill
        # tokens not yet processed, and the waiting prompts' seq_in per
        # priority (the admission backlog).
        self._decode_context_sum = 0
        self._backlog_tokens = 0
        self._waiting_by_priority: Dict[int, int] = {}
        self.ledger = KVTokenLedger(server.kv_capacity_tokens)
        self.rejected: List[Request] = []
        self.events = StepEventLog()
        # Output not yet handed to the caller: ids finished, in finish
        # order, and requests shed, since the last harvest().
        self._unharvested_done: List[int] = []
        self._unharvested_shed: List[Request] = []
        self.total_tokens = 0
        self.peak_batch = 0
        self.peak_kv = 0
        self.peak_queue = 0
        self.retries = 0
        self.preemptions = 0
        self.consecutive_failures = 0
        self.max_batch = server.max_batch
        self.spares_left = server.spare_regions
        self.live_region = server.region
        self.spare_pool = list(server._spare_pool)
        self.remaps = 0
        self.degradations = 0
        self.drained = False
        self.health = (
            server.health if server.health is not None else HealthMonitor()
        )
        self.schedule = server.fault_schedule
        if self.schedule is not None:
            self.schedule.reset()
            # One seed reproduces the whole fault/retry timeline: the
            # escalation ladder's decorrelated-jitter backoff derives
            # its stream from the schedule's recorded seed.
            if self.schedule.seed is not None:
                server.faults.bind_jitter_rng(
                    self.schedule.derive_rng("escalation-backoff")
                )
        for request in requests:
            self.submit(request)

    # -- intake ---------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Queue one request for arrival-time admission."""
        if self.drained:
            raise SimulationError("cannot submit to a drained engine")
        if request.request_id in self.stats:
            raise ConfigurationError(
                f"request id {request.request_id} already submitted"
            )
        self.stats[request.request_id] = RequestStats(request=request)
        self._submitted.append(request)
        self._backlog_tokens += request.seq_in
        bisect.insort(
            self._pending, (request.arrival_s, request.request_id, request)
        )

    # -- state queries --------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any admitted or pending work remains."""
        return bool(
            self._pending or self.waiting or self.current
            or self.decode_ready or self.decoding
        )

    def live_jobs(self) -> List[_Job]:
        jobs = list(self.decoding.values()) + list(self.decode_ready)
        if self.current is not None:
            jobs.append(self.current)
        jobs.extend(j for j in self.waiting if j.kv_held)
        return jobs

    def load_tokens(self) -> int:
        """KV footprint of all unfinished work (the router's load signal)."""
        total = sum(j.request.kv_tokens for j in self.decoding.values())
        total += sum(j.request.kv_tokens for j in self.decode_ready)
        if self.current is not None:
            total += self.current.request.kv_tokens
        total += sum(j.request.kv_tokens for j in self.waiting)
        total += sum(r.kv_tokens for _, _, r in self._pending)
        return total

    def backlog_prefill_tokens(self) -> int:
        """Prefill tokens not yet processed (the router's wait signal):
        waiting and in-flight remainders plus pending prompts."""
        return self._backlog_tokens

    # -- internals ------------------------------------------------------
    def _admit_arrivals(self) -> None:
        while self._pending and self._pending[0][0] <= self.now:
            _, _, request = self._pending.pop(0)
            backlog = backlog_tokens(
                self._waiting_by_priority,
                self.current.prefill_remaining if self.current else 0,
                request.priority,
            )
            decision = self.server.admission.check(
                request, max(self.now, request.arrival_s), backlog
            )
            # A degraded region may no longer hold what the (static)
            # admission budget was sized for — shed at the door.
            if decision.admitted and (
                request.kv_tokens <= self.ledger.capacity_tokens
            ):
                job = _Job(request, self.stats[request.request_id])
                self.waiting.append(job)
                self._waiting_add(job)
            else:
                self._shed(request)
                self._backlog_tokens -= request.seq_in

    # -- incremental waiting-queue index --------------------------------
    # ``self.waiting`` keeps admission order (drain() snapshots and shed
    # iteration depend on it); ``_waiting_sorted`` is a parallel index
    # ordered by the *time-independent* tail of the selection key.  The
    # full per-step key ``(over_budget(now), -priority, deadline,
    # arrival, id)`` is this static order partitioned into the on-time
    # block followed by the over-budget block (the static key ends in
    # the unique request id, so the order within each block never
    # changes) — which lets ``_pick_prefill`` scan the index once
    # instead of re-sorting the queue every step.  The same two methods
    # keep the per-priority seq_in totals the admission backlog reads.
    @staticmethod
    def _static_key(job: _Job) -> Tuple:
        r = job.request
        return (-r.priority, r.ttft_deadline_s, r.arrival_s, r.request_id)

    def _waiting_add(self, job: _Job) -> None:
        key = self._static_key(job)
        i = bisect.bisect_left(self._waiting_keys, key)
        self._waiting_keys.insert(i, key)
        self._waiting_sorted.insert(i, job)
        r = job.request
        by_priority = self._waiting_by_priority
        by_priority[r.priority] = by_priority.get(r.priority, 0) + r.seq_in

    def _waiting_discard(self, job: _Job) -> None:
        key = self._static_key(job)
        i = bisect.bisect_left(self._waiting_keys, key)
        self._waiting_keys.pop(i)
        self._waiting_sorted.pop(i)
        self._waiting_by_priority[job.request.priority] -= job.request.seq_in

    def _pick_prefill(self, now_s: float) -> Optional[_Job]:
        """Best startable waiting job: KV already held or reservable.

        Equivalent to sorting by the full time-dependent key and taking
        the first startable job: the first startable *on-time* job in
        static order wins; failing that, the first startable over-budget
        job (the demoted block) is the fallback.  Nothing is reserved
        during a pick, so the ledger's free space is read once.
        """
        free = self.ledger.free_tokens
        fallback: Optional[_Job] = None
        for job in self._waiting_sorted:
            if job.kv_held or 0 < job.request.kv_tokens <= free:
                if not job.over_budget(now_s):
                    return job
                if fallback is None:
                    fallback = job
        return fallback

    def _kv_recompute_seconds(self) -> float:
        """Recompute-from-prompt cost of every live stream's KV.

        A core death loses the region's SRAM state; rebuilding the
        KV caches means replaying each live context through chunked
        prefill on the repaired region.
        """
        total = 0.0
        for job in self.live_jobs():
            if job.context <= 0:
                continue
            chunks = math.ceil(job.context / self.server.chunk_tokens)
            total += chunks * self.server.fused_step_seconds(
                0, job.context, self.server.chunk_tokens
            )
        return total

    def _mark_killed(self) -> None:
        if self.current is not None:
            self.current.stats.retries += 1
        for job in self.decoding.values():
            job.stats.retries += 1

    def _shed(self, request: Request) -> None:
        """Reject a request on this wafer and queue it for harvest()."""
        self.rejected.append(request)
        self._unharvested_shed.append(request)

    def _record_step(
        self, kind: str, start: float, batch: int, chunk: int
    ) -> None:
        """Append the step ending now to the event log."""
        queue_depth = (
            len(self.waiting) + len(self.decode_ready)
            + (1 if self.current else 0)
        )
        self.peak_queue = max(self.peak_queue, queue_depth)
        self.events.append(
            start, self.now, kind, batch, chunk,
            self.ledger.reserved_tokens, queue_depth,
        )

    # -- stepping -------------------------------------------------------
    def step(self, until_s: float = math.inf) -> None:
        """Execute one scheduler iteration (or jump an idle clock).

        With the horizon fast path armed (``horizon=True``), one call
        may commit a whole run of pure-decode steps when no arrival,
        fault or completion falls inside it — across context buckets;
        the committed state is bit-identical to stepping one at a time.
        ``until_s`` bounds where the fast path may *start* steps —
        :meth:`advance_to` passes its target so a sliced clock observes
        exactly the boundaries the reference loop would.
        """
        self._admit_arrivals()
        if not (
            self.waiting or self.current
            or self.decode_ready or self.decoding
        ):
            if not self._pending:
                return
            self.now = max(self.now, self._pending[0][0])
            return
        if self.horizon and self._fast_decode_run(until_s):
            return
        self._step_slow()

    def _fast_decode_run(self, until_s: float) -> bool:
        """Commit a horizon of pure decode steps analytically.

        Armed only when the step composition is decode-and-nothing-else
        (no prefill slot, no queued joins) and the Bernoulli killer is
        off — every per-step decision the reference loop would make is
        then a pure function of the step durations, so the whole run
        collapses to one table update.  Returns False (committing
        nothing) when fewer than two steps fit, leaving the reference
        path as the single implementation of every boundary case.
        """
        server = self.server
        if (
            self.waiting or self.current or self.decode_ready
            or not self.decoding or server.faults.failure_rate > 0.0
        ):
            return False
        # No job finishes before the nearest finish tick, so the batch
        # is fixed across the run.
        max_steps = self._steps_to_next_finish()
        if max_steps < 2:
            return False
        batch = len(self.decoding)
        next_arrival = self._pending[0][0] if self._pending else math.inf
        next_fault = math.inf
        if self.schedule is not None:
            event = self.schedule.peek()
            if event is not None:
                next_fault = event.at_s
        plan, end_s = plan_decode_run(
            self.now, self._decode_segments(batch, max_steps),
            until_s, next_arrival, next_fault,
        )
        k = sum(steps for _, _, steps in plan)
        if k < 2:
            return False

        # Commit: identical end state to k reference iterations.
        server.faults.note_steps(k)
        self.consecutive_failures = 0
        segments = []
        for segment_start_s, duration_s, steps in plan:
            segment = (duration_s, steps)
            starts = run_clock(segment_start_s, (segment,))[:-1]
            self.health.observe_steps(starts, duration_s, kind="decode")
            segments.append(segment)
        self.peak_batch = max(self.peak_batch, batch)
        kv_before = self.ledger.reserved_tokens
        start_s = self.now
        self.now = end_s
        self._commit_decode(batch, k, start_s + segments[0][0])
        self.events.extend_decode_run(
            start_s, segments, batch, kv_before, self.ledger.reserved_tokens,
        )
        return True

    def _steps_to_next_finish(self) -> int:
        """Committed steps until the next decoding job finishes."""
        return self._finishes[0][0] - self._clock.ticks

    def _join_decode(self, job: _Job) -> None:
        """Move a prefilled job into the decode batch."""
        job.stats.decode_start_s = self.now
        self.decoding[job.request.request_id] = job
        self._decode_context_sum += job.context
        heapq.heappush(
            self._finishes,
            (job.start_decoding(self._clock), next(self._join_seq), job),
        )
        self._awaiting_first.append(job)

    def _commit_decode(
        self, batch: int, steps: int, first_token_s: float
    ) -> None:
        """Commit ``steps`` decode tokens to every job in the batch.

        Costs O(1 + finishers): the shared clock moves once, the jobs
        that joined since the last committed step get ``first_token_s``,
        and only the jobs whose finish tick has come leave the batch,
        at the current clock, in join order.
        """
        clock = self._clock
        clock.ticks += steps
        for job in self._awaiting_first:
            job.stats.first_token_s = first_token_s
        self._awaiting_first.clear()
        self.total_tokens += batch * steps
        self._decode_context_sum += batch * steps
        finishes = self._finishes
        while finishes and finishes[0][0] <= clock.ticks:
            job = heapq.heappop(finishes)[2]
            job.stop_decoding()
            request_id = job.request.request_id
            del self.decoding[request_id]
            self._decode_context_sum -= job.context
            job.stats.finish_s = self.now
            self.ledger.release(request_id)
            self._unharvested_done.append(request_id)

    def _decode_segments(
        self, batch: int, max_steps: int
    ) -> Iterator[Tuple[float, int]]:
        """Yield the next ``max_steps`` decode steps as ``(duration, count)``.

        Step ``j``'s mean context is ``mean_context + j`` exactly (the
        context sum grows by ``batch`` per step), so durations are
        constant within a context bucket: one segment per bucket.  Each
        bucket is priced only when the planner draws its segment.
        """
        # Same expression as the reference step: exact int sum, float
        # divide, truncate.
        mean_context = max(1, int(self._decode_context_sum / batch))
        planned = 0
        while planned < max_steps:
            context = mean_context + planned
            count = min(
                max_steps - planned, _bucket_ceiling(context) - context + 1
            )
            yield self.server.fused_step_seconds(batch, context, 0), count
            planned += count

    def _step_slow(self) -> None:
        """Reference scheduler iteration: one step, every boundary."""
        server = self.server

        # Prefilled streams join the batch while it has room.
        while self.decode_ready and len(self.decoding) < self.max_batch:
            self._join_decode(self.decode_ready.popleft())

        # Prefill slot: claim, or preempt at a chunk boundary.
        if self.current is None and self.waiting:
            self.current = self._pick_prefill(self.now)
            if self.current is not None:
                self.waiting.remove(self.current)
                self._waiting_discard(self.current)
        elif (
            server.mode == "chunked"
            and self.current is not None and self.waiting
        ):
            challenger = self._pick_prefill(self.now)
            if challenger is not None and (
                challenger.request.priority > self.current.request.priority
                or (
                    self.current.over_budget(self.now)
                    and not challenger.over_budget(self.now)
                )
            ):
                self.waiting.append(self.current)
                self._waiting_add(self.current)
                self.current.stats.preemptions += 1
                self.preemptions += 1
                self.current = challenger
                self.waiting.remove(challenger)
                self._waiting_discard(challenger)
        if self.current is not None and not self.current.kv_held:
            self.ledger.reserve(
                self.current.request.request_id,
                self.current.request.kv_tokens,
            )
            self.current.kv_held = True
            self.current.stats.prefill_start_s = self.now
            self.peak_kv = max(self.peak_kv, self.ledger.reserved_tokens)

        # Compose one step.
        batch = len(self.decoding)
        exclusive_block = (
            server.mode == "exclusive" and self.current is not None
        )
        if exclusive_block:
            chunk = self.current.prefill_remaining
            step_s = server.exclusive_prefill_seconds(
                self.current.request.seq_in
            )
            kind = "prefill"
        else:
            chunk = (
                min(server.chunk_tokens, self.current.prefill_remaining)
                if self.current is not None
                else 0
            )
            if batch == 0 and chunk == 0:
                # Admitted work exists but nothing can start this
                # instant (KV fully reserved by queued streams);
                # the joins above guarantee this cannot happen.
                raise SimulationError("scheduler made no progress")
            mean_context = (
                max(1, int(self._decode_context_sum / batch))
                if batch
                else 1
            )
            step_s = server.fused_step_seconds(batch, mean_context, chunk)
            if batch and chunk:
                kind = "fused"
            elif batch:
                kind = "decode"
            else:
                kind = "prefill"
        self.peak_batch = max(self.peak_batch, batch)

        # Fault check: typed schedule events striking this step's
        # window, then the Bernoulli draw.  A killed step burns its
        # time plus backoff and commits nothing.
        start = self.now
        struck: Sequence[FaultEvent] = (
            self.schedule.pop_until(start + step_s) if self.schedule else ()
        )
        deaths: Sequence[FaultEvent] = ()
        retrains: Sequence[FaultEvent] = ()
        transients: Sequence[FaultEvent] = ()
        if struck:
            deaths = [e for e in struck if e.kind == "core_dead"]
            retrains = [e for e in struck if e.kind == "link_retrain"]
            transients = [e for e in struck if e.kind == "transient"]

        # Link retrains stretch the step: the region runs at the
        # event's surviving bandwidth for the retrain window, so the
        # excess over nominal is pure downtime — but the step commits.
        for event in retrains:
            extra = event.duration_s * (1.0 / event.bw_factor - 1.0)
            step_s += extra
            self.health.record_fault(
                event.at_s, "link_retrain", "slowdown",
                downtime_s=extra, detail=event.detail,
            )

        if deaths:
            # Persistent core death: no retry can succeed on this
            # region.  Remap onto a spare while one remains; degrade
            # capacity in place once spares are exhausted (or, in the
            # fleet configuration, declare the wafer down).  Either
            # way the killed step's body, the weight re-shard, and
            # the KV recompute-from-prompt are downtime.
            self._mark_killed()
            if (
                self.spares_left <= 0
                and server.fail_on_exhausted_spares
            ):
                for event in deaths:
                    self.health.record_fault(
                        event.at_s, "core_dead", "escalate",
                        detail=event.detail + " (spare pool exhausted)",
                    )
                raise SpareExhaustionError(
                    self.remaps + self.degradations + 1,
                    server.spare_regions,
                )
            reshard_s = reshard_cost(
                server.model, server.device, self.live_region
            ).seconds
            recovery_s = step_s + reshard_s + self._kv_recompute_seconds()
            spare_note = ""
            if self.spares_left > 0:
                self.spares_left -= 1
                self.remaps += 1
                action = "remap"
                if self.spare_pool:
                    # Consume the planner's reservations in the order
                    # it ranked them (least comm stretch first).
                    self.live_region = self.spare_pool.pop(0)
                    spare_note = f" -> {self.live_region.name}"
            else:
                self.degradations += 1
                action = "degrade"
                row_fraction = (server.grid - 1) / server.grid
                self.ledger.resize(
                    int(self.ledger.capacity_tokens * row_fraction)
                )
                self.max_batch = max(1, int(self.max_batch * row_fraction))
                shed = [
                    j for j in self.waiting
                    if not j.kv_held
                    and j.request.kv_tokens > self.ledger.capacity_tokens
                ]
                for job in shed:
                    self.waiting.remove(job)
                    self._waiting_discard(job)
                    self._backlog_tokens -= job.prefill_remaining
                    self._shed(job.request)
            for event in deaths:
                self.health.record_fault(
                    event.at_s, "core_dead", action,
                    downtime_s=recovery_s / len(deaths),
                    detail=event.detail + spare_note,
                )
            self.consecutive_failures = 0
            self.now = start + recovery_s
            self._record_step(action, start, batch, chunk)
            return

        bernoulli_killed = server.faults.step_fails()
        if transients or bernoulli_killed:
            self.consecutive_failures += 1
            if self.consecutive_failures > server.max_retries:
                raise FaultEscalationError(
                    self.consecutive_failures, server.max_retries
                )
            self.retries += 1
            self._mark_killed()
            backoff_s = server.faults.backoff_s(self.consecutive_failures)
            self.now = start + step_s + backoff_s
            self.health.record_fault(
                transients[0].at_s if transients else start,
                "transient", "retry",
                downtime_s=step_s + backoff_s,
                detail=(
                    transients[0].detail if transients
                    else "bernoulli step kill"
                ),
            )
            self._record_step("retry", start, batch, chunk)
            return
        self.consecutive_failures = 0
        self.now = start + step_s
        self.health.observe_step(start, step_s, kind=kind)

        # Commit decode progress (stalls during an exclusive block).
        if not exclusive_block and batch:
            self._commit_decode(batch, 1, self.now)

        # Commit prefill progress.
        if self.current is not None and chunk:
            self.current.prefilled += chunk
            self._backlog_tokens -= chunk
            self.current.stats.prefill_chunks += 1
            if self.current.prefill_remaining == 0:
                self.decode_ready.append(self.current)
                self.current = None

        self._record_step(kind, start, batch, chunk)

    def advance_to(self, t_s: float) -> None:
        """Run steps until the wafer's clock reaches ``t_s``.

        Never jumps an *idle* wafer past ``t_s`` — a dispatch at that
        instant must land on a wafer whose clock has not overshot it.  A
        step already in flight may legitimately end past ``t_s``.
        """
        while self.active and self.now < t_s:
            if not (
                self.waiting or self.current
                or self.decode_ready or self.decoding
            ):
                if self._pending[0][0] > t_s:
                    break
            self.step(until_s=t_s)

    def run(self) -> ServingMetrics:
        """Run every step to completion and close the books."""
        while self.active:
            self.step()
        return self.finish()

    # -- output / teardown ----------------------------------------------
    def harvest(self) -> Tuple[List[int], List[Request]]:
        """Hand over what finished or was shed since the last call.

        Returns ``(completed_ids, rejected_requests)``: ids in finish
        order, shed requests in shed order.  Each is handed over exactly
        once; sessions evacuated by :meth:`drain` go to its caller as
        snapshots instead and never appear here.
        """
        done, self._unharvested_done = self._unharvested_done, []
        shed, self._unharvested_shed = self._unharvested_shed, []
        return done, shed

    def drain(self) -> List[SessionSnapshot]:
        """Evacuate every unfinished session for cross-wafer migration.

        Returns snapshots in scheduler order (decode batch, prefilled
        queue, in-flight prefill, waiting, pending) and marks each shed
        on this wafer, so the per-wafer metrics keep exact request
        conservation while the fleet re-homes the sessions.
        """
        jobs = list(self.decoding.values()) + list(self.decode_ready)
        if self.current is not None:
            jobs.append(self.current)
        jobs.extend(self.waiting)
        snapshots = [
            SessionSnapshot(
                request=job.request, prefilled=job.prefilled,
                generated=job.generated, stats=job.stats,
            )
            for job in jobs
        ]
        for _, _, request in self._pending:
            snapshots.append(SessionSnapshot(
                request=request, prefilled=0, generated=0,
                stats=self.stats[request.request_id],
            ))
        self.rejected.extend(snap.request for snap in snapshots)
        self.decoding.clear()
        self._finishes.clear()
        self._awaiting_first.clear()
        self.decode_ready.clear()
        self.current = None
        self.waiting.clear()
        self._waiting_sorted.clear()
        self._waiting_keys.clear()
        self._pending.clear()
        self._decode_context_sum = 0
        self._backlog_tokens = 0
        self._waiting_by_priority.clear()
        self.drained = True
        return snapshots

    def finish(self) -> ServingMetrics:
        """Close the books into :class:`ServingMetrics`."""
        rejected_ids = {r.request_id for r in self.rejected}
        completed = [
            self.stats[r.request_id] for r in self._submitted
            if r.request_id not in rejected_ids
        ]
        return ServingMetrics(
            completed=completed,
            rejected=list(self.rejected),
            makespan_s=self.now,
            total_decode_tokens=self.total_tokens,
            peak_batch=self.peak_batch,
            kv_capacity_tokens=self.server.kv_capacity_tokens,
            peak_kv_tokens=self.peak_kv,
            peak_queue_depth=self.peak_queue,
            retries=self.retries,
            preemptions=self.preemptions,
            events=self.events,
            remaps=self.remaps,
            degradations=self.degradations,
            downtime_s=self.health.downtime_s,
            incidents=self.health.incidents,
            fault_log=list(self.health.log),
        )


def compare_modes(
    model: ModelConfig,
    device: PLMRDevice,
    requests: List[Request],
    chunk_tokens: int = 256,
    max_batch: Optional[int] = None,
    failure_rate: float = 0.0,
    seed: int = 0,
) -> Dict[str, ServingMetrics]:
    """Serve the same trace under both modes with identical settings.

    Fresh fault injectors with the same seed keep the failure process
    identical step-for-step as far as the Bernoulli draws go, so the
    comparison isolates the scheduling policy.
    """
    results: Dict[str, ServingMetrics] = {}
    for mode in ("chunked", "exclusive"):
        server = WaferServer(
            model, device, mode=mode, chunk_tokens=chunk_tokens,
            max_batch=max_batch,
            fault_injector=FaultInjector(failure_rate, seed=seed),
        )
        results[mode] = server.serve(requests)
    return results
