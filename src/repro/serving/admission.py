"""SLO-aware admission control for the wafer serving layer.

Admission answers one question per arriving request: *can this request
plausibly meet its deadlines given what is already queued?*  Two checks,
both deliberately optimistic (a request is only shed when it is
hopeless even under best-case scheduling, so admission never rejects a
request the scheduler could have served in time):

1. **Feasibility** — the request's whole KV footprint
   (``seq_in + seq_out`` tokens) must fit the decode region's budget at
   all; a request larger than the region can never run.
2. **TTFT deadline** — a lower bound on its time-to-first-token is
   ``now + (backlog + own prefill work) at the region's best prefill
   rate``; if even that misses the request's TTFT deadline, the request
   is rejected at arrival instead of wasting queue time and KV budget.
   Only backlog at equal-or-higher priority counts: lower-priority
   prefills will be scheduled behind the newcomer.

Best-effort requests (no ``ttft_slo_s``) are never rejected for
latency — only for infeasible size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError
from repro.serving.request import Request


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ""


class SLOAdmission:
    """Deadline-aware admission over a fixed KV capacity.

    ``optimistic_prefill_s_per_token`` is the best-case per-token
    prefill rate the scheduler can sustain (compute-only, fully
    piggybacked); the controller uses it as an unbeatable lower bound
    on queueing + prefill delay.
    """

    def __init__(
        self,
        kv_capacity_tokens: int,
        optimistic_prefill_s_per_token: float,
    ):
        if kv_capacity_tokens < 0:
            raise ConfigurationError("kv capacity must be non-negative")
        if optimistic_prefill_s_per_token < 0:
            raise ConfigurationError("prefill rate must be non-negative")
        self.kv_capacity_tokens = kv_capacity_tokens
        self.optimistic_prefill_s_per_token = optimistic_prefill_s_per_token

    def check(
        self,
        request: Request,
        now_s: float,
        backlog_prefill_tokens: int,
    ) -> AdmissionDecision:
        """Decide one arrival.

        ``backlog_prefill_tokens`` is the prefill work (tokens not yet
        prefilled) queued at equal-or-higher priority, including any
        in-flight prefill's remainder.
        """
        if request.kv_tokens > self.kv_capacity_tokens:
            return AdmissionDecision(
                False,
                f"KV footprint {request.kv_tokens} exceeds region "
                f"capacity {self.kv_capacity_tokens}",
            )
        if request.ttft_slo_s is None:
            return AdmissionDecision(True)
        work = backlog_prefill_tokens + request.seq_in
        earliest_first_token = (
            now_s + work * self.optimistic_prefill_s_per_token
        )
        if earliest_first_token > request.ttft_deadline_s:
            return AdmissionDecision(
                False,
                f"earliest TTFT {earliest_first_token - request.arrival_s:.3f}s "
                f"already misses the {request.ttft_slo_s:.3f}s SLO",
            )
        return AdmissionDecision(True)


def backlog_tokens(
    queued_by_priority: Mapping[int, int],
    remaining_of_current: int,
    priority_floor: int,
) -> int:
    """Prefill tokens queued at priority >= ``priority_floor``.

    ``queued_by_priority`` maps each priority to the prompt tokens
    (``seq_in``) of the requests waiting at it; the serving engine keeps
    it as running per-priority totals, so a check costs one pass over
    the distinct priorities rather than over the queue.
    ``remaining_of_current`` is the unprefilled remainder of the
    in-flight prefill job (0 when idle); it always counts — the slot is
    busy regardless of priority.
    """
    queued = sum(
        tokens for priority, tokens in queued_by_priority.items()
        if priority >= priority_floor
    )
    return queued + max(0, remaining_of_current)
