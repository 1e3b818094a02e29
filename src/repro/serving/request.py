"""Request model for the serving layer: arrivals, priorities, SLOs.

A request is one prompt (``seq_in`` tokens) plus a generation budget
(``seq_out`` tokens).  The serving extension grows the paper's
single-stream model with the fields a real frontend attaches to each
query: a scheduling *priority* (higher wins under contention) and
optional per-request SLOs — a deadline on time-to-first-token (TTFT)
and a bound on the steady decode interval (TPOT).  Both are expressed
in seconds relative to the request's own arrival, the way serving
systems (vLLM, Sarathi-Serve, MOCAP) specify latency targets.

:class:`RequestStats` is the measured timeline.  Every event time is
absolute simulation time, and a correctly scheduled request satisfies
``arrival <= prefill_start <= decode_start <= first_token <= finish``
— the monotonicity invariant the serving tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Request:
    """One inference request.

    ``priority`` orders requests under contention (higher first).
    ``ttft_slo_s`` / ``tpot_slo_s`` are optional latency targets used by
    SLO-aware admission and by the goodput accounting; ``None`` means
    best-effort (never rejected for latency, always counted as within
    SLO).

    ``session_id`` groups requests that share conversational state: the
    fleet router keeps a session pinned to one wafer while it stays
    healthy (KV locality — the cache of earlier turns lives there).
    ``None`` means stateless; a single wafer ignores the field entirely.
    """

    request_id: int
    seq_in: int
    seq_out: int
    arrival_s: float = 0.0
    priority: int = 0
    ttft_slo_s: Optional[float] = None
    tpot_slo_s: Optional[float] = None
    session_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.seq_in < 1 or self.seq_out < 1:
            raise ConfigurationError("seq_in and seq_out must be positive")
        # The negated range checks also reject NaN, which fails every
        # comparison.
        if not 0 <= self.arrival_s < math.inf:
            raise ConfigurationError(
                "arrival time must be finite and non-negative"
            )
        if self.ttft_slo_s is not None and not 0 < self.ttft_slo_s < math.inf:
            raise ConfigurationError(
                "ttft_slo_s must be finite and positive when set"
            )
        if self.tpot_slo_s is not None and not 0 < self.tpot_slo_s < math.inf:
            raise ConfigurationError(
                "tpot_slo_s must be finite and positive when set"
            )

    @property
    def kv_tokens(self) -> int:
        """KV-cache tokens this request owns while live (prompt + output)."""
        return self.seq_in + self.seq_out

    @property
    def ttft_deadline_s(self) -> float:
        """Absolute deadline for the first token (``inf`` if best-effort)."""
        if self.ttft_slo_s is None:
            return math.inf
        return self.arrival_s + self.ttft_slo_s


@dataclass
class RequestStats:
    """Measured timeline of one served request."""

    request: Request
    prefill_start_s: float = 0.0
    decode_start_s: float = 0.0
    first_token_s: float = 0.0
    finish_s: float = 0.0
    prefill_chunks: int = 0
    preemptions: int = 0
    retries: int = 0

    @property
    def latency_s(self) -> float:
        """Arrival to last token."""
        return self.finish_s - self.request.arrival_s

    @property
    def queueing_s(self) -> float:
        """Time spent waiting before prefill began."""
        return self.prefill_start_s - self.request.arrival_s

    @property
    def ttft_s(self) -> float:
        """Arrival to first generated token.

        Falls back to the decode-start timestamp while no first token
        has been recorded (``first_token_s`` is still 0).
        """
        reference = self.first_token_s or self.decode_start_s
        return reference - self.request.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean interval between generated tokens after the first."""
        if self.request.seq_out <= 1:
            return 0.0
        first = self.first_token_s or self.decode_start_s
        return (self.finish_s - first) / (self.request.seq_out - 1)

    @property
    def decode_tokens_per_s(self) -> float:
        """Per-request decode rate."""
        span = self.finish_s - self.decode_start_s
        return self.request.seq_out / span if span > 0 else 0.0

    @property
    def met_ttft_slo(self) -> bool:
        """Whether the first token landed within the TTFT target."""
        if self.request.ttft_slo_s is None:
            return True
        return self.ttft_s <= self.request.ttft_slo_s

    @property
    def met_tpot_slo(self) -> bool:
        """Whether the decode interval stayed within the TPOT target."""
        if self.request.tpot_slo_s is None:
            return True
        return self.tpot_s <= self.request.tpot_slo_s

    @property
    def met_slo(self) -> bool:
        """Whether every latency target of this request was met."""
        return self.met_ttft_slo and self.met_tpot_slo
