"""Fleet-level rollups over per-wafer serving metrics.

One wafer's :class:`~repro.serving.metrics.ServingMetrics` answers "what
did this region do with the requests it was handed".  A fleet run has to
answer a different question — "what did the *client* experience" — and
the two diverge precisely when failover happens: a session that started
on wafer 0, died with it, and finished as a continuation on wafer 2 is
one client request but two per-wafer records (a shed session there, a
completion here).

:class:`SessionOutcome` is the client-side ledger entry: it follows one
original request across every dispatch, retry, and migration, and
judges latency against the *original* arrival time and SLOs — a failover
does not reset the clock the client is watching.

:class:`FleetMetrics` aggregates outcomes plus the per-wafer segment
reports (each wafer epoch between boots contributes one segment) into
the headline numbers of the EXPERIMENTS fleet table: fleet goodput, p99
TTFT, availability (wafer-seconds up over wafer-seconds total), failover
count, and MTTR.  :meth:`timeline_signature` hashes the ordered
fault/failover timeline so determinism tests can assert that two
same-seed runs replayed the exact same story.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serving.metrics import ServingMetrics
from repro.serving.request import Request
from repro.serving.stats import percentile_sorted


@dataclass
class SessionOutcome:
    """Client-side fate of one original request across the fleet.

    ``wafers`` lists every wafer the session touched, in dispatch order
    (duplicates possible under retry).  ``tokens_emitted`` counts tokens
    the client actually received — re-prefilled context on a failover
    target is *not* emitted again, so a migrated session still delivers
    exactly ``seq_out`` tokens in total.
    """

    request: Request
    dispatches: int = 0
    migrations: int = 0
    retries: int = 0
    first_token_s: float = 0.0
    finish_s: float = 0.0
    completed: bool = False
    lost: bool = False
    tokens_emitted: int = 0
    wafers: List[int] = field(default_factory=list)

    @property
    def ttft_s(self) -> float:
        """Original arrival to first token the client saw."""
        return self.first_token_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        """Original arrival to last token, across all migrations."""
        return self.finish_s - self.request.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean inter-token interval of the client-visible stream."""
        if self.request.seq_out <= 1:
            return 0.0
        return (self.finish_s - self.first_token_s) / (
            self.request.seq_out - 1
        )

    @property
    def met_slo(self) -> bool:
        """Whether the *original* SLOs held end-to-end.

        Judged against the request's own targets from its original
        arrival: a failover does not grant a fresh deadline.
        """
        if not self.completed:
            return False
        if (
            self.request.ttft_slo_s is not None
            and self.ttft_s > self.request.ttft_slo_s
        ):
            return False
        if (
            self.request.tpot_slo_s is not None
            and self.tpot_s > self.request.tpot_slo_s
        ):
            return False
        return True


@dataclass(frozen=True)
class FleetTimelineEntry:
    """One fleet-visible event: a fault, failover, migration, or loss."""

    at_s: float
    kind: str
    wafer: int
    detail: str = ""

    def row(self) -> str:
        """The entry as one canonical text row.

        Times are rounded to nanoseconds, so the row is robust to repr
        formatting but not to any real divergence.  The timeline
        signature and the determinism audit both hash this row.
        """
        return f"{self.at_s:.9f}|{self.kind}|{self.wafer}|{self.detail}"


@dataclass
class FleetMetrics:
    """Aggregate outcome of one fleet chaos run.

    ``wafer_segments[i]`` holds one :class:`ServingMetrics` per epoch of
    wafer ``i`` (a wafer that died and rebooted contributes a segment
    per life).  ``down_windows`` records ``(start_s, end_s, wafer)``
    intervals during which a wafer was out of service.
    """

    n_wafers: int
    outcomes: List[SessionOutcome]
    wafer_segments: List[List[ServingMetrics]]
    timeline: List[FleetTimelineEntry]
    makespan_s: float
    failovers: int = 0
    migrations: int = 0
    router_retries: int = 0
    down_windows: List[Tuple[float, float, int]] = field(default_factory=list)
    # Sorted TTFT sample cache keyed on the outcome count, so growing
    # the ledger invalidates stale entries through the key itself.
    # Derived state: excluded from equality and repr.
    _pct_cache: Dict[Tuple[str, int], List[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _sorted_ttft(self) -> List[float]:
        """Completed-session TTFTs, sorted once per ledger length."""
        key = ("ttft", len(self.outcomes))
        ordered = self._pct_cache.get(key)
        if ordered is None:
            ordered = sorted(
                o.ttft_s for o in self.outcomes if o.completed
            )
            self._pct_cache[key] = ordered
        return ordered

    # -- conservation ---------------------------------------------------
    @property
    def submitted(self) -> int:
        return len(self.outcomes)

    @property
    def completed_outcomes(self) -> List[SessionOutcome]:
        return [o for o in self.outcomes if o.completed]

    @property
    def finished(self) -> int:
        return len(self.completed_outcomes)

    @property
    def lost_requests(self) -> int:
        """Admitted requests the fleet failed to finish anywhere."""
        return sum(1 for o in self.outcomes if o.lost)

    @property
    def rejected(self) -> int:
        """Requests that never completed and were not declared lost.

        With retry budgets these normally drain to zero or get marked
        lost; a nonzero value means admission bounced them everywhere.
        """
        return sum(
            1 for o in self.outcomes if not o.completed and not o.lost
        )

    # -- availability / recovery ----------------------------------------
    @property
    def unavailable_wafer_seconds(self) -> float:
        """Wafer-seconds lost to down windows and intra-wafer faults."""
        down = sum(
            max(0.0, min(end, self.makespan_s) - min(start, self.makespan_s))
            for start, end, _ in self.down_windows
        )
        intra = sum(
            seg.downtime_s
            for segments in self.wafer_segments
            for seg in segments
        )
        return down + intra

    @property
    def availability(self) -> float:
        """Fraction of fleet wafer-seconds spent in service."""
        if self.makespan_s <= 0 or self.n_wafers <= 0:
            return 1.0
        total = self.n_wafers * self.makespan_s
        return max(0.0, 1.0 - self.unavailable_wafer_seconds / total)

    @property
    def incidents(self) -> int:
        """Down windows plus intra-wafer incidents that cost time."""
        intra = sum(
            seg.incidents
            for segments in self.wafer_segments
            for seg in segments
        )
        return len(self.down_windows) + intra

    @property
    def mttr_s(self) -> float:
        """Mean time-to-recovery over every unavailability incident."""
        if self.incidents == 0:
            return 0.0
        return self.unavailable_wafer_seconds / self.incidents

    # -- latency / goodput ----------------------------------------------
    @property
    def p50_ttft_s(self) -> float:
        return percentile_sorted(self._sorted_ttft(), 0.50)

    @property
    def p99_ttft_s(self) -> float:
        return percentile_sorted(self._sorted_ttft(), 0.99)

    @property
    def mean_latency_s(self) -> float:
        done = self.completed_outcomes
        if not done:
            return 0.0
        return sum(o.latency_s for o in done) / len(done)

    @property
    def slo_attainment(self) -> float:
        done = self.completed_outcomes
        if not done:
            return 0.0
        return sum(1 for o in done if o.met_slo) / len(done)

    @property
    def total_tokens_emitted(self) -> int:
        return sum(o.tokens_emitted for o in self.outcomes)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens_emitted / self.makespan_s

    @property
    def goodput_tokens_per_s(self) -> float:
        """Client-visible tokens from SLO-compliant sessions, per second."""
        if self.makespan_s <= 0:
            return 0.0
        good = sum(
            o.request.seq_out for o in self.completed_outcomes if o.met_slo
        )
        return good / self.makespan_s

    # -- determinism ----------------------------------------------------
    def timeline_signature(self) -> str:
        """Order-sensitive digest of the fault/failover timeline.

        Two runs with the same seed must produce the same signature;
        each entry contributes its :meth:`FleetTimelineEntry.row`.
        """
        h = hashlib.sha256()
        for entry in self.timeline:
            h.update(f"{entry.row()}\n".encode())
        return h.hexdigest()

    def summary(self) -> Dict[str, float]:
        """Flat numeric summary for tables and smoke gates."""
        return {
            "submitted": float(self.submitted),
            "finished": float(self.finished),
            "lost": float(self.lost_requests),
            "availability": self.availability,
            "mttr_s": self.mttr_s,
            "failovers": float(self.failovers),
            "migrations": float(self.migrations),
            "router_retries": float(self.router_retries),
            "p50_ttft_s": self.p50_ttft_s,
            "p99_ttft_s": self.p99_ttft_s,
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "slo_attainment": self.slo_attainment,
            "makespan_s": self.makespan_s,
        }
