"""Serving metrics: per-step event log and the aggregate report.

:class:`ServingMetrics` is the record every serving simulation returns.
It carries enough raw material (per-request timelines plus a per-step
event log) for the invariant tests to re-derive every headline number:

* **TTFT / TPOT** — arrival-to-first-token and inter-token interval,
  with p50/p99 over completed requests;
* **queue depth** — admitted-but-not-yet-decoding requests, sampled at
  every step boundary;
* **KV occupancy** — reserved KV tokens against the region capacity,
  sampled at every step boundary (the M-property budget the scheduler
  must never exceed);
* **goodput vs. SLO** — decode tokens from requests that met all their
  latency targets, per wall-clock second (the Sarathi/MOCAP serving
  metric: raw throughput that violates SLOs is not useful work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serving.events import StepEventLog
from repro.serving.health import FaultLogEntry
from repro.serving.request import Request, RequestStats
from repro.serving.stats import percentile, percentile_sorted

__all__ = ["ServingMetrics", "percentile"]


@dataclass
class ServingMetrics:
    """Aggregate outcome of one serving simulation."""

    completed: List[RequestStats]
    rejected: List[Request]
    makespan_s: float
    total_decode_tokens: int
    peak_batch: int
    kv_capacity_tokens: int
    peak_kv_tokens: int = 0
    peak_queue_depth: int = 0
    retries: int = 0
    preemptions: int = 0
    events: StepEventLog = field(default_factory=StepEventLog)
    remaps: int = 0
    degradations: int = 0
    downtime_s: float = 0.0
    # Time-costing incidents as counted by the run's HealthMonitor, over
    # every incident ever recorded; ``fault_log`` holds only the window
    # the monitor's bounded log retained.
    incidents: int = 0
    fault_log: List[FaultLogEntry] = field(default_factory=list)
    # Sorted-sample cache behind the percentile properties: keyed on the
    # sample family *and* the completed-list length, so appending more
    # completions naturally invalidates stale entries (the length is
    # part of the key the lookup consumes).  Excluded from equality and
    # repr — it is derived state, not part of the record.
    _pct_cache: Dict[Tuple[str, int], List[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _sorted_samples(self, name: str) -> List[float]:
        """Sorted sample vector for ``name``, computed once per length."""
        key = (name, len(self.completed))
        ordered = self._pct_cache.get(key)
        if ordered is None:
            if name == "latency":
                values = [s.latency_s for s in self.completed]
            elif name == "ttft":
                values = [s.ttft_s for s in self.completed]
            else:  # tpot: only requests with a second token have a span
                values = [
                    s.tpot_s for s in self.completed if s.request.seq_out > 1
                ]
            ordered = sorted(values)
            self._pct_cache[key] = ordered
        return ordered

    # -- conservation ---------------------------------------------------
    @property
    def submitted(self) -> int:
        """Requests offered to the server."""
        return len(self.completed) + len(self.rejected)

    @property
    def finished(self) -> int:
        """Requests that ran to their last token."""
        return len(self.completed)

    # -- latency --------------------------------------------------------
    @property
    def mean_latency_s(self) -> float:
        """Average request latency over completed requests."""
        if not self.completed:
            return 0.0
        return sum(s.latency_s for s in self.completed) / len(self.completed)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile request latency."""
        return percentile_sorted(self._sorted_samples("latency"), 0.99)

    @property
    def p50_ttft_s(self) -> float:
        """Median time-to-first-token."""
        return percentile_sorted(self._sorted_samples("ttft"), 0.50)

    @property
    def p99_ttft_s(self) -> float:
        """99th-percentile time-to-first-token."""
        return percentile_sorted(self._sorted_samples("ttft"), 0.99)

    @property
    def mean_tpot_s(self) -> float:
        """Average inter-token interval over completed requests."""
        spans = [s.tpot_s for s in self.completed if s.request.seq_out > 1]
        return sum(spans) / len(spans) if spans else 0.0

    @property
    def p99_tpot_s(self) -> float:
        """99th-percentile inter-token interval."""
        return percentile_sorted(self._sorted_samples("tpot"), 0.99)

    # -- throughput / goodput -------------------------------------------
    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per wall-clock second over the whole run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_decode_tokens / self.makespan_s

    @property
    def goodput_tokens_per_s(self) -> float:
        """Decode tokens from SLO-compliant requests, per second."""
        if self.makespan_s <= 0:
            return 0.0
        good = sum(s.request.seq_out for s in self.completed if s.met_slo)
        return good / self.makespan_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests that met every latency target."""
        if not self.completed:
            return 0.0
        return sum(1 for s in self.completed if s.met_slo) / len(self.completed)

    # -- fault tolerance ------------------------------------------------
    @property
    def availability(self) -> float:
        """Fraction of the makespan spent doing useful (non-fault) work.

        Downtime covers retried step bodies, backoff pauses, bandwidth
        lost to link retrains, and remap/re-shard windows; a run with no
        faults reports 1.0.
        """
        if self.makespan_s <= 0:
            return 1.0
        return max(0.0, 1.0 - self.downtime_s / self.makespan_s)

    @property
    def mttr_s(self) -> float:
        """Mean time-to-recovery over incidents that cost wall-clock."""
        if self.incidents == 0:
            return 0.0
        return self.downtime_s / self.incidents

    # -- occupancy ------------------------------------------------------
    @property
    def peak_kv_fraction(self) -> float:
        """Peak KV reservation as a fraction of the region capacity."""
        if self.kv_capacity_tokens <= 0:
            return 0.0
        return self.peak_kv_tokens / self.kv_capacity_tokens

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean queue depth: queue area over the makespan."""
        if not self.events or self.makespan_s <= 0:
            return 0.0
        return self.events.queue_area_s / self.makespan_s

    @property
    def decode_stall_s(self) -> float:
        """Wall-clock time live decode streams spent stalled.

        A step stalls decode when streams are live but produce nothing:
        exclusive prefill blocks and fault retries.  This is the quantity
        chunked prefill exists to eliminate; the event log accumulates it
        as steps are appended.
        """
        return self.events.decode_stall_s
