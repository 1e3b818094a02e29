"""Health observability for the serving loop.

A wafer serving a live request stream has no operator watching each
step; the runtime itself must notice when steps stop landing on time and
must keep an auditable record of every fault it absorbed.  This module
provides both halves:

* :class:`HealthMonitor` — watches committed step durations against a
  watchdog threshold (a multiple of the running median, armed once
  enough healthy samples exist) and accumulates the fault log plus the
  downtime ledger that :class:`~repro.serving.metrics.ServingMetrics`
  turns into availability and MTTR;
* :class:`FaultLogEntry` — one absorbed incident: what struck, what the
  escalation policy did about it, and how much wall-clock it cost.

Downtime here means *capacity-useless* time: retried step bodies,
backoff pauses, bandwidth lost to link retrains, and remap/re-shard
windows.  Time spent productively (even degraded) is uptime.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import ConfigurationError

#: Actions the escalation policy can report against a fault.
#: ``escalate`` marks the terminal rung: the wafer gave up (spare pool
#: exhausted or retry budget blown) and handed the incident upward —
#: to the operator on a single wafer, to the fleet router in a fleet.
FAULT_ACTIONS = (
    "retry", "slowdown", "remap", "degrade", "watchdog", "escalate",
)

#: Default fault-log bound: long chaos sweeps log one entry per absorbed
#: incident, so an unbounded list grows with the fault horizon.
DEFAULT_MAX_LOG_ENTRIES = 4096


@dataclass(frozen=True)
class FaultLogEntry:
    """One absorbed fault incident in the serving timeline."""

    at_s: float
    kind: str       # transient | link_retrain | core_dead | watchdog
    action: str     # retry | slowdown | remap | degrade | watchdog
    downtime_s: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.downtime_s < 0:
            raise ConfigurationError("downtime must be >= 0")


def _sorted_median(values: List[float]) -> float:
    """:func:`statistics.median` of an already-sorted list, in O(1).

    ``statistics.median`` sorts its input and returns the middle element,
    or ``(s[i - 1] + s[i]) / 2`` for even ``n``; applied to a list that
    is already sorted this is the same expression on the same operands.
    """
    n = len(values)
    i = n // 2
    if n % 2:
        return values[i]
    return (values[i - 1] + values[i]) / 2


def _insert_run(values: List[float], value: float, count: int) -> None:
    """Insert ``count`` copies of ``value`` into sorted ``values``."""
    if count > 0:
        at = bisect_right(values, value)
        values[at:at] = [value] * count


class HealthMonitor:
    """Step watchdog plus the fault/downtime ledger of one serving run.

    ``watchdog_factor`` arms a soft alarm: once ``min_samples`` healthy
    step durations are on record *for that step kind*, any step slower
    than ``factor x median`` of its kind trips the watchdog and is
    logged (observability only — the escalation policy acts on typed
    fault events, not on the alarm).  Baselines are kept per step kind
    because a chunked-prefill loop legitimately mixes prefill blocks and
    decode steps whose durations differ by orders of magnitude.

    The fault log is a ``deque(maxlen=max_log_entries)`` (``None`` for
    unbounded): once full, each new entry evicts the oldest, so
    week-long chaos sweeps keep the *recent* incident history without
    growing memory without limit.  The downtime ledger and the incident
    and action counters aggregate over every entry ever recorded,
    dropped or not; the monitor is the one place incidents are counted.

    Each per-kind baseline is kept sorted, so the watchdog's median is
    an O(1) read with the exact :func:`statistics.median` arithmetic
    (see :func:`_sorted_median`); insertion keeps the multiset, and with
    it every threshold, identical to an insertion-order list.
    """

    def __init__(
        self,
        watchdog_factor: float = 20.0,
        min_samples: int = 8,
        max_log_entries: Optional[int] = DEFAULT_MAX_LOG_ENTRIES,
    ):
        if watchdog_factor <= 1.0:
            raise ConfigurationError("watchdog_factor must be > 1")
        if min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        if max_log_entries is not None and max_log_entries < 1:
            raise ConfigurationError(
                "max_log_entries must be >= 1 (or None for unbounded)"
            )
        self.watchdog_factor = watchdog_factor
        self.min_samples = min_samples
        self.max_log_entries = max_log_entries
        self.log: Deque[FaultLogEntry] = deque(maxlen=max_log_entries)
        self.watchdog_trips = 0
        self.downtime_s = 0.0
        self._incidents = 0
        self._durations: Dict[str, List[float]] = {}
        self._action_counts: Dict[str, int] = {}

    def _append(self, entry: FaultLogEntry) -> None:
        """Count the entry, then log it (a full log evicts its oldest)."""
        self._action_counts[entry.action] = (
            self._action_counts.get(entry.action, 0) + 1
        )
        if entry.downtime_s > 0:
            self._incidents += 1
        self.log.append(entry)

    # ------------------------------------------------------------------
    def observe_step(
        self, at_s: float, duration_s: float, kind: str = "step"
    ) -> bool:
        """Feed one committed step; returns True when the watchdog trips."""
        baseline = self._durations.setdefault(kind, [])
        armed = len(baseline) >= self.min_samples
        tripped = False
        if armed:
            threshold = self.watchdog_factor * _sorted_median(baseline)
            if duration_s > threshold:
                tripped = True
                self.watchdog_trips += 1
                self._append(FaultLogEntry(
                    at_s=at_s, kind="watchdog", action="watchdog",
                    detail=(
                        f"{kind} step took {duration_s:.3e}s against a "
                        f"{threshold:.3e}s watchdog threshold"
                    ),
                ))
        # Tripped steps stay out of the baseline so one pathological step
        # cannot stretch the threshold for the next.
        if not tripped:
            insort(baseline, duration_s)
        return tripped

    def observe_steps(
        self, starts, duration_s: float, kind: str = "step"
    ) -> int:
        """Feed a run of equal-duration steps; returns watchdog trips.

        State-identical to calling :meth:`observe_step` once per start
        time with the same ``duration_s``, but with one median
        computation for the whole run.  The shortcut is sound because
        the duration is constant across the run:

        * while unarmed, steps never trip and only fill the baseline;
        * if the first armed step passes (``d <= factor * median``),
          appending copies of ``d`` can only pull the median toward
          ``d``, keeping ``factor * median >= min(factor * median0,
          factor * d) >= d`` — so no later step in the run trips either;
        * if the first armed step trips, tripped steps stay out of the
          baseline, so every remaining step sees the *same* baseline and
          threshold and trips identically (one log entry per step, at
          that step's start time).
        """
        baseline = self._durations.setdefault(kind, [])
        n = len(starts)
        i = min(n, max(0, self.min_samples - len(baseline)))
        _insert_run(baseline, duration_s, i)
        if i == n:
            return 0
        threshold = self.watchdog_factor * _sorted_median(baseline)
        if duration_s > threshold:
            detail = (
                f"{kind} step took {duration_s:.3e}s against a "
                f"{threshold:.3e}s watchdog threshold"
            )
            for j in range(i, n):
                self.watchdog_trips += 1
                self._append(FaultLogEntry(
                    at_s=float(starts[j]), kind="watchdog",
                    action="watchdog", detail=detail,
                ))
            return n - i
        _insert_run(baseline, duration_s, n - i)
        return 0

    def record_fault(
        self,
        at_s: float,
        kind: str,
        action: str,
        downtime_s: float = 0.0,
        detail: str = "",
    ) -> FaultLogEntry:
        """Log one absorbed incident and account its downtime."""
        entry = FaultLogEntry(
            at_s=at_s, kind=kind, action=action,
            downtime_s=downtime_s, detail=detail,
        )
        self._append(entry)
        self.downtime_s += downtime_s
        return entry

    # ------------------------------------------------------------------
    @property
    def incidents(self) -> int:
        """Fault incidents that cost wall-clock time (incl. dropped)."""
        return self._incidents

    @property
    def dropped_entries(self) -> int:
        """Log entries evicted by the bound: recorded minus retained."""
        return sum(self._action_counts.values()) - len(self.log)

    @property
    def mttr_s(self) -> float:
        """Mean time-to-recovery: downtime per time-costing incident."""
        if self.incidents == 0:
            return 0.0
        return self.downtime_s / self.incidents

    def action_counts(self) -> Dict[str, int]:
        """How many incidents each escalation action absorbed.

        Counted at record time, so entries evicted from the bounded log
        still contribute.
        """
        return dict(self._action_counts)
