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

from bisect import bisect_left
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


class _CountedBaseline:
    """Sorted multiset of one step kind's healthy durations.

    The distinct durations are kept ascending with a count each, so the
    memory is O(distinct durations), not O(steps).  A median cursor
    names the distinct value that holds sorted rank ``n // 2``
    (``_below`` copies sort before it); every :meth:`add` moves the
    cursor by the distinct values it crosses and refreshes ``median``
    from the same one or two operands :func:`statistics.median` picks
    from the expanded sorted list, so it is the same float.  ``median``
    is meaningful once ``n > 0``.
    """

    __slots__ = ("values", "counts", "n", "median", "_at", "_below")

    def __init__(self) -> None:
        self.values: List[float] = []
        self.counts: List[int] = []
        self.n = 0
        self.median = 0.0
        self._at = 0
        self._below = 0

    def add(self, value: float, count: int) -> None:
        """Insert ``count`` copies of ``value``."""
        if count <= 0:
            return
        values, counts, at = self.values, self.counts, self._at
        below = self._below
        i = bisect_left(values, value)
        if i < len(values) and values[i] == value:
            counts[i] += count
            if i < at:
                below += count
        else:
            values.insert(i, value)
            counts.insert(i, count)
            if self.n and i <= at:
                at += 1
                below += count
        self.n += count
        rank = self.n // 2
        while rank >= below + counts[at]:
            below += counts[at]
            at += 1
        while rank < below:
            at -= 1
            below -= counts[at]
        self._at, self._below = at, below
        high = values[at]
        if self.n % 2:
            self.median = high
        elif rank > below:
            self.median = (high + high) / 2
        else:
            self.median = (values[at - 1] + high) / 2


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

    Each per-kind baseline is a counted multiset (:class:`_CountedBaseline`):
    the sorted distinct durations with their counts and a median cursor.
    The median is an O(1) read with the exact :func:`statistics.median`
    arithmetic, and the multiset, with it every threshold, is identical
    to an insertion-order list of every healthy step.  A run of ``n``
    equal-duration steps costs one insertion, not ``n``, so a long
    decode-heavy run keeps O(distinct durations) of baseline state.
    """

    def __init__(
        self,
        watchdog_factor: float = 20.0,
        min_samples: int = 8,
        max_log_entries: Optional[int] = DEFAULT_MAX_LOG_ENTRIES,
    ):
        if not watchdog_factor > 1.0:  # NaN compares False too
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
        self._baselines: Dict[str, _CountedBaseline] = {}
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
        baseline = self._baselines.get(kind) or self._baseline(kind)
        tripped = False
        if baseline.n >= self.min_samples:
            threshold = self.watchdog_factor * baseline.median
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
            baseline.add(duration_s, 1)
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
        baseline = self._baseline(kind)
        n = len(starts)
        i = min(n, max(0, self.min_samples - baseline.n))
        baseline.add(duration_s, i)
        if i == n:
            return 0
        threshold = self.watchdog_factor * baseline.median
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
        baseline.add(duration_s, n - i)
        return 0

    def _baseline(self, kind: str) -> _CountedBaseline:
        baseline = self._baselines.get(kind)
        if baseline is None:
            baseline = self._baselines[kind] = _CountedBaseline()
        return baseline

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
