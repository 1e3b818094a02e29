"""Fault injection for mesh execution steps.

Wafer-scale fabrics route around defective cores at configuration time,
but a *runtime* upset (router CRC error, link retrain, a core dropping a
wavelet) kills the distributed step in flight: every core of the region
is mid-kernel with no partial result worth keeping, so the runtime
re-launches the step.  :class:`FaultInjector` models that failure
process as a seeded per-step Bernoulli trial — deterministic for tests,
tunable for experiments — and hands schedulers the retry arithmetic:
exponential backoff with a cap, mirroring how the host runtime paces
re-launches while the fabric recovers.

Beyond the memoryless Bernoulli process, :class:`FaultSchedule` carries
*typed, timed* fault events — the taxonomy the escalation policy in
:mod:`repro.serving.chunked` reacts to:

* ``transient`` — a one-shot upset that kills the step in flight and is
  gone on retry (SEU, dropped wavelet);
* ``link_retrain`` — a fabric link renegotiates for ``duration_s``; the
  region keeps running at ``bw_factor`` of nominal bandwidth, so steps
  overlapping the window are stretched, not killed;
* ``core_dead`` — a core fails permanently; no retry can succeed on the
  same region, the server must remap onto spare capacity or degrade.

The serving layer consumes this: a killed step costs its full duration
plus the backoff penalty and commits nothing, which is precisely why
chunked prefill beats exclusive prefill under faults — a retry loses one
chunk, not a whole prompt's prefill pass.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: The fault kinds the escalation policy understands.
FAULT_KINDS = ("transient", "link_retrain", "core_dead")


def derive_seed(seed: int, label: str) -> int:
    """A stable child seed for ``label`` under a parent ``seed``.

    Stable across processes and Python versions (unlike ``hash()``), so
    every RNG stream derived from one schedule seed replays identically:
    the fault timeline, the escalation ladder's backoff jitter, and the
    fleet router's retry jitter all hang off the same root.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def schedule_rng(seed: Optional[int], label: str) -> random.Random:
    """The RNG stream ``label`` of a schedule whose root seed is ``seed``.

    Hand-built schedules record no seed and must set one before asking
    for derived streams.
    """
    if seed is None:
        raise ConfigurationError(
            "schedule has no recorded seed to derive RNG streams from"
        )
    return random.Random(derive_seed(seed, label))


def check_rates(**rates_hz: float) -> None:
    """Reject the first negative or non-finite arrival rate, by keyword
    name (an infinite rate draws zero-length gaps forever)."""
    for name, rate in rates_hz.items():
        if not (math.isfinite(rate) and rate >= 0):
            raise ConfigurationError(
                f"{name} must be finite and >= 0, got {rate}"
            )


def check_horizon(horizon_s: float) -> None:
    """Reject a horizon no arrival process can reach the end of."""
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise ConfigurationError(
            f"horizon_s must be finite and positive, got {horizon_s}"
        )


def poisson_arrivals(
    rng: random.Random, rate_hz: float, horizon_s: float
) -> List[float]:
    """Arrival times of a Poisson process over ``[0, horizon_s)``.

    Inter-arrival gaps come from ``rng.expovariate``: one draw per
    arrival plus the one that overshoots the horizon, none at rate 0.
    """
    times: List[float] = []
    t = 0.0
    while rate_hz > 0:
        t += rng.expovariate(rate_hz)
        if t >= horizon_s:
            break
        times.append(t)
    return times


class FaultInjector:
    """Seeded Bernoulli step-killer with exponential-backoff pacing.

    With ``jitter=True`` the backoff follows the *decorrelated jitter*
    schedule (pause drawn uniformly between the base and three times the
    previous pause, capped) instead of pure exponential doubling: retry
    storms across concurrently-failing regions desynchronise instead of
    hammering the host runtime in lockstep.  The draw uses its own seeded
    RNG so enabling jitter never perturbs the failure process itself.
    """

    def __init__(
        self,
        failure_rate: float = 0.0,
        seed: int = 0,
        base_backoff_s: float = 1e-4,
        max_backoff_s: float = 1e-2,
        jitter: bool = False,
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise ConfigurationError("failure_rate must be in [0, 1)")
        finite = math.isfinite(max_backoff_s)
        if not (finite and 0 <= base_backoff_s <= max_backoff_s):
            raise ConfigurationError(
                "backoff bounds must be finite and satisfy 0 <= base <= max"
            )
        self.failure_rate = failure_rate
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self.jitter = jitter
        self._rng = random.Random(seed)
        # Separate stream: jitter draws must not advance the fate RNG.
        self._jitter_rng = random.Random((seed ^ 0x5DEECE66D) & 0xFFFFFFFF)
        self._prev_backoff = 0.0
        self.steps_attempted = 0
        self.steps_killed = 0

    def step_fails(self) -> bool:
        """Draw one step's fate; records the attempt."""
        self.steps_attempted += 1
        if self.failure_rate <= 0.0:
            return False
        failed = self._rng.random() < self.failure_rate
        if failed:
            self.steps_killed += 1
        return failed

    def note_steps(self, count: int) -> None:
        """Record ``count`` attempts that cannot fail (rate is zero).

        The horizon-batched serving path commits runs of steps without
        per-step fate draws; that shortcut is only taken when
        ``failure_rate <= 0``, where :meth:`step_fails` draws nothing
        and just counts — this keeps the attempt ledger identical.
        """
        if self.failure_rate > 0.0:
            raise ConfigurationError(
                "note_steps is only valid when failure_rate is zero; "
                "a nonzero rate must draw per-step fates"
            )
        self.steps_attempted += count

    def backoff_s(self, consecutive_failures: int) -> float:
        """Pause before the ``consecutive_failures``-th retry (1-based)."""
        if consecutive_failures < 1:
            raise ConfigurationError("consecutive_failures must be >= 1")
        if not self.jitter:
            pause = self.base_backoff_s * (2.0 ** (consecutive_failures - 1))
            return min(pause, self.max_backoff_s)
        # Decorrelated jitter: sleep = min(cap, uniform(base, prev * 3)).
        if consecutive_failures == 1:
            self._prev_backoff = 0.0
        lo = self.base_backoff_s
        hi = max(lo, self._prev_backoff * 3.0)
        pause = min(self.max_backoff_s, self._jitter_rng.uniform(lo, hi))
        self._prev_backoff = pause
        return pause

    def bind_jitter_rng(self, rng: random.Random) -> None:
        """Replace the jitter stream with an externally-derived RNG.

        The serving layer calls this when a :class:`FaultSchedule` with
        a recorded seed drives the run: backoff jitter then derives from
        the *schedule's* seed, so one seed reproduces the entire
        fault-and-retry timeline.  The fate RNG is untouched — binding
        never perturbs which steps fail.
        """
        self._jitter_rng = rng
        self._prev_backoff = 0.0


def check_fault_window(at_s: float, duration_s: float) -> None:
    """Reject a fault time or duration that is negative or non-finite.

    A NaN time sorts anywhere and stalls a schedule's cursor; an
    infinite duration never ends.
    """
    if not (math.isfinite(at_s) and at_s >= 0):
        raise ConfigurationError(
            f"fault time must be finite and >= 0, got {at_s}"
        )
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ConfigurationError(
            f"fault duration must be finite and >= 0, got {duration_s}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One typed fault at a point in serving time.

    ``at_s`` is the wall-clock instant the fault strikes; a step whose
    execution window covers it observes the event.  ``duration_s`` and
    ``bw_factor`` only apply to ``link_retrain`` (the retrain window and
    the surviving bandwidth fraction during it).
    """

    at_s: float
    kind: str
    duration_s: float = 0.0
    bw_factor: float = 1.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        check_fault_window(self.at_s, self.duration_s)
        if not 0.0 < self.bw_factor <= 1.0:
            raise ConfigurationError(
                f"bw_factor must be in (0, 1], got {self.bw_factor}"
            )


@dataclass
class FaultSchedule:
    """A time-ordered sequence of typed fault events.

    The serving loop walks the schedule with a cursor: each executed step
    consumes every event whose ``at_s`` falls inside the step's window,
    reacting per kind (retry, slow down, escalate).  Schedules are either
    hand-built for tests or drawn by :meth:`generate` as independent
    Poisson arrival processes per kind — fully determined by the seed.

    ``seed`` records the root seed a generated schedule was drawn from
    (``None`` for hand-built schedules).  Consumers derive every other
    RNG stream of the run from it via :meth:`derive_rng`, so a single
    seed pins the fault timeline *and* the jittered reactions to it.
    """

    events: List[FaultEvent] = field(default_factory=list)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_s)
        self._cursor = 0

    def derive_rng(self, label: str) -> random.Random:
        """A seeded RNG stream derived from this schedule's seed."""
        return schedule_rng(self.seed, label)

    def __len__(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        """Rewind the consumption cursor (for replaying the schedule)."""
        self._cursor = 0

    def pop_until(self, t_s: float) -> List[FaultEvent]:
        """Consume and return every unconsumed event with ``at_s <= t_s``."""
        taken: List[FaultEvent] = []
        while self._cursor < len(self.events) and self.events[self._cursor].at_s <= t_s:
            taken.append(self.events[self._cursor])
            self._cursor += 1
        return taken

    def peek(self) -> Optional[FaultEvent]:
        """The next unconsumed event, or None when drained."""
        if self._cursor < len(self.events):
            return self.events[self._cursor]
        return None

    @property
    def remaining(self) -> int:
        """Events not yet consumed."""
        return len(self.events) - self._cursor

    def counts(self) -> Tuple[int, int, int]:
        """(transient, link_retrain, core_dead) event totals."""
        kinds = [e.kind for e in self.events]
        return (
            kinds.count("transient"),
            kinds.count("link_retrain"),
            kinds.count("core_dead"),
        )

    @classmethod
    def generate(
        cls,
        horizon_s: float,
        seed: int = 0,
        transient_rate_hz: float = 0.0,
        retrain_rate_hz: float = 0.0,
        core_dead_rate_hz: float = 0.0,
        retrain_duration_s: float = 5e-4,
        retrain_bw_factor: float = 0.25,
    ) -> "FaultSchedule":
        """Draw a seeded schedule over ``[0, horizon_s)``.

        Each fault kind arrives as an independent Poisson process with
        the given rate (events per second of serving time); inter-arrival
        gaps come from ``rng.expovariate``, so the whole schedule is a
        pure function of the seed and the rates.
        """
        check_horizon(horizon_s)
        check_rates(
            transient_rate_hz=transient_rate_hz,
            retrain_rate_hz=retrain_rate_hz,
            core_dead_rate_hz=core_dead_rate_hz,
        )
        rng = random.Random(seed)
        retrain = {
            "duration_s": retrain_duration_s,
            "bw_factor": retrain_bw_factor,
        }
        events: List[FaultEvent] = []
        for kind, label, rate, shape in (
            ("transient", "transient", transient_rate_hz, {}),
            ("link_retrain", "retrain", retrain_rate_hz, retrain),
            ("core_dead", "core_dead", core_dead_rate_hz, {}),
        ):
            for idx, t in enumerate(poisson_arrivals(rng, rate, horizon_s)):
                events.append(FaultEvent(
                    at_s=t, kind=kind, detail=f"{label}#{idx}", **shape
                ))
        return cls(events=events, seed=seed)
