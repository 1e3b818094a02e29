"""Wafer-scoped fault taxonomy for the fleet layer.

PR 3's :class:`~repro.mesh.faults.FaultSchedule` injects faults *inside*
one wafer (transient upsets, link retrains, core deaths).  A fleet adds
a coarser failure domain — the wafer itself and the network between the
router and it:

* ``wafer_down`` — the whole wafer drops out (host link loss, power
  trip, a fabric-wide brown-out).  Every session on it must fail over;
  the wafer rejoins, rebooted and empty, after ``duration_s``.
* ``wafer_degraded`` — the wafer keeps serving but at reduced health
  (e.g. running post-remap on stretched routes).  The router
  deprioritizes it for new dispatches for ``duration_s`` without
  draining it.
* ``router_partition`` — the router loses contact with the wafer for
  ``duration_s``: no new dispatches land there, but work already on the
  wafer keeps running (the wafer itself is healthy).

:class:`FleetFaultSchedule` mirrors the single-wafer schedule contract:
a time-ordered event list that is a pure function of its seed, with
:meth:`derive_rng` handing consumers (the router's retry jitter, the
escalation ladder's backoff) child RNG streams pinned to the same root
seed — one seed reproduces the entire fault *and* reaction timeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mesh.faults import (
    check_fault_window,
    check_horizon,
    check_rates,
    poisson_arrivals,
    schedule_rng,
)

#: The wafer-scoped fault kinds the fleet router understands.
FLEET_FAULT_KINDS = ("wafer_down", "wafer_degraded", "router_partition")


@dataclass(frozen=True)
class FleetFaultEvent:
    """One wafer-scoped fault at a point in fleet time."""

    at_s: float
    kind: str
    wafer: int
    duration_s: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FLEET_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fleet fault kind {self.kind!r}; "
                f"expected one of {FLEET_FAULT_KINDS}"
            )
        check_fault_window(self.at_s, self.duration_s)
        if self.wafer < 0:
            raise ConfigurationError("wafer index must be >= 0")


@dataclass
class FleetFaultSchedule:
    """A time-ordered sequence of wafer-scoped fault events.

    Hand-built for tests, or drawn by :meth:`generate` as independent
    Poisson arrival processes per kind with a uniformly-chosen target
    wafer — fully determined by the seed, which is recorded so every
    other RNG stream of the run can derive from it.
    """

    events: List[FleetFaultEvent] = field(default_factory=list)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.events = sorted(
            self.events, key=lambda e: (e.at_s, e.wafer, e.kind)
        )

    def __len__(self) -> int:
        return len(self.events)

    def derive_rng(self, label: str) -> random.Random:
        """A seeded child RNG stream for ``label`` (requires a seed)."""
        return schedule_rng(self.seed, label)

    def counts(self) -> Tuple[int, int, int]:
        """(wafer_down, wafer_degraded, router_partition) totals."""
        kinds = [e.kind for e in self.events]
        return (
            kinds.count("wafer_down"),
            kinds.count("wafer_degraded"),
            kinds.count("router_partition"),
        )

    @classmethod
    def generate(
        cls,
        n_wafers: int,
        horizon_s: float,
        seed: int = 0,
        wafer_down_rate_hz: float = 0.0,
        wafer_degraded_rate_hz: float = 0.0,
        partition_rate_hz: float = 0.0,
        down_duration_s: float = 0.1,
        degraded_duration_s: float = 0.2,
        partition_duration_s: float = 0.05,
    ) -> "FleetFaultSchedule":
        """Draw a seeded wafer-fault schedule over ``[0, horizon_s)``.

        Each kind arrives as an independent Poisson process; each event
        strikes a uniformly-drawn wafer.  The whole schedule is a pure
        function of the seed and the rates.
        """
        if n_wafers < 1:
            raise ConfigurationError("n_wafers must be >= 1")
        check_horizon(horizon_s)
        check_rates(
            wafer_down_rate_hz=wafer_down_rate_hz,
            wafer_degraded_rate_hz=wafer_degraded_rate_hz,
            partition_rate_hz=partition_rate_hz,
        )
        rng = schedule_rng(seed, "fleet-fault-schedule")
        events: List[FleetFaultEvent] = []
        for kind, rate, duration in (
            ("wafer_down", wafer_down_rate_hz, down_duration_s),
            ("wafer_degraded", wafer_degraded_rate_hz, degraded_duration_s),
            ("router_partition", partition_rate_hz, partition_duration_s),
        ):
            # All of one kind's arrivals are drawn before its targets.
            for idx, t in enumerate(poisson_arrivals(rng, rate, horizon_s)):
                events.append(FleetFaultEvent(
                    at_s=t, kind=kind, wafer=rng.randrange(n_wafers),
                    duration_s=duration, detail=f"{kind}#{idx}",
                ))
        return cls(events=events, seed=seed)
