"""Exception hierarchy for the WaferLLM reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without swallowing programming errors
(``TypeError``, ``ValueError`` raised by numpy, and so on).

The PLMR-violation errors mirror the four properties of the device model
from the paper (Section 3.1): code that breaks the Memory (M) or Routing (R)
constraints of a simulated device fails *loudly* instead of silently
producing results a real wafer could never compute.

:func:`require_positive_int` is the one check for integer counts in
configs (grid sides, wafer counts, attempt budgets).
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters."""


class ShapeError(ReproError):
    """Tensor or tile shapes do not satisfy a kernel's requirements."""


def require_positive_int(name: str, value: object) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an int >= 1.

    Bools are rejected even though ``bool`` subclasses ``int``; numpy
    integers are accepted.
    """
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or value < 1
    ):
        raise ConfigurationError(
            f"{name} must be an integer >= 1, got {value!r}"
        )


class PLMRViolation(ReproError):
    """Base class for violations of the PLMR device model."""


class MemoryCapacityError(PLMRViolation):
    """A core exceeded its local memory capacity (the M property).

    Raised by :class:`repro.mesh.core_sim.Core` when the sum of resident
    tile bytes would exceed the core's SRAM budget.
    """

    def __init__(self, coord, requested: int, capacity: int, resident: int):
        self.coord = coord
        self.requested = requested
        self.capacity = capacity
        self.resident = resident
        super().__init__(
            f"core {coord}: allocating {requested} B would exceed the "
            f"{capacity} B local memory capacity ({resident} B already resident)"
        )


class RoutingResourceError(PLMRViolation):
    """A core exceeded its routing-path budget (the R property).

    Wafer-scale NoCs encode routes in a handful of header bits, so each core
    may only participate in a small number of distinct communication paths
    (colours).  The fabric model raises this error when a communication plan
    asks a core for more simultaneous paths than the device provides.
    """

    def __init__(self, coord, requested: int, limit: int):
        self.coord = coord
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"core {coord}: plan requires {requested} routing paths but the "
            f"device only provides {limit}"
        )


class MessageSizeError(PLMRViolation):
    """A single NoC message exceeded the fabric's message-size limit."""

    def __init__(self, nbytes: int, limit: int):
        self.nbytes = nbytes
        self.limit = limit
        super().__init__(
            f"message of {nbytes} B exceeds the {limit} B NoC message limit; "
            f"large transfers must be streamed as wavelets"
        )


class PlacementError(ReproError):
    """A tensor layout or placement request is invalid for the mesh."""


class RemapError(PlacementError):
    """The logical-over-physical remap cannot be built.

    Raised when a defect map leaves too few healthy cores (or rows) to
    host the requested dense logical mesh — the wafer-scale analogue of
    a die whose spare rows are exhausted at configuration time.
    """


class FaultEscalationError(ReproError):
    """The runtime's fault-escalation policy ran out of options.

    Raised by the serving layer when a step cannot commit within the
    configured retry budget: at that point the failure process is not
    transient noise but a mis-configured (or catastrophically faulty)
    fabric, and looping further would never terminate.
    """

    def __init__(self, consecutive_failures: int, limit: int):
        self.consecutive_failures = consecutive_failures
        self.limit = limit
        super().__init__(
            f"step failed {consecutive_failures} consecutive times "
            f"(max_retries={limit}); the failure process is pathological — "
            f"lower the fault rate or raise the retry budget"
        )


class SpareExhaustionError(FaultEscalationError):
    """A persistent fault struck with the spare-region pool empty.

    Raised (instead of degrading in place) when the server runs with
    ``fail_on_exhausted_spares=True`` — the fleet configuration, where a
    wafer out of spares should surface as *down* so the router fails the
    affected sessions over to a healthy replica rather than limping on
    at reduced capacity.
    """

    def __init__(self, deaths: int, spares_used: int):
        self.deaths = deaths
        self.spares_used = spares_used
        ReproError.__init__(
            self,
            f"core death #{deaths} struck with all {spares_used} spare "
            f"region(s) already consumed; the wafer's escalation ladder "
            f"is exhausted — fail over to another wafer or degrade"
        )


class SimulationError(ReproError):
    """The functional mesh machine reached an inconsistent state."""


class KVCacheError(ReproError):
    """KV-cache management failed (e.g. capacity exhausted)."""


class CapacityExceeded(KVCacheError):
    """The KV cache cannot accept another token without violating M."""

    def __init__(self, tokens_stored: int, detail: str = ""):
        self.tokens_stored = tokens_stored
        msg = f"KV cache full after {tokens_stored} tokens"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
