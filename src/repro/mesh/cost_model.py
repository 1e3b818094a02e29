"""Analytic cycle model for mesh kernels.

The functional machine (:mod:`repro.mesh.machine`) gives correctness; this
module gives performance.  Kernels describe themselves as a sequence of
*phases*; the estimator turns phases into cycles using only PLMR device
parameters:

* a :class:`ComputePhase` costs ``macs / macs_per_cycle`` plus a small
  fixed overhead (loop setup, descriptor programming);
* a :class:`CommPhase` streams a payload over a path: the head wavelet
  pays ``hops * hop_cycles``, the body pipelines at the link width;
* a :class:`ReducePhase` models sequential add stages on an aggregation
  path (the paper's GEMV critical-path metric): every stage pays its hop
  latency, the streamed payload, and the elementwise adds;
* a :class:`LoopPhase` repeats a compute phase and a comm phase ``steps``
  times, optionally overlapping them (wafer cores overlap ingress, egress
  and compute at cycle granularity — the P property), so the per-step cost
  is ``max(compute, comm)`` with one fill/drain term.

Cycle totals are reported three ways, matching how Figure 9/10 plot them:
``compute_cycles`` (pure arithmetic), ``comm_cycles`` (raw communication),
and ``total_cycles`` (with overlap applied; exposed communication is
``total - compute``).

Every phase field may also be a float64 (or int) array: an *axis* of
shapes, one element per shape.  The formulas below are then evaluated
elementwise, operation for operation as on scalars, so each element is
bit-identical to the scalar price of its shape (DESIGN.md §15.6).  A
phase absent from some elements' plans carries ``repeats=0`` there (or
``steps=0`` for a loop) and adds an exact ``+0.0``.

Calibration notes live in DESIGN.md.  The fixed per-phase overhead below
is the one free parameter; it is chosen once (not per experiment) so that
WSE-2 MeshGEMV on a 16K square matrix lands near the paper's 0.0012 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Tuple, Union

import numpy as np

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError

#: Fixed cycles charged per phase for control overhead (loop bookkeeping,
#: router/descriptor setup).  One global constant — never tuned per table.
DEFAULT_PHASE_OVERHEAD_CYCLES = 20.0


# -- elementwise helpers: scalars stay Python numbers, axes stay arrays ----
def is_axis(*values) -> bool:
    """Whether any of ``values`` is an axis (an array of shape values)."""
    for value in values:
        if isinstance(value, np.ndarray):
            return True
    return False


def as_float(x):
    """``float(x)``, elementwise on an axis."""
    return x.astype(np.float64) if isinstance(x, np.ndarray) else float(x)


def ceil_div(a, b):
    """Integer ``ceil(a / b)``; equals ``math.ceil(a / b)`` below 2**53."""
    return -(-a // b)


def maximum(a, b):
    """``max(a, b)``, elementwise on an axis."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def minimum(a, b):
    """``min(a, b)``, elementwise on an axis."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def where(cond, a, b):
    """``a if cond else b``, elementwise on an axis."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def present(cond) -> bool:
    """Whether a phase that exists only where ``cond`` holds enters a
    plan: iff ``cond`` for a scalar plan, always for an axis plan (whose
    other elements then carry ``where(cond, repeats, 0)``)."""
    return isinstance(cond, np.ndarray) or bool(cond)


def per_value(fn: Callable[[int], object], x):
    """``fn(x)``; on an int axis, ``fn`` runs once per distinct element
    and the results are gathered back into an array shaped like ``x``.

    Integer plan structure (ring dilation, stage counts) depends only on
    a sub-grid side, and an axis holds few distinct sides.
    """
    if not isinstance(x, np.ndarray):
        return fn(x)
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(int(v)) for v in values])[inverse]


def _check_derate(bw_derate) -> None:
    """A surviving bandwidth fraction lies in (0, 1] (every element)."""
    if isinstance(bw_derate, np.ndarray):
        valid = bool(np.all((bw_derate > 0.0) & (bw_derate <= 1.0)))
    else:
        valid = 0.0 < bw_derate <= 1.0
    if not valid:
        raise ConfigurationError(f"bw_derate must be in (0, 1], got {bw_derate}")


@dataclass(frozen=True)
class ComputePhase:
    """Per-core arithmetic: ``macs_per_core`` MACs, repeated ``repeats`` times."""

    label: str
    macs_per_core: float
    repeats: int = 1
    overhead_cycles: float = DEFAULT_PHASE_OVERHEAD_CYCLES

    def cycles(self, device: PLMRDevice) -> float:
        """Total cycles of this phase on ``device``."""
        per_rep = self.overhead_cycles + self.macs_per_core / device.macs_per_cycle
        return self.repeats * per_rep


@dataclass(frozen=True)
class CommPhase:
    """One streamed transfer: ``payload_bytes`` over ``hop_distance`` hops.

    ``bw_derate`` is the surviving bandwidth fraction of the slowest link
    on the path (1.0 on a healthy fabric); a degraded link stretches the
    streamed body by ``1 / bw_derate`` while the head latency is
    unchanged — see :mod:`repro.mesh.remap`.
    """

    label: str
    hop_distance: float
    payload_bytes: float
    repeats: int = 1
    overhead_cycles: float = DEFAULT_PHASE_OVERHEAD_CYCLES
    bw_derate: float = 1.0

    def __post_init__(self) -> None:
        _check_derate(self.bw_derate)

    def cycles(self, device: PLMRDevice) -> float:
        """Total cycles of this phase on ``device``."""
        head = self.hop_distance * device.hop_cycles
        body = self.payload_bytes / (device.link_bytes_per_cycle * self.bw_derate)
        return self.repeats * (self.overhead_cycles + head + body)


#: Per-stage launch cost of a streaming reduction: receive descriptor,
#: start the add-and-forward engine.  One global constant.
STAGE_LAUNCH_CYCLES = 4.0


@dataclass(frozen=True)
class ReducePhase:
    """Sequential reduction stages along an aggregation path.

    Each of the ``stages`` stages forwards ``payload_bytes`` across
    ``stage_hop_distance`` hops and performs ``stage_add_elems``
    elementwise additions — this is what makes pipeline allreduce O(N)
    and the two-way K-tree O(K * N^(1/K)).

    With ``pipelined=True`` (hardware streaming reduce: wavelets are
    added and forwarded element by element, as the Cerebras fabric and
    the paper's kernels do) the critical path is the *wavefront*: every
    stage pays its hop latency plus a launch constant, and the payload
    body streams behind the wavefront once.  With ``pipelined=False``
    (synchronized rounds with a data dependency between steps, as in
    ring allreduce) every stage pays the full transfer and add.
    """

    label: str
    stages: int
    stage_hop_distance: float
    payload_bytes: float
    stage_add_elems: float
    repeats: int = 1
    pipelined: bool = True
    overhead_cycles: float = DEFAULT_PHASE_OVERHEAD_CYCLES
    bw_derate: float = 1.0

    def __post_init__(self) -> None:
        _check_derate(self.bw_derate)

    def cycles(self, device: PLMRDevice) -> float:
        """Total cycles of this phase on ``device``."""
        stream = self.payload_bytes / (
            device.link_bytes_per_cycle * self.bw_derate
        )
        adds = self.stage_add_elems / device.macs_per_cycle
        hop = self.stage_hop_distance * device.hop_cycles
        if self.pipelined:
            body = self.stages * (hop + STAGE_LAUNCH_CYCLES) + stream + adds
        else:
            body = self.stages * (hop + STAGE_LAUNCH_CYCLES + stream + adds)
        return self.repeats * (self.overhead_cycles + body)


@dataclass(frozen=True)
class LoopPhase:
    """A compute-shift style loop: ``steps`` iterations of compute + comm.

    With ``overlap=True`` (the default — wafer cores double-buffer and the
    router runs concurrently with the CE) each iteration costs the max of
    the two, and one fill/drain term of the smaller is added.
    """

    label: str
    steps: int
    compute: ComputePhase
    comm: Union[CommPhase, ReducePhase]
    overlap: bool = True

    def _per_step(self, device: PLMRDevice) -> tuple:
        compute = self.compute.cycles(device)
        comm = self.comm.cycles(device)
        return compute, comm

    def cycles(self, device: PLMRDevice) -> float:
        """Total cycles of the loop with the overlap model applied."""
        compute, comm = self._per_step(device)
        if self.overlap:
            looped = (self.steps * maximum(compute, comm)
                      + minimum(compute, comm))
        else:
            looped = self.steps * (compute + comm)
        return where(self.steps <= 0, 0.0, looped)

    def compute_cycles(self, device: PLMRDevice) -> float:
        """Pure-arithmetic cycles inside the loop."""
        return self.steps * self.compute.cycles(device)

    def comm_cycles(self, device: PLMRDevice) -> float:
        """Raw communication cycles inside the loop (ignoring overlap)."""
        return self.steps * self.comm.cycles(device)


Phase = Union[ComputePhase, CommPhase, ReducePhase, LoopPhase]


@dataclass(frozen=True)
class KernelCost:
    """Cycle totals of one kernel execution on one device.

    Frozen: system models memoize finished costs process-wide, so one
    instance may be shared by every caller that prices the same shape.
    """

    name: str
    device: PLMRDevice
    compute_cycles: float
    comm_cycles: float
    total_cycles: float

    @property
    def exposed_comm_cycles(self) -> float:
        """Communication not hidden behind compute."""
        return max(0.0, self.total_cycles - self.compute_cycles)

    @property
    def seconds(self) -> float:
        """Wall-clock time of the kernel."""
        return self.device.cycles_to_seconds(self.total_cycles)

    @property
    def milliseconds(self) -> float:
        """Wall-clock time in milliseconds (the paper's Table 6/7 unit)."""
        return self.seconds * 1e3

    @property
    def energy_joules(self) -> float:
        """Whole-device wall-clock energy (the Table 6-8 accounting)."""
        return self.device.energy_joules(self.seconds)

    def scaled(self, factor: float) -> "KernelCost":
        """This cost repeated ``factor`` times (e.g. per-layer -> model)."""
        return KernelCost(
            name=self.name,
            device=self.device,
            compute_cycles=self.compute_cycles * factor,
            comm_cycles=self.comm_cycles * factor,
            total_cycles=self.total_cycles * factor,
        )

    def __add__(self, other: "KernelCost") -> "KernelCost":
        if self.device is not other.device and self.device != other.device:
            raise ConfigurationError(
                f"cannot add costs from different devices: "
                f"{self.device.name} vs {other.device.name}"
            )
        return KernelCost(
            name=f"{self.name}+{other.name}",
            device=self.device,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            comm_cycles=self.comm_cycles + other.comm_cycles,
            total_cycles=self.total_cycles + other.total_cycles,
        )


def phase_cycles(phase: Phase, device: PLMRDevice) -> Tuple[float, float, float]:
    """``(compute, comm, total)`` cycles one phase adds to a kernel's totals.

    The single per-phase pricing formula: :func:`estimate` and
    :meth:`repro.llm.system_base.SystemModel._schedule_cost` (scalar or
    axis) both sum these increments, in phase order, with
    :func:`accumulate`.
    """
    if isinstance(phase, LoopPhase):
        return (
            phase.compute_cycles(device),
            phase.comm_cycles(device),
            phase.cycles(device),
        )
    if isinstance(phase, ComputePhase):
        cycles = phase.cycles(device)
        return cycles, 0.0, cycles
    if isinstance(phase, (CommPhase, ReducePhase)):
        cycles = phase.cycles(device)
        return 0.0, cycles, cycles
    raise ConfigurationError(f"unknown phase type {type(phase).__name__}")


def accumulate(
    name: str,
    device: PLMRDevice,
    increments: Iterable[Tuple[float, float, float]],
) -> KernelCost:
    """Sum per-phase increments, in order, into a :class:`KernelCost`.

    Adding a zero increment leaves a running sum bit-identical, so
    summing :func:`phase_cycles` triples matches adding each phase's
    cycles to only the totals it touches.  On an axis each element is
    summed in the same order as its scalar price: never reduce across
    phases with ``np.sum``, whose pairwise summation reorders the adds.
    """
    compute = 0.0
    comm = 0.0
    total = 0.0
    for c, m, t in increments:
        compute = compute + c
        comm = comm + m
        total = total + t
    return KernelCost(
        name=name,
        device=device,
        compute_cycles=compute,
        comm_cycles=comm,
        total_cycles=total,
    )


def estimate(name: str, device: PLMRDevice, phases: Sequence[Phase]) -> KernelCost:
    """Evaluate an ordered phase list into a :class:`KernelCost`."""
    return accumulate(
        name, device, (phase_cycles(phase, device) for phase in phases)
    )
