"""Captured mesh programs: record a kernel once, replay it per token.

Decode executes the *same* mesh program for every generated token: the
flows, routes, hop counts, phase scopes and MAC shapes of step ``t`` are
bit-identical to step ``t+1`` — only the tile payloads differ.  The slow
path nevertheless re-derives all of it per call: ring mappings, flow
lists, route walks, ``FlowRecord`` construction, trace tagging.

:class:`MeshProgram` removes that rework.  A kernel body executed under
:meth:`MeshMachine.capture() <repro.mesh.machine.MeshMachine.capture>`
runs normally (full accounting, full enforcement) while the machine
records its op skeleton — every communication's flow list and finished
:class:`~repro.mesh.trace.CommRecord`, every compute's coordinate list,
closure and finished :class:`~repro.mesh.trace.ComputeRecord`, every
phase scope.  Sealing the capture builds the program's **launch
record**: one :class:`~repro.mesh.trace.Trace` holding those records,
the route colours and memory peaks of the body and its end counters —
the trace a replay leaves on a fresh machine.  :meth:`MeshProgram.replay`
then re-executes only the numpy numerics against freshly placed operands
and lands the record's events verbatim on the machine's trace, so a
replayed trace is indistinguishable from a captured one (same events,
groups, seqs, steps — the reconciler and the sanitizer run on it
unchanged).  A machine that only ever runs one program skips even that:
:meth:`MeshProgram.bind_tape` checks it once and returns the bare tape,
and each launch's trace is the shared record itself.

The capture/replay contract (see DESIGN.md §10):

* the replay machine must match the capture machine's **fingerprint** —
  device, logical mesh dims, topology class, and full defect content
  (a remap or a new defect map changes routes, hops and bandwidth
  factors, so the cached skeleton would lie);
* operand tiles must arrive with the **same shapes/dtypes** as at
  capture (validated per flow via payload byte counts, and per compute
  via MAC counts);
* the replay machine must be **fresh** (no prior trace events), because
  cached records carry their absolute step/group/seq tags;
* closures recorded in compute ops must be **coordinate- and
  name-stable**: they may capture tile names and coordinates, never
  arrays from the capture-time inputs.  All kernels in this repo
  satisfy this by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.mesh.fabric import Flow
from repro.mesh.flow_engine import REDUCE_OPS
from repro.mesh.topology import Coord
from repro.mesh.trace import (
    BarrierRecord,
    CommRecord,
    ComputeRecord,
    PhaseScope,
    Trace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mesh.core_sim import Core
    from repro.mesh.machine import MeshMachine


class ProgramReplayError(SimulationError):
    """A captured program cannot (or must not) replay on this machine."""


# ---------------------------------------------------------------------------
# Op records.  Plain slotted dataclasses: a replayed op dispatches on type
# and touches only numpy plus O(1) list appends of pre-built trace records.
# ---------------------------------------------------------------------------
@dataclass
class ScopeOp:
    """A phase scope opened during capture (cached, appended on replay)."""

    __slots__ = ("scope",)
    scope: PhaseScope


@dataclass
class CommOp:
    """One communication phase: live flows + the finished trace record."""

    __slots__ = ("flows", "record", "nbytes")
    flows: Tuple[Flow, ...]
    record: CommRecord
    #: Expected per-flow payload bytes (shape guard at replay).
    nbytes: Tuple[int, ...]


@dataclass
class ComputeOp:
    """One compute phase: coords + closure + the finished trace record."""

    __slots__ = ("coords", "fn", "record")
    coords: Tuple[Coord, ...]
    fn: Callable[["Core"], float]
    record: ComputeRecord


@dataclass
class StackedComputeOp:
    """One batched compute phase (see ``MeshMachine.compute_stacked``)."""

    __slots__ = ("coords", "fn", "reads", "writes", "record")
    coords: Tuple[Coord, ...]
    fn: Callable
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    record: ComputeRecord


@dataclass
class MatvecOp:
    """One structured per-core matrix-vector phase (``MeshMachine.matvec``).

    ``items`` are ``(coord, a_name, b_name, out_name)``: the core at
    ``coord`` stores ``load(a_name) @ load(b_name)`` under ``out_name``.
    Unlike an opaque closure, the op names its tiles, so the compiled
    replay resolves every item to its core's tile dict once and runs the
    phase as one prebound loop.  The products stay per core: a stacked
    matmul over contiguous copies sums strided tiles in a different
    order (DESIGN.md §10.5).
    """

    __slots__ = ("items", "record")
    items: Tuple[Tuple[Coord, str, str, str], ...]
    record: ComputeRecord


@dataclass
class AbsorbOp:
    """One structured reduction-absorb phase (``MeshMachine.absorb``).

    ``items`` are ``(coord, acc_name, inbox_name)`` in delivery order;
    ``op`` names the combine ufunc in
    :data:`~repro.mesh.flow_engine.REDUCE_OPS`.  Because the op is
    structured (unlike an opaque per-core closure), the compiled replay
    path can fuse it with the communication phase that delivered the
    inboxes: the payload is combined into the accumulator directly,
    never materializing the inbox tiles in core storage.
    """

    __slots__ = ("items", "op", "record")
    items: Tuple[Tuple[Coord, str, str], ...]
    op: str
    record: ComputeRecord


@dataclass
class BarrierOp:
    """An explicit synchronization point (cached record only)."""

    __slots__ = ("record",)
    record: BarrierRecord


@dataclass
class CopyOp:
    """A zero-cost local aliasing copy (``MeshMachine.copy_tile``)."""

    __slots__ = ("coord", "src_name", "dst_name")
    coord: Coord
    src_name: str
    dst_name: str


@dataclass
class FreeOp:
    """A tile release (``MeshMachine.free``)."""

    __slots__ = ("name", "coords")
    name: str
    coords: Optional[Tuple[Coord, ...]]


ProgramOp = object  # union of the op dataclasses above


# ---------------------------------------------------------------------------
# Compiled replay: each op is resolved against one machine into a prebound
# zero-argument step.  Tile dicts, exclusivity sets, and store methods are
# looked up once at compile time, so a replayed phase touches only numpy and
# dict operations — no Flow objects, no coordinate lookups, no trace calls
# (the cached records are appended in bulk after the steps run).
# ---------------------------------------------------------------------------
def _shape_drift(name: str, coord: Coord, got: int, want: int) -> SimulationError:
    return SimulationError(
        f"flow {name!r} from {coord} carries {got} B but the captured "
        f"program expects {want} B; operand shapes changed"
    )


def _compile_comm(op: CommOp, machine: "MeshMachine") -> Callable[[], None]:
    """Prebound twin of ``MeshMachine._execute_flows`` for one CommOp.

    Ownership (copy elision) is decided structurally at compile time:
    a flow is an elision *candidate* iff its source slot is overwritten
    in this phase and no earlier flow claimed it — the same rule the
    eager path applies — and the runtime check reduces to the source
    slot's exclusivity bit.  A candidate that fails exclusivity at run
    time simply copies (the conservative choice the eager path makes
    too); it never un-claims the slot for a later flow, which can only
    introduce an extra defensive copy, never aliasing.
    """
    cores = machine.cores
    written = set()
    for flow in op.flows:
        for dst in flow.dsts:
            written.add((dst, flow.dst_name))
    claimed = set()
    src_entries = []
    deliveries = []
    for flow, nb in zip(op.flows, op.nbytes):
        core = cores[flow.src]
        slot = (flow.src, flow.src_name)
        cand = bool(flow.dsts) and slot in written and slot not in claimed
        if cand:
            claimed.add(slot)
        src_entries.append(
            (core._tiles, core._exclusive, flow.src_name, int(nb), flow.src, cand)
        )
        deliveries.append(
            (tuple(cores[dst].store for dst in flow.dsts), flow.dst_name)
        )

    def run() -> None:
        payloads = []
        owns = []
        for tiles, excl, name, nb, coord, cand in src_entries:
            tile = tiles.get(name)
            if tile is None:
                cores[coord].load(name)  # raises the canonical missing-tile error
            if tile.nbytes != nb:
                raise _shape_drift(name, coord, tile.nbytes, nb)
            payloads.append(tile)
            owns.append(cand and name in excl)
        for (stores, dst_name), payload, own in zip(deliveries, payloads, owns):
            first = own
            for store in stores:
                store(dst_name, payload if first else payload.copy(), exclusive=True)
                first = False

    return run


def _compile_matvec(op: MatvecOp, machine: "MeshMachine") -> Callable[[], None]:
    """Prebound twin of ``MeshMachine.matvec`` for one MatvecOp.

    Each core's tile dict, exclusivity set and captured MAC count are
    resolved at compile time.  A matrix tile whose ``rows * cols`` no
    longer matches the captured MACs raises :class:`ProgramReplayError`
    before its product runs; outputs land through the same-size branch
    of ``Core.store`` inlined (host-style, non-exclusive, as live).
    """
    cores = machine.cores
    entries = []
    for (coord, a_name, b_name, out_name), want in zip(op.items, op.record.macs):
        core = cores[coord]
        entries.append(
            (core._tiles, core._exclusive, core, a_name, b_name, out_name, want)
        )
    label = op.record.label

    def run() -> None:
        for tiles, excl, core, a_name, b_name, out_name, want in entries:
            vec = tiles.get(a_name)
            mat = tiles.get(b_name)
            if vec is None or mat is None:
                core.load(a_name)  # raises the canonical missing-tile error
                core.load(b_name)
            if mat.shape[0] * mat.shape[1] != want:
                raise ProgramReplayError(
                    f"matvec {label!r} at {core.coord} would do "
                    f"{float(mat.shape[0] * mat.shape[1])} MACs on replay vs "
                    f"{want} at capture; operand shapes changed — "
                    "re-capture the program"
                )
            out = vec @ mat
            old = tiles.get(out_name)
            if old is not None and old.nbytes == out.nbytes:
                tiles[out_name] = out
                excl.discard(out_name)
            else:
                core.store(out_name, out)

    return run


def _pair_deliveries(
    comm: "CommOp", absorb: "AbsorbOp"
) -> Optional[List[Tuple[int, Coord, str]]]:
    """Match absorb items to the phase's unicast deliveries, in item order.

    Returns ``[(flow_index, dst_coord, acc_name), ...]`` when the absorb's
    ``(coord, inbox)`` items consume exactly the phase's ``(dst,
    dst_name)`` deliveries as multisets; ``None`` otherwise.
    """
    flows = comm.flows
    pending: Dict[Tuple[Coord, str], List[int]] = {}
    for i, flow in enumerate(flows):
        pending.setdefault((flow.dsts[0], flow.dst_name), []).append(i)
    order: List[Tuple[int, Coord, str]] = []
    for coord, acc_name, inbox_name in absorb.items:
        queue = pending.get((coord, inbox_name))
        if not queue:
            return None
        order.append((queue.pop(0), coord, acc_name))
    if any(pending.values()):
        return None
    return order


def _fuse_comm_absorb(
    comm: CommOp, absorb: AbsorbOp, machine: "MeshMachine"
) -> Optional[Callable[[], None]]:
    """Fuse a unicast delivery phase with the absorb that consumes it.

    Eligible when every flow is unicast, the absorb's ``(coord, inbox)``
    items consume exactly the phase's ``(dst, dst_name)`` deliveries
    (as multisets, paired in item order), and no flow reads a slot the
    phase also writes.  The fused step combines each payload straight
    into its accumulator — semantically identical to deliver + absorb +
    free because the eager path copies payloads on delivery, the
    combine allocates a fresh array, and the inbox is freed by the
    absorb anyway.  Payload byte counts are validated per flow exactly
    as unfused replay does; the per-item MAC check is subsumed by it.
    Returns ``None`` when ineligible (callers fall back to two steps).
    """
    combine = REDUCE_OPS.get(absorb.op)
    if combine is None:
        return None
    flows = comm.flows
    if any(len(flow.dsts) != 1 for flow in flows):
        return None
    written = {(flow.dsts[0], flow.dst_name) for flow in flows}
    if any((flow.src, flow.src_name) in written for flow in flows):
        return None
    order = _pair_deliveries(comm, absorb)
    if order is None:
        return None
    cores = machine.cores
    entries = []
    for fi, coord, acc_name in order:
        flow = flows[fi]
        src_core = cores[flow.src]
        dst_core = cores[coord]
        entries.append(
            (
                src_core._tiles,
                flow.src_name,
                int(comm.nbytes[fi]),
                flow.src,
                dst_core,
                dst_core._tiles,
                dst_core._exclusive,
                acc_name,
            )
        )
    # Phase semantics require every payload to be its pre-combine value.
    # When no source slot doubles as an accumulator slot (checked here at
    # compile time), reading each payload right before its combine is
    # equivalent to snapshotting them all up front, and the fused step
    # runs in a single pass.  (Batching the combines into one stacked
    # ufunc call was measured and rejected: at decode tile sizes
    # ``np.stack``'s per-array cost exceeds the per-entry ufunc dispatch
    # it saves — see DESIGN.md §11.)
    acc_slots = {(id(e[5]), e[7]) for e in entries}
    single_pass = all((id(e[0]), e[1]) not in acc_slots for e in entries)

    def run_single_pass() -> None:
        for src_tiles, src_name, nb, src_coord, dst_core, dst_tiles, \
                dst_excl, acc_name in entries:
            tile = src_tiles.get(src_name)
            if tile is None:
                cores[src_coord].load(src_name)
            if tile.nbytes != nb:
                raise _shape_drift(src_name, src_coord, tile.nbytes, nb)
            acc_tile = dst_tiles.get(acc_name)
            if acc_tile is None:
                dst_core.load(acc_name)  # raises the canonical error
            out = combine(acc_tile, tile)
            if out.nbytes == acc_tile.nbytes:
                dst_tiles[acc_name] = out
                dst_excl.add(acc_name)
            else:  # broadcasting changed the footprint: keep accounting honest
                dst_core.store(acc_name, out, exclusive=True)

    def run_snapshot() -> None:
        payloads = []
        for src_tiles, src_name, nb, src_coord, *_ in entries:
            tile = src_tiles.get(src_name)
            if tile is None:
                cores[src_coord].load(src_name)
            if tile.nbytes != nb:
                raise _shape_drift(src_name, src_coord, tile.nbytes, nb)
            payloads.append(tile)
        for entry, tile in zip(entries, payloads):
            dst_core, dst_tiles, dst_excl, acc_name = entry[4:]
            acc_tile = dst_tiles.get(acc_name)
            if acc_tile is None:
                dst_core.load(acc_name)  # raises the canonical error
            out = combine(acc_tile, tile)
            if out.nbytes == acc_tile.nbytes:
                dst_tiles[acc_name] = out
                dst_excl.add(acc_name)
            else:  # broadcasting changed the footprint: keep accounting honest
                dst_core.store(acc_name, out, exclusive=True)

    return run_single_pass if single_pass else run_snapshot


class MeshProgram:
    """The recorded op skeleton of one kernel body.

    Built by :meth:`MeshMachine.capture`; not constructed directly.
    ``meta`` is free-form storage for the capturing kernel (reduction
    roots, placements, operand shapes) so its replay entry point can
    rebuild results without re-deriving structure.
    """

    def __init__(self, fingerprint: Tuple, start_step: int, start_seq: int,
                 start_group: int):
        self.fingerprint = fingerprint
        self.ops: List[ProgramOp] = []
        self.meta: Dict[str, object] = {}
        self.start_step = start_step
        self.start_seq = start_seq
        self.start_group = start_group
        self.end_step = start_step
        self.end_seq = start_seq
        self.end_group = start_group
        #: The sealed launch record: the trace a replay of this program
        #: leaves on a fresh machine (cached records in op order, the
        #: route-colour delta, per-core memory peaks, end counters).
        #: Built once by :meth:`CaptureState.finish`; shared by every
        #: launch that records it, so nothing may record into it.
        self.record: Optional[Trace] = None
        self.complete = False

    # ------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        """Recorded ops (scopes included)."""
        return len(self.ops)

    def compatible(self, machine: "MeshMachine") -> bool:
        """Whether this program may replay on ``machine``."""
        return self.complete and machine.program_fingerprint() == self.fingerprint

    # ------------------------------------------------------------------
    def replay(self, machine: "MeshMachine") -> None:
        """Re-execute the captured numerics on ``machine``.

        The caller must first place/scatter operands exactly as at
        capture time; afterwards results are gathered from the same
        coordinates as a live run.  The machine's trace receives the
        sealed record's events, counters, route colours and memory
        peaks, and its fabric the route colours, so all downstream
        accounting (sanitizer, reconciler, compliance metrics) sees a
        normal execution.

        The program runs as a tape of steps prebound to this machine
        (compiled once per machine): comm phases execute over the
        precompiled arrays without instantiating Flow objects, unicast
        delivery+absorb pairs fuse, and the sealed record's events land
        in four bulk extends.  The differential reference is a live run
        of the same body on a fresh machine.
        """
        _run_tape(machine, self._checked_tape(machine))
        record = self.record
        trace = machine.trace
        trace._scopes.extend(record._scopes)
        trace.comms.extend(record.comms)
        trace.computes.extend(record.computes)
        trace.barriers.extend(record.barriers)
        # Restore the counters a live run would have left behind, then
        # merge the route colours and memory peaks in one pass
        # (equivalent to the per-phase register/record updates of the
        # captured run).  Colour sets are merged into the trace's own
        # sets, never shared with the record.
        machine._step = self.end_step
        trace._next_seq = record._next_seq
        trace._next_group = record._next_group
        colour_sink = trace._colours_per_core
        for coord, colours in record._colours_per_core.items():
            colour_sink[coord].update(colours)
        peaks = trace.core_peak_bytes
        for coord, high in record.core_peak_bytes.items():
            if high > peaks.get(coord, 0):
                peaks[coord] = high
        if record.peak_memory_bytes > trace.peak_memory_bytes:
            trace.peak_memory_bytes = record.peak_memory_bytes

    def bind_tape(self, machine: "MeshMachine") -> Callable[[], None]:
        """Check ``machine`` once and return its compiled tape as a call.

        The checks are :meth:`replay`'s (complete capture, fingerprint,
        capture-time start state), run here once instead of per launch.
        Each call of the result re-executes the numerics against the
        operands bound at that moment and records nothing: the launch's
        trace is :attr:`record`.  This is the warm launch of a machine
        that only ever runs this program, such as a
        :class:`~repro.llm.mesh_ops.MeshOpContext` entry's.
        """
        return partial(_run_tape, machine, self._checked_tape(machine))

    def _checked_tape(self, machine: "MeshMachine") -> List[Callable[[], None]]:
        """The prebound tape for ``machine``, after the replay checks."""
        if not self.complete:
            raise ProgramReplayError(
                "cannot replay an incomplete capture (the captured body raised?)"
            )
        fingerprint = machine.program_fingerprint()
        if fingerprint != self.fingerprint:
            raise ProgramReplayError(
                f"program captured on {self.fingerprint} cannot replay on "
                f"{fingerprint}; topology, defects, or device changed"
            )
        trace = machine.trace
        if (
            machine.step != self.start_step
            or trace._next_seq != self.start_seq
            or trace._scope_stack
        ):
            raise ProgramReplayError(
                "replay requires a machine in the capture-time start state "
                f"(step {self.start_step}, seq {self.start_seq}, no open "
                "phase); use a fresh machine"
            )
        steps = machine._tapes.get(self)
        if steps is None:
            steps = machine._tapes[self] = self._compile_steps(machine)
            # Fabric colour state persists across trace epochs, and
            # installation is idempotent — once per (program, machine)
            # suffices.
            machine.fabric.install_colours(self.record._colours_per_core)
        return steps

    def _compile_steps(
        self, machine: "MeshMachine"
    ) -> List[Callable[[], None]]:
        """Resolve every op against ``machine`` into prebound steps.

        Scope and barrier ops contribute nothing at run time (their
        records are appended in bulk); adjacent CommOp + AbsorbOp pairs
        fuse when :func:`_fuse_comm_absorb` accepts them.
        """
        steps: List[Callable[[], None]] = []
        ops = self.ops
        i = 0
        n = len(ops)
        while i < n:
            op = ops[i]
            kind = type(op)
            if kind is CommOp:
                if i + 1 < n and type(ops[i + 1]) is AbsorbOp:
                    fused = _fuse_comm_absorb(op, ops[i + 1], machine)
                    if fused is not None:
                        steps.append(fused)
                        i += 2
                        continue
                steps.append(_compile_comm(op, machine))
            elif kind is ComputeOp:
                steps.append(
                    lambda m=machine, o=op: MeshProgram._replay_compute(m, o)
                )
            elif kind is AbsorbOp:
                steps.append(
                    lambda m=machine, o=op: MeshProgram._replay_absorb(m, o)
                )
            elif kind is MatvecOp:
                steps.append(_compile_matvec(op, machine))
            elif kind is StackedComputeOp:
                steps.append(
                    lambda m=machine, o=op: MeshProgram._replay_stacked(m, o)
                )
            elif kind is CopyOp:
                steps.append(
                    lambda m=machine, o=op: m.copy_tile(
                        o.coord, o.src_name, o.dst_name
                    )
                )
            elif kind is FreeOp:
                steps.append(lambda m=machine, o=op: m.free(o.name, o.coords))
            i += 1
        return steps

    # ------------------------------------------------------------------
    @staticmethod
    def _replay_compute(machine: "MeshMachine", op: ComputeOp) -> None:
        cores = machine.cores
        fn = op.fn
        for coord, expected in zip(op.coords, op.record.macs):
            done = float(fn(cores[coord]))
            if done != expected:
                raise ProgramReplayError(
                    f"compute {op.record.label!r} at {coord} did "
                    f"{done} MACs on replay vs {expected} at capture; "
                    "operand shapes changed — re-capture the program"
                )

    @staticmethod
    def _replay_absorb(machine: "MeshMachine", op: AbsorbOp) -> None:
        cores = machine.cores
        combine = REDUCE_OPS[op.op]
        per_coord: Dict[Coord, List[Tuple[str, str]]] = {}
        for coord, acc_name, inbox_name in op.items:
            per_coord.setdefault(coord, []).append((acc_name, inbox_name))
        label = op.record.label
        for (coord, pairs), expected in zip(per_coord.items(), op.record.macs):
            core = cores[coord]
            done = 0.0
            for acc_name, inbox_name in pairs:
                acc = core.load(acc_name)
                incoming = core.load(inbox_name)
                core.store(acc_name, combine(acc, incoming), exclusive=True)
                done += float(incoming.size)
                core.free(inbox_name)
            if done != expected:
                raise ProgramReplayError(
                    f"absorb {label!r} at {coord} did {done} MACs on "
                    f"replay vs {expected} at capture; operand shapes "
                    "changed — re-capture the program"
                )

    @staticmethod
    def _replay_stacked(machine: "MeshMachine", op: StackedComputeOp) -> None:
        macs = machine._run_stacked(op.coords, op.fn, op.reads, op.writes)
        if tuple(macs) != op.record.macs:
            raise ProgramReplayError(
                f"stacked compute {op.record.label!r} MAC counts changed on "
                "replay; operand shapes changed — re-capture the program"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MeshProgram({self.num_ops} ops, steps "
            f"{self.start_step}..{self.end_step}, complete={self.complete})"
        )


class CaptureState:
    """Machine-side recording hooks for one active capture."""

    __slots__ = ("program", "trace", "_scopes_seen", "_colour_start")

    def __init__(self, program: MeshProgram, machine: "MeshMachine"):
        self.program = program
        self.trace = machine.trace
        self._scopes_seen = len(self.trace._scopes)
        self._colour_start = {
            coord: frozenset(colours)
            for coord, colours in self.trace._colours_per_core.items()
        }

    def _sync_scopes(self) -> None:
        scopes = self.trace._scopes
        ops = self.program.ops
        while self._scopes_seen < len(scopes):
            ops.append(ScopeOp(scopes[self._scopes_seen]))
            self._scopes_seen += 1

    def note(self, op: ProgramOp) -> None:
        """Record one op (first flushing any newly opened scopes)."""
        self._sync_scopes()
        self.program.ops.append(op)

    def finish(self, machine: "MeshMachine") -> None:
        """Seal the program: end counters and its launch record."""
        self._sync_scopes()
        program = self.program
        trace = self.trace
        program.end_step = machine.step
        program.end_seq = trace._next_seq
        program.end_group = trace._next_group
        record = Trace(_next_seq=trace._next_seq, _next_group=trace._next_group)
        for op in program.ops:
            kind = type(op)
            if kind is ScopeOp:
                record._scopes.append(op.scope)
            elif kind is CommOp:
                record.comms.append(op.record)
            elif kind in (ComputeOp, MatvecOp, StackedComputeOp, AbsorbOp):
                record.computes.append(op.record)
            elif kind is BarrierOp:
                record.barriers.append(op.record)
        # Only the colours the body added: a replay merges them into
        # whatever the machine's trace already carries.
        start = self._colour_start
        for coord, colours in trace._colours_per_core.items():
            added = colours - start.get(coord, frozenset())
            if added:
                record._colours_per_core[coord] = set(added)
        # A replay allocates bit-identically (binding is the caller's
        # contract; body shapes are validated), so the capture's peak
        # table stands for every replay's.
        record.core_peak_bytes.update(trace.core_peak_bytes)
        record.peak_memory_bytes = max(record.core_peak_bytes.values(), default=0)
        program.record = record
        program.complete = True


def _run_tape(machine: "MeshMachine", steps: List[Callable[[], None]]) -> None:
    """Run a prebound tape; memory peaks come from the sealed record."""
    machine._quiet_memory = True
    try:
        for step in steps:
            step()
    finally:
        machine._quiet_memory = False


# ---------------------------------------------------------------------------
# Replayable kernels.  A kernel class defines three classmethod hooks —
#
#   bind(machine, *operands) -> state       host-side operand placement
#   body(machine, state, **options) -> layout   the mesh work (captured)
#   gather(machine, layout) -> ndarray       read the result back
#
# — and binds the functions below in its own class body as ``run``,
# ``capture_run`` and ``replay_run`` (``run = classmethod(run_kernel)``),
# so every kernel runs, captures and replays through one sequence.
# ---------------------------------------------------------------------------
def _operand_shapes(operands: Sequence[np.ndarray]) -> tuple:
    return tuple(np.shape(o) for o in operands)


def run_kernel(cls, machine: "MeshMachine", *operands, **options) -> np.ndarray:
    """Functional execution: bind the operands, run the body, gather."""
    layout = cls.body(machine, cls.bind(machine, *operands), **options)
    return cls.gather(machine, layout)


def capture_kernel(
    cls, machine: "MeshMachine", *operands
) -> Tuple[np.ndarray, MeshProgram]:
    """Like ``run``, additionally capturing the body as a program.

    Operand binding and result gather stay live, so ``replay_run`` can
    feed fresh payloads of the same shapes through the captured body.
    """
    state = cls.bind(machine, *operands)
    with machine.capture() as program:
        layout = cls.body(machine, state)
    program.meta["operand_shapes"] = _operand_shapes(operands)
    program.meta["layout"] = layout
    return cls.gather(machine, layout), program


def replay_kernel(
    cls, machine: "MeshMachine", program: MeshProgram, *operands
) -> np.ndarray:
    """``run`` semantics through a program from ``capture_run``."""
    shapes = _operand_shapes(operands)
    if program.meta.get("operand_shapes") != shapes:
        raise ProgramReplayError(
            f"program captured for shapes "
            f"{program.meta.get('operand_shapes')} cannot replay {shapes}"
        )
    with machine.quiet_memory():
        cls.bind(machine, *operands)
    program.replay(machine)
    return cls.gather(machine, program.meta["layout"])
