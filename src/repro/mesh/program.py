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
:class:`~repro.mesh.trace.CommRecord`, every structured compute's tile
names and finished :class:`~repro.mesh.trace.ComputeRecord`, every
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
  capture (``replay_run`` compares them first; the tape checks each
  product's MACs and each flow's payload bytes against its slabs when
  it compiles);
* the replay machine must be **fresh** (no prior trace events), because
  cached records carry their absolute step/group/seq tags;
* every op must run on **slabs**: a product, a reduction level, a row
  shift, a delivery between two slab names, or a free.  A body with a
  per-core closure, a stacked compute or any other communication
  captures and runs eagerly, but refuses to replay.
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
    Set,
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
    """One opaque compute phase (``MeshMachine.compute`` or
    ``compute_stacked``): only its finished trace record, for the sealed
    launch record.  Its closure names no tiles, so the phase runs on no
    slab and the program refuses to replay."""

    __slots__ = ("record",)
    record: ComputeRecord


@dataclass
class MatvecOp:
    """One structured per-core matrix-vector phase (``MeshMachine.matvec``).

    ``items`` are ``(coord, a_name, b_name, out_name)``: the core at
    ``coord`` stores ``load(a_name) @ load(b_name)`` under ``out_name``.
    Unlike an opaque closure, the op names its tiles, so the compiled
    replay finds their slabs and runs the phase as one batched
    ``np.matmul`` over them (:func:`_compile_product`).  On contiguous
    tiles that equals the per-core products bit for bit; strided tiles
    were what broke it (DESIGN.md §10.3).  The reduction of ``out_name``
    that follows (a K-tree's delivery+absorb pairs) compiles into the
    same step, one in-place ufunc per tree level on the output slab.
    """

    __slots__ = ("items", "record")
    items: Tuple[Tuple[Coord, str, str, str], ...]
    record: ComputeRecord


@dataclass
class MatmulOp:
    """One structured per-core matrix-product phase (``MeshMachine.matmul``).

    ``items`` are ``(coord, a_name, b_name, out_name)``: the core at
    ``coord`` stores ``load(a_name) @ load(b_name)`` (``b.T`` when
    ``transpose_b``) under ``out_name``, added to the resident ``out``
    when ``accumulate``.  The GEMM twin of :class:`MatvecOp`: the
    compiled replay runs the phase as one batched ``np.matmul`` over the
    operand slabs (:func:`_compile_product`), and a MeshGEMM step's
    accumulation as one in-place add over the output slab.
    """

    __slots__ = ("items", "accumulate", "transpose_b", "record")
    items: Tuple[Tuple[Coord, str, str, str], ...]
    accumulate: bool
    transpose_b: bool
    record: ComputeRecord


@dataclass
class AbsorbOp:
    """One structured reduction-absorb phase (``MeshMachine.absorb``).

    ``items`` are ``(coord, acc_name, inbox_name)`` in delivery order;
    ``op`` names the combine ufunc in
    :data:`~repro.mesh.flow_engine.REDUCE_OPS`.  Because the op is
    structured (unlike an opaque per-core closure), the compiled replay
    runs a delivery+absorb pair over a slab-resident accumulator as one
    tree level, in place on the slab (:func:`_slab_levels`), never
    materializing the inbox tiles in core storage.  An absorb that is
    not such a level refuses to replay.
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
    """A zero-cost local aliasing copy (``MeshMachine.copy_tile``); it
    replays inside a delivery (:func:`_compile_delivery`)."""

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
# Compiled replay: the ops are resolved against one machine into prebound
# zero-argument steps, every one of which runs on slabs: a product with its
# reduction levels, a run of levels, a row shift, a delivery, or a free.
# Slab views and row indices are built once at compile time, so a replayed
# phase touches only numpy — no Flow objects, no coordinate lookups, no
# trace calls (the cached records are appended in bulk after the steps run).
# ---------------------------------------------------------------------------
def _shape_drift(name: str, coord: Coord, got: int,
                 want: int) -> ProgramReplayError:
    return ProgramReplayError(
        f"flow {name!r} from {coord} carries {got} B but the captured "
        f"program expects {want} B; operand shapes changed"
    )


def _refusal(op: ProgramOp) -> ProgramReplayError:
    """The error for an op that runs on no slab, naming its label."""
    if type(op) is CopyOp:
        label = f"{op.src_name}->{op.dst_name}"
    elif type(op) is CommOp:
        label = op.record.pattern
    else:
        label = op.record.label
    return ProgramReplayError(
        f"{type(op).__name__} {label!r} does not run on slabs; only "
        "products, reduction levels, row shifts, deliveries between slab "
        "names and frees replay — run this body eagerly"
    )


class _SlabTape:
    """What a tape being compiled knows about slab-resident tiles.

    A name is *landed* at a point of the tape when every core holds its
    row view of the machine's slab for that name there (cores in
    ``topology.coords()`` order, :meth:`MeshMachine.slab`).  An input
    lands at its first slab step, which first checks every core's tile
    (the guard: a replaced tile raises :class:`ProgramReplayError`, so
    the caller re-captures); an output lands where a product or a
    delivery step stores its views.  Slab steps keep names landed:
    products and tree levels write the slab in place, a shift permutes
    its rows in place, and a delivery writes rows of its destination's
    slab.  A free *spoils* the name it drops: a spoiled input cannot be
    guarded any more, so a step over it refuses to compile.
    """

    def __init__(self, machine: "MeshMachine"):
        self.slabs = machine._slabs
        self.machine = machine
        self.coords = tuple(machine.topology.coords())
        self.cores = tuple(machine.cores[c] for c in self.coords)
        self.row_of = {coord: i for i, coord in enumerate(self.coords)}
        self.landed: Set[str] = set()
        self.spoiled: Set[str] = set()
        self._scratch: Dict[Tuple, np.ndarray] = {}

    def peek(self, name: str) -> Optional[np.ndarray]:
        """The slab of ``name`` if a step may read it here (landed, or
        guardable at its first use), else ``None``; lands nothing."""
        held = self.slabs.get(name)
        if name in self.landed:
            return held[0]
        if held is None or name in self.spoiled:
            return None
        return held[0]

    def ready(self, name: str, guards: List) -> Optional[np.ndarray]:
        """The slab of ``name`` for a step that reads it, or ``None``.

        A first use appends ``(name, views)`` to ``guards``: the step
        checks that every core holds its view before its numerics.
        """
        slab = self.peek(name)
        if slab is not None and name not in self.landed:
            guards.append((name, self.slabs[name][1]))
            self.landed.add(name)
        return slab

    def output(self, name: str, shape: Tuple[int, ...],
               dtype) -> Tuple[np.ndarray, Optional[Tuple[str, tuple]]]:
        """The slab a step writes ``name`` into, and its landing.

        The landing is ``(name, views)`` for the step to store every
        core's view before its numerics, or ``None`` when ``name`` is
        already landed on that slab.
        """
        held = self.slabs.get(name)
        rows = (len(self.cores),) + tuple(shape)
        if (name in self.landed and held[0].shape == rows
                and held[0].dtype == dtype):
            return held[0], None
        slab = self.machine.slab(name, shape, dtype)
        self.landed.add(name)
        return slab, (name, self.slabs[name][1])

    def scratch(self, like: np.ndarray) -> np.ndarray:
        """A scratch slab shaped like ``like``, one per shape and dtype
        for the whole tape: a step fills and drains it within its run."""
        key = (like.shape, like.dtype.str)
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = np.empty_like(like)
        return buf

    def spoil(self, name: str) -> None:
        """A name some core may no longer hold as its slab view."""
        self.landed.discard(name)
        self.spoiled.add(name)


def _with_prelude(
    label: str,
    cores: Tuple["Core", ...],
    guards: List[Tuple[str, tuple]],
    landing: Optional[Tuple[str, tuple]],
    body: Callable[[], None],
) -> Callable[[], None]:
    """``body`` behind its guard checks and its output landing.

    ``guards`` (at most two names, a product's operands) and
    ``landing`` are ``(name, views)`` with the views in core order.  The
    prelude is one loop over the cores, testing each tile by identity
    against its view, as in a hand-written per-core loop: a flat list of
    checks measured twice as slow on a warm GEMV.  A tile that is not
    its view fails a guard, and is landed over by :func:`_land`.
    """
    if not guards and landing is None:
        return body
    gets = [core._tiles.get for core in cores]

    def fail(name: str) -> ProgramReplayError:
        return ProgramReplayError(
            f"{label!r}: a core's {name!r} tile is no longer its slab "
            "view — re-capture the program"
        )

    if guards:
        # One name is checked twice rather than looped over.
        (n1, views1), (n2, views2) = (guards * 2)[:2]
    if landing is None:
        rows = list(zip(gets, views1, views2))

        def run() -> None:
            for get, v1, v2 in rows:
                if get(n1) is not v1:
                    raise fail(n1)
                if get(n2) is not v2:
                    raise fail(n2)
            body()

        return run
    out, out_views = landing
    if not guards:
        rows = list(zip(gets, cores, out_views))

        def run() -> None:
            for get, core, view in rows:
                if get(out) is not view:
                    _land(core, out, view)
            body()

        return run
    rows = list(zip(gets, cores, views1, views2, out_views))

    def run() -> None:
        for get, core, v1, v2, view in rows:
            if get(n1) is not v1:
                raise fail(n1)
            if get(n2) is not v2:
                raise fail(n2)
            if get(out) is not view:
                _land(core, out, view)
        body()

    return run


def _land(core: "Core", name: str, view: np.ndarray) -> None:
    """Store a slab view as ``core``'s ``name``: the same-size branch of
    ``Core.store`` inlined (host-style, non-exclusive, as live), or the
    full store for an absent tile.  Nothing stores a slab view as
    exclusive, so a slot still holding one needs no landing."""
    old = core._tiles.get(name)
    if old is not None and old.nbytes == view.nbytes:
        core._tiles[name] = view
        core._exclusive.discard(name)
    else:
        core.store(name, view)


def _compile_product(
    ops: Sequence[ProgramOp], start: int, slabs: _SlabTape
) -> Tuple[Callable[[], None], int]:
    """Prebound batched twin of the MatvecOp or MatmulOp ``ops[start]``
    and the tree levels that follow it; returns the step and the next
    op's index.

    The op must cover every core in ``topology.coords()`` order with one
    ``(a, b, out)`` name triple, and ``a`` / ``b`` must be slab-resident
    (:meth:`MeshMachine.slab`).  The step is then one ``np.matmul`` over
    the slabs into the machine's slab for ``out``: the ``(cores, 1,
    tk)`` vector slab by the ``(cores, tk, tn)`` matrix slab for a
    matvec; the ``(cores, tm, tk)`` slab by the ``(cores, tk, tn)`` one
    (or a transposed view of ``(cores, tn, tk)``) for a matmul.  That is
    bit for bit the per-core products of the eager loop on the same
    contiguous tiles.  An accumulating matmul multiplies into a scratch
    slab, then adds it into the landed ``out`` slab in place.  The MACs
    are checked once, here, from the slab shapes; the guard and the
    output landing are :class:`_SlabTape`'s.

    The delivery+absorb pairs that reduce ``out`` right after the
    product (a K-tree or pipeline column reduction) run in the same
    step, as in-place ufuncs on the output slab (:func:`_slab_levels`).
    No row is ever marked exclusive: a later flow that reads one copies
    it.
    """
    op = ops[start]
    label = op.record.label
    coords = slabs.coords
    names = {item[1:] for item in op.items}
    if len(names) != 1 or tuple(item[0] for item in op.items) != coords:
        raise ProgramReplayError(
            f"product {label!r} does not cover every core in slab order; "
            "only whole-mesh products replay"
        )
    [(a_name, b_name, out_name)] = names
    guards: List = []
    landing = None
    a_slab = slabs.ready(a_name, guards)
    b_slab = slabs.ready(b_name, guards)
    if a_slab is None or b_slab is None or out_name in (a_name, b_name):
        raise ProgramReplayError(
            f"product {label!r} operands {a_name!r} / {b_name!r} are not "
            "slab-resident on this machine; bind them with their slabs"
        )
    matvec = type(op) is MatvecOp
    if matvec:
        a, b = a_slab[:, None, :], b_slab
    else:
        a = a_slab
        b = b_slab.transpose(0, 2, 1) if op.transpose_b else b_slab
    _cores, tm, tk = a.shape
    tn = b.shape[2]
    macs = tm * tk * tn
    if b.shape[1] != tk or any(macs != want for want in op.record.macs):
        raise ProgramReplayError(
            f"product {label!r} would do {float(macs)} MACs per core on "
            f"replay vs {op.record.macs[0]} at capture; operand shapes "
            "changed — re-capture the program"
        )
    dtype = np.result_type(a_slab, b_slab)
    out_shape = (tn,) if matvec else (tm, tn)
    accumulate = not matvec and op.accumulate
    if accumulate:
        out = slabs.slabs[out_name][0] if out_name in slabs.landed else None
        if out is None or out.shape[1:] != out_shape or out.dtype != dtype:
            raise ProgramReplayError(
                f"product {label!r} accumulates into {out_name!r}, which is "
                "not landed on its slab here; re-capture the program"
            )
        scratch = slabs.scratch(out)
    else:
        out, landing = slabs.output(out_name, out_shape, dtype)
    levels, end = _slab_levels(ops, start + 1, out_name, out, coords)
    matmul, add = np.matmul, np.add

    if accumulate:

        def body() -> None:
            matmul(a, b, out=scratch)
            add(out, scratch, out=out)
            for combine, acc, incoming in levels:
                combine(acc, incoming, out=acc)

    else:
        outs = out[:, None, :] if matvec else out

        def body() -> None:
            matmul(a, b, out=outs)
            for combine, acc, incoming in levels:
                combine(acc, incoming, out=acc)

    return _with_prelude(label, slabs.cores, guards, landing, body), end


def _compile_shift(
    ops: Sequence[ProgramOp], start: int, slabs: _SlabTape
) -> Tuple[Optional[Callable[[], None]], int]:
    """The CommOp ``ops[start]`` as one row permutation of the slab of
    the name it permutes, and the next op's index; ``(None, start)``
    when the op is not such a shift.

    Eligible when every flow is unicast, reads and writes the same name,
    no two flows share a destination, and that name is slab-resident
    here (landed, or guarded at this first use).  Each flow's payload
    must be one slab row, checked now.  The step gathers the rows into a
    scratch slab (``np.take``) and copies it back, so every source is
    read before any destination is written, as live, and each core keeps
    holding its own row view; a core no flow writes keeps its row.
    """
    op = ops[start]
    if type(op) is not CommOp:
        return None, start
    flows = op.flows
    name = flows[0].src_name
    if any(
        len(f.dsts) != 1 or f.src_name != name or f.dst_name != name
        for f in flows
    ):
        return None, start
    dsts = [f.dsts[0] for f in flows]
    if len(set(dsts)) != len(dsts):
        return None, start
    guards: List = []
    slab = slabs.ready(name, guards)
    if slab is None:
        return None, start
    row_bytes = slab[0].nbytes
    for flow, nb in zip(flows, op.nbytes):
        if nb != row_bytes:
            raise _shape_drift(name, flow.src, row_bytes, nb)
    row_of = slabs.row_of
    index = np.arange(len(row_of))
    for flow, dst in zip(flows, dsts):
        index[row_of[dst]] = row_of[flow.src]
    scratch = slabs.scratch(slab)
    take, copyto = slab.take, np.copyto

    def body() -> None:
        take(index, axis=0, out=scratch, mode="clip")
        copyto(slab, scratch)

    step = _with_prelude(op.record.pattern, slabs.cores, guards, None, body)
    return step, start + 1


def _compile_delivery(
    ops: Sequence[ProgramOp], start: int, slabs: _SlabTape
) -> Tuple[Optional[Callable[[], None]], int]:
    """The run of copies and unicast flows from ``ops[start]`` on that
    move rows of one slab-resident name into another name, as one step,
    and the next op's index; ``(None, start)`` when no run starts there.

    A dist-GEMM-T step ends with such a run: each row's K-tree root
    keeps its reduced ``gemmt.P`` block as ``gemmt.C`` (a
    :class:`CopyOp`) or sends it to the core that owns that block of C
    (the ``gemmt-place`` flows).  The step copies the sources' rows of
    the source slab into the targets' rows of the destination's slab,
    which lands as every core's view at its first delivery
    (:meth:`_SlabTape.output`), as a product's output does.  Each flow's
    payload must be one source row, checked now, and no core may be
    written twice.  Scope and barrier ops inside the run do nothing at
    run time.
    """
    op = ops[start]
    if type(op) is CopyOp:
        src, dst = op.src_name, op.dst_name
    elif type(op) is CommOp:
        src, dst = op.flows[0].src_name, op.flows[0].dst_name
    else:
        return None, start
    slab = slabs.peek(src)
    if slab is None or src == dst:
        return None, start
    row_bytes = slab[0].nbytes
    pairs: List[Tuple[Coord, Coord]] = []
    i = end = start
    while i < len(ops):
        op = ops[i]
        kind = type(op)
        if kind is ScopeOp or kind is BarrierOp:
            i += 1
            continue
        if kind is CopyOp and (op.src_name, op.dst_name) == (src, dst):
            pairs.append((op.coord, op.coord))
        elif kind is CommOp and all(
            len(f.dsts) == 1 and f.src_name == src and f.dst_name == dst
            for f in op.flows
        ):
            for flow, nb in zip(op.flows, op.nbytes):
                if nb != row_bytes:
                    raise _shape_drift(src, flow.src, row_bytes, nb)
                pairs.append((flow.src, flow.dsts[0]))
        else:
            break
        i = end = i + 1
    targets = [target for _, target in pairs]
    if not pairs or len(set(targets)) != len(targets):
        return None, start
    guards: List = []
    slabs.ready(src, guards)
    out, landing = slabs.output(dst, slab.shape[1:], slab.dtype)
    row_of = slabs.row_of
    rows = np.array([row_of[source] for source, _ in pairs])
    into = np.array([row_of[target] for target in targets])

    def body() -> None:
        out[into] = slab[rows]

    return _with_prelude(dst, slabs.cores, guards, landing, body), end


def _run_levels(levels: List[Tuple[Callable, np.ndarray, np.ndarray]]) -> None:
    """Tree levels of :func:`_slab_levels`, outside a product's step."""
    for combine, acc, incoming in levels:
        combine(acc, incoming, out=acc)


def _compile_levels(
    ops: Sequence[ProgramOp], start: int, slabs: _SlabTape
) -> Tuple[Optional[Callable[[], None]], int]:
    """The reduction levels that start at the CommOp ``ops[start]``, as
    one step on the slab of the name it sends; ``(None, start)`` when
    ``ops[start]`` is no CommOp, that name is not slab-resident here or
    no level follows.

    A landed name runs its levels as they are.  At the name's first use
    the step first checks that every core holds its row view (the guard
    of :func:`_with_prelude`), and the name lands only once the levels
    are known to be non-empty.  A K-tree line reduction over a bound
    ``red.v`` slab is this one step.
    """
    op = ops[start]
    if type(op) is not CommOp:
        return None, start
    name = op.flows[0].src_name
    slab = slabs.peek(name)
    if slab is None:
        return None, start
    levels, end = _slab_levels(ops, start, name, slab, slabs.coords)
    if not levels:
        return None, start
    guards: List = []
    slabs.ready(name, guards)
    step = _with_prelude(op.record.pattern, slabs.cores, guards, None,
                         partial(_run_levels, levels))
    return step, end


def _relanded(ops: Sequence[ProgramOp], i: int, slabs: _SlabTape) -> bool:
    """Whether the FreeOp ``ops[i]`` is undone by the next op: a landed
    name, freed on every core, that the next product writes without
    reading.  Skipping both leaves every core the same tile and the same
    residency, so the tape skips the free and keeps the name landed."""
    free = ops[i]
    if free.coords is not None or free.name not in slabs.landed:
        return False
    j = i + 1
    while j < len(ops) and type(ops[j]) in (ScopeOp, BarrierOp):
        j += 1
    if j == len(ops) or type(ops[j]) not in (MatvecOp, MatmulOp):
        return False
    nxt = ops[j]
    if type(nxt) is MatmulOp and nxt.accumulate:
        return False
    return all(
        item[3] == free.name and free.name not in item[1:3]
        for item in nxt.items
    )


def _slab_levels(
    ops: Sequence[ProgramOp],
    start: int,
    name: str,
    slab: np.ndarray,
    coords: Tuple[Coord, ...],
) -> Tuple[List[Tuple[Callable, np.ndarray, np.ndarray]], int]:
    """The reduction levels of ``name`` from ``ops[start]`` on, as slab views.

    Consumes CommOp + AbsorbOp pairs (scope and barrier ops between them
    are no-ops at run time) while each pair is one level over the slab:
    every flow unicast, moving ``name`` with the slab row's byte count,
    and absorbed into ``name`` by the absorb item of its own index; no
    core both sends and accumulates.  Each level becomes ``(combine,
    acc_view, incoming_view)`` batches over ``slab`` (rows in ``coords``
    order), run as ``combine(acc, incoming, out=acc)``
    (:func:`_combine_apart` for a single value).  A destination that
    absorbs ``j`` flows is in the first ``j`` batches, in absorb item
    order, so it folds ``(acc + first) + second`` as the eager absorb
    does.  Stops at the first op that is
    not such a level (the rest compile one by one); returns the batches
    and the index of the first op not consumed.
    """
    row_of = {coord: i for i, coord in enumerate(coords)}
    row_bytes = slab[0].nbytes
    levels: List[Tuple[Callable, np.ndarray, np.ndarray]] = []
    n = len(ops)
    i = end = start
    while i < n:
        kind = type(ops[i])
        if kind is ScopeOp or kind is BarrierOp:
            i += 1
            continue
        if kind is not CommOp or i + 1 == n or type(ops[i + 1]) is not AbsorbOp:
            break
        comm, absorb = ops[i], ops[i + 1]
        combine = REDUCE_OPS.get(absorb.op)
        flows = comm.flows
        if (
            combine is None
            or any(len(f.dsts) != 1 or f.src_name != name for f in flows)
            or any(nb != row_bytes for nb in comm.nbytes)
        ):
            break
        items = absorb.items
        if len(items) != len(flows) or any(
            item != (f.dsts[0], name, f.dst_name) for f, item in zip(flows, items)
        ):
            break
        pairs = [(row_of[f.src], row_of[f.dsts[0]]) for f in flows]
        if {src for src, _ in pairs} & {dst for _, dst in pairs}:
            break
        batches: List[List[Tuple[int, int]]] = []
        folded: Dict[int, int] = {}
        for src, dst in pairs:
            k = folded.get(dst, 0)
            folded[dst] = k + 1
            if k == len(batches):
                batches.append([])
            batches[k].append((src, dst))
        views = [
            _strided_rows(slab, sorted(batch, key=lambda pair: pair[1]))
            for batch in batches
        ]
        if any(v is None for v in views):
            break
        levels.extend(
            (combine if acc.size > 1 else partial(_combine_apart, combine),
             acc, incoming)
            for incoming, acc in views
        )
        i = end = i + 2
    return levels, end


def _combine_apart(combine: Callable, acc: np.ndarray, incoming: np.ndarray,
                   out: np.ndarray) -> None:
    """A one-value level: ``combine`` into a fresh array, as the eager
    absorb does, then copied into ``out``.  Run in place, numpy takes
    its reduction loop for a single value, which picks the other
    operand's NaN when both are NaN."""
    out[...] = combine(acc, incoming)


def _strided_rows(
    slab: np.ndarray, pairs: Sequence[Tuple[int, int]]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Two views of ``slab`` holding the rows ``pairs`` name, in order.

    ``pairs`` are ``(src_row, dst_row)``.  Returns ``(src_view,
    dst_view)`` of shape ``(n1, n2) + row shape``, whose flattened rows
    are the pairs' rows, when both row lists are two-level affine
    (``base + i * s1 + j * s2``) with the same ``n2``; ``None``
    otherwise.  A tree level over every column of some mesh rows is
    that, with ``n2`` the mesh width.
    """
    count = len(pairs)
    for n2 in range(count, 0, -1):
        if count % n2:
            continue
        src = _affine(tuple(p[0] for p in pairs), n2)
        dst = _affine(tuple(p[1] for p in pairs), n2)
        if src is not None and dst is not None:
            return _rows_view(slab, *src), _rows_view(slab, *dst)
    return None


def _affine(rows: Tuple[int, ...], n2: int) -> Optional[Tuple[int, ...]]:
    """``(base, n1, s1, n2, s2)`` with ``rows[i * n2 + j] == base + i * s1
    + j * s2``, or ``None``."""
    n1 = len(rows) // n2
    base = rows[0]
    s2 = rows[1] - base if n2 > 1 else 0
    s1 = rows[n2] - base if n1 > 1 else 0
    want = tuple(base + i * s1 + j * s2 for i in range(n1) for j in range(n2))
    return (base, n1, s1, n2, s2) if rows == want else None


def _rows_view(
    slab: np.ndarray, base: int, n1: int, s1: int, n2: int, s2: int
) -> np.ndarray:
    row_stride = slab.strides[0]
    return np.ndarray(
        (n1, n2) + slab.shape[1:],
        slab.dtype,
        buffer=slab,
        offset=base * row_stride,
        strides=(s1 * row_stride, s2 * row_stride) + slab.strides[1:],
    )


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

        The program runs as a tape of slab steps prebound to this
        machine (compiled once per machine): products, tree levels,
        shifts and deliveries run on the machine's slabs, and the sealed
        record's events land in four bulk extends.  A program with an op
        that runs on no slab raises :class:`ProgramReplayError` before
        any step runs, leaving the machine's trace and tiles as they
        were.  The differential reference is a live run of the same body
        on a fresh machine.
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

    def tape_steps(
        self, machine: "MeshMachine"
    ) -> Tuple[Callable[[], None], ...]:
        """The steps of :meth:`bind_tape`'s tape, after the same checks.

        For a caller that runs them inline, as :func:`_run_tape` does:
        with ``machine._quiet_memory`` set around them, and reset when a
        step raises.
        """
        return tuple(self._checked_tape(machine))

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
        """Resolve every op against ``machine`` into prebound slab steps.

        Scope and barrier ops contribute nothing at run time (their
        records are appended in bulk).  Every other step runs on the
        machine's slabs (:class:`_SlabTape`): a MatvecOp or MatmulOp is
        one batched product that takes the reduction levels of its
        output that follow it into its own step (:func:`_compile_product`);
        CommOp + AbsorbOp levels of a slab-resident name run in place on
        its slab as one step, guarded at the name's first use
        (:func:`_compile_levels`); a CommOp that permutes a slab name is
        one row permutation (:func:`_compile_shift`); and a run of copies
        and flows from one slab name into another is one delivery
        (:func:`_compile_delivery`).  A free that the next product undoes
        is skipped (:func:`_relanded`); any other free drops the name on
        its cores.  Any other op raises :class:`ProgramReplayError`,
        before any step has run.
        """
        steps: List[Callable[[], None]] = []
        slabs = _SlabTape(machine)
        ops = self.ops
        i = 0
        n = len(ops)
        while i < n:
            op = ops[i]
            kind = type(op)
            if kind is ScopeOp or kind is BarrierOp:
                i += 1
                continue
            if kind is MatvecOp or kind is MatmulOp:
                step, i = _compile_product(ops, i, slabs)
            elif kind is FreeOp:
                i += 1
                if _relanded(ops, i - 1, slabs):
                    continue
                step = partial(machine.free, op.name, op.coords)
                slabs.spoil(op.name)
            else:
                for compile_move in (
                    _compile_levels, _compile_shift, _compile_delivery
                ):
                    step, end = compile_move(ops, i, slabs)
                    if step is not None:
                        break
                else:
                    raise _refusal(op)
                i = end
            steps.append(step)
        return steps

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
            elif kind in (ComputeOp, MatvecOp, MatmulOp, AbsorbOp):
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


def _operand_dtypes(operands: Sequence[np.ndarray]) -> tuple:
    return tuple(np.asarray(o).dtype.str for o in operands)


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
    program.meta["operand_dtypes"] = _operand_dtypes(operands)
    program.meta["layout"] = layout
    return cls.gather(machine, layout), program


def replay_kernel(
    cls, machine: "MeshMachine", program: MeshProgram, *operands
) -> np.ndarray:
    """``run`` semantics through a program from ``capture_run``; operands
    of other shapes or dtypes than at capture raise
    :class:`ProgramReplayError` before anything is bound."""
    meta = program.meta
    captured = (meta.get("operand_shapes"), meta.get("operand_dtypes"))
    given = (_operand_shapes(operands), _operand_dtypes(operands))
    if given != captured:
        raise ProgramReplayError(
            f"program captured for shapes {captured[0]} and dtypes "
            f"{captured[1]} cannot replay shapes {given[0]} and dtypes "
            f"{given[1]}"
        )
    with machine.quiet_memory():
        cls.bind(machine, *operands)
    program.replay(machine)
    return cls.gather(machine, program.meta["layout"])
