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
  capture (validated per flow via payload byte counts, per compute via
  MAC counts, and for a product or a slab shift from its slabs' shapes);
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
    replay finds their slabs and runs the phase as one batched
    ``np.matmul`` over them (:func:`_compile_matvec`).  On contiguous
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


class _SlabTape:
    """What a tape being compiled knows about slab-resident tiles.

    A name is *landed* at a point of the tape when every core holds its
    row view of the machine's slab for that name there (cores in
    ``topology.coords()`` order, :meth:`MeshMachine.slab`).  An input
    lands at its first slab step, which first checks every core's tile
    (the guard: a replaced tile raises :class:`ProgramReplayError`, so
    the caller re-captures); an output lands where a product step stores
    its views.  Slab steps keep names landed: products and tree levels
    write the slab in place, and a shift permutes its rows in place.  A
    step that stores tiles core by core (a per-flow delivery, an absorb,
    a copy, a free) *spoils* the names it writes, and an opaque closure
    spoils every name.  A spoiled input cannot be guarded any more, so a
    product over it refuses to compile.
    """

    def __init__(self, machine: "MeshMachine"):
        self.slabs = machine._slabs
        self.machine = machine
        self.coords = tuple(machine.topology.coords())
        self.cores = tuple(machine.cores[c] for c in self.coords)
        self.landed: Set[str] = set()
        self.spoiled: Set[str] = set()
        self.opaque = False
        self._scratch: Dict[Tuple, np.ndarray] = {}

    def ready(self, name: str, guards: List) -> Optional[np.ndarray]:
        """The slab of ``name`` for a step that reads it, or ``None``.

        A first use appends ``(name, views)`` to ``guards``: the step
        checks that every core holds its view before its numerics.
        """
        held = self.slabs.get(name)
        if name in self.landed:
            return held[0]
        if held is None or name in self.spoiled or self.opaque:
            return None
        guards.append((name, held[1]))
        self.landed.add(name)
        return held[0]

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

    def spoil(self, names) -> None:
        """Names some core may no longer hold as its slab view."""
        for name in names:
            self.landed.discard(name)
            self.spoiled.add(name)

    def spoil_all(self) -> None:
        """An opaque closure ran: any tile may have been replaced."""
        self.landed.clear()
        self.opaque = True


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


def _compile_shift(op: CommOp, slabs: _SlabTape) -> Optional[Callable[[], None]]:
    """A CommOp that permutes one slab-resident name, as one row
    permutation of its slab; ``None`` when the op is not one.

    Eligible when every flow is unicast, reads and writes the same name,
    no two flows share a destination, and that name is slab-resident
    here (landed, or guarded at this first use).  Each flow's payload
    must be one slab row, checked now.  The step gathers the rows into a
    scratch slab (``np.take``) and copies it back, so every source is
    read before any destination is written, as live, and each core keeps
    holding its own row view; a core no flow writes keeps its row.
    """
    flows = op.flows
    name = flows[0].src_name
    if any(
        len(f.dsts) != 1 or f.src_name != name or f.dst_name != name
        for f in flows
    ):
        return None
    dsts = [f.dsts[0] for f in flows]
    if len(set(dsts)) != len(dsts):
        return None
    guards: List = []
    slab = slabs.ready(name, guards)
    if slab is None:
        return None
    row_bytes = slab[0].nbytes
    for flow, nb in zip(flows, op.nbytes):
        if nb != row_bytes:
            raise _shape_drift(name, flow.src, row_bytes, nb)
    row_of = {coord: i for i, coord in enumerate(slabs.coords)}
    index = np.arange(len(row_of))
    for flow, dst in zip(flows, dsts):
        index[row_of[dst]] = row_of[flow.src]
    scratch = slabs.scratch(slab)
    take, copyto = slab.take, np.copyto

    def body() -> None:
        take(index, axis=0, out=scratch, mode="clip")
        copyto(slab, scratch)

    return _with_prelude(op.record.pattern, slabs.cores, guards, None, body)


def _run_levels(levels: List[Tuple[Callable, np.ndarray, np.ndarray]]) -> None:
    """Tree levels of :func:`_slab_levels`, outside a product's step."""
    for combine, acc, incoming in levels:
        combine(acc, incoming, out=acc)


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
    and absorbed into ``name``; no core both sends and accumulates.
    Each level becomes ``(combine, acc_view, incoming_view)`` batches
    over ``slab`` (rows in ``coords`` order), run as ``combine(acc,
    incoming, out=acc)``.  A destination that absorbs ``j`` flows is in
    the first ``j`` batches, in absorb item order, so it folds
    ``(acc + first) + second`` as the eager absorb does.  Stops at the
    first op that is not such a level (the rest compile one by one);
    returns the batches and the index of the first op not consumed.
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
        order = _pair_deliveries(comm, absorb)
        if order is None or any(acc != name for _fi, _c, acc in order):
            break
        pairs = [
            (row_of[flows[fi].src], row_of[coord]) for fi, coord, _ in order
        ]
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
        levels.extend((combine, acc, incoming) for incoming, acc in views)
        i = end = i + 2
    return levels, end


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
    (as multisets, paired in item order), no flow reads a slot the
    phase also writes, and no source slot is also an accumulator slot.
    The fused step combines each payload straight into its accumulator
    — semantically identical to deliver + absorb + free because the
    eager path copies payloads on delivery, the combine allocates a
    fresh array, and the inbox is freed by the absorb anyway.  Payload
    byte counts are validated per flow exactly as unfused replay does;
    the per-item MAC check is subsumed by it.  Returns ``None`` when
    ineligible (callers fall back to two steps).
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
    # Phase semantics require every payload to be its pre-combine value.
    # With no source slot doubling as an accumulator slot, reading each
    # payload right before its combine is equivalent to snapshotting
    # them all up front.  A phase where a core both sends and
    # accumulates (a chain whose lines share a core) keeps the two
    # unfused steps: delivery copies every payload into its inbox first.
    acc_slots = {(coord, acc_name) for _fi, coord, acc_name in order}
    if any((flow.src, flow.src_name) in acc_slots for flow in flows):
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

    def run() -> None:
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

    return run


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
        records are appended in bulk).  Slab-resident tiles run on their
        slabs (:class:`_SlabTape`): a MatvecOp or MatmulOp is one batched
        product that takes the reduction levels of its output that
        follow it into its own step (:func:`_compile_product`), a
        CommOp + AbsorbOp level of a landed name runs in place on its
        slab (:func:`_slab_levels`), and a CommOp that permutes a slab
        name is one row permutation (:func:`_compile_shift`).  A free
        that the next product undoes is skipped (:func:`_relanded`), and
        a copy of a landed tile copies it, since its slab row is
        rewritten in place later.  Other adjacent CommOp + AbsorbOp
        pairs fuse when :func:`_fuse_comm_absorb` accepts them.
        """
        steps: List[Callable[[], None]] = []
        slabs = _SlabTape(machine)
        ops = self.ops
        i = 0
        n = len(ops)
        while i < n:
            op = ops[i]
            kind = type(op)
            if kind is CommOp:
                name = op.flows[0].src_name
                if name in slabs.landed:
                    levels, end = _slab_levels(
                        ops, i, name, slabs.slabs[name][0], slabs.coords
                    )
                    if levels:
                        steps.append(partial(_run_levels, levels))
                        i = end
                        continue
                shift = _compile_shift(op, slabs)
                if shift is not None:
                    steps.append(shift)
                    i += 1
                    continue
                if i + 1 < n and type(ops[i + 1]) is AbsorbOp:
                    absorb = ops[i + 1]
                    fused = _fuse_comm_absorb(op, absorb, machine)
                    if fused is not None:
                        steps.append(fused)
                        slabs.spoil(item[1] for item in absorb.items)
                        i += 2
                        continue
                steps.append(_compile_comm(op, machine))
                slabs.spoil(flow.dst_name for flow in op.flows)
            elif kind is MatvecOp or kind is MatmulOp:
                step, i = _compile_product(ops, i, slabs)
                steps.append(step)
                continue
            elif kind is ComputeOp:
                steps.append(
                    lambda m=machine, o=op: MeshProgram._replay_compute(m, o)
                )
                slabs.spoil_all()
            elif kind is AbsorbOp:
                steps.append(
                    lambda m=machine, o=op: MeshProgram._replay_absorb(m, o)
                )
                slabs.spoil(name for item in op.items for name in item[1:])
            elif kind is StackedComputeOp:
                steps.append(
                    lambda m=machine, o=op: MeshProgram._replay_stacked(m, o)
                )
                slabs.spoil_all()
            elif kind is CopyOp:
                if op.src_name in slabs.landed:
                    core = machine.cores[op.coord]
                    steps.append(
                        lambda c=core, o=op: c.store(
                            o.dst_name, c._tiles[o.src_name].copy()
                        )
                    )
                else:
                    steps.append(
                        lambda m=machine, o=op: m.copy_tile(
                            o.coord, o.src_name, o.dst_name
                        )
                    )
                slabs.spoil([op.dst_name])
            elif kind is FreeOp:
                if not _relanded(ops, i, slabs):
                    steps.append(
                        lambda m=machine, o=op: m.free(o.name, o.coords)
                    )
                    slabs.spoil([op.name])
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
            elif kind in (
                ComputeOp, MatvecOp, MatmulOp, StackedComputeOp, AbsorbOp
            ):
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
