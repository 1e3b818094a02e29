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
phase scope.  :meth:`MeshProgram.replay` then re-executes only the
numpy numerics against freshly placed operands and emits the cached
trace records verbatim, so a replayed trace is indistinguishable from a
captured one (same events, groups, seqs, steps — the reconciler and the
sanitizer run on it unchanged).

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

import weakref
from dataclasses import dataclass
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

from repro.errors import ShapeError, SimulationError
from repro.mesh.fabric import Flow
from repro.mesh.flow_engine import REDUCE_OPS
from repro.mesh.topology import Coord
from repro.mesh.trace import (
    BarrierRecord,
    CommRecord,
    ComputeRecord,
    PhaseScope,
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
    """One vectorized compute phase (see ``MeshMachine.compute_stacked``)."""

    __slots__ = ("coords", "fn", "reads", "writes", "record", "cache")
    coords: Tuple[Coord, ...]
    fn: Callable
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    record: ComputeRecord
    #: name -> (tile id tuple, stacked array).  Replays on a machine with
    #: stationary tiles (identical array objects — the machine never
    #: mutates a stored tile in place) reuse the stacked view instead of
    #: re-stacking per launch.  (No default: slotted dataclasses cannot
    #: carry class-level defaults; the machine passes a fresh dict.)
    cache: Dict[str, tuple]


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


def _make_stack_reader(
    reads: Sequence[str],
    tile_dicts: List[Dict[str, np.ndarray]],
    core_list: List["Core"],
    cache: Dict[str, Tuple[Tuple[int, ...], np.ndarray]],
) -> Callable[[], Dict[str, Optional[np.ndarray]]]:
    """Prebound builder for a stacked compute's read stacks.

    Shared by the compiled stacked step and the superfused reduce chain;
    memoizes by tile identity in ``cache`` (stationary operands stack
    once per machine).
    """

    def read_stacks() -> Dict[str, Optional[np.ndarray]]:
        stacks: Dict[str, Optional[np.ndarray]] = {}
        for name in reads:
            if name not in tile_dicts[0]:
                stacks[name] = None
                continue
            entry = cache.get(name)
            if entry is not None:
                # Hit check without materialising a tile list: walk the
                # dicts and compare identities in one pass (stationary
                # operands hit every replay).
                cached_ids = entry[0]
                for d, tid in zip(tile_dicts, cached_ids):
                    if id(d.get(name)) != tid:
                        break
                else:
                    stacks[name] = entry[1]
                    continue
            try:
                tiles = [d[name] for d in tile_dicts]
            except KeyError:
                # Re-raise through load() for the canonical message.
                for core in core_list:
                    core.load(name)
                raise  # pragma: no cover - load() always raises first
            # Replicated operands (e.g. a vector chunk placed on a whole
            # row of cores) repeat the same array object; stacking each
            # distinct object once and expanding by index writes the
            # same rows for fewer per-array ``np.stack`` dispatches.
            ids = []
            first_pos: Dict[int, int] = {}
            index = []
            for tile in tiles:
                tid = id(tile)
                ids.append(tid)
                pos = first_pos.get(tid)
                if pos is None:
                    pos = len(first_pos)
                    first_pos[tid] = pos
                index.append(pos)
            if len(first_pos) * 2 <= len(tiles):
                distinct: List[Optional[np.ndarray]] = [None] * len(first_pos)
                for tile, pos in zip(tiles, index):
                    distinct[pos] = tile
                stacked = np.stack(distinct)[index]
            else:
                stacked = np.stack(tiles)
            cache[name] = (tuple(ids), stacked)
            stacks[name] = stacked
        return stacks

    return read_stacks


def _superfuse_reduce_chain(
    stacked: "StackedComputeOp",
    pairs: List[Tuple["CommOp", "AbsorbOp"]],
    machine: "MeshMachine",
) -> Optional[Callable[[], None]]:
    """Compile a stacked compute plus the reduce tree that consumes it
    into one array-level step: no per-core dict traffic between stages.

    Eligible when the stacked op writes a single name and every
    following (CommOp, AbsorbOp) pair is a unicast delivery of that
    name folded back into the same name, with senders and receivers
    disjoint per stage and all coordinates inside the stacked op's
    coordinate set.  The compiled step keeps the stacked output as one
    ``(cores, ...)`` array, applies each reduce stage as fancy-indexed
    ufunc calls over its rows (one dispatch per fold wave instead of one
    per flow), and materialises the per-core tiles once at the end.

    Equivalence: each wave gathers its accumulator and payload rows
    before writing any result (the snapshot semantics of a delivery
    phase), waves preserve the per-accumulator fold order, and row
    ``i`` of a wave's batched ufunc result is bit-identical to the
    per-entry combine because the ufunc is elementwise.  Senders keep
    their tiles, receivers end with the folded value, and the inbox
    tiles that the eager path creates and frees never materialise —
    exactly as in :func:`_fuse_comm_absorb`.  Returns ``None`` when any
    pair fails the structural checks (callers fall back to per-op
    compilation).
    """
    if len(stacked.writes) != 1 or not stacked.coords:
        return None
    name = stacked.writes[0]
    coords = stacked.coords
    coord_index = {c: i for i, c in enumerate(coords)}
    if len(coord_index) != len(coords):
        return None
    compiled_pairs = []
    for comm, absorb in pairs:
        combine = REDUCE_OPS.get(absorb.op)
        if combine is None:
            return None
        flows = comm.flows
        if not flows or any(len(flow.dsts) != 1 for flow in flows):
            return None
        order = _pair_deliveries(comm, absorb)
        if order is None:
            return None
        nb_set = {int(nb) for nb in comm.nbytes}
        if len(nb_set) != 1:
            return None
        nb = nb_set.pop()
        src_coords = set()
        acc_coords = set()
        for fi, coord, acc_name in order:
            flow = flows[fi]
            if (
                flow.src_name != name
                or acc_name != name
                or flow.dst_name == name
                or flow.src not in coord_index
                or coord not in coord_index
            ):
                return None
            src_coords.add(flow.src)
            acc_coords.add(coord)
        if src_coords & acc_coords:
            # A sender that is also a receiver would need the pre-phase
            # value after its own row was folded; keep the per-entry path.
            return None
        # Wave k holds each accumulator's (k+1)-th fold, so rows within
        # a wave are pairwise distinct and one fancy-indexed ufunc call
        # combines the whole wave while preserving per-slot fold order.
        waves: List[Tuple[List[int], List[int]]] = []
        fold_count: Dict[Coord, int] = {}
        for fi, coord, _acc in order:
            k = fold_count.get(coord, 0)
            fold_count[coord] = k + 1
            if k == len(waves):
                waves.append(([], []))
            waves[k][0].append(coord_index[coord])
            waves[k][1].append(coord_index[flows[fi].src])
        wave_arrays = [
            (np.asarray(a, dtype=np.intp), np.asarray(s, dtype=np.intp))
            for a, s in waves
        ]
        compiled_pairs.append((combine, nb, wave_arrays, flows[order[0][0]].src))

    cores = machine.cores
    core_list = [cores[c] for c in coords]
    tile_dicts = [c._tiles for c in core_list]
    excl_sets = [c._exclusive for c in core_list]
    n = len(coords)
    fn = stacked.fn
    record = stacked.record
    read_stacks = _make_stack_reader(
        stacked.reads, tile_dicts, core_list, stacked.cache
    )
    uniform_mac = (
        record.macs[0]
        if record.macs and all(m == record.macs[0] for m in record.macs)
        else None
    )
    targets = list(zip(tile_dicts, excl_sets, core_list))
    # Safety net for outputs the array path cannot host (per-core lists,
    # missing output name): replay the ops one at a time instead.
    fallback: List[Optional[List[Callable[[], None]]]] = [None]

    def run_fallback() -> None:
        steps = fallback[0]
        if steps is None:
            steps = [MeshProgram._compile_stacked(stacked, machine)]
            for comm, absorb in pairs:
                fused = _fuse_comm_absorb(comm, absorb, machine)
                if fused is not None:
                    steps.append(fused)
                else:
                    steps.append(_compile_comm(comm, machine))
                    steps.append(
                        lambda m=machine, o=absorb:
                            MeshProgram._replay_absorb(m, o)
                    )
            fallback[0] = steps
        for step in steps:
            step()

    def run() -> None:
        outputs, macs_per_core = fn(read_stacks())
        rows = outputs.get(name)
        if not isinstance(rows, np.ndarray) or rows.ndim < 1:
            run_fallback()
            return
        if len(rows) != n:
            raise ShapeError(
                f"stacked output {name!r} has {len(rows)} slices for "
                f"{n} cores"
            )
        mac = float(macs_per_core)
        if uniform_mac is not None:
            if mac != uniform_mac:
                raise ProgramReplayError(
                    f"stacked compute {record.label!r} MAC counts "
                    "changed on replay; operand shapes changed — "
                    "re-capture the program"
                )
        else:
            MeshProgram._check_macs(record, [mac] * n)
        # Private mutable buffer: the compute fn may return a view of a
        # cached read stack, and stage updates write rows in place.
        cur = rows.copy()
        row_nb = cur.nbytes // n
        for combine, nb, wave_arrays, first_src in compiled_pairs:
            if row_nb != nb:
                raise _shape_drift(name, first_src, row_nb, nb)
            for acc_idx, src_idx in wave_arrays:
                cur[acc_idx] = combine(cur[acc_idx], cur[src_idx])
        for (d, e, core), row in zip(targets, cur):
            old = d.get(name)
            if old is not None and old.nbytes == row.nbytes:
                d[name] = row
                e.add(name)
            else:
                core.store(name, row, exclusive=True)

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
        #: Route colours added over the captured body (coord -> colours),
        #: applied in one shot at the end of a replay.
        self.colours: Dict[Coord, Set[str]] = {}
        #: Per-core memory high-water marks at the end of capture.  A
        #: replay allocates bit-identically (binding is the caller's
        #: contract; body shapes are validated), so these are merged into
        #: the replay trace in one pass instead of re-noting every store.
        self.core_peaks: Dict[Coord, int] = {}
        self.complete = False
        # Compiled-replay state (lazily built):
        # id(machine) -> (weakref to the machine, prebound step list).
        # The weakref guards against id reuse after a machine is GC'd.
        self._tapes: Dict[int, Tuple[weakref.ref, List[Callable[[], None]]]] = {}
        # Cached record lists (scopes, comms, computes, barriers) in op
        # order, extended into the trace in bulk after each replay.
        self._cached_records: Optional[Tuple[list, list, list, list]] = None
        # Highest per-core memory peak (lazily computed; core_peaks is
        # immutable once capture completes).
        self._peak_top: Optional[int] = None

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
        cached records, and its fabric the cached route colours, so all
        downstream accounting (sanitizer, reconciler, compliance
        metrics) sees a normal execution.

        The program runs as a tape of steps prebound to this machine
        (compiled once per machine): comm phases execute over the
        precompiled arrays without instantiating Flow objects, unicast
        delivery+absorb pairs fuse, and the cached trace records land in
        four bulk extends.  The differential reference is a live run of
        the same body on a fresh machine.
        """
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
        steps, fresh_tape = self._tape_for(machine)
        machine._quiet_memory = True
        try:
            for step in steps:
                step()
        finally:
            machine._quiet_memory = False
        scopes, comms, computes, barriers = self._replay_records()
        trace._scopes.extend(scopes)
        trace.comms.extend(comms)
        trace.computes.extend(computes)
        trace.barriers.extend(barriers)
        if fresh_tape:
            # Fabric colour state persists across trace epochs, and
            # installation is idempotent — once per (program, machine)
            # suffices.  (The per-epoch trace colour merge follows.)
            machine.fabric.install_colours(self.colours)
        # Restore the counters a live run would have left behind, then
        # land the route colours and memory peaks in one shot (equivalent
        # to the per-phase register/record updates of the captured run).
        machine._step = self.end_step
        trace._next_seq = self.end_seq
        trace._next_group = self.end_group
        colour_sink = trace._colours_per_core
        if colour_sink:
            for coord, colours in self.colours.items():
                colour_sink[coord].update(colours)
        else:
            # Fresh trace (the decode steady state): copy instead of
            # merging.  Sets are copied — later comms on this trace
            # update them in place and must not reach our cache.
            for coord, colours in self.colours.items():
                colour_sink[coord] = set(colours)
        peaks = trace.core_peak_bytes
        if peaks:
            for coord, high in self.core_peaks.items():
                if high > peaks.get(coord, 0):
                    peaks[coord] = high
                if high > trace.peak_memory_bytes:
                    trace.peak_memory_bytes = high
        elif self.core_peaks:
            peaks.update(self.core_peaks)
            top = self._peak_top
            if top is None:
                top = self._peak_top = max(self.core_peaks.values())
            if top > trace.peak_memory_bytes:
                trace.peak_memory_bytes = top

    def _tape_for(
        self, machine: "MeshMachine"
    ) -> Tuple[List[Callable[[], None]], bool]:
        """The prebound step list for ``machine`` (compiled on first use)."""
        key = id(machine)
        entry = self._tapes.get(key)
        if entry is not None and entry[0]() is machine:
            return entry[1], False
        steps = self._compile_steps(machine)
        if len(self._tapes) > 64:
            self._tapes.clear()
        self._tapes[key] = (weakref.ref(machine), steps)
        return steps, True

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
                # Scan ahead: a stacked compute whose output feeds a
                # chain of (comm, absorb) reduce stages can superfuse
                # into one array-level step — the reduce tree runs as
                # fancy-indexed ufunc calls on the stacked output and
                # the per-core tiles materialise once at the end.
                # Scope/barrier ops compile to nothing and may sit
                # between stages.
                pairs: List[Tuple[CommOp, AbsorbOp]] = []
                j = i + 1
                end = i + 1
                while j < n:
                    nxt = type(ops[j])
                    if nxt in (ScopeOp, BarrierOp):
                        j += 1
                        continue
                    if (
                        nxt is CommOp
                        and j + 1 < n
                        and type(ops[j + 1]) is AbsorbOp
                    ):
                        pairs.append((ops[j], ops[j + 1]))
                        j += 2
                        end = j
                        continue
                    break
                if pairs:
                    fused = _superfuse_reduce_chain(op, pairs, machine)
                    if fused is not None:
                        steps.append(fused)
                        i = end
                        continue
                steps.append(self._compile_stacked(op, machine))
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

    @staticmethod
    def _compile_stacked(
        op: StackedComputeOp, machine: "MeshMachine"
    ) -> Callable[[], None]:
        """Prebound twin of ``MeshMachine._run_stacked`` for one op.

        Core handles resolve at compile time; read stacks memoize by
        tile identity in ``op.cache`` (tiles left in place between replays
        stack once); output slices land through the same-size-replacement
        branch of ``Core.store`` inlined (the steady state of replay —
        residency cannot change, and the slices are disjoint views of
        the batched result, so exclusivity holds as in the live path).
        """
        cores = machine.cores
        coords = op.coords
        core_list = [cores[c] for c in coords]
        tile_dicts = [c._tiles for c in core_list]
        excl_sets = [c._exclusive for c in core_list]
        n = len(coords)
        fn = op.fn
        writes = op.writes
        record = op.record
        read_stacks = _make_stack_reader(
            op.reads, tile_dicts, core_list, op.cache
        )
        # Live stacked computes report one uniform MAC count per core.
        uniform_mac = (
            record.macs[0]
            if record.macs and all(m == record.macs[0] for m in record.macs)
            else None
        )

        def run() -> None:
            outputs, macs_per_core = fn(read_stacks())
            for name in writes:
                out = outputs.get(name)
                if out is None:
                    continue
                if len(out) != n:
                    raise ShapeError(
                        f"stacked output {name!r} has {len(out)} slices for "
                        f"{n} cores"
                    )
                for d, e, core, row in zip(tile_dicts, excl_sets, core_list, out):
                    old = d.get(name)
                    if old is not None and old.nbytes == row.nbytes:
                        d[name] = row
                        e.add(name)
                    else:
                        core.store(name, row, exclusive=True)
            mac = float(macs_per_core)
            if uniform_mac is not None:
                if mac != uniform_mac:
                    raise ProgramReplayError(
                        f"stacked compute {record.label!r} MAC counts "
                        "changed on replay; operand shapes changed — "
                        "re-capture the program"
                    )
            else:
                MeshProgram._check_macs(record, [mac] * n)

        return run

    def _replay_records(self) -> Tuple[list, list, list, list]:
        """Record lists (scopes, comms, computes, barriers) in op order."""
        cached = self._cached_records
        if cached is None:
            scopes: list = []
            comms: list = []
            computes: list = []
            barriers: list = []
            for op in self.ops:
                kind = type(op)
                if kind is ScopeOp:
                    scopes.append(op.scope)
                elif kind is CommOp:
                    comms.append(op.record)
                elif kind in (ComputeOp, MatvecOp, StackedComputeOp, AbsorbOp):
                    computes.append(op.record)
                elif kind is BarrierOp:
                    barriers.append(op.record)
            cached = (scopes, comms, computes, barriers)
            self._cached_records = cached
        return cached

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
    def _check_macs(record: ComputeRecord, macs: Sequence[float]) -> None:
        if tuple(float(m) for m in macs) != record.macs:
            raise ProgramReplayError(
                f"stacked compute {record.label!r} MAC counts changed on "
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
        """Seal the program: end counters + route-colour delta."""
        self._sync_scopes()
        program = self.program
        program.end_step = machine.step
        program.end_seq = self.trace._next_seq
        program.end_group = self.trace._next_group
        start = self._colour_start
        delta: Dict[Coord, Set[str]] = {}
        for coord, colours in self.trace._colours_per_core.items():
            added = colours - start.get(coord, frozenset())
            if added:
                delta[coord] = set(added)
        program.colours = delta
        program.core_peaks = dict(self.trace.core_peak_bytes)
        program.complete = True


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
