"""The functional mesh machine: executes distributed kernels on numpy tiles.

:class:`MeshMachine` is the substrate every kernel in this reproduction
runs on.  It is *functional* (kernels produce bit-exact numerics, checked
against dense references in the tests) and *accountable* (every transfer
and every MAC is recorded in a :class:`~repro.mesh.trace.Trace`, and the
M/R properties of the PLMR model can be enforced as hard errors).

It is not cycle-accurate — cycle estimates come from the analytic cost
model in :mod:`repro.mesh.cost_model`, which consumes the same phase
structure the kernels execute here.  The test suite cross-checks the two:
the trace of a functional run must exhibit the step counts, hop distances
and route-colour counts the cost model charges for.

Conventions
-----------
* Tiles are named numpy arrays held in per-core SRAM.
* A matrix partitioned into ``gh x gw`` blocks places block ``(i, j)``
  (block-row ``i``, block-column ``j``) on core ``(x=j, y=i)``.
* Communication happens in *phases*: all sources are read before any
  destination is written, so cyclic shifts and permutations are safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mesh.remap import DefectMap

import numpy as np

from repro.core.plmr import PLMRDevice
from repro.errors import PlacementError, ShapeError, SimulationError
from repro.mesh.core_sim import Core
from repro.mesh.fabric import FabricModel, Flow
from repro.mesh.flow_engine import REDUCE_OPS
from repro.mesh.program import (
    AbsorbOp,
    BarrierOp,
    CaptureState,
    CommOp,
    ComputeOp,
    CopyOp,
    FreeOp,
    MatmulOp,
    MatvecOp,
    MeshProgram,
)
from repro.mesh.topology import Coord, MeshTopology, shared_topology
from repro.mesh.trace import FlowRecord, Trace


class MeshMachine:
    """A ``width x height`` mesh of cores executing tile programs."""

    def __init__(
        self,
        device: PLMRDevice,
        enforce_memory: bool = True,
        enforce_routing: bool = False,
        defects: Optional["DefectMap"] = None,
        logical_shape: Optional[Tuple[int, int]] = None,
    ):
        self.device = device
        self.defects = defects
        if defects is not None:
            from repro.mesh.remap import build_remapped_topology

            logical_w, logical_h = logical_shape or (None, None)
            self.topology = build_remapped_topology(
                device.mesh_width, device.mesh_height, defects,
                logical_width=logical_w, logical_height=logical_h,
            )
        else:
            if logical_shape is not None:
                raise SimulationError(
                    "logical_shape only applies to a defective fabric; "
                    "pass defects= or use device.submesh()"
                )
            # Interned: machines on the same mesh dims share one frozen
            # topology instance and therefore its warm route caches.
            self.topology = shared_topology(device.mesh_width, device.mesh_height)
        self.fabric = FabricModel(device, self.topology, enforce=enforce_routing)
        self.trace = Trace()
        self._enforce_memory = enforce_memory
        capacity = device.core_memory_bytes if enforce_memory else 2**62
        # Cores are keyed by *logical* coordinate: on a remapped topology
        # the kernels' dense (x, y) space survives untouched while every
        # route below it pays physical hops.
        self.cores: Dict[Coord, Core] = {
            coord: Core(coord, capacity) for coord in self.topology.coords()
        }
        self._step = 0
        self._capture: Optional[CaptureState] = None
        # Replay tapes compiled against this machine, by program: they
        # hold its core tile dicts, so they live and die with it.
        self._tapes: Dict[MeshProgram, List[Callable[[], None]]] = {}
        # Set by MeshProgram.replay: memory peaks come from the cached
        # table in one pass instead of per-store trace notes.
        self._quiet_memory = False
        # Per-core slabs by tile name: the slab, one row per core in
        # topology.coords() order, and its row views (see slab()).
        self._slabs: Dict[str, Tuple[np.ndarray, Tuple[np.ndarray, ...]]] = {}

    def reset_trace(self) -> Trace:
        """Start a fresh accounting epoch on a warm machine.

        Resident tiles (e.g. stationary weights in a decode loop) and
        fabric registrations survive; the trace, step counter and phase
        state start over — exactly the start state a captured program
        expects, so a program captured on this machine right after
        binding can be replayed once per token with only the activations
        re-placed.  Returns the finished epoch's trace.
        """
        if self._capture is not None:
            raise SimulationError("cannot reset the trace inside a capture block")
        old = self.trace
        self.trace = Trace()
        self._step = 0
        return old

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    @property
    def step(self) -> int:
        """Current step index (incremented by :meth:`advance_step`)."""
        return self._step

    def advance_step(self) -> int:
        """Move to the next step; phases recorded after this get the new index."""
        self._step += 1
        return self._step

    @contextmanager
    def phase(
        self,
        label: str,
        overlap: bool = False,
        kind: Optional[str] = None,
        pipelined: bool = True,
    ) -> Iterator[None]:
        """Scope a group of events into one named phase of the stream.

        Everything recorded inside the ``with`` block joins one phase
        group of the trace: ``overlap=True`` declares that the compute
        and communication of the block run side by side (one step of a
        compute-shift loop); ``kind`` can name a collective structure
        (``"reduce"``, ``"gather"``) so trace replay lowers the block to
        the matching cost-model phase.  The step counter advances when
        the block exits, replacing bare :meth:`advance_step` calls.
        """
        if kind is None:
            kind = "overlap" if overlap else "serial"
        scope = self.trace.begin_phase(label, kind=kind, pipelined=pipelined)
        try:
            yield
        finally:
            self.trace.end_phase(scope)
            self._step += 1

    def barrier(self, pattern: str) -> None:
        """Record an explicit no-op synchronization point.

        Used where a collective degenerates (e.g. a broadcast over a
        single-core line): the event stays visible in the stream without
        polluting communication statistics with zero-byte flows.
        """
        self.trace.record_barrier(self._step, pattern)
        if self._capture is not None:
            self._capture.note(BarrierOp(self.trace.barriers[-1]))

    # ------------------------------------------------------------------
    # Capture / replay
    # ------------------------------------------------------------------
    def program_fingerprint(self) -> Tuple:
        """Identity a captured program binds to (see DESIGN.md §10).

        Covers everything that shapes an op skeleton besides the operand
        payloads: the device (memory capacity, routing budget), the
        routed geometry including defect content, and the enforcement
        switches.
        """
        return (
            self.device.name,
            self.device.core_memory_bytes,
            self.device.max_paths_per_core,
            self.topology.fingerprint(),
            self._enforce_memory,
            self.fabric.enforce,
        )

    @contextmanager
    def capture(self) -> Iterator[MeshProgram]:
        """Record the ops executed in this block into a :class:`MeshProgram`.

        The block runs with full live semantics (routing, registration,
        enforcement, trace recording); the machine additionally records
        every phase scope, communication, compute, barrier, local copy
        and free so :meth:`MeshProgram.replay` can re-execute the body
        on a fresh machine without re-deriving any of it.  Host-side
        placement is forbidden inside the block — bind operands before
        capturing, so a replay's freshly placed operands take their
        place.
        """
        if self._capture is not None:
            raise SimulationError("capture blocks cannot nest")
        program = MeshProgram(
            fingerprint=self.program_fingerprint(),
            start_step=self._step,
            start_seq=self.trace._next_seq,
            start_group=self.trace._next_group,
        )
        state = CaptureState(program, self)
        self._capture = state
        try:
            yield program
        finally:
            self._capture = None
        # Only a body that ran to completion seals a replayable program.
        state.finish(self)

    @contextmanager
    def quiet_memory(self) -> Iterator[None]:
        """Suspend per-store memory *trace* notes (capacity stays enforced).

        Only valid when something else supplies the high-water marks —
        replay entry points wrap operand binding in this because the
        program they are about to replay merges the capture-time peak
        table (which covered an identical binding) into the trace.
        """
        prev = self._quiet_memory
        self._quiet_memory = True
        try:
            yield
        finally:
            self._quiet_memory = prev

    # ------------------------------------------------------------------
    # Placement and data movement to/from the host
    # ------------------------------------------------------------------
    def core(self, coord: Coord) -> Core:
        """The core at ``coord``."""
        self.topology.validate(coord)
        return self.cores[coord]

    def place(self, name: str, coord: Coord, tile: np.ndarray) -> None:
        """Host-side placement of one tile on one core (no NoC cost)."""
        if self._capture is not None:
            raise SimulationError(
                "host placement inside a capture block cannot be replayed; "
                "bind operands before capture()"
            )
        core = self.cores.get(coord)
        if core is None:
            core = self.core(coord)  # raises the proper PlacementError
        if type(tile) is not np.ndarray:
            tile = np.asarray(tile)
        core.store(name, tile)
        self._note_memory(coord)

    def place_many(
        self, name: str, items: Sequence[Tuple[Coord, np.ndarray]]
    ) -> None:
        """Host-side placement of one named tile on many cores at once.

        Semantically a loop of :meth:`place` with the capture check
        and the trace lookups hoisted out of the loop.  (Warm launches
        bypass placement altogether: they write their operands into the
        slabs placed here once, see :meth:`place_slab`,
        ``gemv.base.GemvSlots`` and ``gemm.base.GemmSlots``.)
        """
        if self._capture is not None:
            raise SimulationError(
                "host placement inside a capture block cannot be replayed; "
                "bind operands before capture()"
            )
        cores = self.cores
        quiet = self._quiet_memory
        note = self.trace.note_memory
        for coord, tile in items:
            core = cores.get(coord)
            if core is None:
                core = self.core(coord)  # raises the proper PlacementError
            if type(tile) is not np.ndarray:
                tile = np.asarray(tile)
            core.store(name, tile)
            if not quiet:
                note(core.resident_bytes, coord)

    def slab(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The contiguous per-core slab for tile ``name``.

        A slab is one ``(cores,) + shape`` array whose row ``i`` is the
        tile of the ``i``-th core of ``topology.coords()``, as a wafer
        core holds its tile contiguously in its own SRAM.  The machine's
        slab for ``name`` is reused while shape and dtype match, so a
        rebind writes into the buffer the cores already hold; otherwise
        a new one is allocated.  Write it, then :meth:`place_slab`.
        """
        shape = (len(self.cores),) + tuple(shape)
        held = self._slabs.get(name)
        if held is None or held[0].shape != shape or held[0].dtype != dtype:
            slab = np.empty(shape, dtype=dtype)
            held = self._slabs[name] = (slab, tuple(slab))
        return held[0]

    def place_slab(self, name: str) -> None:
        """Place every row view of the slab for ``name`` on its core.

        Host placement as :meth:`place_many` (never exclusive: the slab
        is shared).  The views are made once per slab, so a tile still
        placed from it is the identical object: compiled products and
        slab shifts check exactly that before they run on the slab.
        """
        _slab, views = self._slabs[name]
        self.place_many(name, list(zip(self.topology.coords(), views)))

    def scatter_grid(self, name: str, grid: Sequence[Sequence[np.ndarray]]) -> None:
        """Place a 2D grid of tiles: ``grid[i][j]`` goes to core ``(j, i)``."""
        gh = len(grid)
        if gh == 0:
            raise ShapeError("empty tile grid")
        gw = len(grid[0])
        if gh > self.topology.height or gw > self.topology.width:
            raise PlacementError(
                f"tile grid {gh}x{gw} does not fit mesh "
                f"{self.topology.height}x{self.topology.width}"
            )
        for i, row in enumerate(grid):
            if len(row) != gw:
                raise ShapeError("ragged tile grid")
            for j, tile in enumerate(row):
                self.place(name, (j, i), tile)

    def scatter_matrix(
        self, name: str, matrix: np.ndarray, grid_h: int, grid_w: int
    ) -> Tuple[int, int]:
        """Partition a matrix into ``grid_h x grid_w`` blocks and scatter it.

        Returns the (tile_rows, tile_cols) block shape.  Dimensions must
        divide evenly — kernels that need padding do it explicitly so the
        cost of padding stays visible.
        """
        rows, cols = matrix.shape
        if rows % grid_h or cols % grid_w:
            raise ShapeError(
                f"matrix {rows}x{cols} not divisible into {grid_h}x{grid_w} blocks"
            )
        tr, tc = rows // grid_h, cols // grid_w
        grid = [
            [matrix[i * tr:(i + 1) * tr, j * tc:(j + 1) * tc] for j in range(grid_w)]
            for i in range(grid_h)
        ]
        self.scatter_grid(name, grid)
        return tr, tc

    def gather_matrix(self, name: str, grid_h: int, grid_w: int) -> np.ndarray:
        """Reassemble a scattered matrix from cores ``(j, i)``."""
        rows = []
        for i in range(grid_h):
            row_tiles = [self.core((j, i)).load(name) for j in range(grid_w)]
            rows.append(np.concatenate(row_tiles, axis=1))
        return np.concatenate(rows, axis=0)

    def free(self, name: str, coords: Optional[Iterable[Coord]] = None) -> None:
        """Release a named tile on the given cores (default: everywhere)."""
        coords = tuple(coords) if coords is not None else None
        targets = coords if coords is not None else self.topology.coords()
        for coord in targets:
            self.cores[coord].free(name)
        if self._capture is not None:
            self._capture.note(FreeOp(name, coords))

    def copy_tile(self, coord: Coord, src_name: str, dst_name: str) -> None:
        """Alias a resident tile under a second name on the same core.

        A zero-cost local move (no NoC traffic, no trace event): both
        names reference one buffer, so neither remains exclusively owned.
        Kernels use this where a collective's root keeps its own result.
        """
        core = self.core(coord)
        core.store(dst_name, core.load(src_name))
        core.mark_shared(src_name)
        self._note_memory(coord)
        if self._capture is not None:
            self._capture.note(CopyOp(coord, src_name, dst_name))

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def communicate(self, pattern: str, flows: Sequence[Flow]) -> None:
        """Execute one communication phase.

        All source tiles are read first, then written to destinations, so
        permutations (cyclic shifts) behave like simultaneous hardware
        transfers.  The phase is accounted against the route colour
        ``pattern`` and recorded in the trace.
        """
        if not flows:
            return
        payload_nbytes = self._execute_flows(flows)
        touched = self.fabric.register(pattern, flows)
        # The SoA batch is the authoritative description of the phase:
        # hop counts and bandwidth factors come out of its arrays, the
        # per-flow Trace records are materialized from the same columns
        # (bit-identical to the former per-flow lookups), and the batch
        # rides along on the record so ingress/cost analytics never
        # rebuild it.
        batch = self.fabric.flow_batch(flows, payload_nbytes)
        flow_hops = batch.hops.tolist()
        flow_bw = batch.bw_factor.tolist()
        flow_bytes = [
            nbytes * len(flow.dsts) for flow, nbytes in zip(flows, payload_nbytes)
        ]
        flow_records = [
            FlowRecord(
                src=flow.src,
                dsts=flow.dsts,
                hops=hops,
                nbytes=nbytes,
                bw_factor=bw,
                src_name=flow.src_name,
                dst_name=flow.dst_name,
            )
            for flow, hops, nbytes, bw in zip(
                flows, flow_hops, payload_nbytes, flow_bw
            )
        ]
        self.trace.record_comm(
            self._step,
            pattern,
            flow_hops,
            flow_bytes,
            touched,
            flows=flow_records,
            batch=batch,
        )
        if self._capture is not None:
            self._capture.note(
                CommOp(tuple(flows), self.trace.comms[-1], tuple(payload_nbytes))
            )

    def _execute_flows(self, flows: Sequence[Flow]) -> List[int]:
        """Read all sources, then deliver to all destinations.

        Every destination ends up owning a buffer no other slot can
        mutate (multicast receivers never alias one ndarray).  The
        defensive in-flight copy is elided when the source slot is
        itself overwritten in this phase *and* its buffer is exclusively
        owned — the permutation-shift case, where ownership simply moves
        to the first destination.
        """
        cores = self.cores
        written = set()
        for flow in flows:
            for dst in flow.dsts:
                written.add((dst, flow.dst_name))
        payloads: List[np.ndarray] = []
        owns: List[bool] = []
        claimed = set()
        for flow in flows:
            core = cores.get(flow.src)
            if core is None:
                core = self.core(flow.src)  # raises PlacementError
            tile = core.load(flow.src_name)
            src_slot = (flow.src, flow.src_name)
            own = bool(
                flow.dsts
                and src_slot in written
                and src_slot not in claimed
                and core.is_exclusive(flow.src_name)
            )
            if own:
                claimed.add(src_slot)
            payloads.append(tile)
            owns.append(own)
        note = self._note_memory
        for flow, payload, own in zip(flows, payloads, owns):
            for idx, dst in enumerate(flow.dsts):
                delivered = payload if own and idx == 0 else payload.copy()
                dest = cores.get(dst)
                if dest is None:
                    dest = self.core(dst)  # raises PlacementError
                dest.store(flow.dst_name, delivered, exclusive=True)
                note(dst)
        return [p.nbytes for p in payloads]

    def shift_named(
        self,
        pattern: str,
        mapping: Dict[Coord, Coord],
        src_name: str,
        dst_name: str,
    ) -> None:
        """Permute a named tile across cores: ``mapping[src] -> dst``.

        Validates that the mapping is injective (a true permutation step),
        then executes it as one communication phase.
        """
        dsts = list(mapping.values())
        if len(set(dsts)) != len(dsts):
            raise SimulationError(f"shift mapping for {pattern!r} is not injective")
        flows = [
            Flow.unicast(src, dst, src_name, dst_name) for src, dst in mapping.items()
        ]
        self.communicate(pattern, flows)

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def compute(
        self,
        label: str,
        coords: Iterable[Coord],
        fn: Callable[[Core], float],
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> None:
        """Run ``fn`` on each listed core; ``fn`` returns the MACs it did.

        The per-core MAC counts feed the trace (and through it the
        compute/communication breakdowns of Figures 9 and 10).
        ``reads``/``writes`` name the tiles the compute touches; the trace
        sanitizer uses them to detect flow/compute hazards inside overlap
        phases that lack an intervening barrier.
        """
        coords = tuple(coords)
        macs: List[float] = []
        for coord in coords:
            core = self.cores[coord]
            done = fn(core)
            macs.append(float(done))
            self._note_memory(coord)
        before = len(self.trace.computes)
        self.trace.record_compute(
            self._step, label, macs, reads=tuple(reads), writes=tuple(writes)
        )
        if self._capture is not None and len(self.trace.computes) > before:
            self._capture.note(ComputeOp(self.trace.computes[-1]))

    def compute_all(
        self,
        label: str,
        fn: Callable[[Core], float],
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> None:
        """Run ``fn`` on every core of the mesh."""
        self.compute(label, self.topology.coords(), fn, reads=reads, writes=writes)

    def compute_stacked(
        self,
        label: str,
        coords: Iterable[Coord],
        fn: Callable[[Dict[str, Optional[np.ndarray]]], Tuple[Dict[str, np.ndarray], float]],
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        fallback: Optional[Callable[[Core], float]] = None,
    ) -> None:
        """One batched numpy call across all cores.

        When every core in ``coords`` holds each tile in ``reads`` with
        one uniform shape (or none holds it at all), ``fn`` is called
        once with ``{name: stacked}`` — ``stacked[i]`` being the tile of
        ``coords[i]``, or ``None`` for a uniformly absent name — and
        must return ``(outputs, macs_per_core)``: each ``outputs[name]``
        a stacked array whose slice ``i`` is stored on ``coords[i]``
        (as disjoint, exclusively owned views of the batched result),
        and the (shape-derived, identical per core) MAC count.  No
        kernel uses this: the batched path is the structured
        :meth:`matvec` / :meth:`matmul` ops, whose compiled replays run
        one ``np.matmul`` over contiguous slabs, bit for bit the per-core
        products (DESIGN.md §10.3).  The method stays only because
        perfbench's traced layer table names it.  It runs eagerly only:
        like :meth:`compute`, it captures an opaque
        :class:`~repro.mesh.program.ComputeOp`, and a program holding one
        refuses to replay.

        Non-uniform tile shapes (or partial residency) fall back to the
        per-core ``fallback`` closure through :meth:`compute`, which
        must implement identical semantics.  The trace record is
        indistinguishable from the per-core one either way.
        """
        coords = tuple(coords)
        if not coords:
            return
        cores = self.cores
        for name in reads:
            tiles = [cores[coord].load_optional(name) for coord in coords]
            present = [t for t in tiles if t is not None]
            if present and (
                len(present) != len(tiles)
                or any(
                    t.shape != present[0].shape or t.dtype != present[0].dtype
                    for t in present[1:]
                )
            ):
                if fallback is None:
                    raise ShapeError(
                        f"compute_stacked({label!r}) requires uniform tile "
                        "shapes and no fallback was provided"
                    )
                self.compute(label, coords, fallback, reads=reads, writes=writes)
                return
        stacks: Dict[str, Optional[np.ndarray]] = {}
        for name in reads:
            if cores[coords[0]].has(name):
                stacks[name] = np.stack([cores[c].load(name) for c in coords])
            else:
                stacks[name] = None
        outputs, macs_per_core = fn(stacks)
        for name in writes:
            out = outputs.get(name)
            if out is None:
                continue
            if len(out) != len(coords):
                raise ShapeError(
                    f"stacked output {name!r} has {len(out)} slices for "
                    f"{len(coords)} cores"
                )
            for i, coord in enumerate(coords):
                cores[coord].store(name, out[i], exclusive=True)
                self._note_memory(coord)
        macs = [float(macs_per_core)] * len(coords)
        before = len(self.trace.computes)
        self.trace.record_compute(
            self._step, label, macs, reads=tuple(reads), writes=tuple(writes)
        )
        if self._capture is not None and len(self.trace.computes) > before:
            self._capture.note(ComputeOp(self.trace.computes[-1]))

    def matvec(
        self, label: str, items: Sequence[Tuple[Coord, str, str, str]]
    ) -> None:
        """Per-core matrix-vector products: ``out = a @ b`` on each core.

        Each item ``(coord, a_name, b_name, out_name)`` loads both tiles
        on ``coord``, stores ``a @ b`` under ``out_name`` and counts
        ``rows * cols`` of the matrix tile as its MACs — the semantics
        of the GEMV local partial written as a per-core closure, with the
        same trace record (reads and writes are the named tiles, in item
        order).  This per-core loop is the eager oracle.  Like
        :meth:`absorb`, the op is *structured*: it captures into a
        :class:`~repro.mesh.program.MatvecOp`, whose compiled replay is
        one batched product over the operand slabs (:meth:`slab`), bit
        for bit the products of this loop on contiguous tiles.
        """
        if not items:
            return
        items = tuple(items)
        cores = self.cores
        macs: List[float] = []
        for coord, a_name, b_name, out_name in items:
            core = cores[coord]
            vec = core.load(a_name)
            mat = core.load(b_name)
            core.store(out_name, vec @ mat)
            macs.append(float(mat.shape[0] * mat.shape[1]))
            self._note_memory(coord)
        reads = tuple(dict.fromkeys(n for item in items for n in item[1:3]))
        writes = tuple(dict.fromkeys(item[3] for item in items))
        before = len(self.trace.computes)
        self.trace.record_compute(
            self._step, label, macs, reads=reads, writes=writes
        )
        if self._capture is not None and len(self.trace.computes) > before:
            self._capture.note(MatvecOp(items, self.trace.computes[-1]))

    def matmul(
        self,
        label: str,
        items: Sequence[Tuple[Coord, str, str, str]],
        accumulate: bool = False,
        transpose_b: bool = False,
        reads: Optional[Sequence[str]] = None,
    ) -> None:
        """Per-core matrix products: ``out = a @ b`` on each core.

        Each item ``(coord, a_name, b_name, out_name)`` loads both tiles
        on ``coord`` and stores ``a @ b`` (``a @ b.T`` with
        ``transpose_b``) under ``out_name``; with ``accumulate`` the
        product is added to the resident ``out`` tile (stored as is when
        there is none).  MACs are ``m * k * n`` of each core's product.
        The record reads the items' operand names and writes their
        ``out`` names, in item order; ``reads`` replaces the reads for a
        kernel whose record declares more (``out`` is read only when
        accumulating).  This per-core loop is the eager
        oracle.  Like :meth:`matvec`, the op is *structured*: it captures
        into a :class:`~repro.mesh.program.MatmulOp`, whose compiled
        replay is one batched ``np.matmul`` over the operand slabs
        (:meth:`slab`), plus one in-place add when accumulating.
        """
        if not items:
            return
        items = tuple(items)
        cores = self.cores
        macs: List[float] = []
        for coord, a_name, b_name, out_name in items:
            core = cores[coord]
            a = core.load(a_name)
            b = core.load(b_name)
            if transpose_b:
                b = b.T
            product = a @ b
            held = core.load_optional(out_name) if accumulate else None
            core.store(out_name, product if held is None else held + product)
            macs.append(float(a.shape[0] * a.shape[1] * b.shape[1]))
            self._note_memory(coord)
        if reads is None:
            reads = [n for item in items for n in item[1:3]]
            if accumulate:
                reads += [item[3] for item in items]
        before = len(self.trace.computes)
        self.trace.record_compute(
            self._step, label, macs,
            reads=tuple(dict.fromkeys(reads)),
            writes=tuple(dict.fromkeys(item[3] for item in items)),
        )
        if self._capture is not None and len(self.trace.computes) > before:
            self._capture.note(
                MatmulOp(items, accumulate, transpose_b, self.trace.computes[-1])
            )

    def absorb(
        self,
        label: str,
        items: Sequence[Tuple[Coord, str, str]],
        op: str = "add",
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> None:
        """Combine delivered inbox tiles into accumulators, freeing the inboxes.

        Each item ``(coord, acc_name, inbox_name)`` loads both tiles on
        ``coord``, stores ``combine(acc, inbox)`` back under ``acc_name``
        and frees the inbox; ``op`` names the combine in
        :data:`~repro.mesh.flow_engine.REDUCE_OPS`.  Items are processed
        in order (a core receiving two inboxes folds them sequentially),
        and MACs are the absorbed element counts — exactly the semantics
        the reduction collectives used to express as opaque per-core
        closures.  As a *structured* primitive it captures into an
        :class:`~repro.mesh.program.AbsorbOp`, which the compiled replay
        runs with the preceding communication phase as one tree level on
        the accumulator's slab instead of round-tripping every inbox
        tile through core storage.
        """
        if not items:
            return
        combine = REDUCE_OPS.get(op)
        if combine is None:
            raise SimulationError(
                f"unknown absorb op {op!r}; choose from {sorted(REDUCE_OPS)}"
            )
        per_coord: Dict[Coord, List[Tuple[str, str]]] = {}
        for coord, acc_name, inbox_name in items:
            per_coord.setdefault(coord, []).append((acc_name, inbox_name))
        cores = self.cores
        macs: List[float] = []
        for coord, pairs in per_coord.items():
            core = cores[coord]
            done = 0.0
            for acc_name, inbox_name in pairs:
                acc = core.load(acc_name)
                incoming = core.load(inbox_name)
                core.store(acc_name, combine(acc, incoming), exclusive=True)
                done += float(incoming.size)
                core.free(inbox_name)
            macs.append(done)
            self._note_memory(coord)
        before = len(self.trace.computes)
        self.trace.record_compute(
            self._step, label, macs, reads=tuple(reads), writes=tuple(writes)
        )
        if self._capture is not None and len(self.trace.computes) > before:
            self._capture.note(
                AbsorbOp(tuple(items), op, self.trace.computes[-1])
            )

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _note_memory(self, coord: Coord) -> None:
        if self._quiet_memory:
            return
        self.trace.note_memory(self.cores[coord].resident_bytes, coord)

    def peak_memory_bytes(self) -> int:
        """High-water mark of per-core resident memory across the run."""
        return max(core.peak_bytes for core in self.cores.values())

    def resident_bytes(self, coord: Coord) -> int:
        """Bytes currently resident at one core."""
        return self.cores[coord].resident_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MeshMachine({self.device.name}, "
            f"{self.topology.width}x{self.topology.height}, step={self._step})"
        )
