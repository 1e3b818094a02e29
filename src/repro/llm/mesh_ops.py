"""Mesh-executed tensor ops with automatic padding.

The distributed transformer (:mod:`repro.llm.distributed`) is composed
from these wrappers.  Each op pads its operands up to the kernel's grid,
runs the *functional* mesh kernel (MeshGEMM / MeshGEMV / dist-GEMM-T /
K-tree reductions) on a mesh machine, and strips the padding — so every
matrix product and every reduction of the model's forward pass actually
executes through the paper's distributed algorithms, tile by tile.

Element-wise work (activations, residuals, rotary rotation, masking)
needs no data movement on a mesh — each core transforms its resident
tile — so the wrappers perform it with plain numpy on the host side of
the simulation; Section 2.3 makes the same observation for the real
hardware.

A shared :class:`MeshOpContext` carries the device/grid configuration
and lists every kernel launch with its trace, so tests can assert
PLMR-compliance properties of a whole model forward pass.  A warm launch
lists its program's sealed launch record, one trace per program, so the
list costs one shared entry per launch, not a trace.

A forward pass is written once as a plan of ops (:class:`PlanOp`:
GEMVs, score GEMM-Ts, RMSNorms, softmaxes and named host steps over
registers).  An op picks its kernels from the rank of the register it
reads: a vector takes MeshGEMV and the line reductions (decode), a
matrix of rows takes MeshGEMM, dist-GEMM-T and the row-wise reductions
(prefill).  A plan runs launch by launch (:meth:`PlanOp.run`), or
through :meth:`MeshOpContext.run_layer`, which replays it as one bound
tape of prebound steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.collectives.allreduce import ktree_reduce
from repro.core.plmr import PLMRDevice
from repro.core.device_presets import TINY_MESH
from repro.errors import (
    ConfigurationError,
    ShapeError,
    SimulationError,
    require_positive_int,
)
from repro.gemm.base import GemmSlots
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.base import GemvSlots, gemv_reader
from repro.gemv.meshgemv import MeshGEMV
from repro.mesh.machine import MeshMachine
from repro.mesh.trace import Trace


def _pad_to(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero-pad a 2-D array up to ``rows x cols``."""
    if x.shape == (rows, cols):
        return x
    out = np.zeros((rows, cols), dtype=x.dtype)
    out[: x.shape[0], : x.shape[1]] = x
    return out


def _numeric(op: str, *operands) -> Tuple[np.ndarray, ...]:
    """The operands as arrays, checked before any launch: a
    :class:`ShapeError` unless each holds bool, int, uint, float or
    complex values (dtype kinds ``biufc``)."""
    arrays = tuple(np.asarray(operand) for operand in operands)
    for array in arrays:
        if array.dtype.kind not in "biufc":
            raise ShapeError(
                f"{op} expects numeric operands, got dtype {array.dtype}"
            )
    return arrays


def _real(op: str, *operands) -> Tuple[np.ndarray, ...]:
    """:func:`_numeric` for the line reductions, which run in float64: a
    :class:`ShapeError` for complex values too, before any launch."""
    arrays = _numeric(op, *operands)
    for array in arrays:
        if array.dtype.kind == "c":
            raise ShapeError(f"{op} expects real operands, got dtype {array.dtype}")
    return arrays


def _require_matrices(op: str, *operands: np.ndarray) -> None:
    """Raise :class:`ShapeError` unless every operand is 2-D."""
    for operand in operands:
        if np.ndim(operand) != 2:
            raise ShapeError(
                f"{op} expects 2-D matrices, got shape {np.shape(operand)}"
            )


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


#: A plan's named values (see :meth:`MeshOpContext.run_layer`).
Registers = Dict[str, object]
#: One prebound step of a tape.
Step = Callable[[Registers], None]
#: A GEMV matrix: a fixed array (a weight) or the name of a register.
Operand = Union[np.ndarray, str]


#: Line-reduction op -> (the ufunc reduction ``np.sum`` / ``np.max`` run,
#: the value an empty chunk contributes).
_LINE_REDUCE = {
    "add": (np.add.reduce, 0.0),
    "max": (np.maximum.reduce, -np.inf),
}


def _rms_norm(x: np.ndarray, weight: np.ndarray, eps: float,
              reduce_sum: Callable[[np.ndarray], float]) -> np.ndarray:
    """RMSNorm of a vector: local squares, a line sum, local scale.

    The one expression every mode evaluates; only ``reduce_sum`` (the
    K-tree line reduction, launched or prebound) differs.
    """
    total = reduce_sum(np.square(x))
    rms = np.sqrt(total / x.shape[-1] + eps)
    return x / rms * weight


def _check_norm_weight(x: np.ndarray, weight: np.ndarray) -> None:
    """RMSNorm needs a non-empty vector and one weight per value."""
    if x.size == 0:
        raise ShapeError("rms_norm of an empty vector")
    if weight.shape != x.shape[-1:]:
        raise ShapeError(
            f"rms_norm weight of shape {weight.shape} does not "
            f"match a vector of shape {x.shape}"
        )


def _softmax(scores: np.ndarray,
             reduce_max: Callable[[np.ndarray], float],
             reduce_sum: Callable[[np.ndarray], float]) -> np.ndarray:
    """Softmax of a float64 vector: line max, local exp, line sum, scale."""
    live = scores[scores != -np.inf]
    if live.size == 0:
        raise ShapeError("softmax over fully masked scores")
    peak = reduce_max(live)
    exps = np.exp(scores - peak)
    total = reduce_sum(exps)
    return exps / total


@dataclass
class MeshOpContext:
    """Configuration + launch list for mesh-executed ops.

    Compiled by default: every distinct ``(op, padded operand shapes,
    dtypes)`` signature is captured once as a
    :class:`~repro.mesh.program.MeshProgram`, and every later launch
    re-runs its compiled tape — same trace records, same numerics, none
    of the route-walk/registration/closure overhead.  Launches run on
    warm machines:

    * **one warm machine per padded operand shape.**  Every launch
      writes its two operands into the machine's contiguous per-core
      slabs, whose row views the cores hold: ``gemv.a`` / ``gemv.B``
      for a GEMV (:class:`~repro.gemv.base.GemvSlots`), ``gemm.A`` /
      ``gemm.B`` or ``gemmt.A`` / ``gemmt.B`` for a GEMM or GEMM-T
      (:class:`~repro.gemm.base.GemmSlots`).  Weight and KV-cache
      products alike take this path, and every launch binds its
      operands from the arrays it is given;
    * **one ``grid x 1`` machine per K-tree line reduction**
      (``reduce_sum`` / ``reduce_max``), whose ``red.v`` slab has one row
      per line core.  Its entry keeps a bound reducer: it writes the
      per-core locals into the slab, and the tape runs the tree's levels
      in place on it.

    Every warm launch is the same four steps (:meth:`_rebind_replay`):
    the entry's ``bind``, its tape (bound to the machine, and checked,
    once at capture by :meth:`MeshProgram.bind_tape
    <repro.mesh.program.MeshProgram.bind_tape>`), its ``read``, and one
    append of the program's sealed launch record to :attr:`traces`.  No
    warm launch builds a trace, so the context's state is bounded by its
    programs, not by its launches.  The machine count is bounded by the
    distinct padded shapes plus two, independent of how many tokens are
    decoded.

    :attr:`traces` lists ``(label, trace)`` per launch: the live trace
    of an eager or capturing launch, the shared sealed record of a warm
    one.  Read it; never record into or mutate a listed trace.

    :meth:`run_layer` runs a decode plan as **one tape**: a flat list of
    steps prebound, per op, to the same warm machines.  A GEMV step is
    the warm launch with a prebound ``bind`` that writes its
    vector and matrix into the machine's ``gemv.a`` / ``gemv.B`` slabs
    (an off-grid operand through a zero-padded buffer of the step's
    own); RMSNorm and softmax steps call the entries' bound reducers,
    as the per-launch path does.  Host steps run the same numpy
    expressions in the same order, so a replay is bit-identical to the
    launches it stands for and lists the same records.  A failed launch
    evicts its machine and bumps the context's generation, which retires
    every tape bound before it; a failed replay also drops its own tape.

    ``compiled=False`` runs every launch eagerly on a fresh machine: the
    capture pass and the differential oracle the compiled path is tested
    against; the default compiled mode is bit-exact with it.  GEMV and
    GEMM operand tiles are contiguous slab rows in both modes: an eager
    launch runs the per-core products, a compiled one a single batched
    product over the slabs per compute step, with the same bits
    (DESIGN.md §10.3).
    """

    device: PLMRDevice = field(default_factory=lambda: TINY_MESH)
    grid: int = 4
    enforce_memory: bool = False
    compiled: bool = True
    traces: List[Tuple[str, Trace]] = field(default_factory=list)
    #: Warm machines, each with the program it runs, its ``bind`` hook,
    #: its bound tape (``run``), its ``read`` hook and the ``(label,
    #: sealed record)`` pair each launch appends to :attr:`traces`:
    #: keyed by kernel name and operand signature (shape machines) or
    #: ``("line-reduce", op)``.
    _resident: Dict[tuple, dict] = field(default_factory=dict, repr=False)
    #: Line-reduction chunk bounds per vector length.
    _splits: Dict[int, Tuple[Tuple[int, int], ...]] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Bumped whenever a warm entry is evicted; a tape runs only in the
    #: generation it was captured in.
    _generation: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        require_positive_int("grid", self.grid)

    def _machine(self, height: int) -> MeshMachine:
        """A fresh machine on the ``grid x height`` sub-mesh: ``grid x
        grid`` for a kernel, ``grid x 1`` for a line reduction."""
        return MeshMachine(self.device.submesh(self.grid, height),
                           enforce_memory=self.enforce_memory)

    def _record(self, label: str, machine: MeshMachine) -> None:
        self.traces.append((label, machine.trace))

    @staticmethod
    def _shape_key(kernel, *operands: np.ndarray) -> tuple:
        """Warm-machine key: kernel name plus operand shapes/dtypes."""
        return (kernel.name,) + tuple(
            (o.shape, o.dtype.str) for o in operands
        )

    def _launch(self, kernel, *operands) -> np.ndarray:
        """Run one kernel launch; eager, or on its shape's warm machine."""
        if not self.compiled:
            machine = self._machine(self.grid)
            out = kernel.run(machine, *operands)
            self._record(kernel.name, machine)
            return out
        key = self._shape_key(kernel, *operands)
        entry = self._resident.get(key)
        if entry is not None:
            return self._rebind_replay(key, entry, *operands)
        machine = self._machine(self.grid)
        out, program = kernel.capture_run(machine, *operands)
        self._record(kernel.name, machine)
        layout = program.meta["layout"]
        if kernel is MeshGEMV:
            slots = GemvSlots(machine, *operands)
            self._keep_warm(key, kernel.name, machine, program, slots.bind,
                            gemv_reader(machine, layout), slots=slots)
        else:
            slots = GemmSlots(machine, kernel.operand_names, operands, layout)
            # The captured shifts left copies on the cores: land the slab
            # views again, once, for the warm launches to write into.
            with machine.quiet_memory():
                slots.place()
            self._keep_warm(key, kernel.name, machine, program, slots.bind,
                            partial(kernel.gather, machine, layout))
        return out

    def _keep_warm(self, key: tuple, label: str, machine: MeshMachine,
                   program, bind, read, **extra) -> dict:
        """Make a capturing launch's machine the warm entry for ``key``.

        The capture's live trace is already listed; the machine starts a
        fresh epoch (the program's start state) and its tape is bound
        and checked against it once.  The machine's own trace stays
        empty from here on: warm launches list the sealed record.
        """
        machine.reset_trace()
        entry = self._resident[key] = {
            "machine": machine,
            "program": program,
            "bind": bind,
            "run": program.bind_tape(machine),
            "read": read,
            "launch": (label, program.record),
            **extra,
        }
        return entry

    def _evict(self, key: tuple, entry: dict) -> None:
        """Drop a warm entry whose launch failed part-way.

        Bumps :attr:`_generation`, so every tape bound to the context's
        warm machines re-captures before it runs again.
        """
        if self._resident.get(key) is entry:
            del self._resident[key]
        self._generation += 1

    def _rebind_replay(self, key: tuple, entry: dict, *operands,
                       bind: Optional[Callable[..., None]] = None):
        """The warm launch: ``bind``, the bound tape, ``read``, and one
        append of the shared ``(label, sealed record)`` pair.

        ``bind`` (the entry's own unless a tape step passes its prebound
        twin) puts the operands where the captured body expects
        them on the entry's machine, usually by overwriting the previous
        launch's tiles in place, so residency never exceeds a fresh
        machine's peak.  A launch that fails part-way evicts its machine
        rather than leave a half-run state for reuse.
        """
        try:
            (bind or entry["bind"])(*operands)
            entry["run"]()
            out = entry["read"]()
        except BaseException:
            self._evict(key, entry)
            raise
        self.traces.append(entry["launch"])
        return out

    def program_cache_stats(self) -> Dict[str, int]:
        """Cached programs, one per warm machine, and their total ops
        (diagnostics)."""
        return {
            "programs": len(self._resident),
            "ops": sum(e["program"].num_ops for e in self._resident.values()),
        }

    # ------------------------------------------------------------------
    # Matrix products
    # ------------------------------------------------------------------
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` through functional MeshGEMM (with padding)."""
        a, b = _numeric("gemm", a, b)
        _require_matrices("gemm", a, b)
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
        g = self.grid
        pa = _pad_to(a, _round_up(a.shape[0], g), _round_up(a.shape[1], g))
        pb = _pad_to(b, _round_up(b.shape[0], g), _round_up(b.shape[1], g))
        out = self._launch(MeshGEMM, pa, pb)
        return out[: a.shape[0], : b.shape[1]]

    def gemm_t(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b.T`` through functional dist-GEMM-T (B untransposed)."""
        a, b = _numeric("gemm_t", a, b)
        _require_matrices("gemm_t", a, b)
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"K dims differ: {a.shape} vs {b.shape}")
        g = self.grid
        pa = _pad_to(a, _round_up(a.shape[0], g), _round_up(a.shape[1], g))
        pb = _pad_to(b, _round_up(b.shape[0], g), _round_up(b.shape[1], g))
        out = self._launch(MeshGEMMTransposed, pa, pb)
        return out[: a.shape[0], : b.shape[0]]

    def gemv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` (vector times matrix) through functional MeshGEMV."""
        out = self._launch(MeshGEMV, *self._gemv_operands(a, b))
        return out[: np.shape(b)[1]]

    def _gemv_operands(
        self, a: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The checked ``a @ b`` GEMV operands, zero-padded to the grid."""
        vec, b = _numeric("gemv", a, b)
        if vec.ndim != 1:
            raise ShapeError(f"gemv expects a vector, got shape {vec.shape}")
        _require_matrices("gemv", b)
        if vec.shape[0] != b.shape[0]:
            raise ShapeError(f"inner dims differ: {vec.shape} @ {b.shape}")
        g = self.grid
        padded = _round_up(vec.shape[0], g)
        if padded == vec.shape[0]:
            pv = vec  # already aligned: the bind copies it into the slab
        else:
            pv = np.zeros(padded, dtype=vec.dtype)
            pv[: vec.shape[0]] = vec
        return pv, _pad_to(b, pv.shape[0], _round_up(b.shape[1], g))

    # ------------------------------------------------------------------
    # Allreduce-based vector ops (the "GEMV solutions" of Section 2.3)
    # ------------------------------------------------------------------
    def _split_bounds(self, n: int) -> Tuple[Tuple[int, int], ...]:
        """``np.array_split(values, grid)`` chunk bounds for ``n`` values.

        Same sizes as ``array_split`` (the first ``n % grid`` chunks get
        one extra value; chunks are empty when ``n < grid``), cached per
        length because decode reduces the same few lengths every token.
        """
        bounds = self._splits.get(n)
        if bounds is None:
            each, extra = divmod(n, self.grid)
            edges = [0]
            for i in range(self.grid):
                edges.append(edges[-1] + each + (i < extra))
            bounds = self._splits[n] = tuple(zip(edges[:-1], edges[1:]))
        return bounds

    def _reduce_into(self, values: np.ndarray, op: str, out: np.ndarray) -> None:
        """Write each core's chunk sum or max into ``out[core]``.

        ``np.add.reduce`` / ``np.maximum.reduce`` are the ufunc
        reductions ``np.sum`` / ``np.max`` run, so every local is
        bit-identical to theirs; an empty chunk contributes the op's
        identity (``0.0`` or ``-inf``).  A contiguous vector with no
        empty chunk reduces its equal-length chunks as the rows of one
        or two reshaped views: ``reduce(..., axis=1)`` over a
        C-contiguous row runs the same inner loop over the same values
        as the per-chunk call, so the locals are the same bits.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ShapeError(f"line reduction expects a vector, got {vals.shape}")
        reduce, identity = _LINE_REDUCE[op]
        n = vals.shape[0]
        grid = self.grid
        if n < grid or not vals.flags.c_contiguous:
            for i, (lo, hi) in enumerate(self._split_bounds(n)):
                out[i] = reduce(vals[lo:hi]) if hi > lo else identity
            return
        each, extra = divmod(n, grid)
        cut = extra * (each + 1)
        if extra:
            reduce(vals[:cut].reshape(extra, each + 1), axis=1, out=out[:extra])
        reduce(vals[cut:].reshape(grid - extra, each), axis=1, out=out[extra:])

    def _line_reduce(self, values: np.ndarray, op: str) -> float:
        """Reduce a vector to a scalar with the two-way K-tree on a line.

        The line is a ``grid x 1`` machine, so its ``red.v`` slab has one
        row per line core.  Every mode writes the per-core locals into
        the slab and places its row views; a warm launch only writes the
        slab, and its tape runs the tree's levels in place on it.
        """
        # The reduction skeleton only depends on the line length and op
        # (per-core payloads are always one float64), so one resident
        # machine + program serves every call regardless of value count.
        key = ("line-reduce", op)
        entry = self._resident.get(key) if self.compiled else None
        if entry is not None:
            return entry["reduce"](values)
        machine = self._machine(1)
        local = machine.slab("red.v", (1,), np.float64)[:, 0]
        self._reduce_into(values, op, local)
        machine.place_slab("red.v")
        label = f"ktree-{op}"
        line = machine.topology.row(0)
        if not self.compiled:
            roots = ktree_reduce(machine, [line], "red.v", k=2, op=op)
            self._record(label, machine)
            return float(machine.core(roots[0]).load("red.v")[0])
        with machine.capture() as program:
            roots = ktree_reduce(machine, [line], "red.v", k=2, op=op)
        self._record(label, machine)
        out = float(machine.core(roots[0]).load("red.v")[0])
        # The captured absorbs stored fresh accumulators: land the slab
        # views again, once, for the warm launches to write into.
        with machine.quiet_memory():
            machine.place_slab("red.v")
        root = line.index(roots[0])
        entry = self._keep_warm(key, label, machine, program, lambda: None,
                                lambda: local[root])
        reduce_into = self._reduce_into

        def reduce(values: np.ndarray) -> float:
            # The locals are checked and written into the slab before the
            # launch, so a misshaped vector evicts nothing; the launch's
            # bind has nothing left to do.
            reduce_into(values, op, local)
            return float(self._rebind_replay(key, entry))

        entry["reduce"] = reduce
        return out

    def _warm_reducer(
        self, op: str
    ) -> Optional[Callable[[np.ndarray], float]]:
        """The warm line reduction of ``op`` (values -> scalar), or
        ``None`` while the op has no warm machine."""
        entry = self._resident.get(("line-reduce", op))
        return None if entry is None else entry["reduce"]

    def reduce_sum(self, values: np.ndarray) -> float:
        """Sum of a distributed vector via K-tree allreduce."""
        return self._sum(*_real("reduce_sum", values))

    def reduce_max(self, values: np.ndarray) -> float:
        """Max of a distributed vector via K-tree allreduce."""
        return self._max(*_real("reduce_max", values))

    def _sum(self, values: np.ndarray) -> float:
        """:meth:`reduce_sum` of a checked vector."""
        return self._line_reduce(values, "add")

    def _max(self, values: np.ndarray) -> float:
        """:meth:`reduce_max` of a checked vector."""
        return self._line_reduce(values, "max")

    def rms_norm(self, x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
        """RMSNorm of a vector: local squares, K-tree sum, local scale."""
        x, weight = _real("rms_norm", x, weight)
        _check_norm_weight(x, weight)
        return _rms_norm(x, weight, eps, self._sum)

    def softmax(self, scores: np.ndarray) -> np.ndarray:
        """Softmax of a vector: K-tree max, local exp, K-tree sum, scale.

        ``-inf`` entries (causal masking) are handled exactly as a wafer
        kernel would: they take no part in the max and contribute zero
        after the exponent.  Only ``-inf`` masks: a ``+inf`` or NaN score
        is a numeric fault and propagates to NaN, as in
        :func:`repro.llm.reference.softmax`.
        """
        scores = np.asarray(*_real("softmax", scores), dtype=np.float64)
        return _softmax(scores, self._max, self._sum)

    def rms_norm_rows(
        self, x: np.ndarray, weight: np.ndarray, eps: float
    ) -> np.ndarray:
        """Row-wise RMSNorm of a matrix (prefill activations)."""
        x, weight = _real("rms_norm_rows", x, weight)
        _require_matrices("rms_norm_rows", x)
        if len(x) == 0:
            return np.empty(np.shape(x))
        _check_norm_weight(x[0], weight)
        return np.stack([_rms_norm(row, weight, eps, self._sum) for row in x])

    def softmax_rows(self, scores: np.ndarray) -> np.ndarray:
        """Row-wise softmax of a score matrix (prefill attention)."""
        (scores,) = _real("softmax_rows", scores)
        _require_matrices("softmax_rows", scores)
        if len(scores) == 0:
            return np.empty(np.shape(scores))
        scores = np.asarray(scores, dtype=np.float64)
        return np.stack([_softmax(row, self._max, self._sum) for row in scores])

    # ------------------------------------------------------------------
    # Tapes
    # ------------------------------------------------------------------
    def run_layer(self, plan: List["PlanOp"], regs: Registers,
                  tapes: Dict[Hashable, "PlanTape"], key: Hashable) -> None:
        """Run a decode ``plan`` over the registers ``regs``.

        Eager contexts run every op through its launch, as the oracle.
        A compiled context replays the plan's bound tape for ``key`` in
        ``tapes``; without one (or when a warm machine it is bound to has
        been evicted since) it captures: every op runs and leaves its
        prebound step (:meth:`PlanOp.capture`), and the steps become the
        tape for ``key``.  A replay that raises evicts its tape; the next
        run of ``key`` captures again.
        """
        if not self.compiled:
            for op in plan:
                op.run(self, regs)
            return
        tape = tapes.get(key)
        if tape is not None and tape.generation == self._generation:
            try:
                for step in tape.steps:
                    step(regs)
            except BaseException:
                del tapes[key]
                raise
            return
        steps = [op.capture(self, regs) for op in plan]
        tapes[key] = PlanTape(steps, self._generation)

    def _bound_gemv(self, dst: str, src: str, matrix: Operand,
                    regs: Registers) -> Optional[Step]:
        """The prebound step of a GEMV on its shape's warm machine, or
        ``None`` while that shape has none.

        ``regs[dst] = regs[src] @ matrix``, as the warm launch of
        :meth:`gemv` with a prebound ``bind``: the vector and the matrix
        are written into the machine's ``gemv.a`` / ``gemv.B`` slabs
        (:class:`~repro.gemv.base.GemvSlots`) from the live arrays on
        every run, a weight as much as a register operand (a KV-cache
        view), which may change length within the padded shape from run
        to run.  An operand shorter than the padded shape is first
        zero-padded into a buffer of the step's own.
        """
        mat = regs[matrix] if isinstance(matrix, str) else matrix
        pv, pb = self._gemv_operands(regs[src], mat)
        key = self._shape_key(MeshGEMV, pv, pb)
        entry = self._resident.get(key)
        if entry is None:
            return None
        slots = entry["slots"]
        rows, cols = pb.shape
        pad = np.zeros(rows, dtype=pv.dtype)
        # An on-grid weight never pads; a register operand may, per run.
        padded = (None if pb is mat and not isinstance(matrix, str)
                  else np.zeros((rows, cols), dtype=pb.dtype))

        def bind(vec: np.ndarray, mat: np.ndarray) -> None:
            if vec.shape[0] != rows:
                pad[: vec.shape[0]] = vec
                pad[vec.shape[0]:] = 0.0
                vec = pad
            slots.write_vector(vec)
            r, n = mat.shape
            if r != rows or n != cols:
                padded[:r, :n] = mat
                padded[r:] = 0.0
                padded[:r, n:] = 0.0
                mat = padded
            slots.write_matrix(mat)

        replay = partial(self._rebind_replay, key, entry)
        if isinstance(matrix, str):

            def step(regs: Registers) -> None:
                mat = regs[matrix]
                out = replay(regs[src], mat, bind=bind)
                regs[dst] = out[: mat.shape[1]]

            return step

        width = matrix.shape[1]

        def step(regs: Registers) -> None:
            regs[dst] = replay(regs[src], matrix, bind=bind)[:width]

        return step

    # ------------------------------------------------------------------
    def total_kernels(self) -> int:
        """Number of mesh kernels launched through this context."""
        return len(self.traces)

    def max_paths_per_core(self) -> int:
        """Worst route-colour count over all launched kernels."""
        if not self.traces:
            return 0
        return max(trace.max_paths_per_core for _label, trace in self.traces)


# ---------------------------------------------------------------------------
# Plans: a forward pass written once as launches and named host steps over
# registers.  Each op runs through the context's launches (eager, or the
# per-launch path) or, when captured, leaves its prebound step for a tape.
# ---------------------------------------------------------------------------
@dataclass
class PlanTape:
    """A plan's prebound steps, valid in one context generation."""

    steps: List[Step]
    generation: int


class PlanOp:
    """One op of a plan."""

    def run(self, ops: MeshOpContext, regs: Registers) -> None:
        """Run through the context: eagerly, or on the per-launch path."""
        raise NotImplementedError

    def bind(self, ops: MeshOpContext, regs: Registers) -> Optional[Step]:
        """The op's prebound step over a vector, or ``None`` while a
        machine it needs has not been captured."""
        raise NotImplementedError

    def capture(self, ops: MeshOpContext, regs: Registers) -> Step:
        """Run the op and return its prebound step.

        An op whose machines are warm runs as its bound step, which is
        the warm launch; otherwise it runs on the per-launch path, which
        captures the missing programs, and binds after.
        """
        step = self.bind(ops, regs)
        if step is not None:
            step(regs)
            return step
        self.run(ops, regs)
        step = self.bind(ops, regs)
        if step is None:
            raise SimulationError(
                f"{type(self).__name__} ran but left no warm machine to bind"
            )
        return step


class Host(PlanOp):
    """Element-wise glue on the host side: the same function every mode."""

    def __init__(self, fn: Step):
        self.fn = fn

    def run(self, ops: MeshOpContext, regs: Registers) -> None:
        self.fn(regs)

    def bind(self, ops: MeshOpContext, regs: Registers) -> Step:
        return self.fn


class Gemv(PlanOp):
    """``regs[dst] = regs[src] @ matrix``: MeshGEMV for a vector,
    MeshGEMM for a matrix of rows."""

    def __init__(self, dst: str, src: str, matrix: Operand):
        self.dst, self.src, self.matrix = dst, src, matrix

    def run(self, ops: MeshOpContext, regs: Registers) -> None:
        a, matrix = regs[self.src], self.matrix
        if isinstance(matrix, str):
            matrix = regs[matrix]
        regs[self.dst] = (ops.gemv if np.ndim(a) == 1 else ops.gemm)(a, matrix)

    def bind(self, ops: MeshOpContext, regs: Registers) -> Optional[Step]:
        return ops._bound_gemv(self.dst, self.src, self.matrix, regs)


class GemmT(Gemv):
    """``regs[dst] = regs[src] @ regs[keys_t]`` over a transposed view of
    the keys: MeshGEMV for a vector (decode scores), dist-GEMM-T over the
    untransposed keys for a matrix of rows (prefill scores, Figure 3)."""

    def run(self, ops: MeshOpContext, regs: Registers) -> None:
        a, keys_t = regs[self.src], regs[self.matrix]
        regs[self.dst] = (ops.gemv(a, keys_t) if np.ndim(a) == 1
                          else ops.gemm_t(a, keys_t.T))


class RmsNorm(PlanOp):
    """``regs[dst] = rms_norm(regs[src]) * weight``: one line-reduce sum
    per vector, or per row of a matrix."""

    def __init__(self, dst: str, src: str, weight: np.ndarray, eps: float):
        self.dst, self.src, self.weight, self.eps = dst, src, weight, eps

    def run(self, ops: MeshOpContext, regs: Registers) -> None:
        x = regs[self.src]
        norm = ops.rms_norm if np.ndim(x) == 1 else ops.rms_norm_rows
        regs[self.dst] = norm(x, self.weight, self.eps)

    def bind(self, ops: MeshOpContext, regs: Registers) -> Optional[Step]:
        reduce_sum = ops._warm_reducer("add")
        if reduce_sum is None:
            return None
        dst, src, weight, eps = self.dst, self.src, self.weight, self.eps

        def step(regs: Registers) -> None:
            regs[dst] = _rms_norm(regs[src], weight, eps, reduce_sum)

        return step


class Softmax(PlanOp):
    """``regs[dst] = softmax(regs[src])``: a line-reduce max, then a sum,
    per vector, or per row of a matrix."""

    def __init__(self, dst: str, src: str):
        self.dst, self.src = dst, src

    def run(self, ops: MeshOpContext, regs: Registers) -> None:
        scores = regs[self.src]
        softmax = ops.softmax if np.ndim(scores) == 1 else ops.softmax_rows
        regs[self.dst] = softmax(scores)

    def bind(self, ops: MeshOpContext, regs: Registers) -> Optional[Step]:
        reduce_max = ops._warm_reducer("max")
        reduce_sum = ops._warm_reducer("add")
        if reduce_max is None or reduce_sum is None:
            return None
        dst, src = self.dst, self.src

        def step(regs: Registers) -> None:
            regs[dst] = _softmax(regs[src], reduce_max, reduce_sum)

        return step
