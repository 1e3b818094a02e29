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
and accumulates the traces of every kernel launched, so tests can assert
PLMR-compliance properties of a whole model forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.allreduce import ktree_reduce
from repro.core.plmr import PLMRDevice
from repro.core.device_presets import TINY_MESH
from repro.errors import ShapeError
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.base import gemv_binder
from repro.gemv.meshgemv import MeshGEMV
from repro.mesh.machine import MeshMachine
from repro.mesh.topology import Coord
from repro.mesh.trace import Trace


def _pad_to(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero-pad a 2-D array up to ``rows x cols``."""
    if x.shape == (rows, cols):
        return x
    out = np.zeros((rows, cols), dtype=x.dtype)
    out[: x.shape[0], : x.shape[1]] = x
    return out


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


#: Line-reduction op -> (the ufunc reduction ``np.sum`` / ``np.max`` run,
#: the value an empty chunk contributes).
_LINE_REDUCE = {
    "add": (np.add.reduce, 0.0),
    "max": (np.maximum.reduce, -np.inf),
}


def _kernel_entry(kernel, machine: MeshMachine, program, bind) -> dict:
    """Warm-machine entry of a kernel launch: its result is gathered
    from where the captured body left it."""
    return {
        "label": kernel.name,
        "machine": machine,
        "program": program,
        "bind": bind,
        "read": partial(kernel.gather, machine, program.meta["layout"]),
    }


def _fresh_binder(kernel, machine: MeshMachine):
    """Warm GEMM / GEMM-T binding: a fresh machine's (empty) tiles, then
    the kernel's scatter.  MeshGEMM's MAC step accumulates into a
    resident ``gemm.C``, so the previous launch's tiles must go."""

    def bind(*operands: np.ndarray) -> None:
        machine.clear_tiles()
        with machine.quiet_memory():
            kernel.bind(machine, *operands)

    return bind


def _line_binder(machine: MeshMachine, line: List[Coord]):
    """Warm line-reduction binding: every line core already holds a
    one-value ``red.v``, so each new local replaces it in place
    (``Core.store``'s same-size branch, non-exclusive)."""
    slots = [
        (machine.cores[c]._tiles, machine.cores[c]._exclusive) for c in line
    ]

    def bind(tiles: List[np.ndarray]) -> None:
        for (slot, excl), tile in zip(slots, tiles):
            slot["red.v"] = tile
            excl.discard("red.v")

    return bind


@dataclass
class MeshOpContext:
    """Configuration + trace accumulation for mesh-executed ops.

    Compiled by default: every distinct ``(op, padded operand shapes,
    dtypes)`` signature is captured once as a
    :class:`~repro.mesh.program.MeshProgram`, and every later launch
    replays it — same trace records, same numerics, none of the
    route-walk/registration/closure overhead.  Launches run on warm
    machines:

    * **one warm machine per padded operand shape.**  A GEMM or GEMM-T
      launch clears its tiles (MeshGEMM accumulates into a resident
      ``gemm.C``) and scatters its operands quietly; a GEMV launch
      rebinds ``gemv.a`` and ``gemv.B`` in place through prebound
      per-core slots (see :func:`~repro.gemv.base.gemv_binder`).  Every
      GEMV takes this path, weight and KV-cache products alike, and
      every launch binds its operands from the arrays it is given;
    * **one machine per K-tree line reduction** (``reduce_sum`` /
      ``reduce_max``), whose per-core locals are rebound in place too.

    Every warm launch is the same four steps (:meth:`_rebind_replay`):
    a fresh trace, the entry's ``bind``, the program's replay, whose
    tape was compiled once, and the entry's ``read``.  The machine
    count is bounded by the distinct padded shapes plus two,
    independent of how many tokens are decoded.

    ``compiled=False`` runs every launch eagerly on a fresh machine: the
    capture pass and the differential oracle the compiled path is tested
    against; the default compiled mode is bit-exact with it.
    ``vectorize=True`` additionally runs uniform-tile compute phases as
    one batched matmul over the stacked tiles.  It stays off by default
    because it is slower end to end, and it is *not* bit-exact on
    decode: the batched product sums the strided ``(tk, 1)`` tiles of a
    value GEMV ``p @ V[:, h, :]`` in a different order than the per-core
    products, so its logits drift from the oracle (DESIGN.md §10.3).
    """

    device: PLMRDevice = field(default_factory=lambda: TINY_MESH)
    grid: int = 4
    enforce_memory: bool = False
    compiled: bool = True
    vectorize: bool = False
    traces: List[Tuple[str, Trace]] = field(default_factory=list)
    #: Warm machines, each with the program it replays, its ``bind`` and
    #: ``read`` hooks and the ``label`` its traces are recorded under:
    #: keyed by kernel name and operand signature (shape machines) or
    #: ``("line-reduce", op)``.
    _resident: Dict[tuple, dict] = field(default_factory=dict, repr=False)
    _submesh: Optional[PLMRDevice] = field(default=None, repr=False)
    #: Line-reduction chunk bounds per vector length.
    _splits: Dict[int, Tuple[Tuple[int, int], ...]] = field(
        default_factory=dict, init=False, repr=False
    )

    def _machine(self) -> MeshMachine:
        if self._submesh is None:
            self._submesh = self.device.submesh(self.grid, self.grid)
        return MeshMachine(
            self._submesh,
            enforce_memory=self.enforce_memory,
            vectorize=self.vectorize,
        )

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
            machine = self._machine()
            out = kernel.run(machine, *operands)
            self._record(kernel.name, machine)
            return out
        key = self._shape_key(kernel, *operands)
        entry = self._resident.get(key)
        if entry is not None:
            return self._rebind_replay(key, entry, *operands)
        machine = self._machine()
        out, program = kernel.capture_run(machine, *operands)
        if kernel is MeshGEMV:
            bind = gemv_binder(machine, *operands)
        else:
            bind = _fresh_binder(kernel, machine)
        self._resident[key] = _kernel_entry(kernel, machine, program, bind)
        self._record(kernel.name, machine)
        return out

    def _rebind_replay(self, key: tuple, entry: dict, *operands):
        """The warm launch: fresh trace, ``bind``, replay, ``read``.

        ``bind`` puts the operands where the captured body expects them
        on the entry's machine, usually by overwriting the previous
        launch's tiles in place, so residency never exceeds a fresh
        machine's peak.  A launch that fails part-way evicts its machine
        rather than leave a half-run state for reuse.
        """
        machine = entry["machine"]
        machine.reset_trace()
        try:
            entry["bind"](*operands)
            entry["program"].replay(machine)
            out = entry["read"]()
        except BaseException:
            del self._resident[key]
            raise
        self._record(entry["label"], machine)
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
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
        g = self.grid
        pa = _pad_to(a, _round_up(a.shape[0], g), _round_up(a.shape[1], g))
        pb = _pad_to(b, _round_up(b.shape[0], g), _round_up(b.shape[1], g))
        out = self._launch(MeshGEMM, pa, pb)
        return out[: a.shape[0], : b.shape[1]]

    def gemm_t(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b.T`` through functional dist-GEMM-T (B untransposed)."""
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"K dims differ: {a.shape} vs {b.shape}")
        g = self.grid
        pa = _pad_to(a, _round_up(a.shape[0], g), _round_up(a.shape[1], g))
        pb = _pad_to(b, _round_up(b.shape[0], g), _round_up(b.shape[1], g))
        out = self._launch(MeshGEMMTransposed, pa, pb)
        return out[: a.shape[0], : b.shape[0]]

    def gemv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` (vector times matrix) through functional MeshGEMV."""
        vec = np.asarray(a)
        if vec.ndim != 1:
            raise ShapeError(f"gemv expects a vector, got shape {vec.shape}")
        if vec.shape[0] != b.shape[0]:
            raise ShapeError(f"inner dims differ: {vec.shape} @ {b.shape}")
        g = self.grid
        padded = _round_up(vec.shape[0], g)
        if padded == vec.shape[0]:
            pv = vec  # already aligned: scatter places read-only views
        else:
            pv = np.zeros(padded, dtype=vec.dtype)
            pv[: vec.shape[0]] = vec
        pb = _pad_to(b, pv.shape[0], _round_up(b.shape[1], g))
        return self._launch(MeshGEMV, pv, pb)[: b.shape[1]]

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

    def _reduce_locals(self, values: np.ndarray, op: str) -> List[np.ndarray]:
        """Each core's one-value ``red.v`` tile: its chunk's sum or max.

        ``np.add.reduce`` / ``np.maximum.reduce`` are the ufunc
        reductions ``np.sum`` / ``np.max`` run, so every local is
        bit-identical to theirs; an empty chunk contributes the op's
        identity (``0.0`` or ``-inf``).
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ShapeError(f"line reduction expects a vector, got {vals.shape}")
        reduce, identity = _LINE_REDUCE[op]
        return [
            np.array([reduce(vals[lo:hi]) if hi > lo else identity])
            for lo, hi in self._split_bounds(vals.shape[0])
        ]

    def _line_reduce(self, values: np.ndarray, op: str) -> float:
        """Reduce a vector to a scalar with the two-way K-tree on one row."""
        tiles = self._reduce_locals(values, op)
        # The reduction skeleton only depends on the line length and op
        # (per-core payloads are always one float64), so one resident
        # machine + program serves every call regardless of value count.
        key = ("line-reduce", op)
        entry = self._resident.get(key) if self.compiled else None
        if entry is not None:
            return float(self._rebind_replay(key, entry, tiles))
        label = f"ktree-{op}"
        machine = self._machine()
        line = machine.topology.row(0)
        machine.place_many("red.v", list(zip(line, tiles)))
        if self.compiled:
            with machine.capture() as program:
                roots = ktree_reduce(machine, [line], "red.v", k=2, op=op)
            root = machine.cores[roots[0]]._tiles
            self._resident[key] = {
                "label": label,
                "machine": machine,
                "program": program,
                "bind": _line_binder(machine, line),
                "read": lambda: root["red.v"][0],
            }
        else:
            roots = ktree_reduce(machine, [line], "red.v", k=2, op=op)
        self._record(label, machine)
        return float(machine.core(roots[0]).load("red.v")[0])

    def reduce_sum(self, values: np.ndarray) -> float:
        """Sum of a distributed vector via K-tree allreduce."""
        return self._line_reduce(values, "add")

    def reduce_max(self, values: np.ndarray) -> float:
        """Max of a distributed vector via K-tree allreduce."""
        return self._line_reduce(values, "max")

    def rms_norm(self, x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
        """RMSNorm of a vector: local squares, K-tree sum, local scale."""
        x = np.asarray(x)
        total = self.reduce_sum(np.square(x))
        rms = np.sqrt(total / x.shape[-1] + eps)
        return x / rms * weight

    def softmax(self, scores: np.ndarray) -> np.ndarray:
        """Softmax of a vector: K-tree max, local exp, K-tree sum, scale.

        ``-inf`` entries (causal masking) are handled exactly as a wafer
        kernel would: they contribute zero after the exponent.
        """
        scores = np.asarray(scores, dtype=np.float64)
        finite = scores[np.isfinite(scores)]
        if finite.size == 0:
            raise ShapeError("softmax over fully masked scores")
        peak = self.reduce_max(finite)
        exps = np.exp(np.where(np.isfinite(scores), scores - peak, -np.inf))
        exps = np.where(np.isfinite(scores), exps, 0.0)
        total = self.reduce_sum(exps)
        return exps / total

    def rms_norm_rows(
        self, x: np.ndarray, weight: np.ndarray, eps: float
    ) -> np.ndarray:
        """Row-wise RMSNorm of a matrix (prefill activations)."""
        return np.stack([self.rms_norm(row, weight, eps) for row in x])

    def softmax_rows(self, scores: np.ndarray) -> np.ndarray:
        """Row-wise softmax of a score matrix (prefill attention)."""
        return np.stack([self.softmax(row) for row in scores])

    # ------------------------------------------------------------------
    def total_kernels(self) -> int:
        """Number of mesh kernels launched through this context."""
        return len(self.traces)

    def max_paths_per_core(self) -> int:
        """Worst route-colour count over all launched kernels."""
        if not self.traces:
            return 0
        return max(trace.max_paths_per_core for _label, trace in self.traces)
