"""Shared machinery for distributed GEMV kernels.

All GEMV kernels compute ``c[1, n] = a[1, k] @ B[k, n]`` (the paper's
``[1, 16K] x [16K, 16K]`` benchmark unit and the decode-phase workhorse).

Distribution (Section 6.2, step 1): B is tiled ``grid x grid``; the
vector ``a`` is partitioned along K into ``grid`` chunks distributed down
the Y axis and **replicated** along the X axis — the fine-grained
replication idea of decode parallelism, which buys full-mesh parallelism
without any pre-GEMV scatter.  Every core computes its local partial
``a_sub @ B_sub``; the kernels differ only in how partials are reduced
along each column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.plmr import PLMRDevice
from repro.errors import ShapeError
from repro.gemm.base import require_square_grid
from repro.mesh.cost_model import (
    ComputePhase,
    KernelCost,
    Phase,
    is_axis,
    as_float,
    ceil_div,
)
from repro.mesh.cost_model import estimate as estimate_phases
from repro.mesh.machine import MeshMachine


@dataclass(frozen=True)
class GemvShape:
    """Problem shape for ``c[1, n] = a[1, k] @ B[k, n]``.

    A dim may be an int array (an axis of shapes for the analytic plans);
    the axis entry point validated it, so it is not re-checked here.
    """

    k: int
    n: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if is_axis(self.k, self.n):
            return
        if self.k < 1 or self.n < 1:
            raise ShapeError(f"GEMV dims must be positive: {self}")
        if self.dtype_bytes < 1:
            raise ShapeError("dtype_bytes must be at least 1")

    @property
    def total_macs(self) -> float:
        """MACs of the dense product."""
        return float(self.k) * self.n

    def tiles(self, grid: int) -> Tuple[int, int]:
        """Per-core tile dims ``(tk, tn)``, padded up to the grid."""
        return ceil_div(self.k, grid), ceil_div(self.n, grid)

    @staticmethod
    def square(dim: int, dtype_bytes: int = 2) -> "GemvShape":
        """Square matrix ``[1, dim] x [dim, dim]``."""
        return GemvShape(k=dim, n=dim, dtype_bytes=dtype_bytes)


def scatter_gemv_operands(
    machine: MeshMachine, a: np.ndarray, b: np.ndarray
) -> int:
    """Distribute ``a`` (replicated along X) and ``B`` (tiled); return grid.

    Core ``(x, y)`` receives vector chunk ``y`` and matrix tile
    ``B(y, x)`` under names ``"gemv.a"`` / ``"gemv.B"``, each a
    C-contiguous row of the machine's ``(cores, tk)`` / ``(cores, tk,
    tn)`` slab (:meth:`MeshMachine.slab`), cores in ``topology.coords()``
    order.  The operands are copied in, so no tile is a strided view of
    the caller's arrays.
    """
    grid = require_square_grid(machine)
    a = np.asarray(a)
    if a.ndim == 2:
        if a.shape[0] != 1:
            raise ShapeError(f"a must be a row vector, got {a.shape}")
        a = a[0]
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
    if a.shape[0] % grid or b.shape[1] % grid:
        raise ShapeError(f"dims must divide the grid {grid}; pad operands")
    slots = GemvSlots(machine, a, b)
    slots.write_vector(a)
    slots.write_matrix(b)
    machine.place_slab("gemv.B")
    machine.place_slab("gemv.a")
    return grid


class GemvSlots:
    """The ``gemv.a`` / ``gemv.B`` slabs of a GEMV machine, as writers.

    Built from template operands of one padded signature, on the
    machine's slabs for them (allocated if the machine has none of that
    shape).  A bind writes both operands into the slabs: the vector as
    one broadcast assignment (chunk ``y`` on every core of row ``y``),
    the matrix as one strided copy (tile ``B(y, x)`` on core ``(x,
    y)``).  It never places a tile, so on a machine whose cores already
    hold the slab views (every machine after :func:`scatter_gemv_operands`
    of that signature) residency, capacity and exclusivity stay as they
    are, and a compiled partial that finds a core holding anything else
    refuses to run.  Each bind copies from the arrays it is given, so a
    weight changed in place is never served stale.
    """

    def __init__(self, machine: MeshMachine, a: np.ndarray, b: np.ndarray):
        grid = require_square_grid(machine)
        if a.ndim != 1 or a.shape[0] % grid:
            raise ShapeError(f"cannot bind a GEMV vector of shape {a.shape}")
        if b.ndim != 2 or b.shape[0] != a.shape[0] or b.shape[1] % grid:
            raise ShapeError(f"cannot bind a GEMV matrix of shape {b.shape}")
        self.a_sig = (a.shape, a.dtype)
        self.b_sig = (b.shape, b.dtype)
        tk = a.shape[0] // grid
        tn = b.shape[1] // grid
        self._split_a = (grid, 1, tk)
        self._split_b = (grid, tk, grid, tn)
        # Slab rows are cores in row-major (x, y) order: row y, column x.
        self._a = machine.slab("gemv.a", (tk,), a.dtype).reshape(grid, grid, tk)
        self._b = machine.slab("gemv.B", (tk, tn), b.dtype).reshape(
            grid, grid, tk, tn
        )

    def bind(self, vec: np.ndarray, mat: np.ndarray) -> None:
        """Check both operands against the templates, then write them."""
        if (vec.shape, vec.dtype) != self.a_sig:
            raise ShapeError(
                f"warm GEMV bound for a {self.a_sig[0]} {self.a_sig[1]} "
                f"vector, got {vec.shape} {vec.dtype}"
            )
        if (mat.shape, mat.dtype) != self.b_sig:
            raise ShapeError(
                f"warm GEMV bound for a {self.b_sig[0]} {self.b_sig[1]} "
                f"matrix, got {mat.shape} {mat.dtype}"
            )
        self.write_vector(vec)
        self.write_matrix(mat)

    def write_vector(self, vec: np.ndarray) -> None:
        """Write row ``y``'s chunk of ``vec`` on every core of row ``y``."""
        np.copyto(self._a, vec.reshape(self._split_a))

    def write_matrix(self, mat: np.ndarray) -> None:
        """Write every core's tile of ``mat``."""
        np.copyto(self._b, mat.reshape(self._split_b).transpose(0, 2, 1, 3))


def local_partial_gemv(machine: MeshMachine, out_name: str = "gemv.c") -> None:
    """Every core computes its partial ``a_sub @ B_sub`` into ``out_name``.

    Eagerly the products run per core through :meth:`MeshMachine.matvec`;
    its compiled replay is one ``np.matmul`` over the ``gemv.a`` /
    ``gemv.B`` slabs, as every wafer core computes its partial at once.
    The two agree bit for bit because the tiles are contiguous slab rows
    (DESIGN.md §10.3); items run in ``topology.coords()`` order, the
    slabs' row order.
    """
    with machine.phase("gemv-partial"):
        machine.matvec(
            "gemv-partial",
            [(coord, "gemv.a", "gemv.B", out_name)
             for coord in machine.topology.coords()],
        )


def gather_gemv_result(
    machine: MeshMachine, roots: List, name: str = "gemv.c"
) -> np.ndarray:
    """Concatenate per-column results from the reduction root cores.

    ``roots[x]`` must be the root coordinate of column ``x``.
    """
    grid = machine.topology.width
    if len(roots) != grid:
        raise ShapeError(f"expected {grid} roots, got {len(roots)}")
    parts = [machine.core(roots[x]).load(name) for x in range(grid)]
    return np.concatenate(parts, axis=-1)


def gemv_reader(
    machine: MeshMachine, roots: List, name: str = "gemv.c"
) -> Callable[[], np.ndarray]:
    """Prebound :func:`gather_gemv_result` for a warm GEMV machine.

    Returns ``read()``, which concatenates the column results straight
    from the root cores' tile dicts, resolved once here.  Valid after
    every launch that ran the captured body: the roots always hold
    ``name`` then.
    """
    grid = machine.topology.width
    if len(roots) != grid:
        raise ShapeError(f"expected {grid} roots, got {len(roots)}")
    tiles = [machine.cores[root]._tiles for root in roots]

    def read() -> np.ndarray:
        return np.concatenate([t[name] for t in tiles], axis=-1)

    return read


class GemvKernel:
    """Base class for distributed GEMV kernels.

    Subclasses provide ``name``, ``profile`` (Figure 8), ``run`` and
    ``plan``; ``estimate`` and ``compute_phase`` are shared.
    """

    name: str = "gemv"
    profile = None  # type: ignore[assignment]

    @classmethod
    def plan(cls, shape: GemvShape, grid: int) -> List[Phase]:
        raise NotImplementedError

    @classmethod
    def run(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def compute_phase(cls, shape: GemvShape, grid: int) -> ComputePhase:
        """The local-partial phase, identical for every variant."""
        tk, tn = shape.tiles(grid)
        return ComputePhase(
            label=f"{cls.name}-partial", macs_per_core=as_float(tk * tn)
        )

    @classmethod
    def default_grid(cls, device: PLMRDevice, shape: GemvShape) -> int:
        """Largest usable square grid for this problem on this device."""
        side = min(device.mesh_width, device.mesh_height)
        return max(1, min(side, shape.k, shape.n))

    @classmethod
    def estimate(
        cls,
        device: PLMRDevice,
        shape: Optional[GemvShape] = None,
        grid: Optional[int] = None,
        rows: Optional[int] = None,
        cols: Optional[int] = None,
        dtype_bytes: int = 2,
    ) -> KernelCost:
        """Cycle/energy estimate; accepts a shape or ``rows``/``cols``."""
        if shape is None:
            if rows is None or cols is None:
                raise ShapeError("provide either shape or rows+cols")
            shape = GemvShape(k=rows, n=cols, dtype_bytes=dtype_bytes)
        if grid is None:
            grid = cls.default_grid(device, shape)
        if grid < 1:
            raise ShapeError(f"grid must be >= 1, got {grid}")
        if grid > min(device.mesh_width, device.mesh_height):
            raise ShapeError(
                f"grid {grid} exceeds device fabric "
                f"{device.mesh_width}x{device.mesh_height}"
            )
        return estimate_phases(
            f"{cls.name}[{grid}x{grid}]", device, cls.plan(shape, grid)
        )
