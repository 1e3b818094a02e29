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


def require_square_grid(machine: MeshMachine) -> int:
    """GEMV kernels here use a square core grid; return its side."""
    if machine.topology.width != machine.topology.height:
        raise ShapeError(
            f"square core grid required, got "
            f"{machine.topology.width}x{machine.topology.height}"
        )
    return machine.topology.width


def scatter_gemv_operands(
    machine: MeshMachine, a: np.ndarray, b: np.ndarray
) -> int:
    """Distribute ``a`` (replicated along X) and ``B`` (tiled); return grid.

    Core ``(x, y)`` receives vector chunk ``y`` and matrix tile
    ``B(y, x)`` under names ``"gemv.a"`` / ``"gemv.B"``.  The chunk of
    row ``y`` is one view object shared by the whole row.
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
    machine.scatter_matrix("gemv.B", b, grid, grid)
    tk = a.shape[0] // grid
    items = []
    for y in range(grid):
        chunk = a[y * tk:(y + 1) * tk]
        items.extend(((x, y), chunk) for x in range(grid))
    machine.place_many("gemv.a", items)
    return grid


class GemvSlots:
    """Prebound ``gemv.a`` / ``gemv.B`` tile slots of a warm GEMV machine.

    Built from template operands of one padded signature.  The writers
    place exactly the views :func:`scatter_gemv_operands` places — same
    slices, same strides, one chunk object per row — straight into each
    core's tile slot, skipping per-call validation and placement
    dispatch.  Valid only on a machine whose cores already hold the
    scattered tiles of that signature (the state right after a launch of
    it): every write is then a same-size replacement, which leaves
    residency and capacity untouched, as ``Core.store`` would.  Both
    names are host-placed, so never exclusively owned, and no GEMV body
    writes them: the writers need not touch exclusivity.
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
        self.rows = []
        self.tiles = []
        for y in range(grid):
            row = []
            for x in range(grid):
                core = machine.cores[(x, y)]
                row.append(core._tiles)
                self.tiles.append(
                    (y * tk, (y + 1) * tk, x * tn, (x + 1) * tn, core._tiles)
                )
            self.rows.append((y * tk, (y + 1) * tk, row))

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
        """Place row ``y``'s chunk of ``vec`` on every core of row ``y``."""
        for lo, hi, row in self.rows:
            chunk = vec[lo:hi]
            for tiles in row:
                tiles["gemv.a"] = chunk

    def matrix_tiles(self, mat: np.ndarray) -> List[np.ndarray]:
        """Every core's ``gemv.B`` view of ``mat``, in slot order."""
        return [mat[r0:r1, c0:c1] for r0, r1, c0, c1, _tiles in self.tiles]

    def write_tiles(self, views: List[np.ndarray]) -> None:
        """Place views from :meth:`matrix_tiles` in their slots."""
        for (_r0, _r1, _c0, _c1, tiles), view in zip(self.tiles, views):
            tiles["gemv.B"] = view

    def write_matrix(self, mat: np.ndarray) -> None:
        """Place every core's tile of ``mat``."""
        for r0, r1, c0, c1, tiles in self.tiles:
            tiles["gemv.B"] = mat[r0:r1, c0:c1]


def local_partial_gemv(machine: MeshMachine, out_name: str = "gemv.c") -> None:
    """Every core computes its partial ``a_sub @ B_sub`` into ``out_name``.

    The products run per core through :meth:`MeshMachine.matvec`, the
    one compute path: a batched matmul over stacked tiles is *not*
    bit-exact on strided tiles such as decode's KV-cache views
    (DESIGN.md §10.3).
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
