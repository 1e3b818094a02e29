"""Shared machinery for distributed GEMM kernels.

All GEMM kernels here operate on a square ``n x n`` core grid with the
operand matrices partitioned into ``n x n`` tiles.  A *placement*
permutation maps logical grid positions to physical mesh coordinates —
the identity for Cannon and SUMMA, the INTERLEAVE folding for MeshGEMM —
and these helpers scatter/gather matrices through that permutation so
kernels only ever reason about logical tiles.

The logical tile ``(i, j)`` (block-row ``i``, block-column ``j``) lives at
physical core ``(placement_x[j], placement_y[i])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plmr import PLMRDevice
from repro.errors import ShapeError
from repro.mesh.cost_model import KernelCost, is_axis, ceil_div
from repro.mesh.machine import MeshMachine


@dataclass(frozen=True)
class GemmShape:
    """Problem shape for ``C[m, n] = A[m, k] @ B[k, n]``.

    A dim may be an int array (an axis of shapes for the analytic plans);
    the axis entry point validated it, so it is not re-checked here.
    """

    m: int
    k: int
    n: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if is_axis(self.m, self.k, self.n):
            return
        if min(self.m, self.k, self.n) < 1:
            raise ShapeError(f"GEMM dims must be positive: {self}")
        if self.dtype_bytes < 1:
            raise ShapeError("dtype_bytes must be at least 1")

    @property
    def total_macs(self) -> float:
        """MACs of the dense product."""
        return float(self.m) * self.k * self.n

    def tiles(self, grid: int) -> Tuple[int, int, int]:
        """Per-core tile dims ``(tm, tk, tn)`` on a ``grid x grid`` mesh.

        Dimensions are padded up to the next multiple of ``grid``; cost
        models always charge for the padded tiles, exactly as a real
        launcher would zero-pad the operands.
        """
        return (
            ceil_div(self.m, grid), ceil_div(self.k, grid),
            ceil_div(self.n, grid),
        )

    def tile_bytes(self, grid: int) -> Tuple[int, int, int]:
        """Bytes of the A, B and C tiles on a ``grid x grid`` mesh."""
        tm, tk, tn = self.tiles(grid)
        return (
            tm * tk * self.dtype_bytes,
            tk * tn * self.dtype_bytes,
            tm * tn * self.dtype_bytes,
        )

    def macs_per_core(self, grid: int) -> float:
        """MACs one core performs over the whole kernel (all variants
        perform the same arithmetic, only communication differs)."""
        tm, tk, tn = self.tiles(grid)
        return float(tm) * tk * tn * grid

    @staticmethod
    def square(dim: int, dtype_bytes: int = 2) -> "GemmShape":
        """Square problem ``dim x dim x dim`` (the paper's benchmark unit)."""
        return GemmShape(m=dim, k=dim, n=dim, dtype_bytes=dtype_bytes)


def require_square_grid(machine: MeshMachine) -> int:
    """GEMM and GEMV kernels need a square core grid; return its side."""
    if machine.topology.width != machine.topology.height:
        raise ShapeError(
            f"square core grid required, got "
            f"{machine.topology.width}x{machine.topology.height}"
        )
    return machine.topology.width


def check_partitionable(a: np.ndarray, b: np.ndarray, grid: int) -> None:
    """Validate operand shapes divide into a ``grid x grid`` tiling."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("GEMM operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
    for dim in (a.shape[0], a.shape[1], b.shape[1]):
        if dim % grid:
            raise ShapeError(
                f"dimension {dim} not divisible by grid {grid}; pad operands"
            )


def scatter_with_placement(
    machine: MeshMachine,
    name: str,
    matrix: np.ndarray,
    placement_x: Sequence[int],
    placement_y: Sequence[int],
) -> Tuple[int, int]:
    """Scatter ``matrix`` so logical tile (i, j) lands on its physical core."""
    grid = len(placement_x)
    rows, cols = matrix.shape
    tr, tc = rows // grid, cols // grid
    for i in range(grid):
        for j in range(grid):
            tile = matrix[i * tr:(i + 1) * tr, j * tc:(j + 1) * tc]
            machine.place(name, (placement_x[j], placement_y[i]), tile)
    return tr, tc


def gather_with_placement(
    machine: MeshMachine,
    name: str,
    placement_x: Sequence[int],
    placement_y: Sequence[int],
) -> np.ndarray:
    """Reassemble a matrix whose logical tile (i, j) sits at its physical core."""
    grid = len(placement_x)
    rows = []
    for i in range(grid):
        tiles = [
            machine.core((placement_x[j], placement_y[i])).load(name)
            for j in range(grid)
        ]
        rows.append(np.concatenate(tiles, axis=1))
    return np.concatenate(rows, axis=0)


def best_grid(device: PLMRDevice, shape: GemmShape) -> int:
    """Largest square grid the device fabric allows for this problem.

    The grid cannot exceed the fabric's shorter side nor any matrix
    dimension (a tile must hold at least one element).
    """
    side = min(device.mesh_width, device.mesh_height)
    return max(1, min(side, shape.m, shape.k, shape.n))


class GemmKernel:
    """Base class for distributed GEMM kernels.

    Subclasses provide:

    * ``name`` — kernel identifier;
    * ``profile`` — the symbolic PLMR scaling profile (Figure 6);
    * ``run(machine, a, b)`` — functional execution on a mesh machine,
      returning the dense result;
    * ``plan(shape, grid)`` — the analytic phase list mirroring ``run``.

    ``estimate`` is shared: evaluate the plan on a device.
    """

    name: str = "gemm"
    profile = None  # type: ignore[assignment]

    @classmethod
    def plan(cls, shape: GemmShape, grid: int) -> List:
        raise NotImplementedError

    @classmethod
    def run(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def estimate(
        cls,
        device: PLMRDevice,
        shape: GemmShape,
        grid: Optional[int] = None,
    ) -> KernelCost:
        """Cycle/energy estimate of this kernel for ``shape`` on ``device``."""
        from repro.mesh.cost_model import estimate as _estimate

        if grid is None:
            grid = best_grid(device, shape)
        if grid > min(device.mesh_width, device.mesh_height):
            raise ShapeError(
                f"grid {grid} exceeds device fabric "
                f"{device.mesh_width}x{device.mesh_height}"
            )
        return _estimate(f"{cls.name}[{grid}x{grid}]", device, cls.plan(shape, grid))
