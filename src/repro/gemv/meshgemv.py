"""MeshGEMV — the paper's wafer-scale GEMV (Section 6).

A distributed GEMV is dominated by the allreduce of partial results.
MeshGEMV aggregates each mesh column's partials with the **two-way
K-tree allreduce**: K levels of group reductions, each group reduced
from both ends simultaneously toward its root.  The longest aggregation
path shrinks from O(N) adds (pipeline/ring) to ``O(K * N^(1/K))``,
satisfying L, while a root participates in at most K+1 route colours,
satisfying R with room to tune K against the device's routing budget.

The paper fixes K = 2 (deeper trees add routing complexity for shrinking
returns — the ablation bench quantifies this); the optional final
broadcast (step 3.iii) returns the reduced vector to all rows when a
subsequent GEMV consumes it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.allreduce import broadcast_from_root, ktree_reduce
from repro.collectives.plans import ktree_reduce_plan, root_broadcast_plan
from repro.core.compliance import KTREE_GEMV
from repro.gemv.base import (
    GemvKernel,
    GemvShape,
    gather_gemv_result,
    local_partial_gemv,
    scatter_gemv_operands,
)
from repro.mesh.cost_model import Phase, as_float
from repro.mesh.machine import MeshMachine
from repro.mesh.program import capture_kernel, replay_kernel, run_kernel
from repro.mesh.topology import Coord


class MeshGEMV(GemvKernel):
    """GEMV with two-way K-tree allreduce (PLMR-compliant)."""

    name = "meshgemv"
    profile = KTREE_GEMV
    k = 2

    @classmethod
    def bind(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> int:
        """Scatter the vector chunks and matrix tiles; returns the grid."""
        return scatter_gemv_operands(machine, a, b)

    @classmethod
    def body(
        cls, machine: MeshMachine, grid: int, broadcast: bool = False
    ) -> List[Coord]:
        """Local partial + K-tree column reduction; returns the roots.

        With ``broadcast=True`` the reduced chunk is also multicast back
        down each column (allreduce semantics for chained GEMVs).
        """
        local_partial_gemv(machine)
        columns = [machine.topology.column(x) for x in range(grid)]
        roots = ktree_reduce(machine, columns, "gemv.c", k=cls.k,
                             pattern_prefix="meshgemv-ktree")
        if broadcast:
            broadcast_from_root(machine, columns, roots, "gemv.c",
                                pattern="meshgemv-bcast")
        return roots

    @classmethod
    def gather(cls, machine: MeshMachine, roots: List[Coord]) -> np.ndarray:
        """The dense ``a @ b`` row vector, read from the column roots."""
        return gather_gemv_result(machine, roots)

    run = classmethod(run_kernel)
    capture_run = classmethod(capture_kernel)
    replay_run = classmethod(replay_kernel)

    @classmethod
    def plan(
        cls, shape: GemvShape, grid: int, broadcast: bool = False
    ) -> List[Phase]:
        """Analytic phases: local partial + K-tree column reduction.

        ``grid`` may be an int axis (with an axis ``shape``).
        """
        tk, tn = shape.tiles(grid)
        payload_bytes = as_float(tn * shape.dtype_bytes)
        phases: List[Phase] = [cls.compute_phase(shape, grid)]
        phases.extend(
            ktree_reduce_plan(grid, payload_bytes, as_float(tn), k=cls.k)
        )
        if broadcast:
            phases.extend(root_broadcast_plan(grid, payload_bytes))
        return phases


def meshgemv_with_k(k: int) -> type:
    """Build a MeshGEMV variant using a K-level tree (for the K ablation,
    Section 6.2's discussion of why K = 2)."""
    if k < 1:
        raise ValueError(f"K must be at least 1, got {k}")
    return type(f"MeshGEMV_K{k}", (MeshGEMV,), {"k": k, "name": f"meshgemv-k{k}"})
