"""SUMMA — Cerebras' default distributed GEMM (Figure 6, case 2).

SUMMA (van de Geijn & Watts, 1997) runs ``n`` outer-product steps: at
step ``k`` the cores in block-column ``k`` broadcast their A tiles along
their rows, the cores in block-row ``k`` broadcast their B tiles along
their columns, and every core accumulates ``A(i,k) @ B(k,j)``.

On a PLMR device this fails twice.  Each step's broadcast reaches the far
edge of the row/column — an ``n - 1`` hop critical path (L) — and every
core is a broadcast *root* in one step and a *leaf* in the others, so the
routers need a colour per step: O(N) paths per core (R).  Memory is
better than allgather but still double the local tiles (the received
pivot tiles), which the profile records as a working-set factor of 2.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.primitives import column_broadcast, row_broadcast
from repro.core.compliance import SUMMA
from repro.gemm.base import (
    GemmKernel,
    GemmShape,
    check_partitionable,
    require_square_grid,
)
from repro.mesh.cost_model import CommPhase, ComputePhase, LoopPhase, Phase
from repro.mesh.core_sim import Core
from repro.mesh.machine import MeshMachine


class SummaGEMM(GemmKernel):
    """Broadcast-based distributed GEMM."""

    name = "summa"
    profile = SUMMA

    @classmethod
    def run(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Functional execution; returns the dense ``a @ b``."""
        grid = require_square_grid(machine)
        check_partitionable(a, b, grid)
        a_name, b_name, c_name = "summa.A", "summa.B", "summa.C"
        a_piv, b_piv = "summa.Apiv", "summa.Bpiv"
        machine.scatter_matrix(a_name, a, grid, grid)
        machine.scatter_matrix(b_name, b, grid, grid)
        # The MACs add into a resident C: drop one an earlier run left.
        machine.free(c_name)

        def accumulate(core: Core) -> float:
            a_tile = core.load(a_piv)
            b_tile = core.load(b_piv)
            partial = a_tile @ b_tile
            c_tile = core.load_optional(c_name)
            if c_tile is None:
                core.store(c_name, partial)
            else:
                core.store(c_name, c_tile + partial)
            macs = float(a_tile.shape[0] * a_tile.shape[1] * b_tile.shape[1])
            core.free(a_piv)
            core.free(b_piv)
            return macs

        for k in range(grid):
            # Pivot column k of A broadcasts east/west; pivot row k of B
            # broadcasts north/south.  Each step is a fresh route colour —
            # the O(N) paths-per-core cost the trace will show.  The
            # broadcasts of step k+1 overlap the MACs of step k.
            with machine.phase("summa-broadcast-mac", overlap=True):
                row_broadcast(machine, f"summa-bcast-A{k}", a_name, a_piv, root_x=k)
                column_broadcast(
                    machine, f"summa-bcast-B{k}", b_name, b_piv, root_y=k
                )
                machine.compute_all("summa-mac", accumulate)

        return machine.gather_matrix(c_name, grid, grid)

    #: Router-reconfiguration cycles per step per mesh-unit: every SUMMA
    #: step programs a *fresh* broadcast colour rooted at a new pivot
    #: (the O(N)-paths R violation), and the route must be set up across
    #: the row/column before the stream can start.  Cyclic-shift kernels
    #: reuse two static routes and never pay this.
    ROUTE_SETUP_CYCLES_PER_HOP = 0.4

    @classmethod
    def plan(cls, shape: GemmShape, grid: int) -> List[Phase]:
        """Analytic phases: ``grid`` steps of far-edge broadcasts + MACs."""
        tm, tk, tn = shape.tiles(grid)
        a_bytes, b_bytes, _ = shape.tile_bytes(grid)
        return [
            LoopPhase(
                label="summa-broadcast-mac",
                steps=grid,
                compute=ComputePhase(
                    label="summa-mac", macs_per_core=float(tm * tk * tn)
                ),
                comm=CommPhase(
                    label="summa-bcast",
                    hop_distance=float(max(grid - 1, 0)),
                    payload_bytes=float(max(a_bytes, b_bytes)),
                    overhead_cycles=20.0
                    + cls.ROUTE_SETUP_CYCLES_PER_HOP * grid,
                ),
                overlap=True,
            )
        ]
