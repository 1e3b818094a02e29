"""Cannon's algorithm (1969) — the mesh-classic baseline (Figure 6, case 3).

Cannon assumes a **2D torus**: every cyclic shift is a single-hop
neighbour exchange because wraparound links exist.  Wafer-scale meshes
have no wraparound (Section 2.3), so the ring's closing edge must be
routed across the whole row/column: the head core streams to the tail
core over ``n - 1`` hops *every step*.  Memory (optimal ``O(1/N^2)``)
and routing (two neighbours) remain excellent — only the L property
fails, and that is precisely the gap INTERLEAVE closes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.interleave import identity_placement, ring_dilation
from repro.core.compliance import CANNON
from repro.gemm.base import GemmKernel, GemmShape, require_square_grid
from repro.gemm.cyclic import cyclic_gemm_plan, run_cyclic_shift_gemm
from repro.mesh.cost_model import Phase
from repro.mesh.machine import MeshMachine


class CannonGEMM(GemmKernel):
    """Identity-placed cyclic-shift GEMM (torus algorithm on a mesh)."""

    name = "cannon"
    profile = CANNON

    @classmethod
    def run(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Functional execution; returns the dense ``a @ b``."""
        grid = require_square_grid(machine)
        placement = identity_placement(grid)
        return run_cyclic_shift_gemm(machine, a, b, placement, name_prefix=cls.name)

    @classmethod
    def plan(cls, shape: GemmShape, grid: int) -> List[Phase]:
        """Analytic phases: the wraparound edge costs ``grid - 1`` hops/step."""
        dilation = ring_dilation(identity_placement(grid))
        return cyclic_gemm_plan(shape, grid, dilation, label=cls.name)
