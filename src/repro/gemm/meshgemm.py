"""MeshGEMM — the paper's wafer-scale GEMM (Section 5).

MeshGEMM = Cannon's cyclic-shift structure + the INTERLEAVE placement.
Cyclic shifting gives O(1) routing paths per core (R) and the optimal
``O(1/N^2)`` per-core memory (M); INTERLEAVE folds the logical ring onto
the physical line so every shift is at most **two hops**, bounding the
per-step critical path at O(1) and satisfying L — the property every
other distributed GEMM violates (Figure 6).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from repro.collectives.interleave import interleave_placement, ring_dilation
from repro.core.compliance import MESHGEMM
from repro.gemm.base import GemmKernel, GemmShape, require_square_grid
from repro.gemm.cyclic import (
    bind_cyclic_operands,
    cyclic_gemm_body,
    cyclic_gemm_plan,
    gather_cyclic_result,
)
from repro.mesh.cost_model import Phase, per_value
from repro.mesh.machine import MeshMachine
from repro.mesh.program import capture_kernel, replay_kernel, run_kernel


@lru_cache(maxsize=None)
def _interleave_dilation(grid: int) -> int:
    """Ring dilation of the INTERLEAVE placement on ``grid`` cores.

    A pure function of ``grid`` (2 for every ring longer than two), yet
    building the placement and scanning it is O(grid) Python work that
    every analytic plan used to repeat.
    """
    return ring_dilation(interleave_placement(grid))


class MeshGEMM(GemmKernel):
    """Interleaved cyclic-shift GEMM (PLMR-compliant)."""

    name = "meshgemm"
    profile = MESHGEMM

    @classmethod
    def bind(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> List[int]:
        """Scatter A and B under the INTERLEAVE placement; returns it."""
        placement = interleave_placement(require_square_grid(machine))
        bind_cyclic_operands(machine, a, b, placement)
        return placement

    @classmethod
    def body(cls, machine: MeshMachine, placement: List[int]) -> List[int]:
        """Alignment + compute-shift loop; C lands under ``placement``."""
        cyclic_gemm_body(machine, placement, name_prefix=cls.name)
        return placement

    @classmethod
    def gather(cls, machine: MeshMachine, placement: List[int]) -> np.ndarray:
        """The dense ``a @ b``."""
        return gather_cyclic_result(machine, placement)

    run = classmethod(run_kernel)
    capture_run = classmethod(capture_kernel)
    replay_run = classmethod(replay_kernel)

    @classmethod
    def plan(cls, shape: GemmShape, grid: int) -> List[Phase]:
        """Analytic phases: alignment + ``grid`` two-hop compute-shift steps."""
        return cyclic_gemm_plan(
            shape, grid, per_value(_interleave_dilation, grid), label=cls.name
        )
