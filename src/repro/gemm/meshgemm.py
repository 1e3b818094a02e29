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
from typing import List, Tuple

import numpy as np

from repro.collectives.interleave import interleave_placement, ring_dilation
from repro.core.compliance import MESHGEMM
from repro.gemm.base import GemmKernel, GemmShape, require_square_grid
from repro.gemm.cyclic import (
    bind_cyclic_operands,
    cyclic_gemm_body,
    cyclic_gemm_plan,
    gather_cyclic_result,
    run_cyclic_shift_gemm,
)
from repro.mesh.cost_model import Phase
from repro.mesh.machine import MeshMachine
from repro.mesh.program import MeshProgram, ProgramReplayError


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
    def run(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Functional execution; returns the dense ``a @ b``."""
        grid = require_square_grid(machine)
        placement = interleave_placement(grid)
        return run_cyclic_shift_gemm(machine, a, b, placement, name_prefix=cls.name)

    @classmethod
    def capture_run(
        cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, MeshProgram]:
        """Like :meth:`run`, additionally capturing a replayable program.

        The returned program covers the kernel *body* (alignment +
        compute-shift loop); operand scatter and result gather stay
        live, so :meth:`replay_run` can feed new payloads of the same
        shape through the cached skeleton.
        """
        placement = interleave_placement(require_square_grid(machine))
        bind_cyclic_operands(machine, a, b, placement)
        with machine.capture() as program:
            cyclic_gemm_body(machine, placement, name_prefix=cls.name)
        program.meta["placement"] = placement
        program.meta["operand_shapes"] = (a.shape, b.shape)
        return gather_cyclic_result(machine, placement), program

    @classmethod
    def replay_run(
        cls,
        machine: MeshMachine,
        program: MeshProgram,
        a: np.ndarray,
        b: np.ndarray,
    ) -> np.ndarray:
        """Run :meth:`run` semantics through a captured program."""
        if program.meta.get("operand_shapes") != (a.shape, b.shape):
            raise ProgramReplayError(
                f"program captured for shapes "
                f"{program.meta.get('operand_shapes')} cannot replay "
                f"{(a.shape, b.shape)}"
            )
        placement = program.meta["placement"]
        with machine.quiet_memory():
            bind_cyclic_operands(machine, a, b, placement)
        program.replay(machine)
        return gather_cyclic_result(machine, placement)

    @classmethod
    def plan(cls, shape: GemmShape, grid: int) -> List[Phase]:
        """Analytic phases: alignment + ``grid`` two-hop compute-shift steps."""
        return cyclic_gemm_plan(
            shape, grid, _interleave_dilation(grid), label=cls.name
        )
