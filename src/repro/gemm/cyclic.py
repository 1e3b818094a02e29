"""The cyclic-shift GEMM engine shared by Cannon and MeshGEMM.

Cannon's algorithm and MeshGEMM execute the *same* logical program
(Section 5.3):

1. **Initialization** — operands tiled ``n x n`` across the grid.
2. **Alignment** — logical block-row ``i`` of A skews left by ``i``
   positions; logical block-column ``j`` of B skews up by ``j``.
3. **Compute-shift loop** — ``n`` steps of
   ``C_sub += A_sub @ B_sub`` with A shifting one logical position along
   X and B one logical position along Y between steps.

The only difference is the *placement* of the logical ring on the
physical line: Cannon uses the identity (so the ring's wraparound edge
spans ``n - 1`` physical hops — the L violation of Figure 6), MeshGEMM
uses INTERLEAVE (every logical step is at most 2 physical hops).

Correctness: after alignment, core at logical ``(i, j)`` holds
``A(i, (i + j) mod n)`` and ``B((i + j) mod n, j)``; at loop step ``s``
it multiplies ``A(i, (i + j + s) mod n) @ B((i + j + s) mod n, j)``, so
over ``n`` steps the full contraction over ``k`` accumulates.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.collectives.interleave import inverse_placement
from repro.collectives.primitives import column_ring_shift, row_ring_shift
from repro.mesh.cost_model import (
    CommPhase,
    ComputePhase,
    LoopPhase,
    Phase,
    as_float,
    maximum,
    present,
    where,
)
from repro.mesh.machine import MeshMachine
from repro.gemm.base import (
    GemmShape,
    GemmSlots,
    check_partitionable,
    gather_with_placement,
    require_square_grid,
)

#: Tile names of the cyclic-shift engine (shared by bind/body/gather).
A_NAME, B_NAME, C_NAME = "gemm.A", "gemm.B", "gemm.C"


def bind_cyclic_operands(
    machine: MeshMachine,
    a: np.ndarray,
    b: np.ndarray,
    placement: Sequence[int],
) -> int:
    """Scatter A and B under ``placement``; returns the grid side.

    Host-side binding, separated from :func:`cyclic_gemm_body` so the
    body alone can be captured into a replayable
    :class:`~repro.mesh.program.MeshProgram`.  Each core's tile is its
    row of the machine's ``gemm.A`` / ``gemm.B`` slab
    (:class:`~repro.gemm.base.GemmSlots`), in every mode.
    """
    grid = require_square_grid(machine)
    check_partitionable(a, b, grid)
    slots = GemmSlots(machine, (A_NAME, B_NAME), (a, b), placement)
    slots.bind(a, b)
    slots.place()
    return grid


def cyclic_gemm_body(
    machine: MeshMachine,
    placement: Sequence[int],
    name_prefix: str = "cyclic",
) -> None:
    """Alignment + compute-shift loop over already-bound operands."""
    grid = require_square_grid(machine)
    placement = list(placement)
    logical_at = inverse_placement(placement)

    # Alignment (one skew phase per operand).  The physical row py holds
    # logical block-row logical_at[py], which must shift left by that
    # logical index; likewise for columns of B.
    if grid > 1:
        # A skews on X links while B skews on Y links — the router moves
        # them concurrently, hence one overlap-kind phase for both.
        with machine.phase(f"{name_prefix}-align", kind="overlap"):
            row_ring_shift(
                machine,
                f"{name_prefix}-align-A",
                A_NAME,
                placement,
                row_offsets=[-logical_at[py] for py in range(grid)],
            )
            column_ring_shift(
                machine,
                f"{name_prefix}-align-B",
                B_NAME,
                placement,
                col_offsets=[-logical_at[px] for px in range(grid)],
            )

    # One compute-shift step on every core: C (+)= A @ B.  The first
    # step stores C, so a C left by an earlier launch is never read.
    items = [(coord, A_NAME, B_NAME, C_NAME)
             for coord in machine.topology.coords()]
    for step in range(grid):
        with machine.phase(f"{name_prefix}-compute-shift", overlap=True):
            machine.matmul(
                f"{name_prefix}-mac",
                items,
                accumulate=step > 0,
                reads=(A_NAME, B_NAME, C_NAME),
            )
            if step < grid - 1:
                row_ring_shift(
                    machine, f"{name_prefix}-shift-A", A_NAME, placement, offset=-1
                )
                column_ring_shift(
                    machine, f"{name_prefix}-shift-B", B_NAME, placement, offset=-1
                )


def gather_cyclic_result(
    machine: MeshMachine, placement: Sequence[int]
) -> np.ndarray:
    """Reassemble C from the grid under ``placement``."""
    placement = list(placement)
    return gather_with_placement(machine, C_NAME, placement, placement)


def run_cyclic_shift_gemm(
    machine: MeshMachine,
    a: np.ndarray,
    b: np.ndarray,
    placement: Sequence[int],
    name_prefix: str = "cyclic",
) -> np.ndarray:
    """Execute the alignment + compute-shift program under a placement."""
    bind_cyclic_operands(machine, a, b, placement)
    cyclic_gemm_body(machine, placement, name_prefix)
    return gather_cyclic_result(machine, placement)


def cyclic_gemm_plan(
    shape: GemmShape, grid, dilation, label: str
) -> List[Phase]:
    """Analytic phase plan of the alignment + compute-shift program.

    ``dilation`` is the per-step shift distance, the placement's
    :func:`~repro.collectives.interleave.ring_dilation`: 2 under
    INTERLEAVE, ``grid - 1`` under the identity.  The worst alignment
    skew spans the physical line either way.  ``grid`` and ``dilation``
    may be int axes (with an axis ``shape``); the alignment phase then
    has zero repeats on the elements whose grid is 1.
    """
    tm, tk, tn = shape.tiles(grid)
    a_bytes, b_bytes, _ = shape.tile_bytes(grid)
    phases: List[Phase] = []
    if present(grid > 1):
        phases.append(
            CommPhase(
                label=f"{label}-align",
                hop_distance=as_float(grid - 1),
                payload_bytes=as_float(a_bytes + b_bytes),
                repeats=where(grid > 1, 1, 0),
            )
        )
    # A shifts along X links while B shifts along Y links: the router
    # moves them concurrently, so each step's comm is the larger stream.
    # Note the wraparound stream of a non-interleaved ring travels
    # *against* the neighbour shifts on full-duplex links, so it suffers
    # no bandwidth contention — only its O(N) hop latency (verified by
    # the fluid NoC simulator, repro.mesh.netsim).
    phases.append(
        LoopPhase(
            label=f"{label}-compute-shift",
            steps=grid,
            compute=ComputePhase(
                label=f"{label}-mac", macs_per_core=as_float(tm * tk * tn)
            ),
            comm=CommPhase(
                label=f"{label}-shift",
                hop_distance=as_float(dilation),
                payload_bytes=as_float(maximum(a_bytes, b_bytes)),
            ),
            overlap=True,
        )
    )
    return phases
