"""Transposed distributed GEMM (dist-GEMM-T) — ``C = A @ B^T`` without
transposing B on the mesh (paper Sections 4.1 and 5.4).

A mesh transpose would stream every tile to its diagonally opposite
position — corner-to-corner traffic with an O(N) critical path, the worst
possible pattern under the L property.  dist-GEMM-T avoids it entirely:

* A (``M x K``) and B (``N x K``) are tiled ``n x n`` with the *same*
  column partitioning of K, so no operand ever changes orientation;
* there is **no alignment step**;
* the loop runs ``n`` steps: shift B one logical position along Y
  (two hops under INTERLEAVE), compute the outer partial
  ``P = A_sub @ B_sub^T`` — the tile-level transpose is free, it is just
  the local loop order — and **ReduceAdd P along the X axis** (using the
  two-way K-tree) into the core that owns that block of C.

At step ``s`` the row holding logical block-row ``i`` of A holds logical
block-row ``r = (i + s) mod n`` of B, so the reduction over the row's
``j`` tiles yields exactly ``C(i, r) = sum_j A(i,j) @ B(r,j)^T``; over
``n`` steps every block of C is produced once.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.allreduce import ktree_reduce
from repro.collectives.interleave import interleave_placement, inverse_placement
from repro.collectives.plans import ktree_reduce_plan
from repro.collectives.primitives import column_ring_shift
from repro.core.compliance import MESHGEMM
from repro.errors import ShapeError
from repro.gemm.base import (
    GemmKernel,
    GemmShape,
    gather_with_placement,
    require_square_grid,
    scatter_with_placement,
)
from repro.mesh.cost_model import (
    CommPhase,
    ComputePhase,
    LoopPhase,
    Phase,
    as_float,
    present,
    where,
)
from repro.mesh.core_sim import Core
from repro.mesh.fabric import Flow
from repro.mesh.machine import MeshMachine
from repro.mesh.program import capture_kernel, replay_kernel, run_kernel


class MeshGEMMTransposed(GemmKernel):
    """MeshGEMM variant computing ``A @ B^T`` with B in untransposed layout."""

    name = "meshgemm-t"
    profile = MESHGEMM  # same cyclic-shift compliance class

    _NAMES = ("gemmt.A", "gemmt.B", "gemmt.P", "gemmt.C")

    @classmethod
    def bind(cls, machine: MeshMachine, a: np.ndarray, b: np.ndarray) -> List[int]:
        """Validate shapes and scatter A/B; returns the placement."""
        grid = require_square_grid(machine)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError("operands must be 2-D")
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"K dims differ: {a.shape} vs {b.shape} (B untransposed)")
        if a.shape[0] % grid or a.shape[1] % grid or b.shape[0] % grid:
            raise ShapeError("dims must divide the grid; pad operands")
        placement = interleave_placement(grid)
        a_name, b_name, _p_name, _c_name = cls._NAMES
        scatter_with_placement(machine, a_name, a, placement, placement)
        scatter_with_placement(machine, b_name, b, placement, placement)
        return placement

    @classmethod
    def body(cls, machine: MeshMachine, placement: List[int]) -> List[int]:
        """The compute-shift-reduce-place loop; C lands under ``placement``."""
        grid = require_square_grid(machine)
        logical_at = inverse_placement(placement)
        a_name, b_name, p_name, c_name = cls._NAMES
        rows = [machine.topology.row(y) for y in range(grid)]

        def outer_partial(core: Core) -> float:
            a_tile = core.load(a_name)
            b_tile = core.load(b_name)
            core.store(p_name, a_tile @ b_tile.T)
            return float(a_tile.shape[0] * a_tile.shape[1] * b_tile.shape[0])

        def outer_partial_stacked(stacks):
            a_stack = stacks[a_name]
            b_stack = stacks[b_name]
            out = np.matmul(a_stack, b_stack.transpose(0, 2, 1))
            macs = float(
                a_stack.shape[1] * a_stack.shape[2] * b_stack.shape[1]
            )
            return {p_name: out}, macs

        for step in range(grid):
            # The outer product overlaps the B shift feeding the *next*
            # step (independent tile names), so both live in one overlap
            # scope; the row reduction of P then follows serially.
            with machine.phase("gemmt-compute-shift", overlap=True):
                if machine.vectorize:
                    machine.compute_stacked(
                        "gemmt-outer",
                        machine.topology.coords(),
                        outer_partial_stacked,
                        reads=(a_name, b_name),
                        writes=(p_name,),
                        fallback=outer_partial,
                    )
                else:
                    machine.compute_all(
                        "gemmt-outer",
                        outer_partial,
                        reads=(a_name, b_name),
                        writes=(p_name,),
                    )
                if step < grid - 1:
                    column_ring_shift(
                        machine, "gemmt-shift-B", b_name, placement, offset=-1
                    )
            roots = ktree_reduce(
                machine, rows, p_name, k=2, pattern_prefix="gemmt-reduce"
            )
            # Deliver each row's reduced block to the core owning C(i, r).
            flows = []
            for py, root in zip(range(grid), roots):
                i = logical_at[py]
                r = (i + step) % grid
                target = (placement[r], py)
                if target == root:
                    machine.copy_tile(root, p_name, c_name)
                else:
                    flows.append(Flow.unicast(root, target, p_name, c_name))
            if flows:
                with machine.phase("gemmt-place"):
                    machine.communicate("gemmt-place", flows)
            machine.free(p_name)
        return placement

    @classmethod
    def gather(cls, machine: MeshMachine, placement: List[int]) -> np.ndarray:
        """The dense ``a @ b.T`` (``a`` is ``M x K``, ``b`` is ``N x K``)."""
        return gather_with_placement(machine, cls._NAMES[3], placement, placement)

    run = classmethod(run_kernel)
    capture_run = classmethod(capture_kernel)
    replay_run = classmethod(replay_kernel)

    @classmethod
    def plan(cls, shape: GemmShape, grid: int) -> List[Phase]:
        """Analytic phases for ``C[m, n] = A[m, k] @ B[n, k]^T``.

        ``shape`` follows the product's dims: ``m x k`` times ``k x n``
        with B stored as ``n x k``.  Each step overlaps the tile outer
        product with the two-hop B shift, then pays a K-tree row
        reduction of the partial C tile plus its delivery hop.  ``grid``
        may be an int axis (with an axis ``shape``).
        """
        tm, tk, tn = shape.tiles(grid)
        b_tile_bytes = tk * tn * shape.dtype_bytes
        p_bytes = as_float(tm * tn * shape.dtype_bytes)
        p_elems = as_float(tm * tn)
        phases: List[Phase] = [
            LoopPhase(
                label="gemmt-compute-shift",
                steps=grid,
                compute=ComputePhase(
                    label="gemmt-outer", macs_per_core=as_float(tm * tk * tn)
                ),
                comm=CommPhase(
                    label="gemmt-shift-B",
                    hop_distance=where(grid > 2, 2.0, 1.0),
                    payload_bytes=as_float(b_tile_bytes),
                ),
                overlap=True,
            )
        ]
        phases += ktree_reduce_plan(grid, p_bytes, p_elems, k=2, repeats=grid)
        if present(grid > 1):
            phases.append(
                CommPhase(
                    label="gemmt-place",
                    hop_distance=as_float(grid - 1),
                    payload_bytes=p_bytes,
                    repeats=where(grid > 1, grid, 0),
                )
            )
        return phases
