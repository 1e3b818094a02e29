"""Ladder execution model — the shared-memory compiler baseline.

Ladder (OSDI'24) compiles for shared-memory devices (GPUs).  The paper
ports it to the WSE-2 by *abstracting the distributed SRAM as one
unified memory*, with every access crossing the NoC (Section 7,
experiment setup).  That abstraction fails all four PLMR properties; the
model here charges for the two failure mechanisms that dominate the
published numbers:

* **P failure — serial partitioning.**  Ladder's tile scheduling assumes
  a handful of SMs; on the wafer its effective compute parallelism
  saturates at ``LADDER_EFFECTIVE_CORES`` regardless of fabric size.
* **L/R failure — centralized memory service.**  Emulating a flat
  address space requires a global tile directory; every per-step tile
  request from every core serializes through it at
  ``LADDER_SERVICE_CYCLES`` apiece.  Requests grow with the core count
  and steps with the mesh side, which is why Ladder's prefill slows
  *down* as cores are added (Table 3's declining column).

Decode under a shared-memory abstraction is weight-streaming bound: the
whole model crosses the NoC every token, at an effective bandwidth that
degrades with mesh size (longer average routes): ``LADDER_STREAM_BW``
bytes/cycle at the 420-wide reference mesh, scaled by ``sqrt(420/mesh)``.

The three constants are calibrated once against Table 3/4's Ladder
columns (see EXPERIMENTS.md) and reproduce Table 2 without further
tuning.
"""

from __future__ import annotations

import math
from typing import List

from repro.llm.config import ModelConfig
from repro.llm.ops_schedule import LayerOp, OpKind
from repro.llm.system_base import SystemModel
from repro.mesh.cost_model import CommPhase, ComputePhase, Phase, as_float

#: Effective compute parallelism of Ladder's GPU-shaped schedule.
LADDER_EFFECTIVE_CORES = 384

#: Directory service cycles per tile request (one request per core per
#: GEMM step).
LADDER_SERVICE_CYCLES = 0.93

#: Aggregate weight-streaming bandwidth in bytes/cycle at a 420-wide
#: mesh; scales as sqrt(420 / mesh).
LADDER_STREAM_BW = 214.0

#: Per-op dispatch overhead.
LADDER_LAUNCH_CYCLES = 500.0


class LadderSystem(SystemModel):
    """Ladder ported to the wafer mesh, as evaluated by the paper."""

    name = "ladder"

    def prefill_grid(self, model: ModelConfig) -> int:
        side = min(self.device.mesh_width, self.device.mesh_height)
        return side

    def decode_grid(self, model: ModelConfig) -> int:
        side = min(self.device.mesh_width, self.device.mesh_height)
        return side // 2

    # ------------------------------------------------------------------
    def _launch(self, label: str) -> ComputePhase:
        return ComputePhase(
            label=f"ladder-launch-{label}", macs_per_core=0.0,
            overhead_cycles=LADDER_LAUNCH_CYCLES,
        )

    def _stream_bw(self, grid: int) -> float:
        """Effective aggregate streaming bandwidth (bytes/cycle)."""
        return LADDER_STREAM_BW * math.sqrt(420.0 / max(1, grid))

    # ------------------------------------------------------------------
    def phases_for_op(
        self, op: LayerOp, grid: int, mode: str, model: ModelConfig
    ) -> List[Phase]:
        """Price one logical op under Ladder's execution model."""
        dtype = model.dtype_bytes
        if op.kind in (OpKind.GEMM, OpKind.GEMM_T):
            compute = ComputePhase(
                label=f"ladder-{op.name}",
                macs_per_core=op.macs / LADDER_EFFECTIVE_CORES,
            )
            # One directory request per core per step; steps = grid.
            service = ComputePhase(
                label=f"ladder-directory-{op.name}",
                macs_per_core=0.0,
                overhead_cycles=LADDER_SERVICE_CYCLES * grid * grid * grid,
            )
            return [self._launch(op.name), compute, service]

        if op.kind is OpKind.GEMV:
            # Weight (or KV) operand streams through unified memory.
            operand_bytes = as_float(op.k * op.n * dtype * op.rows)
            stream = CommPhase(
                label=f"ladder-stream-{op.name}",
                hop_distance=float(grid),
                payload_bytes=operand_bytes / self._stream_bw(grid)
                * 4.0,  # normalized so payload/link_bw = bytes/agg_bw
            )
            compute = ComputePhase(
                label=f"ladder-{op.name}",
                macs_per_core=op.macs / LADDER_EFFECTIVE_CORES,
            )
            return [self._launch(op.name), compute, stream]

        if op.kind in (OpKind.NORM, OpKind.SOFTMAX):
            return [
                self._launch(op.name),
                ComputePhase(
                    label=f"ladder-{op.name}",
                    macs_per_core=3.0 * op.n * op.rows / LADDER_EFFECTIVE_CORES,
                ),
            ]

        if op.kind is OpKind.ELEMENTWISE:
            return [
                ComputePhase(
                    label=f"ladder-{op.name}",
                    macs_per_core=as_float(op.n) * op.rows
                    / LADDER_EFFECTIVE_CORES,
                )
            ]

        if op.kind is OpKind.KV_APPEND:
            # Concat-based append through unified memory.
            return [
                CommPhase(
                    label=f"ladder-{op.name}", hop_distance=float(grid),
                    payload_bytes=as_float(op.n) * dtype, repeats=op.rows,
                )
            ]

        if op.kind is OpKind.TRANSFER:
            return [
                CommPhase(
                    label=f"ladder-{op.name}", hop_distance=float(grid),
                    payload_bytes=as_float(op.n) * dtype,
                )
            ]

        raise ValueError(f"unknown op kind: {op.kind}")
