"""T10 execution model — the distributed-memory compiler baseline.

T10 (SOSP'24) targets the GraphCore IPU: inter-core connections through
an on-chip *crossbar* with hop-invariant latency.  The paper ports it to
the WSE-2 mesh (Section 7, experiment setup) and attributes its losses
to two PLMR failures:

* **P** — T10's partitioning searches scale to thousands of cores (the
  IPU has 1,472 tiles), not hundreds of thousands; its prefill GEMMs
  therefore run at IPU-scale parallelism while the rest of the wafer
  idles.  We cap GEMM compute at ``T10_MAX_COMPUTE_CORES``.
* **L** — T10 is hop-unaware: its compute-shift rounds and its reduce
  chains are laid out by core ID, so on a mesh each logical neighbour
  exchange crosses a large fraction of the fabric, and its GEMV
  reductions are synchronized linear chains (no wavelet pipelining).

The decode path *does* partition finely (1-D GEMV tiling is easy), so
decode compute uses the full grid; its cost is dominated by the
non-pipelined linear reduction chains — which also produces the paper's
observed decline of T10 decode throughput as the mesh grows.

Calibration: ``T10_CHAIN_CYCLES`` (hop-unaware exchange cycles per
sequence row per mesh-unit per layer-op schedule) is fit once so that
LLaMA3-8B prefill lands near Table 3's 175 tok/s at 480x480 and keeps
the published declining trend; see EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List

from repro.llm.config import ModelConfig
from repro.llm.ops_schedule import LayerOp, OpKind
from repro.llm.system_base import SystemModel
from repro.mesh.cost_model import (
    CommPhase,
    ComputePhase,
    Phase,
    ReducePhase,
    as_float,
    ceil_div,
    maximum,
)

#: IPU-scale parallelism ceiling for T10's GEMM partitioning (P failure).
T10_MAX_COMPUTE_CORES = 1472

#: Hop-unaware exchange cycles per (sequence row x mesh-unit) per layer
#: (L failure), split evenly across the layer's matrix ops.  Calibrated
#: once against Table 3's T10 column at 480x480 and 720x720.
T10_CHAIN_CYCLES = 230.0

#: Per-op dispatch overhead (T10's ahead-of-time schedule is cheap to
#: launch; most cost sits in the chains themselves).
T10_LAUNCH_CYCLES = 200.0


class T10System(SystemModel):
    """T10 ported to the wafer mesh, as evaluated by the paper."""

    name = "t10"

    def prefill_grid(self, model: ModelConfig) -> int:
        side = min(self.device.mesh_width, self.device.mesh_height)
        return side

    def decode_grid(self, model: ModelConfig) -> int:
        side = min(self.device.mesh_width, self.device.mesh_height)
        return side // 2

    # ------------------------------------------------------------------
    def _launch(self, label: str) -> ComputePhase:
        return ComputePhase(
            label=f"t10-launch-{label}", macs_per_core=0.0,
            overhead_cycles=T10_LAUNCH_CYCLES,
        )

    def _chain_phase(self, op: LayerOp, grid: int, seq: int) -> ComputePhase:
        """The calibrated hop-unaware exchange charge for one matrix op.

        Expressed as explicit stall cycles so the calibration is visible
        in one place rather than hidden in synthetic hop counts.
        """
        matrix_ops_per_layer = 9.0
        cycles = T10_CHAIN_CYCLES * seq * grid / matrix_ops_per_layer
        return ComputePhase(
            label=f"t10-chain-{op.name}", macs_per_core=0.0,
            overhead_cycles=cycles,
        )

    # ------------------------------------------------------------------
    def phases_for_op(
        self, op: LayerOp, grid: int, mode: str, model: ModelConfig
    ) -> List[Phase]:
        """Price one logical op under T10's execution model."""
        dtype = model.dtype_bytes
        if op.kind in (OpKind.GEMM, OpKind.GEMM_T):
            # Compute at IPU-scale parallelism (P failure), shift rounds
            # hop-unaware (L failure, the calibrated chain charge).
            cap = min(grid * grid, T10_MAX_COMPUTE_CORES)
            compute = ComputePhase(
                label=f"t10-{op.name}", macs_per_core=op.macs / cap
            )
            return [self._launch(op.name), compute,
                    self._chain_phase(op, grid, op.m)]

        if op.kind is OpKind.GEMV:
            # Fine 2-D tiling works for GEMV; the reduction is a
            # synchronized (non-pipelined) linear chain down each column.
            tk = ceil_div(op.k, grid)
            tn = ceil_div(op.n, grid)
            compute = ComputePhase(
                label=f"t10-{op.name}",
                macs_per_core=as_float(tk * tn) * op.rows,
            )
            reduce = ReducePhase(
                label=f"t10-reduce-{op.name}",
                stages=grid - 1,
                stage_hop_distance=1.0,
                payload_bytes=as_float(tn * dtype),
                stage_add_elems=as_float(tn),
                pipelined=False,
            )
            bcast = CommPhase(
                label=f"t10-bcast-{op.name}",
                hop_distance=float(grid - 1),
                payload_bytes=as_float(tn * dtype),
            )
            return [self._launch(op.name), compute, reduce, bcast]

        if op.kind in (OpKind.NORM, OpKind.SOFTMAX):
            reductions = 1 if op.kind is OpKind.NORM else 2
            repeats = maximum(1, ceil_div(op.rows, grid))
            local = ComputePhase(
                label=f"t10-{op.name}",
                macs_per_core=3.0 * op.n / (grid * grid) * op.rows,
            )
            chain = ReducePhase(
                label=f"t10-chain-{op.name}",
                stages=grid - 1,
                stage_hop_distance=1.0,
                payload_bytes=4.0,
                stage_add_elems=1.0,
                pipelined=False,
                repeats=repeats * reductions,
            )
            return [self._launch(op.name), local, chain]

        if op.kind is OpKind.ELEMENTWISE:
            return [
                ComputePhase(
                    label=f"t10-{op.name}",
                    macs_per_core=as_float(op.n) * op.rows / (grid * grid),
                )
            ]

        if op.kind is OpKind.KV_APPEND:
            # Concat-based: the whole KV vector funnels to the bottom row.
            return [
                CommPhase(
                    label=f"t10-{op.name}", hop_distance=float(grid),
                    payload_bytes=as_float(op.n) * dtype, repeats=op.rows,
                )
            ]

        if op.kind is OpKind.TRANSFER:
            return [
                CommPhase(
                    label=f"t10-{op.name}", hop_distance=float(grid),
                    payload_bytes=as_float(op.n) * dtype / grid,
                )
            ]

        raise ValueError(f"unknown op kind: {op.kind}")
