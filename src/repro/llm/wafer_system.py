"""WaferLLM's end-to-end cost model: op schedules -> mesh kernel phases.

This is the performance half of the system (the functional half is
:mod:`repro.llm.distributed`).  Every logical op maps to the phase plan
of the kernel WaferLLM actually uses:

* GEMM -> MeshGEMM (interleaved cyclic shift); per-head instances run on
  disjoint sub-meshes (Section 4.4's head grouping).
* attention scores -> dist-GEMM-T (no mesh transpose).
* GEMV -> MeshGEMV with the two-way K-tree and a chained-result
  broadcast.
* RMSNorm / softmax -> scalar K-tree allreduces plus local element work
  (the "GEMV solutions" of Section 2.3).
* KV append -> one parallel column-shift wave (Section 4.3).
* layer transfer -> streaming the activation to the next layer's region.

Two explicit software charges reflect the execution environment the
paper describes (Sections 7.5 and 8):

* ``OP_LAUNCH_CYCLES`` per distributed op — kernel dispatch and router
  reconfiguration on an immature software stack;
* weight streaming during prefill — the fraction of the model that does
  not fit in the active region's SRAM streams in from neighbouring
  regions each layer (the pipeline-parallel structure whose bubbles the
  paper blames for the 5x utilization loss).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.collectives.plans import ktree_reduce_plan, root_broadcast_plan
from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.gemm.base import GemmShape
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.base import GemvShape
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.config import ModelConfig
from repro.llm.ops_schedule import LayerOp, OpKind
from repro.llm.system_base import SystemModel
from repro.mesh.cost_model import (
    CommPhase,
    ComputePhase,
    KernelCost,
    Phase,
    as_float,
    ceil_div,
    maximum,
    minimum,
)

#: Cycles charged per distributed-op dispatch (host runtime + router
#: reconfiguration).  Single global constant; see module docstring.
OP_LAUNCH_CYCLES = 220.0

#: Effective bandwidth (bytes/cycle) at which layer weights stream into
#: the active prefill region through its staging corridor.  The paper's
#: prefill throughput implies a grid-independent per-layer cost
#: proportional to layer weight bytes (~175 GB/s effective across every
#: model and core configuration in Table 3); this constant captures it.
#: Decode does not pay this: weights stay resident in their regions and
#: only activations travel (Section 4.4's prefill/decode transition).
WEIGHT_STREAM_BYTES_PER_CYCLE = 159.0

#: Ops whose right-hand operand is model weights (subject to streaming).
_WEIGHT_OPS = {"wq", "wk", "wv", "wo", "w-gate", "w-up", "w-down", "lm-head"}

#: Paper's per-model core configurations (Section 7.1).
PREFILL_GRIDS: Dict[str, int] = {
    "llama3-8b": 660,
    "llama2-13b": 750,
    "codellama-34b": 720,
    "qwen2-72b": 720,
}
DECODE_GRIDS: Dict[str, int] = {
    "llama3-8b": 360,
    "llama2-13b": 375,
    "codellama-34b": 420,
    "qwen2-72b": 420,
}

#: Largest prefill chunk whose activations stay resident beside the
#: decode-layout weights in a decode region.  Beyond this the chunk
#: would spill into the staging corridor and pay the weight-streaming
#: path like a full prefill pass, defeating the piggyback; the serving
#: layer validates chunk sizes against it.
MAX_RESIDENT_CHUNK_TOKENS = 1024

def _allreduce_phases(grid: int, count: int, repeats) -> List[Phase]:
    """``count`` scalar K-tree allreduces + result broadcasts."""
    one = (
        ktree_reduce_plan(grid, payload_bytes=4.0, payload_elems=1.0, k=2,
                          repeats=repeats)
        + root_broadcast_plan(grid, payload_bytes=4.0, repeats=repeats)
    )
    return one * count


class WaferLLMSystem(SystemModel):
    """The paper's system, priced through its own kernels.

    ``plan`` (a :class:`repro.placement.plan.PlacementPlan`, duck-typed
    to avoid a load-time cycle) overrides the paper's hand-chosen grids
    for the model it was searched for; other models fall back to the
    paper tables.
    """

    name = "waferllm"

    def __init__(self, device: PLMRDevice, plan=None):
        super().__init__(device)
        self.plan = plan

    def _plan_for(self, model: ModelConfig):
        if self.plan is not None and self.plan.matches(model.name):
            return self.plan
        return None

    def prefill_grid(self, model: ModelConfig) -> int:
        """Plan's prefill region if placed, else the paper configuration
        (falling back to 3/4 fabric for unlisted models)."""
        side = min(self.device.mesh_width, self.device.mesh_height)
        plan = self._plan_for(model)
        if plan is not None:
            return min(side, plan.prefill_grid)
        return min(side, PREFILL_GRIDS.get(model.name.split("[")[0], side))

    def decode_grid(self, model: ModelConfig) -> int:
        """Plan's decode region if placed, else the paper configuration
        (falling back to 1/2 fabric for unlisted models)."""
        side = min(self.device.mesh_width, self.device.mesh_height)
        plan = self._plan_for(model)
        if plan is not None:
            return min(side, plan.decode_grid)
        return min(side, DECODE_GRIDS.get(model.name.split("[")[0], side // 2))

    # ------------------------------------------------------------------
    def fused_step_cost(
        self,
        model: ModelConfig,
        context_len: int,
        decode_batch: int,
        chunk_tokens: int = 0,
        grid: Optional[int] = None,
    ) -> KernelCost:
        """One continuous-batching step: batched decode with an optional
        piggybacked prefill chunk.

        Batched decode pays the single-token step's launch/communication
        *skeleton* once (weights are stationary, routes stay programmed)
        plus per-stream arithmetic: ``t(m) = t_fixed + m * t_compute``.
        A prefill chunk fused into the step rides that same skeleton —
        its kernels are the same distributed ops over the same resident
        weights — so only its arithmetic is added.  A chunk running with
        no live decode streams pays its own full cost.
        """
        if decode_batch < 0 or chunk_tokens < 0:
            raise ConfigurationError("batch and chunk must be non-negative")
        if decode_batch == 0 and chunk_tokens == 0:
            raise ConfigurationError("a step needs decode streams or a chunk")
        if chunk_tokens > MAX_RESIDENT_CHUNK_TOKENS:
            raise ConfigurationError(
                f"chunk of {chunk_tokens} tokens exceeds the resident limit "
                f"({MAX_RESIDENT_CHUNK_TOKENS}); larger chunks spill to the "
                f"streaming path"
            )
        if grid is None:
            grid = self.decode_grid(model)
        compute = comm = total = 0.0
        if decode_batch > 0:
            decode = self.decode_token_cost(model, context_len, grid)
            skeleton = decode.total_cycles - decode.compute_cycles
            compute = decode_batch * decode.compute_cycles
            comm = decode.comm_cycles
            total = skeleton + compute
        if chunk_tokens > 0:
            chunk = self.chunked_prefill_cost(model, chunk_tokens, grid)
            compute += chunk.compute_cycles
            if decode_batch > 0:
                total += chunk.compute_cycles
            else:
                comm += chunk.comm_cycles
                total += chunk.total_cycles
        return KernelCost(
            name=f"{self.name}-fused-step",
            device=self.device,
            compute_cycles=compute,
            comm_cycles=comm,
            total_cycles=total,
        )

    # ------------------------------------------------------------------
    def _subgrid(self, grid: int, instances: int, *dims):
        """Side of the per-instance sub-mesh when ops run head-parallel
        (an int axis when a dim is one)."""
        if instances > 1:
            grid = max(1, grid // math.ceil(math.sqrt(instances)))
        for dim in dims:
            grid = minimum(grid, dim)
        return maximum(1, grid)

    def _launch(self, label: str) -> ComputePhase:
        return ComputePhase(
            label=f"launch-{label}", macs_per_core=0.0,
            overhead_cycles=OP_LAUNCH_CYCLES,
        )

    def _weight_stream_phase(
        self, op: LayerOp, grid: int, model: ModelConfig
    ) -> List[Phase]:
        """Stream this op's weights into the prefill region.

        Charged at the calibrated fixed corridor bandwidth; expressed as
        explicit stall cycles so the calibration is visible.
        """
        weight_bytes = as_float(op.k * op.n * model.dtype_bytes * op.rows)
        return [
            ComputePhase(
                label=f"stream-{op.name}",
                macs_per_core=0.0,
                overhead_cycles=weight_bytes / WEIGHT_STREAM_BYTES_PER_CYCLE,
            )
        ]

    # ------------------------------------------------------------------
    def phases_for_op(
        self, op: LayerOp, grid: int, mode: str, model: ModelConfig
    ) -> List[Phase]:
        """Price one logical op with WaferLLM's kernels."""
        dtype = model.dtype_bytes
        if op.kind is OpKind.GEMM:
            sub = self._subgrid(grid, op.rows, op.m, op.k, op.n)
            phases = [self._launch(op.name)]
            phases += MeshGEMM.plan(GemmShape(op.m, op.k, op.n, dtype), sub)
            if mode == "prefill" and op.name in _WEIGHT_OPS:
                phases += self._weight_stream_phase(op, grid, model)
            return phases

        if op.kind is OpKind.GEMM_T:
            sub = self._subgrid(grid, op.rows, op.m, op.k, op.n)
            return [self._launch(op.name)] + MeshGEMMTransposed.plan(
                GemmShape(op.m, op.k, op.n, dtype), sub
            )

        if op.kind is OpKind.GEMV:
            sub = self._subgrid(grid, op.rows, op.k, op.n)
            phases = [self._launch(op.name)]
            phases += MeshGEMV.plan(GemvShape(op.k, op.n, dtype), sub,
                                    broadcast=True)
            return phases

        if op.kind is OpKind.NORM:
            repeats = maximum(1, ceil_div(op.rows, grid))
            local = ComputePhase(
                label=f"{op.name}-local",
                macs_per_core=3.0 * op.n / (grid * grid) * op.rows,
            )
            return [
                self._launch(op.name), local,
                *_allreduce_phases(grid, count=1, repeats=repeats),
            ]

        if op.kind is OpKind.SOFTMAX:
            repeats = maximum(1, ceil_div(op.rows, grid))
            local = ComputePhase(
                label=f"{op.name}-local",
                macs_per_core=2.0 * op.n / (grid * grid) * op.rows,
            )
            return [
                self._launch(op.name), local,
                *_allreduce_phases(grid, count=2, repeats=repeats),
            ]

        if op.kind is OpKind.ELEMENTWISE:
            return [
                ComputePhase(
                    label=op.name,
                    macs_per_core=as_float(op.n) * op.rows / (grid * grid),
                )
            ]

        if op.kind is OpKind.KV_APPEND:
            # One upward shift wave: all column links move in parallel.
            payload = as_float(op.n) * dtype / grid
            return [
                CommPhase(label=op.name, hop_distance=1.0,
                          payload_bytes=payload, repeats=op.rows)
            ]

        if op.kind is OpKind.TRANSFER:
            payload = as_float(op.n) * dtype / grid
            return [
                CommPhase(label=op.name, hop_distance=float(grid),
                          payload_bytes=payload)
            ]

        raise ValueError(f"unknown op kind: {op.kind}")
