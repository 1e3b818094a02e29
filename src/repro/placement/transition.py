"""Weight placement and the prefill -> decode transition (Section 4.4).

Prefill and decode want different tensor layouts: prefill partitions the
sequence dimension (``B L_y E_x``) and keeps weights in ``E_y F_x``;
decode replicates the length-1 sequence (``B E_y L^x``) and pre-places
``W_O`` / ``W_out`` transposed so chained GEMVs never transpose on the
mesh.  Between the phases WaferLLM reshuffles the KV cache and weights
over the NoC; this module prices that transition and shows it is
negligible next to even one decoded token — the paper's justification
for re-placement over per-token transposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.plmr import PLMRDevice
from repro.llm.config import ModelConfig
from repro.llm.tensor_layout import (
    TensorLayout,
    weight_layout,
    weight_layout_decode,
)
from repro.mesh.cost_model import CommPhase, KernelCost, estimate
from repro.placement.plan import RegionCarveOut


@dataclass(frozen=True)
class WeightPlacementPlan:
    """Per-layer weight layouts in each phase."""

    model: ModelConfig

    def prefill_layouts(self) -> List[TensorLayout]:
        """Weight layouts during prefill (all ``E_y F_x``)."""
        e, kv, f = self.model.d_model, self.model.kv_dim, self.model.d_ff
        return [
            weight_layout(e, e),    # W_Q
            weight_layout(e, kv),   # W_K
            weight_layout(e, kv),   # W_V
            weight_layout(e, e),    # W_O
            weight_layout(e, f),    # W_gate (W_in)
            weight_layout(e, f),    # W_up
            weight_layout(f, e),    # W_down (W_out)
        ]

    def decode_layouts(self) -> List[TensorLayout]:
        """Decode layouts: ``W_O`` and ``W_out`` flipped (Figure 4)."""
        e, kv, f = self.model.d_model, self.model.kv_dim, self.model.d_ff
        return [
            weight_layout(e, e),
            weight_layout(e, kv),
            weight_layout(e, kv),
            weight_layout_decode(e, e),   # W_O pre-placed for dist-GEMV
            weight_layout(e, f),
            weight_layout(e, f),
            weight_layout_decode(f, e),   # W_out pre-placed for dist-GEMV
        ]

    def changed_layers(self) -> List[int]:
        """Indices (into the layout lists) that move during transition."""
        moved = []
        for idx, (pre, dec) in enumerate(
            zip(self.prefill_layouts(), self.decode_layouts())
        ):
            if pre != dec:
                moved.append(idx)
        return moved


def transition_cost(model: ModelConfig, device: PLMRDevice) -> KernelCost:
    """Cycle cost of re-placing weights between prefill and decode.

    Only the weights whose layout changes (``W_O``, ``W_out`` per layer)
    are streamed; KV-cache re-layout is charged as one extra tensor of
    the same order.  All transfers ride the full NoC bisection.
    """
    plan = WeightPlacementPlan(model)
    prefill = plan.prefill_layouts()
    decode = plan.decode_layouts()
    total: KernelCost | None = None
    for idx in plan.changed_layers():
        per_layer = prefill[idx].transition_cost(decode[idx], device)
        layer_total = per_layer.scaled(model.num_layers)
        total = layer_total if total is None else total + layer_total
    if total is None:  # no layout changes — zero-cost transition
        zero = TensorLayout(1, 1, *_trivial_maps())
        total = zero.transition_cost(zero, device).scaled(0)
    return total


def _trivial_maps():
    from repro.llm.tensor_layout import AxisMap

    return AxisMap.PARTITION_X, AxisMap.PARTITION_Y


def reshard_cost(
    model: ModelConfig, device: PLMRDevice, region: RegionCarveOut
) -> KernelCost:
    """Cycle cost of evacuating one decode region onto spare capacity.

    When a core dies persistently, the runtime re-shards the region's
    resident weights onto a spare region (Cerebras-style yield repair
    applied at runtime).  All of the region's rows stream their shards in
    parallel, so the serialized payload per lane is ``weight_bytes /
    width``, travelling roughly one region width in hops.  KV is *not*
    moved — it is recomputed from the prompts (the serving layer prices
    that separately), matching how wafer runtimes treat SRAM state as
    disposable next to the NoC cost of moving it.
    """
    phase = CommPhase(
        label="reshard.weights",
        hop_distance=float(region.width),
        payload_bytes=model.weight_bytes / region.width,
    )
    return estimate(
        f"region_reshard[{region.width}x{region.height}]", device, [phase]
    )


def transposes_avoided_per_token(model: ModelConfig) -> int:
    """Mesh transposes the decode plan avoids per generated token.

    Without pre-placement, every chained GEMV pair (``W_O`` after the
    attention GEMVs, ``W_out`` after the FFN GEMVs) and the
    ``Q @ K^T`` score step would each transpose on the mesh: three per
    layer (Section 4.2).
    """
    return 3 * model.num_layers
