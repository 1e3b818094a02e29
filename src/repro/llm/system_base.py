"""Base class for end-to-end system cost models.

A *system model* prices the abstract op schedules of
:mod:`repro.llm.ops_schedule` on a device: WaferLLM maps ops to
MeshGEMM/MeshGEMV/K-tree phases, T10 to its crossbar-assumption
execution model, Ladder to a shared-memory model, and the GPU baseline
to a roofline.  All Tables 2-4 and 8 are produced by asking system
models for prefill/decode throughput at the paper's configurations.

Timing conventions:

* ``prefill_seconds(model, seq_len)`` — time to process a prompt.
* ``decode_seconds_per_token(model, context_len)`` — steady-state time
  to emit one token at the given live context.
* ``generation_seconds(model, seq_in, seq_out)`` — full request: prefill
  plus ``seq_out`` decode steps with the context growing from ``seq_in``;
  the decode integral is evaluated at the mean context length (decode
  cost is affine in context, so the mean is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.llm.config import ModelConfig
from repro.llm.ops_schedule import (
    LayerOp,
    decode_layer_schedule,
    lm_head_schedule,
    prefill_layer_schedule,
)
from repro.mesh.cost_model import KernelCost, Phase, accumulate, phase_cycles

# Process-wide memo of finished component costs (DESIGN.md §15.6).  The
# version counter is the leading key element: bumping it orphans every
# prior entry.  ``repro.serving.stepcost.invalidate`` is the one caller.
_COMPONENT_COST_CACHE: Dict[Tuple, KernelCost] = {}
_COMPONENT_COST_CACHE_VERSION: int = 0
_COMPONENT_COST_MISSES: int = 0

# The last schedule priced per (system type, device, model, grid, mode,
# label): its ops and each op's per-phase ``(compute, comm, total)``
# increments (DESIGN.md §15.6).  One entry per label; the version
# counter leads the key, as above.
_LAST_SCHEDULE_CACHE: Dict[Tuple, Tuple[Tuple[LayerOp, ...], List[Tuple]]] = {}
_LAST_SCHEDULE_CACHE_VERSION: int = 0
_OPS_PRICED: int = 0
_OPS_REUSED: int = 0


def invalidate_component_costs() -> None:
    """Orphan every memoized component cost and priced schedule by
    bumping both key versions."""
    global _COMPONENT_COST_CACHE_VERSION, _LAST_SCHEDULE_CACHE_VERSION
    _COMPONENT_COST_CACHE_VERSION += 1
    _COMPONENT_COST_CACHE.clear()
    _LAST_SCHEDULE_CACHE_VERSION += 1
    _LAST_SCHEDULE_CACHE.clear()


def component_cache_info() -> Dict[str, int]:
    """Size and cumulative misses of the component memo, plus how many
    schedule ops were planned (``ops_priced``) or reused unchanged from
    the previous schedule of the same label (``ops_reused``)."""
    return {
        "size": len(_COMPONENT_COST_CACHE),
        "misses": _COMPONENT_COST_MISSES,
        "ops_priced": _OPS_PRICED,
        "ops_reused": _OPS_REUSED,
    }


@dataclass(frozen=True)
class GenerationResult:
    """Timing/energy of one full request on one system."""

    system: str
    model: str
    seq_in: int
    seq_out: int
    prefill_seconds: float
    decode_seconds: float
    energy_joules: float

    @property
    def total_seconds(self) -> float:
        """End-to-end request latency."""
        return self.prefill_seconds + self.decode_seconds

    @property
    def throughput_tokens_per_s(self) -> float:
        """The paper's Table-2 metric: *generated* tokens over total time.

        The published numbers only reconcile with the paper's own prefill
        and decode rates (Tables 3-4) under this definition — e.g.
        LLaMA3-8B at 4096/128 gives 604 tok/s = 128 / (prefill + decode)
        while counting input tokens would exceed 15,000.
        """
        return self.seq_out / self.total_seconds

    @property
    def decode_tokens_per_s(self) -> float:
        """Decode-phase rate (Table 8's tokens/s)."""
        if self.seq_out == 0:
            return 0.0
        return self.seq_out / self.decode_seconds

    @property
    def tokens_per_joule(self) -> float:
        """Energy efficiency (Table 8's token/J)."""
        return (self.seq_in + self.seq_out) / self.energy_joules


def _remember(key: Tuple, cost: KernelCost) -> KernelCost:
    """Store one freshly priced component cost under ``key``."""
    global _COMPONENT_COST_MISSES
    _COMPONENT_COST_MISSES += 1
    _COMPONENT_COST_CACHE[key] = cost
    return cost


class SystemModel:
    """Common machinery for per-system cost models.

    ``prefill_cost``, ``decode_token_cost`` and ``chunked_prefill_cost``
    are memoized process-wide per ``(system type, device, model, shape,
    grid)``; see :meth:`_component_lookup`.
    """

    name = "system"

    def __init__(self, device: PLMRDevice):
        self.device = device

    # -- hooks subclasses implement --------------------------------------
    def phases_for_op(
        self, op: LayerOp, grid: int, mode: str, model: ModelConfig
    ) -> List[Phase]:
        """Map one logical op to cost phases. ``mode`` is 'prefill'/'decode'."""
        raise NotImplementedError

    def prefill_grid(self, model: ModelConfig) -> int:
        """Default prefill core configuration for this system."""
        raise NotImplementedError

    def decode_grid(self, model: ModelConfig) -> int:
        """Default decode core configuration for this system."""
        raise NotImplementedError

    # -- shared costing ---------------------------------------------------
    def _schedule_cost(
        self,
        label: str,
        ops: List[LayerOp],
        grid: int,
        mode: str,
        model: ModelConfig,
    ) -> KernelCost:
        """Price a schedule, re-planning only the ops that changed.

        An op equal to the op at the same position in the last schedule
        priced under this label reuses that op's per-phase increments;
        the increments are then summed phase by phase in schedule order,
        exactly as :func:`~repro.mesh.cost_model.estimate` would.
        """
        global _OPS_PRICED, _OPS_REUSED
        side = min(self.device.mesh_width, self.device.mesh_height)
        if not 1 <= grid <= side:
            raise ConfigurationError(
                f"grid {grid} outside the device fabric (1..{side})"
            )
        device = self.device
        key = (
            _LAST_SCHEDULE_CACHE_VERSION, type(self), device, model, grid,
            mode, label,
        )
        last_ops, last_increments = _LAST_SCHEDULE_CACHE.get(key, ((), []))
        ops = tuple(ops)
        increments: List[Tuple] = []
        for i, op in enumerate(ops):
            if i < len(last_ops) and last_ops[i] == op:
                increments.append(last_increments[i])
                _OPS_REUSED += 1
            else:
                increments.append(tuple(
                    phase_cycles(phase, device)
                    for phase in self.phases_for_op(op, grid, mode, model)
                ))
                _OPS_PRICED += 1
        _LAST_SCHEDULE_CACHE[key] = (ops, increments)
        return accumulate(label, device, chain.from_iterable(increments))

    def _component_lookup(
        self, kind: str, model: ModelConfig, arg: int, grid: int
    ) -> Tuple[Tuple, Optional[KernelCost]]:
        """Memo key for one component price, plus the cost when present.

        ``grid`` must already be resolved: a placement plan only changes
        the default grid, so keying on the resolved value keeps plans
        out of the key without letting two grids alias one entry.
        ``type(self)`` separates systems that price one shape
        differently on the same device.
        """
        key = (
            _COMPONENT_COST_CACHE_VERSION, type(self), self.device, model,
            kind, arg, grid,
        )
        return key, _COMPONENT_COST_CACHE.get(key)

    def prefill_cost(
        self, model: ModelConfig, seq_len: int, grid: Optional[int] = None
    ) -> KernelCost:
        """Cost of one full prefill pass (all layers + LM head)."""
        if grid is None:
            grid = self.prefill_grid(model)
        key, cost = self._component_lookup("prefill", model, seq_len, grid)
        if cost is not None:
            return cost
        layer = self._schedule_cost(
            f"{self.name}-prefill-layer",
            prefill_layer_schedule(model, seq_len),
            grid, "prefill", model,
        )
        head = self._schedule_cost(
            f"{self.name}-prefill-head",
            lm_head_schedule(model, seq_len),
            grid, "prefill", model,
        )
        return _remember(key, layer.scaled(model.num_layers) + head)

    def decode_token_cost(
        self, model: ModelConfig, context_len: int, grid: Optional[int] = None
    ) -> KernelCost:
        """Cost of emitting one token at the given live context length."""
        if grid is None:
            grid = self.decode_grid(model)
        key, cost = self._component_lookup("decode", model, context_len, grid)
        if cost is not None:
            return cost
        layer = self._schedule_cost(
            f"{self.name}-decode-layer",
            decode_layer_schedule(model, context_len),
            grid, "decode", model,
        )
        head = self._schedule_cost(
            f"{self.name}-decode-head",
            lm_head_schedule(model, 1),
            grid, "decode", model,
        )
        return _remember(key, layer.scaled(model.num_layers) + head)

    def chunked_prefill_cost(
        self, model: ModelConfig, chunk_len: int, grid: Optional[int] = None
    ) -> KernelCost:
        """Cost of prefilling one ``chunk_len``-token chunk with weights
        resident (no LM head — only the final chunk feeds the head, and
        in the serving model the first token comes out of the first
        decode step).

        Chunked prefill runs *in the decode regions*: the chunk is small
        enough that its activations fit beside the resident decode-layout
        weights, so the pass is priced in ``decode`` mode — it does not
        pay the prefill corridor's weight streaming.  That residency is
        the memory-orchestration lever (MOCAP) that makes chunked prefill
        profitable on a wafer.
        """
        if chunk_len < 1:
            raise ConfigurationError("chunk_len must be positive")
        if grid is None:
            grid = self.decode_grid(model)
        key, cost = self._component_lookup("chunk", model, chunk_len, grid)
        if cost is not None:
            return cost
        layer = self._schedule_cost(
            f"{self.name}-prefill-chunk",
            prefill_layer_schedule(model, chunk_len),
            grid, "decode", model,
        )
        chunked = layer.scaled(model.num_layers)
        # A chunk can always be executed token-by-token through the
        # decode path instead (same resident weights, GEMV-shaped), so
        # that pricing bounds the chunk cost from above.  Without it the
        # GEMM schedule's shrinking sub-grids make tiny chunks absurdly
        # expensive — a 1-token chunk must cost one decode step, not a
        # degenerate 1-wide GEMM pass.
        fallback = self.decode_token_cost(model, chunk_len, grid).scaled(
            chunk_len
        )
        if fallback.total_cycles < chunked.total_cycles:
            chunked = KernelCost(
                name=chunked.name,
                device=chunked.device,
                compute_cycles=fallback.compute_cycles,
                comm_cycles=fallback.comm_cycles,
                total_cycles=fallback.total_cycles,
            )
        return _remember(key, chunked)

    # -- headline metrics ---------------------------------------------------
    def prefill_throughput(
        self, model: ModelConfig, seq_len: int, grid: Optional[int] = None
    ) -> float:
        """Prefill tokens/s (Table 3's metric)."""
        cost = self.prefill_cost(model, seq_len, grid)
        return seq_len / cost.seconds

    def decode_throughput(
        self, model: ModelConfig, context_len: int, grid: Optional[int] = None
    ) -> float:
        """Decode tokens/s at steady context (Table 4's metric)."""
        cost = self.decode_token_cost(model, context_len, grid)
        return 1.0 / cost.seconds

    def generation(
        self,
        model: ModelConfig,
        seq_in: int,
        seq_out: int,
        prefill_grid: Optional[int] = None,
        decode_grid: Optional[int] = None,
    ) -> GenerationResult:
        """Full-request timing/energy (Tables 2 and 8)."""
        if seq_in < 1 or seq_out < 0:
            raise ConfigurationError("seq_in must be >=1 and seq_out >=0")
        prefill = self.prefill_cost(model, seq_in, prefill_grid)
        mean_context = seq_in + seq_out / 2.0
        per_token = self.decode_token_cost(model, int(mean_context), decode_grid)
        decode_seconds = per_token.seconds * seq_out
        total = prefill.seconds + decode_seconds
        return GenerationResult(
            system=self.name,
            model=model.name,
            seq_in=seq_in,
            seq_out=seq_out,
            prefill_seconds=prefill.seconds,
            decode_seconds=decode_seconds,
            energy_joules=self.device.energy_joules(total),
        )
