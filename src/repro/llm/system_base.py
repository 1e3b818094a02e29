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

A schedule built for an int array of lengths is priced in one pass of
elementwise arithmetic, each element bit-identical to its scalar price
(DESIGN.md §15.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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

#: The cycle fields of a :class:`KernelCost`, in constructor order.
_CYCLES = ("compute_cycles", "comm_cycles", "total_cycles")

# Process-wide memo of finished component costs (DESIGN.md §15.6).  The
# version counter is the leading key element: bumping it orphans every
# prior entry.  ``repro.serving.stepcost.invalidate`` is the one caller.
_COMPONENT_COST_CACHE: Dict[Tuple, KernelCost] = {}
_COMPONENT_COST_CACHE_VERSION: int = 0
_COMPONENT_COST_MISSES: int = 0


def invalidate_component_costs() -> None:
    """Orphan every memoized component cost by bumping the key version."""
    global _COMPONENT_COST_CACHE_VERSION
    _COMPONENT_COST_CACHE_VERSION += 1
    _COMPONENT_COST_CACHE.clear()


def component_cache_info() -> Dict[str, int]:
    """Size and cumulative misses (entries priced) of the component memo."""
    return {"size": len(_COMPONENT_COST_CACHE),
            "misses": _COMPONENT_COST_MISSES}


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
    grid)``; see :meth:`_component_lookup`, which also rejects shapes
    below 1 for every system.
    """

    name = "system"

    def __init__(self, device: PLMRDevice):
        self.device = device

    # -- hooks subclasses implement --------------------------------------
    def phases_for_op(
        self, op: LayerOp, grid: int, mode: str, model: ModelConfig
    ) -> List[Phase]:
        """Map one logical op (scalar or axis shape fields) to cost
        phases. ``mode`` is 'prefill'/'decode'."""
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
        """Price a schedule (array fields on an axis) exactly as
        :func:`~repro.mesh.cost_model.estimate` sums its phases."""
        side = min(self.device.mesh_width, self.device.mesh_height)
        if not 1 <= grid <= side:
            raise ConfigurationError(
                f"grid {grid} outside the device fabric (1..{side})"
            )
        device = self.device
        return accumulate(label, device, (
            phase_cycles(phase, device)
            for op in ops
            for phase in self.phases_for_op(op, grid, mode, model)
        ))

    def _decode_cost(self, model: ModelConfig, context, grid: int) -> KernelCost:
        """One decode token at ``context`` (an int or an int axis)."""
        layer = self._schedule_cost(
            f"{self.name}-decode-layer",
            decode_layer_schedule(model, context),
            grid, "decode", model,
        )
        head = self._schedule_cost(
            f"{self.name}-decode-head",
            lm_head_schedule(model, 1),
            grid, "decode", model,
        )
        return layer.scaled(model.num_layers) + head

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
        if arg < 1:
            raise ConfigurationError(f"{kind} shape must be positive: {arg}")
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
        return _remember(key, self._decode_cost(model, context_len, grid))

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

        A miss prices every chunk length ``1..chunk_len`` not yet
        memoized, with its decode fallback, in one axis pass: a server's
        first chunk is its configured size and later ones are no longer.
        """
        if grid is None:
            grid = self.decode_grid(model)
        key, cost = self._component_lookup("chunk", model, chunk_len, grid)
        if cost is not None:
            return cost
        lengths = np.array([
            n for n in range(1, chunk_len + 1)
            if self._component_lookup("chunk", model, n, grid)[1] is None
        ])
        chunked = self._schedule_cost(
            f"{self.name}-prefill-chunk",
            prefill_layer_schedule(model, lengths),
            grid, "decode", model,
        ).scaled(model.num_layers)
        # A chunk can always be executed token-by-token through the
        # decode path instead (same resident weights, GEMV-shaped), so
        # that pricing bounds the chunk cost from above.  Without it the
        # GEMM schedule's shrinking sub-grids make tiny chunks absurdly
        # expensive — a 1-token chunk must cost one decode step, not a
        # degenerate 1-wide GEMM pass.
        decode = self._decode_cost(model, lengths, grid)
        fallback = decode.scaled(lengths)
        cheaper = fallback.total_cycles < chunked.total_cycles
        rows = zip(
            lengths.tolist(),
            zip(*(getattr(decode, f).tolist() for f in _CYCLES)),
            zip(*(np.where(cheaper, getattr(fallback, f),
                           getattr(chunked, f)).tolist() for f in _CYCLES)),
        )
        for n, decode_row, chunk_row in rows:
            decode_key, known = self._component_lookup(
                "decode", model, n, grid)
            if known is None:
                _remember(decode_key,
                          KernelCost(decode.name, self.device, *decode_row))
            cost = _remember(
                self._component_lookup("chunk", model, n, grid)[0],
                KernelCost(chunked.name, self.device, *chunk_row),
            )
        return cost

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
