"""Shape-keyed step-cost cache shared by every serving simulation.

The serving loop prices the same few step shapes millions of times: a
decode step's cost depends only on ``(model, device, grid, batch,
context bucket, chunk)``, yet `WaferServer` used to re-enter the
analytic cost model per engine instance (each fleet wafer epoch carried
its own private memo) and never memoized exclusive prefill at all.

This module is the process-wide memo.  Keys are value-hashed — both
:class:`~repro.llm.config.ModelConfig` and
:class:`~repro.core.plmr.PLMRDevice` are frozen dataclasses — and carry
the cost-kind tag plus every shape argument, so two servers with the
same model/device/grid share entries regardless of which fleet epoch or
benchmark run created them.  Placement plans do *not* enter the key:
a plan only changes the grids a system picks by default, and every
lookup here passes its grid explicitly.

Fused steps, looked up once per simulated step, sit behind two levels so
the hot lookup hashes no dataclass: one table per ``(model, device,
grid)``, keyed by ``(context bucket, batch, chunk)`` ints.  A
:class:`FusedStepTable` binds a server to its table once (one hash of
the model and device) and then looks up ints; servers with the same
model, device and grid bind the same table, so they still share
entries.

Invalidation follows the repo's version-counter discipline (DESIGN.md
§14): the module version is the first element of every key — for fused
steps, of every table key — and :func:`invalidate` bumps it, so stale
entries become unreachable rather than merely deleted; the cache-key
dataflow pass can certify the discipline because the key literally
consumes the counter.  A bound table compares its version with the
module's on every lookup and re-binds after a bump.

Underneath sits the component memo of
:class:`~repro.llm.system_base.SystemModel`: a miss here re-prices the
step from memoized decode/chunk/prefill components, so a shape that
differs only in batch size or wafer costs one dict lookup per
component.  A chunk component miss prices the whole chunk prefix in one
vector pass.  :func:`invalidate` orphans both levels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.llm import system_base
from repro.llm.config import ModelConfig
from repro.llm.wafer_system import WaferLLMSystem

# Process-wide memo from shape key to seconds (or cycles, for the
# ``chunk_cycles`` kind), and the fused-step tables keyed by
# ``(version, model, device, grid)``.  The version counter below is
# consumed as the leading key element: bumping it orphans every prior
# entry.
_STEP_COST_CACHE: Dict[Tuple, float] = {}
_FUSED_TABLES: Dict[Tuple, Dict[Tuple[int, int, int], float]] = {}
_STEP_COST_CACHE_VERSION: int = 0
_CACHE_HITS: int = 0
_CACHE_MISSES: int = 0


def _lookup(system: WaferLLMSystem, model: ModelConfig, kind: str,
            *shape: int) -> Tuple[Tuple, Optional[float]]:
    """Key for one cost shape, plus the cached value when present."""
    key = (_STEP_COST_CACHE_VERSION, kind, model, system.device, *shape)
    return key, _STEP_COST_CACHE.get(key)


class FusedStepTable:
    """One server's binding to the fused-step prices of its
    ``(model, device, grid)``.

    A miss is priced by the bound ``system``; the prices themselves sit
    in the process-wide table every binding of the same model, device
    and grid shares.
    """

    __slots__ = ("system", "model", "grid", "version", "cache")

    def __init__(
        self, system: WaferLLMSystem, model: ModelConfig, grid: int
    ):
        self.system = system
        self.model = model
        self.grid = grid
        self._bind()

    def _bind(self) -> None:
        self.version = _STEP_COST_CACHE_VERSION
        self.cache = _FUSED_TABLES.setdefault(
            (self.version, self.model, self.system.device, self.grid), {}
        )

    def seconds(
        self, context_bucket: int, decode_batch: int, chunk_tokens: int
    ) -> float:
        """Seconds for one fused decode(+chunk) step at a bucketed
        context."""
        global _CACHE_HITS, _CACHE_MISSES
        if self.version != _STEP_COST_CACHE_VERSION:
            self._bind()
        key = (context_bucket, decode_batch, chunk_tokens)
        seconds = self.cache.get(key)
        if seconds is None:
            _CACHE_MISSES += 1
            seconds = self.system.fused_step_cost(
                self.model, context_bucket, decode_batch, chunk_tokens,
                self.grid,
            ).seconds
            self.cache[key] = seconds
        else:
            _CACHE_HITS += 1
        return seconds


def fused_step_seconds(
    system: WaferLLMSystem,
    model: ModelConfig,
    context_bucket: int,
    decode_batch: int,
    chunk_tokens: int,
    grid: int,
) -> float:
    """Seconds for one fused decode(+chunk) step at a bucketed context."""
    return FusedStepTable(system, model, grid).seconds(
        context_bucket, decode_batch, chunk_tokens
    )


def exclusive_prefill_seconds(
    system: WaferLLMSystem,
    model: ModelConfig,
    seq_in: int,
    grid: int,
) -> float:
    """Seconds for one exclusive (decode-stalling) prefill block."""
    global _CACHE_HITS, _CACHE_MISSES
    key, seconds = _lookup(system, model, "prefill", seq_in, grid)
    if seconds is None:
        _CACHE_MISSES += 1
        seconds = system.prefill_cost(model, seq_in, grid).seconds
        _STEP_COST_CACHE[key] = seconds
    else:
        _CACHE_HITS += 1
    return seconds


def chunk_compute_cycles(
    system: WaferLLMSystem,
    model: ModelConfig,
    chunk_tokens: int,
    grid: int,
) -> float:
    """Compute cycles of one chunked-prefill chunk (admission pricing)."""
    global _CACHE_HITS, _CACHE_MISSES
    key, cycles = _lookup(system, model, "chunk_cycles", chunk_tokens, grid)
    if cycles is None:
        _CACHE_MISSES += 1
        cycles = system.chunked_prefill_cost(
            model, chunk_tokens, grid
        ).compute_cycles
        _STEP_COST_CACHE[key] = cycles
    else:
        _CACHE_HITS += 1
    return cycles


def invalidate() -> int:
    """Orphan every cached step cost and component cost by bumping
    their key versions.

    Call after anything that could change what a (model, device, grid,
    shape) key prices — e.g. monkeypatching cost-model constants in a
    test.  Returns the new step-cost version.
    """
    global _STEP_COST_CACHE_VERSION
    _STEP_COST_CACHE_VERSION += 1
    _STEP_COST_CACHE.clear()
    _FUSED_TABLES.clear()
    system_base.invalidate_component_costs()
    return _STEP_COST_CACHE_VERSION


def cache_info() -> Dict[str, int]:
    """Counters for tests and diagnostics.

    ``component_size`` and ``component_misses`` describe the component
    memo underneath: each component miss prices one distinct
    ``(system, device, model, kind, shape, grid)`` entry, exactly once,
    whether alone or as one element of a chunk axis pass.
    """
    component = system_base.component_cache_info()
    return {
        "size": len(_STEP_COST_CACHE) + sum(
            len(table) for table in _FUSED_TABLES.values()
        ),
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "version": _STEP_COST_CACHE_VERSION,
        "component_size": component["size"],
        "component_misses": component["misses"],
    }
