"""KV-cache management: shift-based (WaferLLM) vs concat-based (GPU style).

Section 4.3: on a mesh, the KV cache of one attention layer is laid out
with tokens stacked along the Y axis (one row of cores per slice of
tokens) and the KV feature dimension split along X.  The two managers
differ in where a *new* token's K/V vectors land:

* **Concat-based** (what PagedAttention-style systems do, translated to
  a mesh): always append at the bottom row.  That row fills while every
  other row idles — skewed memory (violating M) and skewed compute
  (violating P).  Capacity is one row's worth of tokens.
* **Shift-based** (WaferLLM): append at the bottom row, then let every
  row hand its *oldest* token up to the row above whenever the row below
  has grown past it.  All vertical NoC links shift in parallel (one
  phase per token), occupancy stays balanced within one token per row,
  and physical order top-to-bottom equals logical token order — the L
  property's locality is preserved for attention scans.

Both managers here carry real vectors (so the distributed decoder can
attend over them), track where each token position sits (so tests can
assert no token is lost or reordered) and account occupancy in bytes
against a per-core budget, so capacity experiments (Table 5) *measure*
the point of failure rather than computing it from a formula.  The
vectors live once, in a dense buffer in logical order; the rows hold
positions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.errors import (
    CapacityExceeded,
    ConfigurationError,
    require_positive_int,
)
from repro.llm.config import ModelConfig


@dataclass(frozen=True)
class KVCacheGeometry:
    """Geometry and budget of one layer's KV cache region."""

    grid_width: int           # cores along X (feature split)
    grid_height: int          # cores along Y (token rows)
    kv_dim: int               # total K (or V) feature width
    dtype_bytes: int = 2
    budget_bytes_per_core: int = 4096

    def __post_init__(self) -> None:
        for f in fields(self):
            require_positive_int(f.name, getattr(self, f.name))

    @property
    def bytes_per_token_per_core(self) -> int:
        """K + V bytes one token occupies on one core of its row."""
        features_per_core = math.ceil(self.kv_dim / self.grid_width)
        return 2 * features_per_core * self.dtype_bytes

    @property
    def tokens_per_row(self) -> int:
        """Tokens one row of cores can hold within the budget."""
        return self.budget_bytes_per_core // self.bytes_per_token_per_core


class _DenseKV:
    """K and V rows in logical (append) order, for O(1) :meth:`all_kv`.

    The buffers grow by amortized doubling, never to a cache's full
    capacity (a default shift cache holds 131,072 tokens).  A view
    handed out earlier keeps its values: later appends write rows past
    it, and growth copies into new buffers.
    """

    def __init__(self, kv_dim: int):
        self._kv_dim = kv_dim
        self._k: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._count = 0

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        n = self._count
        if self._k is None:
            self._k = np.empty((4,) + k.shape, dtype=k.dtype)
            self._v = np.empty((4,) + v.shape, dtype=v.dtype)
        elif n == len(self._k):
            self._k = self._grown(self._k)
            self._v = self._grown(self._v)
        self._k[n] = k
        self._v[n] = v
        self._count = n + 1

    @staticmethod
    def _grown(buf: np.ndarray) -> np.ndarray:
        out = np.empty((2 * len(buf),) + buf.shape[1:], dtype=buf.dtype)
        out[: len(buf)] = buf
        return out

    def views(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._k is None:
            dim = self._kv_dim
            return np.zeros((0, dim)), np.zeros((0, dim))
        return self._k[: self._count], self._v[: self._count]


class ShiftKVCache:
    """Balanced KV cache with upward shift rebalancing (WaferLLM)."""

    def __init__(self, geometry: KVCacheGeometry):
        self.geometry = geometry
        # rows[0] is the top row (oldest tokens); each entry is a token
        # position, whose K/V vectors are row ``position`` of the dense
        # buffer.
        self._rows: List[Deque[int]] = [
            deque() for _ in range(geometry.grid_height)
        ]
        self._count = 0
        self.total_shift_moves = 0
        self._dense = _DenseKV(geometry.kv_dim)

    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        """Tokens currently cached."""
        return self._count

    @property
    def capacity(self) -> int:
        """Maximum tokens before every row is full."""
        return self.geometry.tokens_per_row * self.geometry.grid_height

    def row_occupancy(self) -> List[int]:
        """Token count per row, top to bottom."""
        return [len(row) for row in self._rows]

    def append(self, k: np.ndarray, v: np.ndarray) -> int:
        """Add one token's K/V; returns the shift moves this append caused.

        Raises
        ------
        CapacityExceeded
            When the cache is full across all rows.
        """
        if self._count >= self.capacity:
            raise CapacityExceeded(self._count, "all rows at budget")
        self._dense.append(np.asarray(k), np.asarray(v))
        self._rows[-1].append(self._count)
        self._count += 1
        # One upward shift wave: every row that has fewer tokens than the
        # row below receives that row's oldest token.  All moves happen
        # on parallel column links — one NoC phase regardless of count.
        moves = 0
        for i in range(self.geometry.grid_height - 1):
            if len(self._rows[i + 1]) > len(self._rows[i]):
                self._rows[i].append(self._rows[i + 1].popleft())
                moves += 1
        self.total_shift_moves += moves
        return moves

    def tokens_in_order(self) -> List[int]:
        """Token positions in physical top-to-bottom scan order."""
        order: List[int] = []
        for row in self._rows:
            order.extend(row)
        return order

    def all_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense (tokens, kv_dim) K and V in logical order.

        Views of buffers kept in append order, which is logical order:
        positions are assigned in append order and shifts never reorder
        them.  O(1); the views must not be written to.
        """
        return self._dense.views()

    def max_row_bytes(self) -> int:
        """Bytes on the fullest row's cores (the M-property hot spot)."""
        per_token = self.geometry.bytes_per_token_per_core
        return max(len(row) for row in self._rows) * per_token


class ConcatKVCache:
    """Append-only KV cache: every token lands on the bottom row.

    The faithful translation of concat-based management (PagedAttention
    et al.) to a mesh: capacity is a *single row's* budget, and that row
    performs all attention arithmetic over the appended suffix.
    """

    def __init__(self, geometry: KVCacheGeometry):
        self.geometry = geometry
        self._count = 0
        self._dense = _DenseKV(geometry.kv_dim)

    @property
    def num_tokens(self) -> int:
        """Tokens currently cached."""
        return self._count

    @property
    def capacity(self) -> int:
        """Maximum tokens: the bottom row's budget only."""
        return self.geometry.tokens_per_row

    def row_occupancy(self) -> List[int]:
        """Token count per row — everything sits on the bottom row."""
        occupancy = [0] * self.geometry.grid_height
        occupancy[-1] = self._count
        return occupancy

    def append(self, k: np.ndarray, v: np.ndarray) -> int:
        """Add one token's K/V to the bottom row (no shifts ever)."""
        if self._count >= self.capacity:
            raise CapacityExceeded(self._count, "bottom row at budget")
        self._dense.append(np.asarray(k), np.asarray(v))
        self._count += 1
        return 0

    def all_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense (tokens, kv_dim) K and V in logical order (O(1) views)."""
        return self._dense.views()

    def max_row_bytes(self) -> int:
        """Bytes on the bottom row's cores."""
        return self._count * self.geometry.bytes_per_token_per_core


# ---------------------------------------------------------------------------
# Capacity modelling for Table 5
# ---------------------------------------------------------------------------

#: SRAM reserved per core for kernel code, stacks, activation tiles and
#: communication double-buffers.  One global constant (see DESIGN.md):
#: absolute capacities in Table 5 depend on this reserve; the headline
#: shift/concat capacity *ratio* equals the row count and does not.
RUNTIME_RESERVE_BYTES = 20 * 1024

#: Floor on the per-core KV budget: even a weight-saturated core keeps a
#: token's worth of buffer space.
MIN_KV_BUDGET_BYTES = 1024


def kv_budget_per_core(
    model: ModelConfig,
    device_core_memory: int,
    total_fabric_cores: int,
    reserve_bytes: int = RUNTIME_RESERVE_BYTES,
) -> int:
    """Per-core KV budget: SRAM minus spread-out weights minus reserve."""
    weights_per_core = model.weight_bytes / max(1, total_fabric_cores)
    budget = device_core_memory - int(weights_per_core) - reserve_bytes
    return max(MIN_KV_BUDGET_BYTES, budget)


def capacity_geometry(
    model: ModelConfig,
    grid: int,
    device_core_memory: int,
    total_fabric_cores: int,
) -> KVCacheGeometry:
    """Geometry for a Table-5 capacity experiment on a ``grid x grid`` region."""
    return KVCacheGeometry(
        grid_width=grid,
        grid_height=grid,
        kv_dim=model.kv_dim,
        dtype_bytes=model.dtype_bytes,
        budget_bytes_per_core=kv_budget_per_core(
            model, device_core_memory, total_fabric_cores
        ),
    )


def region_token_capacity(
    model: ModelConfig,
    grid: int,
    device_core_memory: int,
    total_fabric_cores: int,
) -> int:
    """Total KV tokens a ``grid x grid`` decode region can hold.

    This is the shift-managed capacity — every row's budget counts —
    and the hard M-property ceiling the serving layer's admission
    control reserves against.  Returns 0 when the per-core budget
    cannot hold even one token's K/V slice.
    """
    geometry = capacity_geometry(
        model, grid, device_core_memory, total_fabric_cores
    )
    return geometry.tokens_per_row * geometry.grid_height


class KVTokenLedger:
    """Token-granular reservation ledger for one decode region's KV space.

    The serving scheduler reserves a request's whole KV footprint
    (prompt + generation budget) when its prefill starts and releases it
    when the request finishes, so concurrent streams can never overrun
    the region budget mid-flight — the failure mode Table 5 measures.
    The reserved total is a running counter, so every capacity query is
    O(1) however many holders are live.
    """

    def __init__(self, capacity_tokens: int):
        if capacity_tokens < 0:
            raise ConfigurationError("capacity must be non-negative")
        self.capacity_tokens = capacity_tokens
        self._reserved: dict = {}
        self._reserved_total = 0

    @property
    def reserved_tokens(self) -> int:
        """Tokens currently reserved across all holders."""
        return self._reserved_total

    @property
    def free_tokens(self) -> int:
        """Tokens still available for new reservations."""
        return self.capacity_tokens - self.reserved_tokens

    def can_reserve(self, tokens: int) -> bool:
        """Whether ``tokens`` more would still fit (exact fill allowed)."""
        return 0 < tokens <= self.free_tokens

    def reserve(self, holder: int, tokens: int) -> None:
        """Reserve ``tokens`` for ``holder``; raises when it cannot fit.

        Raises
        ------
        CapacityExceeded
            When the reservation would overrun the region budget.
        ConfigurationError
            On a non-positive reservation or a duplicate holder.
        """
        if tokens < 1:
            raise ConfigurationError("reservation must be positive")
        if holder in self._reserved:
            raise ConfigurationError(f"holder {holder} already has KV")
        if tokens > self.free_tokens:
            raise CapacityExceeded(
                self.reserved_tokens,
                f"reserving {tokens} tokens would exceed the "
                f"{self.capacity_tokens}-token region budget",
            )
        self._reserved[holder] = tokens
        self._reserved_total += tokens

    def release(self, holder: int) -> int:
        """Release a holder's reservation; returns the freed tokens."""
        if holder not in self._reserved:
            raise ConfigurationError(f"holder {holder} has no reservation")
        tokens = self._reserved.pop(holder)
        self._reserved_total -= tokens
        return tokens

    def resize(self, capacity_tokens: int) -> None:
        """Change the region budget in place (graceful degradation).

        Shrinking never evicts live reservations: streams already holding
        KV run to completion even when the new capacity sits below the
        reserved total (``free_tokens`` goes negative and every new
        ``can_reserve`` fails until enough holders release).  This is the
        capacity-degradation lever the fault escalation policy pulls when
        a core dies with no spare region left.
        """
        if capacity_tokens < 0:
            raise ConfigurationError("capacity must be non-negative")
        self.capacity_tokens = capacity_tokens


def measure_max_tokens(cache) -> int:
    """Append placeholder tokens until the cache refuses; returns the count.

    This *drives the failure path*: capacity is whatever the manager
    actually accepted before raising :class:`CapacityExceeded`.  Byte
    accounting comes from the geometry, so zero-length placeholders are
    used to keep the probe cheap.  Intended for test-scale geometries;
    wafer-scale capacities (Table 5) come from the managers' ``capacity``
    properties, which the tests pin to this measured value.
    """
    empty = np.zeros(0, dtype=np.float32)
    while True:
        try:
            cache.append(empty, empty)
        except CapacityExceeded:
            return cache.num_tokens
