"""The distributed transformer: WaferLLM's forward pass on the mesh.

:class:`WaferTransformer` executes LLM inference through the paper's
distributed kernels (via :class:`~repro.llm.mesh_ops.MeshOpContext`):

* **prefill** — activations ``B L_y E_x``; projections and the FFN run
  through MeshGEMM; attention scores use dist-GEMM-T (``Q @ K^T`` with K
  untransposed — the transpose-free plan of Figure 3); softmax and
  RMSNorm reductions use the two-way K-tree.
* **decode** — activations ``B E_y L^x`` (fine-grained replication);
  every projection is a MeshGEMV; attention over the cached context is a
  pair of GEMVs per KV head; K/V vectors enter the **shift-based KV
  cache**, which the attention scan reads back in logical order.

Numerics are validated against :class:`~repro.llm.reference.ReferenceTransformer`
to fp-tolerance: the only differences are reduction reassociation inside
the distributed kernels.

This is the functional half of the engine; time/energy estimates for
wafer-scale configurations come from :mod:`repro.llm.wafer_system`
and :mod:`repro.llm.engine`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.llm.config import ModelConfig
from repro.llm.kvcache import ConcatKVCache, KVCacheGeometry, ShiftKVCache
from repro.llm.mesh_ops import MeshOpContext
from repro.llm.reference import (
    ModelWeights,
    apply_rope,
    rope_frequencies,
    silu,
)


class WaferTransformer:
    """Distributed transformer executing through mesh kernels.

    Without an explicit ``ops`` it builds the default
    :class:`~repro.llm.mesh_ops.MeshOpContext`, which is compiled:
    kernels are captured lazily on first use and replayed on warm
    machines, bit-exact with ``MeshOpContext(compiled=False)``.
    """

    def __init__(
        self,
        weights: ModelWeights,
        ops: Optional[MeshOpContext] = None,
        kv_rows: int = 4,
        kv_budget_bytes: int = 1 << 20,
        cache_kind: str = "shift",
        plan=None,
    ):
        self.weights = weights
        self.config = weights.config
        self.plan = plan
        if ops is None:
            # A placement plan sets the functional mesh scale: the
            # transformer executes at the plan's validated probe grid
            # (wafer-scale regions cannot be simulated bit-level).
            if plan is not None:
                ops = MeshOpContext(grid=plan.functional_grid)
            else:
                ops = MeshOpContext()
        self.ops = ops
        geometry = KVCacheGeometry(
            grid_width=self.ops.grid,
            grid_height=kv_rows,
            kv_dim=self.config.kv_dim,
            dtype_bytes=8,  # fp64 functional tiles
            budget_bytes_per_core=kv_budget_bytes,
        )
        if cache_kind == "shift":
            cache_cls = ShiftKVCache
        elif cache_kind == "concat":
            cache_cls = ConcatKVCache
        else:
            raise ConfigurationError(
                f"cache_kind must be 'shift' or 'concat', got {cache_kind!r}"
            )
        self._caches = [cache_cls(geometry) for _ in range(self.config.num_layers)]
        self._position = 0

    # ------------------------------------------------------------------
    @property
    def position(self) -> int:
        """Tokens processed so far."""
        return self._position

    def kv_cache(self, layer_idx: int):
        """The KV-cache manager of one layer (for inspection in tests)."""
        return self._caches[layer_idx]

    def reset(self) -> None:
        """Drop caches and restart at position zero."""
        geometry = self._caches[0].geometry
        cache_cls = type(self._caches[0])
        self._caches = [cache_cls(geometry) for _ in range(self.config.num_layers)]
        self._position = 0

    # ------------------------------------------------------------------
    # Prefill (GEMM path)
    # ------------------------------------------------------------------
    def prefill(self, token_ids: np.ndarray) -> np.ndarray:
        """Process a prompt; returns logits of shape ``(seq, vocab)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ShapeError("prompt must be a non-empty 1-D token array")
        if self._position != 0:
            raise ConfigurationError("prefill must run before any decode step")
        cfg = self.config
        positions = np.arange(token_ids.shape[0])
        x = self.weights.embedding[token_ids]
        for layer_idx in range(cfg.num_layers):
            x = self._prefill_layer(layer_idx, x, positions)
        self._position = token_ids.shape[0]
        x = self.ops.rms_norm_rows(x, self.weights.final_norm, cfg.norm_eps)
        return self.ops.gemm(x, self.weights.lm_head)

    def _prefill_layer(
        self, layer_idx: int, x: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        lw = self.weights.layers[layer_idx]
        seq = x.shape[0]
        hd = cfg.head_dim

        h = self.ops.rms_norm_rows(x, lw.attn_norm, cfg.norm_eps)
        q = self.ops.gemm(h, lw.wq)
        k = self.ops.gemm(h, lw.wk)
        v = self.ops.gemm(h, lw.wv)

        q = q.reshape(seq, cfg.n_heads, hd).transpose(1, 0, 2)
        k = k.reshape(seq, cfg.n_kv_heads, hd).transpose(1, 0, 2)
        v = v.reshape(seq, cfg.n_kv_heads, hd).transpose(1, 0, 2)
        cos, sin = rope_frequencies(hd, positions, cfg.rope_theta)
        q = apply_rope(q, cos, sin)
        k = apply_rope(k, cos, sin)

        # Cache the prompt's K/V token by token (oldest first), exactly
        # as the shift-based manager receives them during generation.
        cache = self._caches[layer_idx]
        for t in range(seq):
            cache.append(
                k[:, t, :].reshape(-1), v[:, t, :].reshape(-1)
            )

        scale = 1.0 / np.sqrt(hd)
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        group = cfg.group_size
        head_outputs: List[np.ndarray] = []
        for head in range(cfg.n_heads):
            kv_head = head // group
            # Q @ K^T with K kept untransposed: dist-GEMM-T (Figure 3).
            scores = self.ops.gemm_t(q[head], k[kv_head]) * scale
            scores = np.where(mask, -np.inf, scores)
            probs = self.ops.softmax_rows(scores)
            head_outputs.append(self.ops.gemm(probs, v[kv_head]))
        attn = np.stack(head_outputs, axis=1).reshape(seq, cfg.d_model)
        x = x + self.ops.gemm(attn, lw.wo)

        h = self.ops.rms_norm_rows(x, lw.ffn_norm, cfg.norm_eps)
        gate = self.ops.gemm(h, lw.w_gate)
        up = self.ops.gemm(h, lw.w_up)
        return x + self.ops.gemm(silu(gate) * up, lw.w_down)

    # ------------------------------------------------------------------
    # Decode (GEMV path)
    # ------------------------------------------------------------------
    def decode_step(self, token_id: int) -> np.ndarray:
        """Decode one token; returns logits of shape ``(vocab,)``."""
        cfg = self.config
        position = np.array([self._position])
        x = self.weights.embedding[int(token_id)]
        for layer_idx in range(cfg.num_layers):
            x = self._decode_layer(layer_idx, x, position)
        self._position += 1
        x = self.ops.rms_norm(x, self.weights.final_norm, cfg.norm_eps)
        return self.ops.gemv(x, self.weights.lm_head)

    def _decode_layer(
        self, layer_idx: int, x: np.ndarray, position: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        lw = self.weights.layers[layer_idx]
        hd = cfg.head_dim

        h = self.ops.rms_norm(x, lw.attn_norm, cfg.norm_eps)
        q = self.ops.gemv(h, lw.wq)
        k = self.ops.gemv(h, lw.wk)
        v = self.ops.gemv(h, lw.wv)

        q = q.reshape(cfg.n_heads, hd)
        k = k.reshape(cfg.n_kv_heads, hd)
        v = v.reshape(cfg.n_kv_heads, hd)
        cos, sin = rope_frequencies(hd, position, cfg.rope_theta)
        q = apply_rope(q[:, None, :], cos, sin)[:, 0, :]
        k = apply_rope(k[:, None, :], cos, sin)[:, 0, :]

        cache = self._caches[layer_idx]
        cache.append(k.reshape(-1), v.reshape(-1))
        k_all, v_all = cache.all_kv()          # (tokens, kv_dim)
        total = k_all.shape[0]
        k_all = k_all.reshape(total, cfg.n_kv_heads, hd)
        v_all = v_all.reshape(total, cfg.n_kv_heads, hd)

        scale = 1.0 / np.sqrt(hd)
        group = cfg.group_size
        head_outputs: List[np.ndarray] = []
        for head in range(cfg.n_heads):
            kv_head = head // group
            # Score GEMV over the cached keys, softmax via K-tree
            # reductions, then the value GEMV — all mesh kernels.
            scores = self.ops.gemv(q[head], k_all[:, kv_head, :].T) * scale
            probs = self.ops.softmax(scores)
            head_outputs.append(self.ops.gemv(probs, v_all[:, kv_head, :]))
        attn = np.concatenate(head_outputs)
        x = x + self.ops.gemv(attn, lw.wo)

        h = self.ops.rms_norm(x, lw.ffn_norm, cfg.norm_eps)
        gate = self.ops.gemv(h, lw.w_gate)
        up = self.ops.gemv(h, lw.w_up)
        return x + self.ops.gemv(silu(gate) * up, lw.w_down)

    # ------------------------------------------------------------------
    def generate(self, prompt: np.ndarray, num_tokens: int) -> np.ndarray:
        """Greedy generation: distributed prefill + decode."""
        logits = self.prefill(np.asarray(prompt))
        next_token = int(np.argmax(logits[-1]))
        out = []
        for _ in range(num_tokens):
            out.append(next_token)
            step_logits = self.decode_step(next_token)
            next_token = int(np.argmax(step_logits))
        return np.array(out, dtype=np.int64)
