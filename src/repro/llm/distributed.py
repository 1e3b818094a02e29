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
  cache**, which the attention scan reads back in logical order.  A
  layer is written once, as a plan of kernel launches and named host
  steps (:meth:`WaferTransformer._plan`); a compiled context replays it
  as one bound tape per layer and padded KV length.

Numerics are validated against :class:`~repro.llm.reference.ReferenceTransformer`
to fp-tolerance: the only differences are reduction reassociation inside
the distributed kernels.

This is the functional half of the engine; time/energy estimates for
wafer-scale configurations come from :mod:`repro.llm.wafer_system`
and :mod:`repro.llm.engine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.llm.config import ModelConfig
from repro.llm.kvcache import ConcatKVCache, KVCacheGeometry, ShiftKVCache
from repro.llm.mesh_ops import (
    Gemv,
    Host,
    LayerOp,
    LayerTape,
    MeshOpContext,
    RmsNorm,
    Softmax,
)
from repro.llm.reference import (
    ModelWeights,
    apply_rope,
    check_num_tokens,
    check_token_ids,
    rope_frequencies,
    silu,
)


class WaferTransformer:
    """Distributed transformer executing through mesh kernels.

    Without an explicit ``ops`` it builds the default
    :class:`~repro.llm.mesh_ops.MeshOpContext`, which is compiled:
    kernels are captured lazily on first use and replayed on warm
    machines, bit-exact with ``MeshOpContext(compiled=False)``.

    In compiled mode each decode layer runs as one replay of a layer
    tape keyed by (layer, padded KV length) and captured the first time
    a token reaches that key (:meth:`MeshOpContext.run_layer
    <repro.llm.mesh_ops.MeshOpContext.run_layer>`).  The tapes outlive
    :meth:`reset`; there are at most ``num_layers * ceil(max_seq_len /
    grid)`` of them, because prompts longer than ``max_seq_len`` and
    decode steps past it raise :class:`~repro.errors.ShapeError`, as do
    token ids outside the vocabulary.  Prefill, the final norm and the
    LM head run launch by launch on the context's warm machines.
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
        self._plans: Dict[int, List[LayerOp]] = {}
        #: Bound decode-layer tapes keyed by (layer, padded KV length):
        #: at most ``num_layers * ceil(max_seq_len / grid)`` of them.
        self._layer_tapes: Dict[Tuple[int, int], LayerTape] = {}
        self._rope_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

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
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ShapeError("prompt must be a non-empty 1-D token array")
        if self._position != 0:
            raise ConfigurationError("prefill must run before any decode step")
        cfg = self.config
        check_token_ids(token_ids, cfg.vocab_size)
        token_ids = token_ids.astype(np.int64, copy=False)
        if token_ids.shape[0] > cfg.max_seq_len:
            raise ShapeError(
                f"prompt of {token_ids.shape[0]} tokens is longer than "
                f"max_seq_len {cfg.max_seq_len}"
            )
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
        ids = np.asarray(token_id)
        if ids.ndim != 0:
            raise ShapeError(
                f"decode_step takes one token id, got shape {ids.shape}"
            )
        check_token_ids(ids, cfg.vocab_size)
        token = int(ids)
        if self._position >= cfg.max_seq_len:
            raise ShapeError(
                f"decode at position {self._position} is past "
                f"max_seq_len {cfg.max_seq_len}"
            )
        x = self.weights.embedding[token]
        for layer_idx in range(cfg.num_layers):
            x = self._decode_layer(layer_idx, x)
        self._position += 1
        x = self.ops.rms_norm(x, self.weights.final_norm, cfg.norm_eps)
        return self.ops.gemv(x, self.weights.lm_head)

    def _decode_layer(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        """One decode layer: the layer's plan, run or replayed by the
        context.

        The layer tape key is the layer and the padded KV length after
        this token's append: every launch shape of the layer follows
        from it.
        """
        grid = self.ops.grid
        cache = self._caches[layer_idx]
        padded_kv = -(-(cache.num_tokens + 1) // grid) * grid
        regs = {"x": x, "cache": cache, "rope": self._rope(self._position)}
        self.ops.run_layer(self._plan(layer_idx), regs, self._layer_tapes,
                           (layer_idx, padded_kv))
        return regs["x"]

    def _rope(self, position: int):
        """RoPE ``(cos, sin)`` tables of one position, computed once."""
        tables = self._rope_tables.get(position)
        if tables is None:
            cfg = self.config
            tables = self._rope_tables[position] = rope_frequencies(
                cfg.head_dim, np.array([position]), cfg.rope_theta
            )
        return tables

    def _plan(self, layer_idx: int) -> List[LayerOp]:
        """The decode layer as launches and named host steps.

        Registers: ``x`` (the residual stream, in and out), ``cache``
        and ``rope`` (this position's tables) come in; every other name
        is an intermediate.  Per head, a score GEMV over the cached
        keys, a K-tree softmax, and a value GEMV.
        """
        plan = self._plans.get(layer_idx)
        if plan is not None:
            return plan
        cfg = self.config
        lw = self.weights.layers[layer_idx]
        hd = cfg.head_dim
        scale = 1.0 / np.sqrt(hd)
        heads = [f"q{h}" for h in range(cfg.n_heads)]
        outs = [f"o{h}" for h in range(cfg.n_heads)]
        keys = [f"kT{h}" for h in range(cfg.n_kv_heads)]
        values = [f"v{h}" for h in range(cfg.n_kv_heads)]

        def rope_and_cache(regs) -> None:
            # Queries and keys rotate in one element-wise call.
            qk = np.concatenate([regs["q"], regs["k"]])
            qk = apply_rope(qk.reshape(-1, hd), *regs["rope"])
            q = qk[: cfg.n_heads]
            cache = regs["cache"]
            cache.append(qk[cfg.n_heads:].reshape(-1), regs["v"])
            k_all, v_all = cache.all_kv()          # (tokens, kv_dim)
            total = k_all.shape[0]
            k_all = k_all.reshape(total, cfg.n_kv_heads, hd)
            v_all = v_all.reshape(total, cfg.n_kv_heads, hd)
            for head, name in enumerate(heads):
                regs[name] = q[head]
            for kv_head in range(cfg.n_kv_heads):
                regs[keys[kv_head]] = k_all[:, kv_head, :].T
                regs[values[kv_head]] = v_all[:, kv_head, :]

        def scale_scores(regs) -> None:
            regs["s"] = regs["s"] * scale

        def attend(regs) -> None:
            regs["attn"] = np.concatenate([regs[name] for name in outs])

        def add_residual(regs) -> None:
            regs["x"] = regs["x"] + regs["o"]

        def swiglu(regs) -> None:
            regs["g"] = silu(regs["gate"]) * regs["up"]

        plan = [
            RmsNorm("h", "x", lw.attn_norm, cfg.norm_eps),
            Gemv("q", "h", lw.wq),
            Gemv("k", "h", lw.wk),
            Gemv("v", "h", lw.wv),
            Host(rope_and_cache),
        ]
        for head in range(cfg.n_heads):
            kv_head = head // cfg.group_size
            # Score GEMV over the cached keys, softmax via K-tree
            # reductions, then the value GEMV — all mesh kernels.
            plan += [
                Gemv("s", heads[head], keys[kv_head]),
                Host(scale_scores),
                Softmax("p", "s"),
                Gemv(outs[head], "p", values[kv_head]),
            ]
        plan += [
            Host(attend),
            Gemv("o", "attn", lw.wo),
            Host(add_residual),
            RmsNorm("h", "x", lw.ffn_norm, cfg.norm_eps),
            Gemv("gate", "h", lw.w_gate),
            Gemv("up", "h", lw.w_up),
            Host(swiglu),
            Gemv("o", "g", lw.w_down),
            Host(add_residual),
        ]
        self._plans[layer_idx] = plan
        return plan

    # ------------------------------------------------------------------
    def generate(self, prompt: np.ndarray, num_tokens: int) -> np.ndarray:
        """Greedy generation: distributed prefill + decode."""
        check_num_tokens(num_tokens)
        logits = self.prefill(np.asarray(prompt))
        next_token = int(np.argmax(logits[-1]))
        out = []
        for _ in range(num_tokens):
            out.append(next_token)
            step_logits = self.decode_step(next_token)
            next_token = int(np.argmax(step_logits))
        return np.array(out, dtype=np.int64)
