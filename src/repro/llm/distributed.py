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

The forward pass is written once, as one plan of kernel launches and
named host steps for both phases (:meth:`WaferTransformer._forward_plan`):
every layer, the final norm and the LM head.  Each op picks its kernel
from the rank of its input, so only the per-head score launch and its
scaling differ by phase.  Prefill runs the plan launch by launch; a
compiled context replays decode as one flat tape per padded KV length:
one prebound step per op, whose GEMV results land in buffers the steps
own, and one listing of the token's launches.  Only the per-head score
and value GEMVs are bound per tape; every other step is shared by all
of them.

Numerics are validated against :class:`~repro.llm.reference.ReferenceTransformer`
to fp-tolerance: the only differences are reduction reassociation inside
the distributed kernels.

This is the functional half of the engine; time/energy estimates for
wafer-scale configurations come from :mod:`repro.llm.wafer_system`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.llm.kvcache import ConcatKVCache, KVCacheGeometry, ShiftKVCache
from repro.llm.mesh_ops import (
    GemmT,
    Gemv,
    Host,
    MeshOpContext,
    PlanOp,
    PlanTape,
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

    In compiled mode each decode step runs as one replay of a flat
    tape keyed by the padded KV length and captured the first time a
    token reaches it (:meth:`MeshOpContext.run_layer
    <repro.llm.mesh_ops.MeshOpContext.run_layer>`); the logits it
    returns are a copy, since the tape's LM-head step reuses its result
    buffer on the next token.  The tapes outlive
    :meth:`reset`; there are at most ``ceil(max_seq_len / grid)`` of
    them, because prompts longer than ``max_seq_len`` and decode steps
    past it raise :class:`~repro.errors.ShapeError`, as do token ids
    outside the vocabulary.  Prefill runs launch by launch on the
    context's warm machines.
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
        caches = {"shift": ShiftKVCache, "concat": ConcatKVCache}
        if not isinstance(cache_kind, str) or cache_kind not in caches:
            raise ConfigurationError(
                f"cache_kind must be 'shift' or 'concat', got {cache_kind!r}"
            )
        self._new_cache = partial(caches[cache_kind], geometry)
        self.reset()
        self._plan = self._forward_plan()
        #: Bound decode tapes keyed by padded KV length: at most
        #: ``ceil(max_seq_len / grid)`` of them.
        self._tapes: Dict[int, PlanTape] = {}
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
        self._caches = [self._new_cache() for _ in range(self.config.num_layers)]
        self._position = 0

    # ------------------------------------------------------------------
    # The two phases run the one forward plan
    # ------------------------------------------------------------------
    def prefill(self, token_ids: np.ndarray) -> np.ndarray:
        """Process a prompt, launch by launch; returns logits of shape
        ``(seq, vocab)``."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ShapeError("prompt must be a non-empty 1-D token array")
        if self._position != 0:
            raise ConfigurationError("prefill must run before any decode step")
        cfg = self.config
        check_token_ids(token_ids, cfg.vocab_size)
        token_ids = token_ids.astype(np.int64, copy=False)
        seq = token_ids.shape[0]
        if seq > cfg.max_seq_len:
            raise ShapeError(
                f"prompt of {seq} tokens is longer than "
                f"max_seq_len {cfg.max_seq_len}"
            )
        regs = {"x": self.weights.embedding[token_ids],
                "rope": rope_frequencies(cfg.head_dim, np.arange(seq),
                                         cfg.rope_theta)}
        for op in self._plan:
            op.run(self.ops, regs)
        self._position = seq
        return regs["logits"]

    def decode_step(self, token_id: int) -> np.ndarray:
        """Decode one token; returns logits of shape ``(vocab,)``.

        The plan runs through :meth:`MeshOpContext.run_layer
        <repro.llm.mesh_ops.MeshOpContext.run_layer>`, keyed by the
        padded KV length after this token's append: every launch shape
        of the token follows from it.
        """
        cfg = self.config
        ids = np.asarray(token_id)
        if ids.ndim != 0:
            raise ShapeError(
                f"decode_step takes one token id, got shape {ids.shape}"
            )
        check_token_ids(ids, cfg.vocab_size)
        position = self._position
        if position >= cfg.max_seq_len:
            raise ShapeError(
                f"decode at position {position} is past "
                f"max_seq_len {cfg.max_seq_len}"
            )
        rope = self._rope_tables.get(position)
        if rope is None:
            rope = self._rope_tables[position] = rope_frequencies(
                cfg.head_dim, np.array([position]), cfg.rope_theta)
        regs = {"x": self.weights.embedding[int(ids)], "rope": rope}
        grid = self.ops.grid
        padded_kv = -(-(position + 1) // grid) * grid
        self.ops.run_layer(self._plan, regs, self._tapes, padded_kv)
        self._position += 1
        # A compiled step's result is a view of its own buffer, which the
        # next token overwrites: the caller gets a copy.
        return regs["logits"].copy()

    def _forward_plan(self) -> List[PlanOp]:
        """The forward pass as launches and named host steps: every
        layer, then the final norm and the LM head.

        Registers: ``x`` (the residual stream: a vector in decode, one
        row per token in prefill) and ``rope`` (the tokens' RoPE tables)
        come in, ``logits`` goes out; every other name is an
        intermediate.  Each op follows the rank of ``x``
        (:mod:`repro.llm.mesh_ops`), so two steps differ by phase: per
        head, the score launch (a GEMV over the cached keys in decode,
        dist-GEMM-T over the prompt's keys in prefill) and the score
        scaling, which also applies the causal mask in prefill.
        """
        cfg = self.config
        hd = cfg.head_dim
        scale = 1.0 / np.sqrt(hd)
        heads = [f"q{h}" for h in range(cfg.n_heads)]
        outs = [f"o{h}" for h in range(cfg.n_heads)]
        keys = [f"kT{h}" for h in range(cfg.n_kv_heads)]
        values = [f"v{h}" for h in range(cfg.n_kv_heads)]

        def rope_and_cache(layer_idx: int, regs) -> None:
            # q/k/v as (heads, tokens, hd); queries and keys rotate in
            # one element-wise call.
            lead = regs["x"].shape[:-1]      # () in decode, (tokens,)
            q = regs["q"].reshape(-1, cfg.n_heads, hd)
            k = regs["k"].reshape(-1, cfg.n_kv_heads, hd)
            qk = apply_rope(np.concatenate([q, k], axis=1).transpose(1, 0, 2),
                            *regs["rope"])
            v = regs["v"].reshape(-1, cfg.kv_dim)
            # The tokens enter the cache oldest first, as the shift-based
            # manager receives them during generation.
            cache = self._caches[layer_idx]
            for t in range(v.shape[0]):
                cache.append(qk[cfg.n_heads:, t].reshape(-1), v[t])
            k_all, v_all = cache.all_kv()          # (tokens, kv_dim)
            total = k_all.shape[0]
            k_all = k_all.reshape(total, cfg.n_kv_heads, hd)
            v_all = v_all.reshape(total, cfg.n_kv_heads, hd)
            for head, name in enumerate(heads):
                regs[name] = qk[head].reshape(lead + (hd,))
            for kv_head in range(cfg.n_kv_heads):
                regs[keys[kv_head]] = k_all[:, kv_head].T
                regs[values[kv_head]] = v_all[:, kv_head]

        def scale_scores(regs) -> None:
            scores = regs["s"] * scale
            if scores.ndim == 2:             # prefill: the causal mask
                mask = np.triu(np.ones(scores.shape, dtype=bool), k=1)
                scores = np.where(mask, -np.inf, scores)
            regs["s"] = scores

        def attend(regs) -> None:
            regs["attn"] = np.concatenate([regs[name] for name in outs],
                                          axis=-1)

        def add_residual(regs) -> None:
            regs["x"] = regs["x"] + regs["o"]

        def swiglu(regs) -> None:
            regs["g"] = silu(regs["gate"]) * regs["up"]

        plan: List[PlanOp] = []
        for layer_idx, lw in enumerate(self.weights.layers):
            plan += [
                RmsNorm("h", "x", lw.attn_norm, cfg.norm_eps),
                Gemv("q", "h", lw.wq),
                Gemv("k", "h", lw.wk),
                Gemv("v", "h", lw.wv),
                Host(partial(rope_and_cache, layer_idx)),
            ]
            for head in range(cfg.n_heads):
                kv_head = head // cfg.group_size
                plan += [
                    GemmT("s", heads[head], keys[kv_head]),
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
        return plan + [
            RmsNorm("h", "x", self.weights.final_norm, cfg.norm_eps),
            Gemv("logits", "h", self.weights.lm_head),
        ]

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
