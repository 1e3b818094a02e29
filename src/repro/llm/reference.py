"""Dense numpy reference transformer.

This is the numerical ground truth the distributed (mesh-executed)
transformer is validated against.  It implements the LLaMA-family
architecture exactly as the configs describe it: RMSNorm, rotary
position embeddings, MHA/GQA/MQA self-attention with causal masking,
SwiGLU feedforward, and a tied pre-norm residual structure.

Everything runs in fp64 by default so that comparisons against the mesh
execution isolate *distribution* error (reassociation of sums) from
dtype error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.llm.config import ModelConfig


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    """RMSNorm: ``x / rms(x) * weight`` along the last axis."""
    variance = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(variance + eps) * weight


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def rope_frequencies(head_dim: int, positions: np.ndarray, theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for rotary embeddings at the given positions."""
    if head_dim % 2:
        raise ShapeError(f"head_dim must be even for RoPE, got {head_dim}")
    inv_freq = theta ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.outer(positions.astype(np.float64), inv_freq)
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate pairs ``(x[2i], x[2i+1])`` by the positional angles.

    ``x`` has shape ``(..., seq, head_dim)``; cos/sin have shape
    ``(seq, head_dim / 2)``.
    """
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    rotated = np.empty_like(x)
    rotated[..., 0::2] = x1 * cos - x2 * sin
    rotated[..., 1::2] = x1 * sin + x2 * cos
    return rotated


@dataclass
class LayerWeights:
    """Weights of one transformer layer."""

    wq: np.ndarray       # (E, E)
    wk: np.ndarray       # (E, kv_dim)
    wv: np.ndarray       # (E, kv_dim)
    wo: np.ndarray       # (E, E)
    w_gate: np.ndarray   # (E, F)
    w_up: np.ndarray     # (E, F)
    w_down: np.ndarray   # (F, E)
    attn_norm: np.ndarray  # (E,)
    ffn_norm: np.ndarray   # (E,)


@dataclass
class ModelWeights:
    """All weights of a model."""

    config: ModelConfig
    embedding: np.ndarray   # (V, E)
    layers: List[LayerWeights]
    final_norm: np.ndarray  # (E,)
    lm_head: np.ndarray     # (E, V)


def check_token_ids(token_ids: np.ndarray, vocab_size: int) -> None:
    """Raise :class:`ShapeError` unless every id is an integer that
    indexes the vocabulary.

    A negative id would otherwise wrap to the end of the embedding table,
    and a float, bool or string id would be truncated or parsed into one.
    """
    if token_ids.size and token_ids.dtype.kind not in "iu":
        raise ShapeError(
            f"token ids must be integers, got {token_ids.dtype} id "
            f"{token_ids.reshape(-1)[0].item()!r}"
        )
    outside = (token_ids < 0) | (token_ids >= vocab_size)
    if outside.any():
        raise ShapeError(
            f"token id {int(token_ids[outside][0])} is outside the "
            f"vocabulary [0, {vocab_size})"
        )


def check_num_tokens(num_tokens: int) -> None:
    """Raise :class:`ConfigurationError` for a negative generation length."""
    if num_tokens < 0:
        raise ConfigurationError(
            f"cannot generate {num_tokens} tokens; need num_tokens >= 0"
        )


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation."""
    return x / (1.0 + np.exp(-x))


class ReferenceTransformer:
    """Dense single-process transformer with an explicit KV cache."""

    def __init__(self, weights: ModelWeights):
        self.weights = weights
        self.config = weights.config
        self._k_cache: List[Optional[np.ndarray]] = [None] * self.config.num_layers
        self._v_cache: List[Optional[np.ndarray]] = [None] * self.config.num_layers
        self._position = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop the KV cache and position counter."""
        self._k_cache = [None] * self.config.num_layers
        self._v_cache = [None] * self.config.num_layers
        self._position = 0

    @property
    def position(self) -> int:
        """Number of tokens currently cached."""
        return self._position

    # ------------------------------------------------------------------
    def _attention(
        self, layer_idx: int, x: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        lw = self.weights.layers[layer_idx]
        seq = x.shape[0]

        q = x @ lw.wq                       # (seq, E)
        k = x @ lw.wk                       # (seq, kv_dim)
        v = x @ lw.wv                       # (seq, kv_dim)

        hd = cfg.head_dim
        q = q.reshape(seq, cfg.n_heads, hd).transpose(1, 0, 2)
        k = k.reshape(seq, cfg.n_kv_heads, hd).transpose(1, 0, 2)
        v = v.reshape(seq, cfg.n_kv_heads, hd).transpose(1, 0, 2)

        cos, sin = rope_frequencies(hd, positions, cfg.rope_theta)
        q = apply_rope(q, cos, sin)
        k = apply_rope(k, cos, sin)

        if self._k_cache[layer_idx] is None:
            k_all, v_all = k, v
        else:
            k_all = np.concatenate([self._k_cache[layer_idx], k], axis=1)
            v_all = np.concatenate([self._v_cache[layer_idx], v], axis=1)
        self._k_cache[layer_idx] = k_all
        self._v_cache[layer_idx] = v_all

        total = k_all.shape[1]
        group = cfg.group_size
        out_heads = []
        scale = 1.0 / np.sqrt(hd)
        # Causal mask: new token at absolute position p attends to <= p.
        new_positions = positions  # absolute positions of the q rows
        key_positions = np.arange(total)
        mask = key_positions[None, :] > new_positions[:, None]
        for h in range(cfg.n_heads):
            kv_h = h // group
            scores = (q[h] @ k_all[kv_h].T) * scale    # (seq, total)
            scores = np.where(mask, -np.inf, scores)
            probs = softmax(scores, axis=-1)
            out_heads.append(probs @ v_all[kv_h])      # (seq, hd)
        out = np.stack(out_heads, axis=1).reshape(seq, cfg.d_model)
        return out @ lw.wo

    def _ffn(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        lw = self.weights.layers[layer_idx]
        return (silu(x @ lw.w_gate) * (x @ lw.w_up)) @ lw.w_down

    # ------------------------------------------------------------------
    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Run tokens through the model; returns logits ``(seq, vocab)``.

        Appends to the KV cache, so calling with a prompt and then with
        single tokens implements prefill + decode.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ShapeError("token_ids must be a non-empty 1-D token array")
        cfg = self.config
        check_token_ids(token_ids, cfg.vocab_size)
        token_ids = token_ids.astype(np.int64, copy=False)
        positions = np.arange(self._position, self._position + token_ids.shape[0])
        x = self.weights.embedding[token_ids]
        for layer_idx in range(cfg.num_layers):
            lw = self.weights.layers[layer_idx]
            x = x + self._attention(
                layer_idx, rms_norm(x, lw.attn_norm, cfg.norm_eps), positions
            )
            x = x + self._ffn(layer_idx, rms_norm(x, lw.ffn_norm, cfg.norm_eps))
        self._position += token_ids.shape[0]
        x = rms_norm(x, self.weights.final_norm, cfg.norm_eps)
        return x @ self.weights.lm_head

    def generate(self, prompt: np.ndarray, num_tokens: int) -> np.ndarray:
        """Greedy generation: prefill the prompt, decode ``num_tokens``."""
        check_num_tokens(num_tokens)
        logits = self.forward(np.asarray(prompt))
        out = []
        next_token = int(np.argmax(logits[-1]))
        for _ in range(num_tokens):
            out.append(next_token)
            logits = self.forward(np.array([next_token]))
            next_token = int(np.argmax(logits[-1]))
        return np.array(out, dtype=np.int64)
