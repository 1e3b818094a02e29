"""Abstract per-layer operation schedules for prefill and decode.

Tables 2-4 compare three *systems* (WaferLLM, T10, Ladder) running the
same models.  To keep that comparison honest, the sequence of logical
operations a transformer layer performs is defined once, here, as data;
each system then maps every op to its own kernels and cost phases
(:mod:`repro.llm.wafer_system` for WaferLLM, :mod:`repro.baselines.t10`
/ :mod:`repro.baselines.ladder` for the baselines).  Differences in the resulting cycle counts therefore come
entirely from the systems' execution models, never from disagreeing
about what work a layer contains.

Shapes follow the configs: E = d_model, KV = kv_dim, F = d_ff, H =
head_dim, L = sequence length (prompt length in prefill, 1 in decode),
C = live context length during decode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.llm.config import ModelConfig
from repro.mesh.cost_model import as_float


class OpKind(enum.Enum):
    """Logical operation types in a transformer layer."""

    GEMM = "gemm"            # (m, k) @ (k, n)
    GEMM_T = "gemm_t"        # (m, k) @ (n, k)^T  — attention scores
    GEMV = "gemv"            # (1, k) @ (k, n)
    NORM = "norm"            # RMSNorm: scalar allreduce + local scale
    SOFTMAX = "softmax"      # max + sum allreduces + local exp/scale
    ELEMENTWISE = "elementwise"  # SiLU, residual add, rotary — local
    KV_APPEND = "kv_append"  # KV-cache insertion (shift or concat)
    TRANSFER = "transfer"    # inter-layer/stage activation movement


@dataclass(frozen=True)
class LayerOp:
    """One logical operation with its dense shape.

    For matrix ops ``(m, k, n)`` is the full product shape; for vector
    ops ``n`` is the vector length being normalized/softmaxed; for
    transfers ``n`` is the payload element count.  A schedule built for
    an int array of lengths holds array fields: one axis of shapes.
    """

    kind: OpKind
    name: str
    m: int = 1
    k: int = 1
    n: int = 1
    rows: int = 1            # independent instances (e.g. softmax rows)

    @property
    def macs(self) -> float:
        """Dense MAC count of this op (matrix ops only)."""
        if self.kind in (OpKind.GEMM, OpKind.GEMM_T, OpKind.GEMV):
            return as_float(self.m) * self.k * self.n * self.rows
        return 0.0


def prefill_layer_schedule(model: ModelConfig, seq_len: int) -> List[LayerOp]:
    """Ops of one transformer layer during prefill (Figure 3)."""
    e, kv, f = model.d_model, model.kv_dim, model.d_ff
    hd, heads = model.head_dim, model.n_heads
    ops = [
        LayerOp(OpKind.NORM, "attn-norm", n=e, rows=seq_len),
        LayerOp(OpKind.GEMM, "wq", m=seq_len, k=e, n=e),
        LayerOp(OpKind.GEMM, "wk", m=seq_len, k=e, n=kv),
        LayerOp(OpKind.GEMM, "wv", m=seq_len, k=e, n=kv),
        LayerOp(OpKind.ELEMENTWISE, "rope", n=e, rows=seq_len),
        # Per-head Q @ K^T via dist-GEMM-T; heads run as grouped local
        # instances (Section 4.4), so rows = n_heads.
        LayerOp(OpKind.GEMM_T, "scores", m=seq_len, k=hd, n=seq_len, rows=heads),
        LayerOp(OpKind.SOFTMAX, "softmax", n=seq_len, rows=seq_len * heads),
        LayerOp(OpKind.GEMM, "attn-v", m=seq_len, k=seq_len, n=hd, rows=heads),
        LayerOp(OpKind.GEMM, "wo", m=seq_len, k=e, n=e),
        LayerOp(OpKind.KV_APPEND, "kv-store", n=2 * kv, rows=seq_len),
        LayerOp(OpKind.NORM, "ffn-norm", n=e, rows=seq_len),
        LayerOp(OpKind.GEMM, "w-gate", m=seq_len, k=e, n=f),
        LayerOp(OpKind.GEMM, "w-up", m=seq_len, k=e, n=f),
        LayerOp(OpKind.ELEMENTWISE, "silu-mul", n=f, rows=seq_len),
        LayerOp(OpKind.GEMM, "w-down", m=seq_len, k=f, n=e),
        LayerOp(OpKind.TRANSFER, "next-layer", n=seq_len * e),
    ]
    return ops


def decode_layer_schedule(model: ModelConfig, context_len: int) -> List[LayerOp]:
    """Ops of one transformer layer during one decode step (Figure 4)."""
    e, kv, f = model.d_model, model.kv_dim, model.d_ff
    hd, heads = model.head_dim, model.n_heads
    ops = [
        LayerOp(OpKind.NORM, "attn-norm", n=e),
        LayerOp(OpKind.GEMV, "wq", k=e, n=e),
        LayerOp(OpKind.GEMV, "wk", k=e, n=kv),
        LayerOp(OpKind.GEMV, "wv", k=e, n=kv),
        LayerOp(OpKind.ELEMENTWISE, "rope", n=e),
        LayerOp(OpKind.KV_APPEND, "kv-shift", n=2 * kv),
        # Attention over the cached context: one score GEMV and one value
        # GEMV per head (grouped by KV head locally).
        LayerOp(OpKind.GEMV, "scores", k=hd, n=context_len, rows=heads),
        LayerOp(OpKind.SOFTMAX, "softmax", n=context_len, rows=heads),
        LayerOp(OpKind.GEMV, "attn-v", k=context_len, n=hd, rows=heads),
        LayerOp(OpKind.GEMV, "wo", k=e, n=e),
        LayerOp(OpKind.NORM, "ffn-norm", n=e),
        LayerOp(OpKind.GEMV, "w-gate", k=e, n=f),
        LayerOp(OpKind.GEMV, "w-up", k=e, n=f),
        LayerOp(OpKind.ELEMENTWISE, "silu-mul", n=f),
        LayerOp(OpKind.GEMV, "w-down", k=f, n=e),
        LayerOp(OpKind.TRANSFER, "next-layer", n=e),
    ]
    return ops


def lm_head_schedule(model: ModelConfig, seq_len: int = 1) -> List[LayerOp]:
    """Final norm + vocabulary projection (per generated token)."""
    if seq_len == 1:
        return [
            LayerOp(OpKind.NORM, "final-norm", n=model.d_model),
            LayerOp(OpKind.GEMV, "lm-head", k=model.d_model, n=model.vocab_size),
        ]
    return [
        LayerOp(OpKind.NORM, "final-norm", n=model.d_model, rows=seq_len),
        LayerOp(OpKind.GEMM, "lm-head", m=seq_len, k=model.d_model,
                n=model.vocab_size),
    ]


def schedule_macs(ops: List[LayerOp]) -> float:
    """Total dense MACs of a schedule."""
    return sum(op.macs for op in ops)
