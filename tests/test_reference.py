"""Tests for the dense reference transformer and checkpoint handling."""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.llm.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    synthesize_weights,
)
from repro.llm.config import TINY_GQA, TINY_MHA, QWEN2_72B
from repro.llm.reference import (
    ReferenceTransformer,
    apply_rope,
    rms_norm,
    rope_frequencies,
    softmax,
)


class TestPrimitives:
    def test_rms_norm_unit_scale(self, rng):
        x = rng.standard_normal(64)
        out = rms_norm(x, np.ones(64), eps=0.0)
        assert np.sqrt(np.mean(out ** 2)) == pytest.approx(1.0)

    def test_rms_norm_weight_applied(self, rng):
        x = rng.standard_normal(8)
        weighted = rms_norm(x, 2.0 * np.ones(8), eps=1e-6)
        plain = rms_norm(x, np.ones(8), eps=1e-6)
        assert np.allclose(weighted, 2 * plain)

    def test_softmax_sums_to_one(self, rng):
        probs = softmax(rng.standard_normal((5, 7)))
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal(10)
        assert np.allclose(softmax(x), softmax(x + 1000.0))

    def test_softmax_handles_neg_inf(self):
        probs = softmax(np.array([0.0, -np.inf, 0.0]))
        assert probs[1] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_rope_preserves_norm(self, rng):
        x = rng.standard_normal((2, 4, 8))
        cos, sin = rope_frequencies(8, np.arange(4), theta=10000.0)
        rotated = apply_rope(x, cos, sin)
        assert np.allclose(np.linalg.norm(rotated, axis=-1),
                           np.linalg.norm(x, axis=-1))

    def test_rope_position_zero_identity(self, rng):
        x = rng.standard_normal((1, 1, 8))
        cos, sin = rope_frequencies(8, np.array([0]), theta=10000.0)
        assert np.allclose(apply_rope(x, cos, sin), x)

    def test_rope_relative_property(self, rng):
        # <rope(q, m), rope(k, n)> depends only on m - n.
        q = rng.standard_normal(8)
        k = rng.standard_normal(8)

        def dot_at(m, n):
            cq, sq = rope_frequencies(8, np.array([m]), 10000.0)
            ck, sk = rope_frequencies(8, np.array([n]), 10000.0)
            return float(apply_rope(q[None], cq, sq)[0]
                         @ apply_rope(k[None], ck, sk)[0])

        assert dot_at(5, 3) == pytest.approx(dot_at(12, 10))

    def test_rope_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            rope_frequencies(7, np.arange(3), 10000.0)


class TestReferenceTransformer:
    def test_incremental_equals_batch(self):
        # Prefill then single-token decode must equal one big forward.
        weights = synthesize_weights(TINY_GQA, seed=7)
        tokens = np.array([1, 4, 2, 9, 5])

        batch = ReferenceTransformer(weights)
        batch_logits = batch.forward(tokens)

        incremental = ReferenceTransformer(weights)
        incremental.forward(tokens[:3])
        incremental.forward(tokens[3:4])
        step_logits = incremental.forward(tokens[4:5])
        assert np.allclose(step_logits[-1], batch_logits[-1])

    def test_causality(self):
        # Changing a future token cannot affect earlier logits.
        weights = synthesize_weights(TINY_MHA, seed=3)
        a = ReferenceTransformer(weights).forward(np.array([1, 2, 3]))
        b = ReferenceTransformer(weights).forward(np.array([1, 2, 9]))
        assert np.allclose(a[0], b[0])
        assert np.allclose(a[1], b[1])
        assert not np.allclose(a[2], b[2])

    def test_position_tracking_and_reset(self):
        model = ReferenceTransformer(synthesize_weights(TINY_MHA))
        model.forward(np.array([1, 2]))
        assert model.position == 2
        model.reset()
        assert model.position == 0

    def test_generate_deterministic(self):
        weights = synthesize_weights(TINY_GQA, seed=11)
        out1 = ReferenceTransformer(weights).generate(np.array([3, 1]), 5)
        out2 = ReferenceTransformer(weights).generate(np.array([3, 1]), 5)
        assert np.array_equal(out1, out2)
        assert out1.shape == (5,)

    @pytest.mark.parametrize("bad", [2**70, None], ids=["huge", "none"])
    def test_rejects_object_token_ids(self, bad):
        model = ReferenceTransformer(synthesize_weights(TINY_MHA))
        with pytest.raises(ShapeError, match="integers"):
            model.forward(np.array([1, bad], dtype=object))
        with pytest.raises(ShapeError, match="integers"):
            model.generate([bad], 2)
        assert model.position == 0

    @pytest.mark.parametrize("bad", [2.5, "3", True, np.bool_(True)],
                             ids=["float", "str", "bool", "np-bool"])
    def test_generate_rejects_non_integer_lengths(self, bad):
        model = ReferenceTransformer(synthesize_weights(TINY_MHA))
        with pytest.raises(ConfigurationError, match="integer"):
            model.generate(np.array([3, 1]), bad)
        assert model.position == 0
        assert model.generate(np.array([3, 1]), np.int64(3)).shape == (3,)

    def test_rejects_2d_tokens(self):
        model = ReferenceTransformer(synthesize_weights(TINY_MHA))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 2), dtype=np.int64))


class TestCheckpoint:
    def test_shapes_match_config(self):
        weights = synthesize_weights(TINY_GQA)
        cfg = TINY_GQA
        layer = weights.layers[0]
        assert layer.wq.shape == (cfg.d_model, cfg.d_model)
        assert layer.wk.shape == (cfg.d_model, cfg.kv_dim)
        assert layer.w_gate.shape == (cfg.d_model, cfg.d_ff)
        assert weights.embedding.shape == (cfg.vocab_size, cfg.d_model)

    def test_deterministic_by_seed(self):
        w1 = synthesize_weights(TINY_MHA, seed=5)
        w2 = synthesize_weights(TINY_MHA, seed=5)
        w3 = synthesize_weights(TINY_MHA, seed=6)
        assert np.array_equal(w1.layers[0].wq, w2.layers[0].wq)
        assert not np.array_equal(w1.layers[0].wq, w3.layers[0].wq)

    def test_save_load_roundtrip(self, tmp_path):
        weights = synthesize_weights(TINY_GQA, seed=2)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(weights, path)
        loaded = load_checkpoint(path)
        assert loaded.config.name == TINY_GQA.name
        assert np.array_equal(loaded.layers[1].w_down, weights.layers[1].w_down)
        assert np.array_equal(loaded.lm_head, weights.lm_head)

    def test_roundtrip_preserves_inference(self, tmp_path):
        weights = synthesize_weights(TINY_MHA, seed=4)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(weights, path)
        loaded = load_checkpoint(path)
        tokens = np.array([1, 2, 3])
        original = ReferenceTransformer(weights).forward(tokens)
        reloaded = ReferenceTransformer(loaded).forward(tokens)
        assert np.allclose(original, reloaded)

    def test_layer_subset_roundtrip(self, tmp_path):
        subset = QWEN2_72B.scaled_to_layers(1)
        # Too big to synthesize fully; shrink further for the test.
        small = subset.scaled_to_layers(1)
        assert small.num_layers == 1

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_checkpoint("/nonexistent/ckpt.npz")
