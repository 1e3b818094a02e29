"""Tests for the distributed transformer: mesh execution vs dense reference."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA, TINY_MHA, TINY_MQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext
from repro.llm.reference import ReferenceTransformer

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def weights_by_variant():
    return {
        cfg.name: synthesize_weights(cfg, seed=42)
        for cfg in (TINY_MHA, TINY_GQA, TINY_MQA)
    }


class TestPrefillMatchesReference:
    @pytest.mark.parametrize("name", ["tiny-mha", "tiny-gqa", "tiny-mqa"])
    def test_prefill_logits(self, name, weights_by_variant):
        weights = weights_by_variant[name]
        prompt = np.array([2, 7, 1, 5])
        ref = ReferenceTransformer(weights).forward(prompt)
        dist = WaferTransformer(weights).prefill(prompt)
        assert np.max(np.abs(ref - dist)) < TOLERANCE

    def test_prompt_length_not_multiple_of_grid(self, weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        prompt = np.array([1, 2, 3, 4, 5, 6, 7])  # 7 rows on a 4-grid
        ref = ReferenceTransformer(weights).forward(prompt)
        dist = WaferTransformer(weights).prefill(prompt)
        assert np.max(np.abs(ref - dist)) < TOLERANCE

    def test_empty_prompt_rejected(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-mha"])
        with pytest.raises(ShapeError):
            transformer.prefill(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=np.int64)],
                             ids=["list", "int64"])
    def test_reference_rejects_empty_tokens(self, empty, weights_by_variant):
        # An empty forward used to fail inside softmax with numpy's
        # ValueError instead of a library error.
        reference = ReferenceTransformer(weights_by_variant["tiny-mha"])
        with pytest.raises(ShapeError, match="non-empty"):
            reference.forward(empty)
        with pytest.raises(ShapeError, match="non-empty"):
            reference.generate(empty, 2)

    def test_prefill_after_decode_rejected(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-mha"])
        transformer.prefill(np.array([1]))
        transformer.decode_step(2)
        with pytest.raises(ConfigurationError):
            transformer.prefill(np.array([1, 2]))


class TestDecodeMatchesReference:
    @pytest.mark.parametrize("name", ["tiny-mha", "tiny-gqa", "tiny-mqa"])
    def test_decode_steps(self, name, weights_by_variant):
        weights = weights_by_variant[name]
        prompt = np.array([3, 1, 4])
        ref = ReferenceTransformer(weights)
        dist = WaferTransformer(weights)
        ref.forward(prompt)
        dist.prefill(prompt)
        for token in (6, 2, 9):
            ref_logits = ref.forward(np.array([token]))[-1]
            dist_logits = dist.decode_step(token)
            assert np.max(np.abs(ref_logits - dist_logits)) < TOLERANCE

    def test_generate_matches_reference(self, weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        prompt = np.array([5, 2])
        ref_tokens = ReferenceTransformer(weights).generate(prompt, 6)
        dist_tokens = WaferTransformer(weights).generate(prompt, 6)
        assert np.array_equal(ref_tokens, dist_tokens)

    def test_concat_cache_variant_matches_too(self, weights_by_variant):
        # Both managers are numerically equivalent below capacity.
        weights = weights_by_variant["tiny-mha"]
        prompt = np.array([1, 2, 3])
        shift = WaferTransformer(weights, cache_kind="shift")
        concat = WaferTransformer(weights, cache_kind="concat")
        a = shift.prefill(prompt)
        b = concat.prefill(prompt)
        assert np.max(np.abs(a - b)) < TOLERANCE

    def test_unknown_cache_kind(self, weights_by_variant):
        with pytest.raises(ConfigurationError):
            WaferTransformer(weights_by_variant["tiny-mha"], cache_kind="paged")

    @pytest.mark.parametrize("bad", [-1, TINY_GQA.vocab_size])
    def test_out_of_vocab_ids_rejected(self, bad, weights_by_variant):
        # A negative id used to wrap to the end of the embedding table.
        weights = weights_by_variant["tiny-gqa"]
        with pytest.raises(ShapeError):
            WaferTransformer(weights).prefill(np.array([1, bad]))
        transformer = WaferTransformer(weights)
        transformer.prefill(np.array([1, 2]))
        with pytest.raises(ShapeError):
            transformer.decode_step(bad)
        assert transformer.position == 2
        with pytest.raises(ShapeError):
            ReferenceTransformer(weights).forward(np.array([3, bad]))

    @pytest.mark.parametrize(
        "bad", [1.7, 2.0, "3", True, np.float64(1.0)],
        ids=["float", "integral-float", "str", "bool", "np-float"],
    )
    def test_non_integer_token_ids_rejected(self, bad, weights_by_variant):
        # A float id used to be truncated and a string parsed into one.
        weights = weights_by_variant["tiny-gqa"]
        with pytest.raises(ShapeError, match="integers"):
            WaferTransformer(weights).prefill(np.array([bad, bad]))
        with pytest.raises(ShapeError, match="integers"):
            ReferenceTransformer(weights).forward(np.array([bad]))
        transformer = WaferTransformer(weights)
        transformer.prefill(np.array([1, 2]))
        with pytest.raises(ShapeError, match="integers"):
            transformer.decode_step(bad)
        assert transformer.position == 2

    def test_fractional_prompt_rejected(self, weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        transformer = WaferTransformer(weights)
        with pytest.raises(ShapeError, match="integers"):
            transformer.prefill(np.array([1.5, 2.2]))
        assert transformer.position == 0
        with pytest.raises(ShapeError, match="integers"):
            ReferenceTransformer(weights).forward(np.array([1.5, 2.2]))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16])
    def test_any_integer_dtype_accepted(self, dtype, weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        want = WaferTransformer(weights).prefill(np.array([1, 2, 3]))
        transformer = WaferTransformer(weights)
        got = transformer.prefill(np.array([1, 2, 3], dtype=dtype))
        assert np.array_equal(got, want)
        transformer.decode_step(dtype(4))
        assert transformer.position == 4

    def test_decode_step_takes_one_token(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-gqa"])
        transformer.prefill(np.array([1, 2]))
        with pytest.raises(ShapeError, match="one token id"):
            transformer.decode_step(np.array([3]))
        assert transformer.position == 2

    @pytest.mark.parametrize("model", ["wafer", "reference"])
    def test_negative_generation_length_rejected(self, model,
                                                 weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        if model == "wafer":
            transformer = WaferTransformer(weights)
        else:
            transformer = ReferenceTransformer(weights)
        with pytest.raises(ConfigurationError, match="num_tokens"):
            transformer.generate(np.array([1, 2]), -1)
        assert len(transformer.generate(np.array([1, 2]), 0)) == 0

    def test_max_seq_len_is_enforced(self, weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        limit = TINY_GQA.max_seq_len
        with pytest.raises(ShapeError):
            WaferTransformer(weights).prefill(np.ones(limit + 1, dtype=int))
        transformer = WaferTransformer(weights)
        transformer.prefill(np.ones(limit - 1, dtype=int))
        transformer.decode_step(1)  # the last position fits
        assert transformer.position == limit
        with pytest.raises(ShapeError):
            transformer.decode_step(1)
        assert transformer.position == limit

    def test_reset_restores_clean_state(self, weights_by_variant):
        weights = weights_by_variant["tiny-gqa"]
        transformer = WaferTransformer(weights)
        first = transformer.prefill(np.array([1, 2]))
        transformer.reset()
        second = transformer.prefill(np.array([1, 2]))
        assert np.array_equal(first, second)


class TestMeshExecutionProperties:
    def test_kernels_actually_launched(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-mha"])
        transformer.prefill(np.array([1, 2, 3, 4]))
        labels = {label for label, _trace in transformer.ops.traces}
        assert {"meshgemm", "meshgemm-t", "ktree-add", "ktree-max"} <= labels

    def test_decode_uses_gemv_kernels(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-mha"])
        transformer.prefill(np.array([1]))
        before = transformer.ops.total_kernels()
        transformer.decode_step(2)
        new = [label for label, _t in transformer.ops.traces[before:]]
        assert "meshgemv" in new
        assert "meshgemm" not in new  # decode never falls back to GEMM

    def test_route_colours_bounded_across_whole_run(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-gqa"])
        transformer.prefill(np.array([1, 2, 3]))
        transformer.decode_step(4)
        # Every kernel stays within the tiny device's routing budget.
        assert transformer.ops.max_paths_per_core() <= 8

    def test_shift_cache_rows_balanced_during_decode(self, weights_by_variant):
        transformer = WaferTransformer(weights_by_variant["tiny-mha"], kv_rows=3)
        transformer.prefill(np.array([1, 2, 3, 4, 5]))
        for token in (1, 2, 3, 4):
            transformer.decode_step(token)
        occupancy = transformer.kv_cache(0).row_occupancy()
        assert max(occupancy) - min(occupancy) <= 1
