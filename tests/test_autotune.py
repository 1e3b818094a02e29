"""Tests for automatic parallelism configuration."""

import pytest

from repro.core import WSE2, TINY_MESH
from repro.errors import ConfigurationError
from repro.placement import (
    AutotuneResult,
    autotune,
    compare_with_paper_configs,
    min_decode_grid,
)
from repro.llm.config import LLAMA2_13B, LLAMA3_8B, QWEN2_72B
from repro.llm.wafer_system import WaferLLMSystem


@pytest.fixture(scope="module")
def tuned_8b() -> AutotuneResult:
    return autotune(LLAMA3_8B, WSE2)


class TestSearch:
    def test_returns_valid_grids(self, tuned_8b):
        side = min(WSE2.mesh_width, WSE2.mesh_height)
        assert 8 <= tuned_8b.prefill_grid <= side
        assert 8 <= tuned_8b.decode_grid <= side

    def test_prefill_grid_larger_than_decode(self, tuned_8b):
        # The paper's empirical configurations share this shape.
        assert tuned_8b.prefill_grid > tuned_8b.decode_grid

    def test_beats_neighbouring_grids(self, tuned_8b):
        system = WaferLLMSystem(WSE2)
        for delta in (-24, 24):
            neighbour = tuned_8b.prefill_grid + delta
            if 8 <= neighbour <= 860:
                assert tuned_8b.prefill_tokens_per_s >= \
                    system.prefill_throughput(LLAMA3_8B, 4096, neighbour)
            neighbour = tuned_8b.decode_grid + delta
            if 8 <= neighbour <= 860:
                assert tuned_8b.decode_tokens_per_s >= \
                    system.decode_throughput(LLAMA3_8B, 2048, neighbour)

    def test_at_least_matches_paper_configs(self, tuned_8b):
        system = WaferLLMSystem(WSE2)
        paper_prefill = system.prefill_throughput(LLAMA3_8B, 4096, 660)
        paper_decode = system.decode_throughput(LLAMA3_8B, 2048, 360)
        assert tuned_8b.prefill_tokens_per_s >= 0.99 * paper_prefill
        assert tuned_8b.decode_tokens_per_s >= 0.99 * paper_decode

    def test_chooses_paper_k(self, tuned_8b):
        # Section 6.2 picks K = 2; the sweep should agree (or pick a
        # neighbouring arity with near-identical cost).
        assert tuned_8b.ktree_k in (2, 3)

    def test_search_is_cheap(self, tuned_8b):
        assert tuned_8b.candidates_evaluated < 200

    def test_tiny_device_rejected(self):
        with pytest.raises(ConfigurationError):
            autotune(LLAMA3_8B, TINY_MESH.submesh(4, 4))


class TestMemoryFloor:
    def test_min_grid_positive(self):
        for model in (LLAMA3_8B, LLAMA2_13B, QWEN2_72B):
            grid = min_decode_grid(model, WSE2)
            assert 8 <= grid <= 860

    def test_bigger_model_bigger_floor(self):
        assert min_decode_grid(QWEN2_72B, WSE2) >= \
            min_decode_grid(LLAMA3_8B, WSE2)


class TestComparison:
    def test_report_structure(self):
        report = compare_with_paper_configs(LLAMA2_13B, WSE2)
        assert report["model"] == "llama2-13b"
        assert report["paper"]["prefill_grid"] == 750
        assert report["autotuned"]["prefill_tok_s"] >= \
            0.99 * report["paper"]["prefill_tok_s"]
        assert report["autotuned"]["decode_tok_s"] >= \
            0.99 * report["paper"]["decode_tok_s"]
