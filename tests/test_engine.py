"""Tests for the WaferLLMEngine and the estimates it points users to."""

import numpy as np
import pytest

from repro.core import WSE2
from repro.errors import ConfigurationError
from repro.llm import LLAMA3_8B, TINY_GQA, WaferLLMEngine, WaferLLMSystem
from repro.llm.checkpoint import synthesize_weights
from repro.llm.reference import ReferenceTransformer
from repro.placement.transition import transition_cost
from repro.runtime import PipelineSchedule


class TestFunctionalPath:
    def test_generate_matches_reference(self):
        weights = synthesize_weights(TINY_GQA, seed=9)
        engine = WaferLLMEngine(TINY_GQA, weights=weights)
        prompt = np.array([4, 1])
        expected = ReferenceTransformer(weights).generate(prompt, 4)
        assert np.array_equal(engine.generate(prompt, 4), expected)

    def test_generate_resets_between_calls(self):
        engine = WaferLLMEngine(TINY_GQA, seed=1)
        prompt = np.array([2, 3])
        first = engine.generate(prompt, 3)
        second = engine.generate(prompt, 3)
        assert np.array_equal(first, second)

    def test_large_model_functional_refused(self):
        engine = WaferLLMEngine(LLAMA3_8B)
        with pytest.raises(ConfigurationError, match="too large"):
            engine.generate(np.array([1]), 1)

    def test_transformer_property(self):
        engine = WaferLLMEngine(TINY_GQA)
        assert engine.transformer.config is TINY_GQA


class TestEstimationPath:
    """Estimates come from the cost model directly, at any model size."""

    def test_generation_estimate_available_for_large_models(self):
        result = WaferLLMSystem(WSE2).generation(LLAMA3_8B, 2048, 128)
        assert result.total_seconds > 0
        assert result.system == "waferllm"

    def test_prefill_and_decode_estimates(self):
        system = WaferLLMSystem(WSE2)
        assert system.prefill_cost(LLAMA3_8B, 4096).total_cycles > 0
        assert system.decode_token_cost(LLAMA3_8B, 2048).total_cycles > 0
        assert (system.prefill_throughput(LLAMA3_8B, 4096)
                > system.decode_throughput(LLAMA3_8B, 2048))

    def test_pipeline_schedule_defaults_to_decode_grid(self):
        grid = WaferLLMSystem(WSE2).decode_grid(LLAMA3_8B)
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, grid)
        assert schedule.region_side == 360

    def test_transition_estimate(self):
        assert 0 < transition_cost(LLAMA3_8B, WSE2).seconds < 0.01
