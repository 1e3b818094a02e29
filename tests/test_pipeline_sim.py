"""The pipeline schedule's formula against a discrete-event simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from tests.pipeline_sim import (
    imbalance_penalty,
    simulate_pipeline,
    uniform_stage_utilization,
)


class TestBasics:
    def test_single_stage_fully_utilized(self):
        run = simulate_pipeline([2.0], num_tokens=10)
        assert run.makespan == pytest.approx(20.0)
        assert run.utilization == pytest.approx(1.0)

    def test_single_stream_serializes(self):
        # One autoregressive stream: token n+1 waits for token n to
        # clear all stages, so utilization -> 1/s.
        run = simulate_pipeline([1.0] * 4, num_tokens=100, streams=1)
        assert run.utilization == pytest.approx(0.25, abs=0.01)

    def test_saturated_pipeline(self):
        run = simulate_pipeline([1.0] * 4, num_tokens=400, streams=8)
        assert run.utilization > 0.9

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            simulate_pipeline([], 10)
        with pytest.raises(ConfigurationError):
            simulate_pipeline([0.0], 10)
        with pytest.raises(ConfigurationError):
            simulate_pipeline([1.0], 0)
        with pytest.raises(ConfigurationError):
            simulate_pipeline([1.0], 1, streams=0)

    def test_bottleneck_identified(self):
        run = simulate_pipeline([1.0, 5.0, 1.0], num_tokens=50, streams=4)
        assert run.bottleneck_stage == 1

    def test_bubble_fraction_complements(self):
        run = simulate_pipeline([1.0] * 3, num_tokens=30, streams=2)
        assert run.bubble_fraction == pytest.approx(1 - run.utilization)


class TestFormulaValidation:
    """The simulator must reproduce the scheduler's analytic formula."""

    @settings(max_examples=20, deadline=None)
    @given(stages=st.integers(2, 8), streams=st.integers(1, 12))
    def test_uniform_stages_match_min_m_over_s(self, stages, streams):
        measured = uniform_stage_utilization(stages, streams,
                                             tokens_per_stream=64)
        expected = min(1.0, streams / stages)
        assert measured == pytest.approx(expected, abs=0.06)

    def test_matches_pipeline_schedule_single_stream(self):
        from repro.core import WSE2
        from repro.llm.config import LLAMA3_8B
        from repro.runtime import PipelineSchedule
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, 360)
        measured = uniform_stage_utilization(schedule.num_stages, 1,
                                             tokens_per_stream=128)
        assert measured == pytest.approx(schedule.utilization(1), abs=0.02)


class TestImbalance:
    def test_balanced_stages_no_penalty(self):
        assert imbalance_penalty([1.0, 1.0, 1.0], streams=6) == \
            pytest.approx(1.0, abs=0.02)

    def test_skewed_stage_costs_throughput(self):
        penalty = imbalance_penalty([1.0, 3.0, 1.0, 1.0], streams=8)
        assert penalty > 1.5

    def test_penalty_grows_with_skew(self):
        mild = imbalance_penalty([1.0, 1.5, 1.0, 1.0], streams=8)
        severe = imbalance_penalty([1.0, 4.0, 1.0, 1.0], streams=8)
        assert severe > mild
