"""Tests for pipeline scheduling and weight placement runtime."""

import pytest

from repro.core import WSE2
from repro.errors import ConfigurationError
from repro.llm.config import LLAMA2_13B, LLAMA3_8B, QWEN2_72B, TINY_MHA
from repro.placement import (
    WeightPlacementPlan,
    decode_carve_for_grid,
    reshard_cost,
    transition_cost,
    transposes_avoided_per_token,
)
from repro.runtime import PipelineSchedule, decode_speedup_if_resident


class TestPipelineSchedule:
    def test_8b_needs_multiple_stages_on_decode_region(self):
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        # 16 GB of weights vs ~3.6 GB usable per 360x360 region.
        assert schedule.num_stages >= 4

    def test_tiny_model_single_stage(self):
        schedule = PipelineSchedule(TINY_MHA, WSE2, region_side=360)
        assert schedule.num_stages == 1
        assert schedule.utilization() == 1.0

    def test_utilization_single_stream(self):
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        assert schedule.utilization(1) == pytest.approx(1 / schedule.num_stages)

    def test_utilization_improves_with_streams(self):
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        u1 = schedule.utilization(1)
        u4 = schedule.utilization(4)
        assert u4 > u1
        assert schedule.utilization(1000) > 0.99

    def test_bubble_fraction_complements(self):
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        assert schedule.bubble_fraction(2) == pytest.approx(
            1 - schedule.utilization(2))

    def test_paperish_5x_utilization_loss(self):
        # Section 7.5: pipeline bubbles reduce utilization ~5x for the
        # evaluated models.
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        assert 3 <= 1 / schedule.utilization(1) <= 8

    def test_larger_model_more_stages(self):
        s8 = PipelineSchedule(LLAMA3_8B, WSE2, 420).num_stages
        s72 = PipelineSchedule(QWEN2_72B, WSE2, 420).num_stages
        assert s72 > s8

    def test_stages_on_fabric(self):
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        assert schedule.stages_on_fabric == (990 // 360) * (860 // 360)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            PipelineSchedule(LLAMA3_8B, WSE2, region_side=0)
        schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
        with pytest.raises(ConfigurationError):
            schedule.utilization(0)

    def test_layers_per_stage_covers_model(self):
        schedule = PipelineSchedule(LLAMA2_13B, WSE2, region_side=375)
        assert schedule.layers_per_stage() * schedule.num_stages >= \
            LLAMA2_13B.num_layers

    def test_decode_speedup_projection(self):
        # Section 8 projects ~10k tokens/s for 13B once resident —
        # i.e. a speedup about equal to the stage count (~5x).
        speedup = decode_speedup_if_resident(LLAMA2_13B, WSE2, 375)
        assert 3 <= speedup <= 10


class TestPlacement:
    def test_only_wo_and_wout_move(self):
        plan = WeightPlacementPlan(LLAMA3_8B)
        assert plan.changed_layers() == [3, 6]

    def test_transition_cost_small_vs_token(self):
        cost = transition_cost(LLAMA3_8B, WSE2)
        # Paper: transition "completes instantly"; one decode token is
        # ~0.4 ms, the full transition must be within the same order.
        assert cost.seconds < 5e-3

    def test_transition_scales_with_model(self):
        assert transition_cost(QWEN2_72B, WSE2).total_cycles > \
            transition_cost(LLAMA3_8B, WSE2).total_cycles
        # Evacuating a decode region onto a spare moves every weight.
        region = decode_carve_for_grid(360)
        assert reshard_cost(QWEN2_72B, WSE2, region).total_cycles > \
            reshard_cost(LLAMA3_8B, WSE2, region).total_cycles > 0

    def test_transposes_avoided(self):
        assert transposes_avoided_per_token(LLAMA3_8B) == 96
