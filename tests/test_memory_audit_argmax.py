"""Tests for the memory audit."""

from repro.core import WSE2
from repro.llm.config import (
    CODELLAMA_34B,
    LLAMA2_13B,
    LLAMA3_8B,
    QWEN2_72B,
)
from repro.runtime.memory_audit import (
    admissible_models,
    audit_model,
    required_layer_subset,
)


class TestMemoryAudit:
    """The paper's admission decision: 8B/13B run end-to-end, 34B/72B
    exceed WSE-2 memory (Section 7.1)."""

    def test_8b_and_13b_fit(self):
        assert audit_model(LLAMA3_8B, WSE2).fits_end_to_end
        assert audit_model(LLAMA2_13B, WSE2).fits_end_to_end

    def test_34b_and_72b_do_not_fit(self):
        assert not audit_model(CODELLAMA_34B, WSE2).fits_end_to_end
        assert not audit_model(QWEN2_72B, WSE2).fits_end_to_end

    def test_admissible_models_matches_table2(self):
        admitted = admissible_models(
            [LLAMA3_8B, LLAMA2_13B, CODELLAMA_34B, QWEN2_72B], WSE2
        )
        assert admitted == ["llama3-8b", "llama2-13b"]

    def test_72b_weights_alone_overflow(self):
        audit = audit_model(QWEN2_72B, WSE2)
        assert not audit.fits_weights
        assert audit.utilization > 1.0

    def test_layer_subset_for_large_models(self):
        # The paper evaluates a *subset of layers* for 34B/72B.
        subset_34b = required_layer_subset(CODELLAMA_34B, WSE2)
        subset_72b = required_layer_subset(QWEN2_72B, WSE2)
        assert 1 <= subset_34b < CODELLAMA_34B.num_layers
        assert 1 <= subset_72b < QWEN2_72B.num_layers
        assert subset_72b < subset_34b  # bigger layers -> fewer fit

    def test_small_models_keep_all_layers(self):
        assert required_layer_subset(LLAMA3_8B, WSE2) == \
            LLAMA3_8B.num_layers

    def test_summary_strings(self):
        assert "fits end-to-end" in audit_model(LLAMA3_8B, WSE2).summary()
        assert "DOES NOT FIT" in audit_model(QWEN2_72B, WSE2).summary()

    def test_generation_ceiling_positive_for_fitting_models(self):
        audit = audit_model(LLAMA3_8B, WSE2, decode_grid=360)
        assert audit.min_generation_tokens > 1000

