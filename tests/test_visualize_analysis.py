"""Tests for whole-model trace analysis."""

import numpy as np
import pytest

from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA
from repro.llm.distributed import WaferTransformer
from repro.llm.trace_analysis import analyze, kernel_mix


class TestTraceAnalysis:
    @pytest.fixture(scope="class")
    def run_report(self):
        weights = synthesize_weights(TINY_GQA, seed=8)
        transformer = WaferTransformer(weights)
        transformer.prefill(np.array([1, 2, 3, 4]))
        transformer.decode_step(5)
        return transformer, analyze(transformer.ops)

    def test_counts_all_kernels(self, run_report):
        transformer, report = run_report
        assert report.total_kernels == transformer.ops.total_kernels()
        assert report.total_kernels == sum(
            s.launches for s in report.kernel_classes)

    def test_kernel_classes_present(self, run_report):
        _transformer, report = run_report
        labels = set(report.by_label())
        assert {"meshgemm", "meshgemm-t", "meshgemv",
                "ktree-add", "ktree-max"} <= labels

    def test_dominant_kernel_is_a_reduction(self, run_report):
        # Norm/softmax reductions dominate launch counts in a tiny model.
        _transformer, report = run_report
        assert report.dominant_kernel() in ("ktree-add", "ktree-max")

    def test_whole_run_routing_compliant(self, run_report):
        _transformer, report = run_report
        assert report.compliant_routing(max_paths=8)
        assert not report.compliant_routing(max_paths=1)

    def test_macs_and_bytes_positive(self, run_report):
        _transformer, report = run_report
        assert report.total_macs > 0
        assert report.total_payload_bytes > 0

    def test_summary_rows_sorted_by_launches(self, run_report):
        _transformer, report = run_report
        rows = report.summary_rows()
        launches = [int(row[1]) for row in rows]
        assert launches == sorted(launches, reverse=True)

    def test_kernel_mix_matches_report(self, run_report):
        transformer, report = run_report
        mix = kernel_mix(transformer.ops)
        assert mix[report.dominant_kernel()] == \
            report.by_label()[report.dominant_kernel()].launches
