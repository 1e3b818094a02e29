"""Tests for the benchmark harness: runners, paper data, reporting."""

import pytest

from repro.bench import (
    Comparison,
    comparison_table,
    format_table,
    paper_data,
    run_figure9,
    run_figure10,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)


#: Each published WaferLLM / T10 / Ladder cell's measured/paper ratio as
#: reproduced today, by runner and cell label.  A cell may drift at most
#: 5% from it: a cost-model change that moves a cell further re-pins
#: the ratio here with the reason in CHANGES.md.
PAPER_RATIOS = {
    run_table2: {
        "llama3-8b 2048/128 waferllm": 0.9567,
        "llama3-8b 2048/128 t10": 1.9050,
        "llama3-8b 2048/128 ladder": 1.0916,
        "llama3-8b 4096/128 waferllm": 0.9712,
        "llama3-8b 4096/128 t10": 0.9615,
        "llama3-8b 4096/128 ladder": 0.9963,
        "llama3-8b 2048/2048 waferllm": 0.9734,
        "llama3-8b 2048/2048 t10": 1.8068,
        "llama3-8b 2048/2048 ladder": 1.1304,
        "llama3-8b 4096/4096 waferllm": 0.9583,
        "llama3-8b 4096/4096 t10": 1.0829,
        "llama3-8b 4096/4096 ladder": 1.0393,
        "llama2-13b 2048/128 waferllm": 1.0444,
        "llama2-13b 2048/128 t10": 2.1905,
        "llama2-13b 2048/128 ladder": 1.0223,
        "llama2-13b 4096/128 waferllm": 0.9757,
        "llama2-13b 4096/128 t10": 1.1192,
        "llama2-13b 4096/128 ladder": 0.8517,
        "llama2-13b 2048/2048 waferllm": 1.0182,
        "llama2-13b 2048/2048 t10": 1.9903,
        "llama2-13b 2048/2048 ladder": 0.9656,
        "llama2-13b 4096/4096 waferllm": 0.9688,
        "llama2-13b 4096/4096 t10": 1.1647,
        "llama2-13b 4096/4096 ladder": 0.8516,
    },
    run_table3: {
        "llama3-8b@480 waferllm": 0.9875,
        "llama3-8b@480 t10": 0.9638,
        "llama3-8b@480 ladder": 0.9588,
        "llama3-8b@600 waferllm": 0.9621,
        "llama3-8b@600 t10": 0.9476,
        "llama3-8b@600 ladder": 1.0204,
        "llama3-8b@720 waferllm": 0.9422,
        "llama3-8b@720 t10": 0.9976,
        "llama3-8b@720 ladder": 0.9810,
        "llama2-13b@480 waferllm": 0.8942,
        "llama2-13b@480 t10": 0.9458,
        "llama2-13b@480 ladder": 0.8215,
        "llama2-13b@600 waferllm": 0.8473,
        "llama2-13b@600 t10": 1.0205,
        "llama2-13b@600 ladder": 0.8975,
        "llama2-13b@720 waferllm": 0.8839,
        "llama2-13b@720 t10": 1.1436,
        "llama2-13b@720 ladder": 0.9102,
        "codellama-34b@480 waferllm": 0.9217,
        "codellama-34b@480 t10": 1.2531,
        "codellama-34b@480 ladder": 0.6214,
        "codellama-34b@600 waferllm": 0.8177,
        "codellama-34b@600 t10": 1.2233,
        "codellama-34b@600 ladder": 0.6854,
        "codellama-34b@720 waferllm": 0.7877,
        "codellama-34b@720 t10": 1.2977,
        "codellama-34b@720 ladder": 0.7339,
        "qwen2-72b@480 waferllm": 0.8776,
        "qwen2-72b@480 t10": 1.2580,
        "qwen2-72b@480 ladder": 0.5527,
        "qwen2-72b@600 waferllm": 0.7896,
        "qwen2-72b@600 t10": 1.2543,
        "qwen2-72b@600 ladder": 0.6321,
        "qwen2-72b@720 waferllm": 0.7347,
        "qwen2-72b@720 t10": 1.2929,
        "qwen2-72b@720 ladder": 0.6722,
    },
    run_table4: {
        "llama3-8b@420 waferllm": 0.9381,
        "llama3-8b@420 t10": 0.9072,
        "llama3-8b@420 ladder": 0.8752,
        "llama3-8b@540 waferllm": 0.8888,
        "llama3-8b@540 t10": 1.0115,
        "llama3-8b@540 ladder": 0.8736,
        "llama3-8b@660 waferllm": 0.8621,
        "llama3-8b@660 t10": 1.1601,
        "llama3-8b@660 ladder": 0.9153,
        "llama2-13b@420 waferllm": 0.9677,
        "llama2-13b@420 t10": 0.7867,
        "llama2-13b@420 ladder": 0.6818,
        "llama2-13b@540 waferllm": 0.9264,
        "llama2-13b@540 t10": 0.9071,
        "llama2-13b@540 ladder": 0.6766,
        "llama2-13b@660 waferllm": 0.8867,
        "llama2-13b@660 t10": 0.9702,
        "llama2-13b@660 ladder": 0.6772,
        "codellama-34b@420 waferllm": 1.0473,
        "codellama-34b@420 t10": 0.7076,
        "codellama-34b@420 ladder": 0.4839,
        "codellama-34b@540 waferllm": 0.9942,
        "codellama-34b@540 t10": 0.8194,
        "codellama-34b@540 ladder": 0.4275,
        "codellama-34b@660 waferllm": 0.9201,
        "codellama-34b@660 t10": 0.7537,
        "codellama-34b@660 ladder": 0.4165,
        "qwen2-72b@420 waferllm": 1.0408,
        "qwen2-72b@420 t10": 0.6124,
        "qwen2-72b@420 ladder": 0.4306,
        "qwen2-72b@540 waferllm": 0.9938,
        "qwen2-72b@540 t10": 0.7263,
        "qwen2-72b@540 ladder": 0.3783,
        "qwen2-72b@660 waferllm": 0.9399,
        "qwen2-72b@660 t10": 0.7865,
        "qwen2-72b@660 ladder": 0.3366,
    },
}


class TestPaperData:
    def test_table2_complete(self):
        for model, configs in paper_data.TABLE2.items():
            assert len(configs) == 4
            for cell in configs.values():
                assert set(cell) == {"waferllm", "t10", "ladder"}

    def test_table3_4_grids(self):
        assert set(paper_data.TABLE3["llama3-8b"]) == {480, 600, 720}
        assert set(paper_data.TABLE4["llama3-8b"]) == {420, 540, 660}

    def test_table5_ratio_is_rows(self):
        t5 = paper_data.TABLE5["llama3-8b"]
        assert t5["shift"] / t5["concat"] == pytest.approx(360, rel=0.01)


class TestRunners:
    @pytest.mark.parametrize("runner,cells", [
        (run_table2, 24), (run_table3, 36), (run_table4, 36),
        (run_table5, 4), (run_table6, 6), (run_table7, 6), (run_table8, 6),
    ])
    def test_cell_counts(self, runner, cells):
        assert len(runner()) == cells

    def test_every_published_cell_within_5x(self):
        # The reproduction-quality gate: every measured value lands
        # within 5x of the published one (most are far closer).
        for runner in (run_table2, run_table3, run_table4, run_table5,
                       run_table6, run_table7, run_table8):
            for cell in runner():
                if cell.paper:
                    ratio = cell.measured / cell.paper
                    assert 0.2 < ratio < 5.0, (cell.label, ratio)

    @pytest.mark.parametrize("runner", list(PAPER_RATIOS),
                             ids=lambda runner: runner.__name__)
    def test_published_cells_within_5pct_of_todays_ratio(self, runner):
        bands = PAPER_RATIOS[runner]
        cells = runner()
        assert sorted(cell.label for cell in cells) == sorted(bands)
        for cell in cells:
            ratio = cell.measured / cell.paper
            assert abs(ratio / bands[cell.label] - 1.0) <= 0.05, (
                cell.label, ratio, bands[cell.label])

    @pytest.mark.parametrize("runner", list(PAPER_RATIOS),
                             ids=lambda runner: runner.__name__)
    def test_waferllm_beats_t10_beats_ladder_everywhere(self, runner):
        # The paper's ordering at every point, in its numbers and ours.
        points = {}
        for cell in runner():
            point, system = cell.label.rsplit(" ", 1)
            points.setdefault(point, {})[system] = cell
        assert len(points) == len(PAPER_RATIOS[runner]) // 3
        for point, by_system in points.items():
            for value in ("measured", "paper"):
                wafer, t10, ladder = (
                    getattr(by_system[name], value)
                    for name in ("waferllm", "t10", "ladder")
                )
                assert wafer > t10 > ladder, (point, value)

    def test_figure9_has_breakdowns(self):
        cells = run_figure9(sizes=(2048,), grids=(480, 720))
        assert len(cells) == 6
        for cell in cells:
            assert cell.extra["compute_cycles"] >= 0
            assert cell.extra["comm_cycles"] >= 0

    def test_figure9_meshgemm_wins_everywhere(self):
        # MeshGEMM is never worse than the best baseline beyond noise
        # (fully compute-bound points tie), and strictly wins at most
        # sweep points (Figure 9's headline).
        cells = run_figure9()
        by_point = {}
        for cell in cells:
            point, kernel = cell.label.rsplit(" ", 1)
            by_point.setdefault(point, {})[kernel] = cell.measured
        strict_wins = 0
        for point, kernels in by_point.items():
            best = min(kernels.values())
            assert kernels["meshgemm"] <= best * 1.001, point
            if kernels["meshgemm"] == best and \
                    kernels["meshgemm"] < max(kernels.values()) * 0.999:
                strict_wins += 1
        # 8K points are fully compute-bound and tie with Cannon, so the
        # strict-win fraction sits around 11/15.
        assert strict_wins >= 0.7 * len(by_point)

    def test_figure10_meshgemv_wins_everywhere(self):
        cells = run_figure10()
        by_point = {}
        for cell in cells:
            point, kernel = cell.label.rsplit(" ", 1)
            by_point.setdefault(point, {})[kernel] = cell.measured
        for point, kernels in by_point.items():
            assert kernels["meshgemv"] < kernels["pipeline-gemv"], point

    def test_figure10_gap_grows_with_cores(self):
        cells = run_figure10(sizes=(4096,), grids=(240, 480, 720))
        mesh = [c.measured for c in cells if "meshgemv" in c.label]
        pipe = [c.measured for c in cells if "pipeline" in c.label]
        gaps = [p / m for p, m in zip(pipe, mesh)]
        assert gaps == sorted(gaps)


class TestReporting:
    def test_comparison_ratio(self):
        c = Comparison("x", measured=20.0, paper=10.0)
        assert c.ratio == 2.0

    def test_comparison_without_paper(self):
        c = Comparison("x", measured=20.0)
        assert c.ratio is None
        assert c.row()[2] == "-"

    def test_format_table_alignment(self):
        table = format_table("T", ["a", "bbbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbbb" in lines[2]
        assert len(lines) == 6

    def test_comparison_table_renders(self):
        text = comparison_table("T", [Comparison("case", 1.0, 2.0, unit="ms")])
        assert "case" in text and "0.500x" in text or "0.50x" in text
