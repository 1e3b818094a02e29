"""Ablation — automatic vs paper-chosen parallelism configurations.

The paper picks core configurations empirically and leaves automatic
configuration as future work (Section 4.4); `repro.placement`
implements it.  This bench compares the tuned configurations against the
paper's for both end-to-end models: the tuner must never lose, and its
choices reproduce the paper's qualitative structure (large prefill grid,
much smaller decode grid, K = 2-ish trees).
"""

import os

from repro.bench.reporting import format_table
from repro.core import WSE2
from repro.llm import LLAMA2_13B, LLAMA3_8B
from repro.placement import compare_with_paper_configs
from conftest import OUT_DIR


def test_autotune_vs_paper(benchmark):
    def run():
        return [compare_with_paper_configs(model, WSE2)
                for model in (LLAMA3_8B, LLAMA2_13B)]

    reports = benchmark(run)
    rows = []
    for report in reports:
        for source in ("paper", "autotuned"):
            entry = report[source]
            rows.append([
                report["model"], source,
                entry["prefill_grid"], entry["decode_grid"],
                f"{entry['prefill_tok_s']:,.0f}",
                f"{entry['decode_tok_s']:,.0f}",
            ])
    table = format_table(
        "Ablation: autotuned vs paper parallelism configurations",
        ["model", "source", "prefill grid", "decode grid",
         "prefill tok/s", "decode tok/s"], rows,
    )
    print("\n" + table)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "ablation_autotune.txt"), "w") as handle:
        handle.write(table + "\n")

    for report in reports:
        paper, tuned = report["paper"], report["autotuned"]
        # Never lose to the empirical configuration.
        assert tuned["prefill_tok_s"] >= 0.99 * paper["prefill_tok_s"]
        assert tuned["decode_tok_s"] >= 0.99 * paper["decode_tok_s"]
        # Same qualitative structure the paper found by hand.
        assert tuned["prefill_grid"] > tuned["decode_grid"]
