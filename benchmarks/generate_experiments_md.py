#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the live cost models.

    python benchmarks/generate_experiments_md.py > EXPERIMENTS.md

Runs every table/figure experiment and renders paper-vs-measured
markdown so the committed EXPERIMENTS.md always reflects the code.
"""

from __future__ import annotations

import io
import sys

from repro.bench.experiments import (
    fault_sweep_rows,
    run_fault_sweep,
    run_figure9,
    run_figure10,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
    run_placement_cells,
    run_serving_cells,
)

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section 7), reproduced
by this library's calibrated models and functional kernels.  Regenerate
with `python benchmarks/generate_experiments_md.py > EXPERIMENTS.md`;
the benchmark suite (`pytest benchmarks/ --benchmark-only`) asserts the
qualitative shapes (orderings, trends, crossovers) and that **every cell
lands within 5x of the published value** — most are far closer.

Absolute numbers come from an analytic cycle model of the WSE-2 (see
DESIGN.md for the substitution rationale and calibration constants), so
agreement should be read as "the model reproduces the published system
behaviour", not as a hardware measurement.

"""

PLACEMENT_INTRO = """## Placement — paper-chosen vs planner-chosen layouts (no paper counterpart)

`PYTHONPATH=src python -m repro place` — predicted throughput of the
placement planner's validated plan ("measured") against the paper's
hand-chosen grids anchored at the origin ("paper"), both priced on the
same fabric view through one scoring path (DESIGN.md §12).  The clean
row shows pure grid search: the planner keeps prefill compute-bound
longer (848² vs 660²) and stops decode before the K-tree reduction
dominates (276² vs 360²).  The degraded row injects a seeded WSE-2
defect map (seed 11, ~10k defects); the planner additionally steers its
carve-outs away from remap-stretched fabric and shrinks the decode grid
to 228², while the paper grids pay the communication stretch where they
land.  Every planner row replayed clean through the reconciler and the
PLMR trace sanitizer at the probe scale (zero findings).

"""

FAULT_SWEEP_INTRO = """## Fault sweep — availability and goodput under injected faults (no paper counterpart)

`PYTHONPATH=src python -m repro faults` — LLaMA3-8B on WSE-2, 16
requests (1024 in / 256 out, 50 ms inter-arrival), chunk 256, seed 0.
Each scenario reuses the baseline makespan as its fault horizon; all
schedules are pure functions of the seed (DESIGN.md §8).

"""

FAULT_SWEEP_OUTRO = """
* **Transients** (8 expected over the horizon) cost only retried step
  bodies plus backoff.
* **Link retrains** (4 expected, each 1% of the horizon at 0.25x
  bandwidth) stretch steps but commit them — no retries, no lost work.
* **A core death with a spare region** pays one remap: lost step +
  weight re-shard + KV recompute-from-prompt for every live job. MTTR
  jumps but capacity is fully restored, so goodput recovers.
* **Without spares** each death degrades capacity by a region-row
  fraction ((grid-1)/grid KV budget and batch ceiling); requests still
  complete — the policy sheds only jobs that can never fit again — at
  a lasting goodput cost.

The CI smoke variant (`repro faults --smoke`, 6 requests) asserts the
same ordering in under a second.

"""

FLEET_INTRO = """## Fleet chaos sweep — multi-wafer availability and failover (no paper counterpart)

`PYTHONPATH=src python -m repro fleet` — a 3-wafer LLaMA3-8B fleet on
WSE-2, 24 requests (20 ms mean inter-arrival, 4 sessions), chunk 256,
seed 0.  The clean run fixes the fault horizon; every schedule is a pure
function of the seed, and two same-seed runs produce identical failover
timelines (`timeline_signature`).  Availability is wafer-seconds up over
wafer-seconds total; a failover drains the dead wafer and re-prefills
every live session's context on a healthy replica through the ordinary
chunked-prefill path (DESIGN.md §13).

"""

FLEET_OUTRO = """
* **Wafer down mid-trace** retires one wafer at 40% of the clean
  makespan: the router migrates its live sessions and readmits the
  wafer as a fresh epoch after recovery — nothing is lost, goodput pays
  the re-prefill.
* **Wafer churn** draws Poisson down/degraded events across the
  horizon; every loss follows the same drain → migrate → readmit arc.
* **Router partition** hides a healthy wafer from new dispatches; work
  already placed there completes, so availability stays 1.0 — only
  dispatch balance shifts.
* **Bursty arrivals + wafer down** stacks the failover under a loaded
  queue; migrations ride the same admission path as fresh prompts.

The CI smoke variant (`repro fleet --smoke`, 12 requests on a tiny
model) asserts failovers >= 1, at least one live-session migration,
zero lost requests, and availability in (0, 1].

"""

WALL_CLOCK = """## Wall-clock speed of the simulator (no paper counterpart)

Every number above is simulated and deterministic.  How fast the
simulator itself runs on the host is measured end to end, and split by
layer, by one harness: `python3 perfbench/run.py` (see
`perfbench/README.md`).

"""


NOTES = """
## Reading notes / known deviations

* **Table 2 metric.** The published end-to-end throughput only
  reconciles with the paper's own prefill (Table 3) and decode (Table 4)
  rates if it counts *generated* tokens over total request time; we use
  that definition.
* **Table 5 absolutes.** Concat/shift capacities depend on the per-core
  SRAM left after weights and runtime reserve (a constant we document in
  `repro.llm.kvcache`); the headline ratio — shift supports
  `grid_height` x more tokens (360x / 375x) — is reserve-independent and
  matches the paper's 360x / 385x.
* **Table 6/8 energy ratios.** All energy ratios are device power x
  time with P(WSE-2) = 15 kW and P(A100) = 555 W, the constants that
  reproduce the paper's published GEMV/GEMM ratios; our MeshGEMV is
  modestly faster than the paper's measured kernel, which proportionally
  raises the Table 6 ratios.
* **Serving extension.** The paper serves one stream at a time, so the
  serving table has no paper column.  Chunked prefill piggybacks on the
  batched decode step with weights resident (decode-mode pricing);
  exclusive prefill streams weights and stalls every decode stream,
  which is why it loses on both goodput and p99 TTFT.  The benchmark
  suite asserts both inequalities strictly.
* **T10 / Ladder.** Three documented constants per baseline (see
  `repro.baselines`) are calibrated against Table 3/4 columns; Table 2
  is then reproduced without further tuning.
"""


def md_table(title: str, headers, rows) -> str:
    out = [f"## {title}", ""]
    out.append("| " + " | ".join(headers) + " |")
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    out.append("")
    return "\n".join(out)


def fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    if value >= 0.01:
        return f"{value:.3f}"
    return f"{value:.5f}"


def cells_to_rows(cells):
    rows = []
    for cell in cells:
        ratio = f"{cell.measured / cell.paper:.2f}x" if cell.paper else "—"
        paper = fmt(cell.paper) if cell.paper is not None else "—"
        rows.append([cell.label, fmt(cell.measured), paper, ratio])
    return rows


def figure_rows(cells):
    rows = []
    for cell in cells:
        rows.append([
            cell.label,
            f"{cell.measured:,.0f}",
            f"{cell.extra['compute_cycles']:,.0f}",
            f"{cell.extra['comm_cycles']:,.0f}",
        ])
    return rows


def main() -> None:
    out = io.StringIO()
    out.write(HEADER)
    headers = ["case", "measured", "paper", "measured/paper"]

    out.write(md_table("Table 2 — end-to-end throughput (generated tokens/s)",
                       headers, cells_to_rows(run_table2())))
    out.write(md_table("Table 3 — prefill throughput (tokens/s, seq 4096)",
                       headers, cells_to_rows(run_table3())))
    out.write(md_table("Table 4 — decode throughput (tokens/s, context 2048)",
                       headers, cells_to_rows(run_table4())))
    out.write(md_table("Table 5 — maximum tokens in generation",
                       headers, cells_to_rows(run_table5())))
    out.write(md_table("Table 6 — MeshGEMV (WSE-2) vs cuBLAS (A100)",
                       headers, cells_to_rows(run_table6())))
    out.write(md_table("Table 7 — MeshGEMM (WSE-2) vs cuBLAS (A100)",
                       headers, cells_to_rows(run_table7())))
    out.write(md_table("Table 8 — WaferLLM (WSE-2) vs vLLM (A100), 4096/4096",
                       headers, cells_to_rows(run_table8())))

    fig_headers = ["case", "total cycles", "compute cycles", "comm cycles"]
    out.write(md_table(
        "Figure 9 — MeshGEMM vs SUMMA vs Cannon (no published cycle "
        "counts; shapes asserted in benchmarks)",
        fig_headers, figure_rows(run_figure9())))
    out.write(md_table(
        "Figure 10 — MeshGEMV vs GEMV-Cerebras (no published cycle "
        "counts; shapes asserted in benchmarks)",
        fig_headers, figure_rows(run_figure10())))

    out.write(md_table(
        "Serving extension — chunked vs exclusive prefill, LLaMA3-8B on "
        "WSE-2 (canonical 32-request trace; no paper counterpart)",
        headers, cells_to_rows(run_serving_cells())))

    out.write(PLACEMENT_INTRO)
    out.write(md_table(
        "Placement planner vs paper defaults, LLaMA3-8B on WSE-2",
        ["case", "planner", "paper grids", "planner/paper"],
        cells_to_rows(run_placement_cells())))

    out.write(FAULT_SWEEP_INTRO)
    out.write("```\n")
    widths = [22, 4, 4, 7, 6, 4, 12, 7, 13]
    header = ["scenario", "done", "shed", "retries", "remaps", "degr",
              "availability", "MTTR ms", "goodput tok/s"]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()
              + "\n")
    for row in fault_sweep_rows(run_fault_sweep()):
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                  + "\n")
    out.write("```\n")
    out.write(FAULT_SWEEP_OUTRO)

    out.write(FLEET_INTRO)
    out.write("```\n")
    fleet_widths = [28, 4, 4, 9, 4, 7, 12, 7, 11, 13]
    fleet_header = ["scenario", "done", "lost", "failovers", "migr",
                    "retries", "availability", "MTTR ms", "p99 TTFT ms",
                    "goodput tok/s"]
    out.write("  ".join(h.ljust(w)
                        for h, w in zip(fleet_header, fleet_widths)).rstrip()
              + "\n")
    from repro.core import WSE2
    from repro.fleet import chaos_sweep, fleet_rows
    from repro.llm.config import get_model

    sweep = chaos_sweep(get_model("llama3-8b"), WSE2)
    for row in fleet_rows(sweep):
        out.write("  ".join(c.ljust(w)
                            for c, w in zip(row, fleet_widths)).rstrip()
                  + "\n")
    out.write("```\n")
    out.write(FLEET_OUTRO)

    out.write(WALL_CLOCK)
    out.write(NOTES)
    sys.stdout.write(out.getvalue())


if __name__ == "__main__":
    main()
