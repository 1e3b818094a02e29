#!/usr/bin/env python3
"""Kernel scaling studies: regenerate the Figure 9 and Figure 10 sweeps.

    python examples/kernel_scaling.py

Sweeps MeshGEMM vs SUMMA vs Cannon and MeshGEMV vs the Cerebras-default
pipeline GEMV over core counts and matrix sizes, printing total /
compute / communication cycles — the series the paper's Figures 9 and
10 plot — plus computational-efficiency percentages.
"""

from repro.bench.experiments import run_figure9, run_figure10
from repro.bench.reporting import format_table
from repro.core import WSE2
from repro.gemm import GEMM_KERNELS
from repro.gemm.base import GemmShape


def figure9() -> None:
    print("=== Figure 9: MeshGEMM vs SUMMA vs Cannon ===")
    cells = run_figure9()
    rows = [[c.label, f"{c.measured:,.0f}",
             f"{c.extra['compute_cycles']:,.0f}",
             f"{c.extra['comm_cycles']:,.0f}"] for c in cells]
    print(format_table("core scaling (cycles)",
                       ["case", "total", "compute", "comm"], rows))

    print("\ncomputational efficiency at the hardware limit (720x720):")
    shape = GemmShape.square(4096)
    for name in ("meshgemm", "cannon", "summa"):
        kernel = GEMM_KERNELS[name]
        cost = kernel.estimate(WSE2, shape, grid=720)
        ideal = shape.total_macs / (720 * 720 * WSE2.macs_per_cycle)
        print(f"  {name:10s} {100 * ideal / cost.total_cycles:5.1f} %")


def figure10() -> None:
    print("\n=== Figure 10: MeshGEMV vs GEMV-Cerebras ===")
    cells = run_figure10()
    rows = [[c.label, f"{c.measured:,.0f}",
             f"{c.extra['comm_cycles']:,.0f}",
             f"{c.extra['us']:.2f}"] for c in cells]
    print(format_table("core scaling",
                       ["case", "total cyc", "comm cyc", "us"], rows))

    by_point = {}
    for cell in cells:
        point, kernel = cell.label.rsplit(" ", 1)
        by_point.setdefault(point, {})[kernel] = cell.measured
    best = max(by_point.values(),
               key=lambda k: k["pipeline-gemv"] / k["meshgemv"])
    print(f"\npeak MeshGEMV speedup over pipeline GEMV: "
          f"{best['pipeline-gemv'] / best['meshgemv']:.1f}x "
          f"(paper: up to 4.6x)")


def main() -> None:
    figure9()
    figure10()


if __name__ == "__main__":
    main()
