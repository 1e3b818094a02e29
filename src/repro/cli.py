"""Command-line interface: ``python -m repro <command>``.

Everything the benchmark harness computes is reachable from the shell::

    python -m repro devices
    python -m repro compliance
    python -m repro table 2              # any of 2..8
    python -m repro figure 9             # 9 or 10
    python -m repro gemm --dim 16384 --kernel meshgemm --grid 750
    python -m repro gemv --dim 16384
    python -m repro llm --model llama3-8b --seq-in 4096 --seq-out 4096
    python -m repro place --model llama3-8b --compare-paper
    python -m repro serve --model llama3-8b --requests 16 --batch 8
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import experiments
from repro.bench.reporting import Comparison, comparison_table, format_table
from repro.core import PRESETS, WSE2, compliance_table, get_device
from repro.errors import ConfigurationError, ReproError
from repro.gemm import GEMM_KERNELS
from repro.gemm.base import GemmShape
from repro.gemv import GEMV_KERNELS
from repro.llm.config import MODELS, get_model
from repro.llm.projections import resident_decode_projection, width_study
from repro.llm.quantize import quantized_config
from repro.mesh.faults import FaultInjector
from repro.placement import (
    PlannerConfig,
    paper_default_plan,
    plan_placement,
)
from repro.runtime.memory_audit import audit_model, required_layer_subset
from repro.llm.wafer_system import WaferLLMSystem
from repro.serving import Request, ServingMetrics, WaferServer

TABLE_RUNNERS = {
    2: experiments.run_table2,
    3: experiments.run_table3,
    4: experiments.run_table4,
    5: experiments.run_table5,
    6: experiments.run_table6,
    7: experiments.run_table7,
    8: experiments.run_table8,
}
FIGURE_RUNNERS = {9: experiments.run_figure9, 10: experiments.run_figure10}


def _print_cells(title: str, cells) -> None:
    comparisons = [Comparison(c.label, c.measured, c.paper) for c in cells]
    print(comparison_table(title, comparisons))


def cmd_devices(_args) -> int:
    rows = []
    for device in PRESETS.values():
        summary = device.describe()
        rows.append([
            summary["name"], f"{summary['P (cores)']:,}",
            summary["L (max axis hops)"],
            f"{summary['M (bytes/core)'] // 1024} KiB",
            summary["R (paths/core)"],
            f"{summary['total memory (GB)']:.1f} GB",
        ])
    print(format_table("PLMR device presets",
                       ["device", "P", "L", "M", "R", "memory"], rows))
    return 0


def cmd_compliance(args) -> int:
    device = get_device(args.device)
    rows = []
    for report in compliance_table(device):
        rows.append([
            report.algorithm,
            f"{report.paths_per_core:.0f}",
            f"{report.critical_path_hops:.0f}",
            f"{report.memory_factor:.0f}",
            report.verdict_string().split(": ", 1)[1],
        ])
    print(format_table(f"PLMR compliance on {device.name} (Figures 6+8)",
                       ["algorithm", "paths/core", "critical hops",
                        "mem factor", "verdict"], rows))
    return 0


def cmd_table(args) -> int:
    runner = TABLE_RUNNERS.get(args.number)
    if runner is None:
        print(f"unknown table {args.number}; choose from 2-8", file=sys.stderr)
        return 2
    _print_cells(f"Table {args.number} (measured vs paper)", runner())
    return 0


def cmd_figure(args) -> int:
    runner = FIGURE_RUNNERS.get(args.number)
    if runner is None:
        print(f"unknown figure {args.number}; choose 9 or 10", file=sys.stderr)
        return 2
    cells = runner()
    rows = [[c.label, f"{c.measured:,.0f}",
             f"{c.extra['compute_cycles']:,.0f}",
             f"{c.extra['comm_cycles']:,.0f}"] for c in cells]
    print(format_table(f"Figure {args.number} (cycles)",
                       ["case", "total", "compute", "comm"], rows))
    return 0


def cmd_gemm(args) -> int:
    device = get_device(args.device)
    kernel = GEMM_KERNELS.get(args.kernel)
    if kernel is None:
        print(f"unknown kernel {args.kernel}; choose from "
              f"{sorted(GEMM_KERNELS)}", file=sys.stderr)
        return 2
    grid = args.grid
    if grid is None:
        grid = min(device.mesh_width, device.mesh_height, args.dim)
    cost = kernel.estimate(device, GemmShape.square(args.dim), grid)
    print(f"{kernel.name} {args.dim}x{args.dim} on {grid}x{grid} "
          f"{device.name}: {cost.milliseconds:.4f} ms "
          f"({cost.compute_cycles:,.0f} compute / "
          f"{cost.comm_cycles:,.0f} comm cycles, "
          f"{cost.energy_joules:.2f} J)")
    return 0


def cmd_gemv(args) -> int:
    device = get_device(args.device)
    kernel = GEMV_KERNELS.get(args.kernel)
    if kernel is None:
        print(f"unknown kernel {args.kernel}; choose from "
              f"{sorted(GEMV_KERNELS)}", file=sys.stderr)
        return 2
    grid = args.grid
    if grid is None:
        grid = min(device.mesh_width, device.mesh_height, args.dim)
    cost = kernel.estimate(device, rows=args.dim, cols=args.dim, grid=grid)
    print(f"{kernel.name} [1,{args.dim}]x[{args.dim},{args.dim}] on "
          f"{grid}x{grid} {device.name}: {cost.seconds * 1e6:.3f} us "
          f"({cost.energy_joules * 1e3:.3f} mJ)")
    return 0


def cmd_llm(args) -> int:
    device = get_device(args.device)
    model = get_model(args.model)
    system = WaferLLMSystem(device)
    result = system.generation(model, args.seq_in, args.seq_out)
    rows = [
        ["prefill", f"{result.prefill_seconds * 1e3:.1f} ms"],
        ["decode", f"{result.decode_seconds:.3f} s"],
        ["throughput", f"{result.throughput_tokens_per_s:.1f} tok/s"],
        ["decode rate", f"{result.decode_tokens_per_s:.1f} tok/s"],
        ["energy", f"{result.energy_joules:.1f} J "
                   f"({result.tokens_per_joule:.4f} tok/J)"],
    ]
    print(format_table(
        f"{model.name} {args.seq_in}/{args.seq_out} on {device.name}",
        ["metric", "value"], rows))
    return 0


def _place_defects(args, device):
    from repro.mesh.remap import DefectMap

    if not (args.dead_cores or args.dead_links or args.degraded_links):
        # Nothing is drawn, but an invalid factor is still an error.
        if not 0.0 < args.degraded_factor < 1.0:
            raise ConfigurationError(
                f"degraded_factor must be in (0, 1), got {args.degraded_factor}"
            )
        return None
    return DefectMap.generate(
        device.mesh_width, device.mesh_height, seed=args.seed,
        dead_core_rate=args.dead_cores,
        dead_link_rate=args.dead_links,
        degraded_link_rate=args.degraded_links,
        degraded_factor=args.degraded_factor,
    )


def _region_row(label, region, stretch):
    return [
        label, region.name,
        f"({region.x},{region.y})", f"{region.width}x{region.height}",
        f"{stretch:.4f}",
    ]


def cmd_place(args) -> int:
    import json

    if args.smoke:
        # Small fabric, injected defects, strict sanitizer: the CI gate.
        device = get_device("ipu-like-crossbar")
        model = get_model("tiny-gqa")
        config = PlannerConfig(seed=args.seed, coarse_step=8,
                               seq_len=256, context_len=64,
                               spare_count=args.spares)
        from repro.mesh.remap import DefectMap

        defects = DefectMap.generate(
            device.mesh_width, device.mesh_height, seed=args.seed or 7,
            dead_core_rate=0.01, dead_link_rate=0.01,
            degraded_link_rate=0.02, degraded_factor=0.5,
        )
    else:
        device = get_device(args.device)
        model = get_model(args.model)
        config = PlannerConfig(seed=args.seed, spare_count=args.spares,
                               seq_len=args.seq_len,
                               context_len=args.context_len)
        defects = _place_defects(args, device)

    result = plan_placement(model, device, defects, config)
    plan = result.plan
    paper = None
    if args.compare_paper or args.smoke:
        paper = paper_default_plan(model, device, defects, config)

    if args.json:
        payload = {"plan": plan.to_dict()}
        if paper is not None:
            payload["paper"] = paper.to_dict()
        if args.explain:
            payload["rejected"] = [r.to_dict() for r in result.rejected]
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            _region_row("prefill", plan.prefill_region,
                        plan.prefill_comm_stretch),
            _region_row("decode", plan.decode_region,
                        plan.decode_comm_stretch),
        ]
        for spare in plan.spare_regions:
            rows.append(_region_row("spare", spare, 1.0))
        print(format_table(
            f"placement for {model.name} on {device.name} "
            f"({plan.logical_width}x{plan.logical_height} logical, "
            f"{plan.num_defects} defects)",
            ["role", "region", "anchor", "shape", "comm stretch"], rows))
        print(f"  ktree K={plan.ktree_k}  "
              f"prefill {plan.prefill_tokens_per_s:,.0f} tok/s  "
              f"decode {plan.decode_tokens_per_s:,.0f} tok/s  "
              f"({plan.candidates_evaluated} candidates)")
        if plan.validation is not None:
            print(f"  validation: {plan.validation.render()}")
        if paper is not None:
            ratio = plan.decode_tokens_per_s / paper.decode_tokens_per_s
            print(
                f"  paper default: grids {paper.prefill_grid}/"
                f"{paper.decode_grid}, decode "
                f"{paper.decode_tokens_per_s:,.0f} tok/s "
                f"(planner {ratio:.3f}x)"
            )
        if args.explain:
            if not result.rejected:
                print("  rejected candidates: none")
            for rej in result.rejected:
                print(f"  rejected: {rej.reason}")
                for finding in rej.findings:
                    print(f"    {finding.render()}")

    if not plan.is_validated:
        return 1
    if args.smoke and paper is not None and (
            plan.decode_tokens_per_s < paper.decode_tokens_per_s):
        print("smoke FAILED: planner does not beat the paper default")
        return 1
    return 0


def cmd_audit(args) -> int:
    device = get_device(args.device)
    rows = []
    for name in sorted(MODELS):
        if name.startswith("tiny"):
            continue
        model = get_model(name)
        if args.int8:
            model = quantized_config(model, 8)
        audit = audit_model(model, device)
        rows.append([
            model.name,
            f"{audit.weights_per_core / 1024:.1f} KiB",
            f"{audit.kv_budget_per_core / 1024:.1f} KiB",
            "yes" if audit.fits_end_to_end else
            f"no ({required_layer_subset(model, device)} layers fit)",
        ])
    print(format_table(f"memory audit on {device.name}",
                       ["model", "weights/core", "KV budget/core",
                        "fits end-to-end"], rows))
    return 0


def cmd_project(args) -> int:
    device = get_device(args.device)
    model = get_model(args.model)
    region = 375 if args.region is None else args.region
    projection = resident_decode_projection(model, device, region)
    rows = [
        ["decode today", f"{projection.current_tokens_per_s:,.0f} tok/s"],
        ["pipeline stages", str(projection.stages)],
        ["resident projection",
         f"{projection.projected_tokens_per_s:,.0f} tok/s"],
    ]
    for row in width_study(model, device, region, factors=(2.0, 4.0)):
        rows.append([
            f"wider {row['factor']:g}x ({row['layers']} layers)",
            f"{row['decode_tok_s']:,.0f} tok/s",
        ])
    print(format_table(f"Section 8 projections for {model.name}",
                       ["scenario", "value"], rows))
    return 0


def _serving_rows(metrics: ServingMetrics) -> List[List[str]]:
    return [
        ["submitted", str(metrics.submitted)],
        ["rejected (admission)", str(len(metrics.rejected))],
        ["finished", str(metrics.finished)],
        ["peak batch", str(metrics.peak_batch)],
        ["peak queue depth", str(metrics.peak_queue_depth)],
        ["peak KV occupancy",
         f"{metrics.peak_kv_tokens:,} / {metrics.kv_capacity_tokens:,} tok "
         f"({metrics.peak_kv_fraction:.0%})"],
        ["makespan", f"{metrics.makespan_s:.3f} s"],
        ["throughput", f"{metrics.throughput_tokens_per_s:,.0f} tok/s"],
        ["goodput (SLO-met)", f"{metrics.goodput_tokens_per_s:,.0f} tok/s"],
        ["SLO attainment", f"{metrics.slo_attainment:.0%}"],
        ["TTFT p50 / p99",
         f"{metrics.p50_ttft_s:.3f} / {metrics.p99_ttft_s:.3f} s"],
        ["TPOT mean / p99",
         f"{metrics.mean_tpot_s * 1e3:.2f} / {metrics.p99_tpot_s * 1e3:.2f} ms"],
        ["p99 latency", f"{metrics.p99_latency_s:.3f} s"],
        ["decode stall time", f"{metrics.decode_stall_s:.3f} s"],
        ["preemptions", str(metrics.preemptions)],
        ["fault retries", str(metrics.retries)],
    ]


def _serve_trace(args) -> List[Request]:
    if args.priorities < 1:
        raise ConfigurationError(
            f"--priorities must be >= 1, got {args.priorities}")
    return [
        Request(i, seq_in=args.seq_in, seq_out=args.seq_out,
                arrival_s=i * args.interval, priority=i % args.priorities,
                ttft_slo_s=args.ttft_slo, tpot_slo_s=args.tpot_slo)
        for i in range(args.requests)
    ]


def cmd_serve(args) -> int:
    device = get_device(args.device)
    model = get_model(args.model)
    requests = _serve_trace(args)
    modes = ("chunked", "exclusive") if args.compare else (args.mode,)
    for mode in modes:
        server = WaferServer(
            model, device, mode=mode, chunk_tokens=args.chunk,
            max_batch=args.batch,
            fault_injector=FaultInjector(args.fault_rate, seed=args.seed),
            max_retries=args.max_retries,
            spare_regions=args.spares,
        )
        metrics = server.serve(requests)
        print(format_table(
            f"serving {model.name} on {device.name} "
            f"({mode} prefill, chunk={args.chunk})",
            ["metric", "value"], _serving_rows(metrics)))
    return 0


def cmd_faults(args) -> int:
    """Seeded fault sweep: availability / MTTR / goodput per scenario.

    Runs the same request trace through the chunked server under a
    ladder of fault scenarios — clean fabric, transient upsets, link
    retrains, a core death absorbed by a spare region, and core deaths
    past the spare budget — and prints the fault-tolerance table
    EXPERIMENTS.md records.  Every scenario is a pure function of
    ``--seed``.
    """
    from repro.bench.experiments import fault_sweep_rows, run_fault_sweep

    device = get_device(args.device)
    model = get_model(args.model)
    if args.smoke:
        n_requests, seq_in, seq_out = 6, 512, 64
    else:
        n_requests, seq_in, seq_out = args.requests, args.seq_in, args.seq_out
    scenarios = run_fault_sweep(
        device, model_name=args.model,
        n_requests=n_requests, seq_in=seq_in, seq_out=seq_out,
        interval_s=args.interval, chunk_tokens=args.chunk, seed=args.seed,
    )
    print(format_table(
        f"fault sweep: {model.name} on {device.name} "
        f"({n_requests} requests, seed={args.seed})",
        ["scenario", "done", "shed", "retries", "remaps", "degr",
         "availability", "MTTR ms", "goodput tok/s"],
        fault_sweep_rows(scenarios)))
    return 0


def cmd_fleet(args) -> int:
    """Seeded multi-wafer chaos sweep: the fleet availability table.

    Routes one request trace through an N-wafer fleet under a ladder of
    wafer-scoped fault scenarios (clean, mid-trace wafer loss, churn,
    router partition, bursty arrivals + loss) and prints the fleet
    table EXPERIMENTS.md records.  ``--smoke`` runs the CI gate: a
    tiny 3-wafer fleet with one injected ``wafer_down`` that must
    fail over with zero lost requests.
    """
    from repro.fleet import chaos_sweep, fleet_rows, run_smoke

    if args.smoke:
        metrics = run_smoke(seed=args.seed)
        s = metrics.summary()
        print(format_table(
            f"fleet smoke (seed={args.seed})",
            ["metric", "value"],
            [[k, f"{v:.6g}"] for k, v in s.items()]))
        print(f"  timeline signature: {metrics.timeline_signature()[:16]}")
        return 0

    device = get_device(args.device)
    model = get_model(args.model)
    scenarios = chaos_sweep(
        model, device,
        n_wafers=args.wafers, n_requests=args.requests, seed=args.seed,
        mean_interarrival_s=args.interval, chunk_tokens=args.chunk,
    )
    print(format_table(
        f"fleet chaos sweep: {args.wafers}x {model.name} on {device.name} "
        f"({args.requests} requests, seed={args.seed})",
        ["scenario", "done", "lost", "failovers", "migr", "retries",
         "availability", "MTTR ms", "p99 TTFT ms", "goodput tok/s"],
        fleet_rows(scenarios)))
    if any(m.lost_requests for _, m in scenarios):
        print("warning: requests lost — retry budget exhausted somewhere")
        return 1
    return 0


def cmd_profile(args) -> int:
    from repro.profiling import all_kernel_names, build_case, timeline_case
    from repro.mesh.reconcile import reconcile

    if args.kernel not in all_kernel_names():
        print(f"unknown kernel {args.kernel}; choose from "
              f"{all_kernel_names()}", file=sys.stderr)
        return 2
    case = build_case(args.kernel, args.grid, dim=args.dim,
                      height=args.height)
    machine, timeline = timeline_case(case, args.device)

    # Consecutive steps of the same phase (e.g. a compute-shift loop)
    # collapse into one table row so the output mirrors Figure 9/10.
    rows: List[list] = []
    for row in timeline:
        if rows and rows[-1][0] == row.label and rows[-1][1] == row.kind:
            last = rows[-1]
            last[2] += 1
            last[3] += row.events
            last[4] += row.compute_cycles
            last[5] += row.comm_cycles
            last[6] += row.total_cycles
        else:
            rows.append([row.label, row.kind, 1, row.events,
                         row.compute_cycles, row.comm_cycles,
                         row.total_cycles])
    totals = [sum(r[i] for r in rows) for i in (4, 5, 6)]
    cells = [[r[0], r[1], str(r[2]), str(r[3]),
              f"{r[4]:,.0f}", f"{r[5]:,.0f}", f"{r[6]:,.0f}"] for r in rows]
    cells.append(["TOTAL", "", "", "",
                  f"{totals[0]:,.0f}", f"{totals[1]:,.0f}",
                  f"{totals[2]:,.0f}"])
    width, height = case.mesh
    print(format_table(
        f"{case.name} dim={case.dim} on {width}x{height} {args.device} "
        f"(trace replay)",
        ["phase", "kind", "steps", "events", "compute", "comm", "cycles"],
        cells))

    if args.reconcile:
        report = reconcile(case.planner(), machine.trace, machine.device,
                           name=case.name)
        print(report.render())
        return 0 if report.ok else 1
    return 0


def cmd_check(args) -> int:
    """PLMR conformance check: AST lint + cache-key dataflow + trace
    sanitizer over the zoo, with an optional replay audit.

    ``--strict`` exits non-zero on any finding; ``--json`` emits the
    machine-readable report the CI job archives.  ``--determinism``
    additionally runs each serve / fleet / kernel scenario twice from
    one seed and fails on any phase-signature divergence
    (``--inject-divergence`` perturbs the final run to prove the
    auditor localizes a real one).  ``--update-baseline`` sweeps the
    extended lint roots *and* the dataflow pass, records the findings
    as accepted, and prints the delta versus the previous baseline.
    """
    import json as _json

    from repro.analysis.checker import run_check, static_findings
    from repro.analysis.lint.baseline import (
        BASELINE_PATH,
        load_baseline,
        write_baseline,
    )

    if args.update_baseline:
        lint_findings, dataflow_findings = static_findings()
        findings = lint_findings + dataflow_findings
        before = load_baseline()
        data = write_baseline(findings)
        after = set(data["fingerprints"])
        added, dropped = len(after - before), len(before - after)
        print(f"baseline: {len(after)} fingerprint(s) "
              f"written to {BASELINE_PATH} "
              f"(+{added} new, -{dropped} cleared)")
        return 0

    kernels = args.kernels.split(",") if args.kernels else None
    scenarios = args.scenario.split(",") if args.scenario else None
    report = run_check(
        lint=not args.skip_lint,
        sanitize=not args.skip_sanitize,
        determinism=args.determinism,
        grid=args.grid,
        kernels=kernels,
        remapped=not args.no_remapped,
        audit_seed=args.audit_seed,
        audit_runs=args.runs,
        scenarios=scenarios,
    )
    if args.determinism and args.inject_divergence:
        from repro.analysis.determinism.audit import audit_scenario

        name = scenarios[0] if scenarios else "kernel"

        def _perturb(events):
            if not events:
                return events
            mutated = list(events)
            victim = mutated[len(mutated) // 2]
            mutated[len(mutated) // 2] = type(victim)(
                phase=victim.phase, payload=victim.payload + "|perturbed"
            )
            return mutated

        audit = audit_scenario(
            name, seed=args.audit_seed, runs=args.runs, perturb=_perturb
        )
        report.audits.append(audit)
        report.audit_findings.extend(audit.findings())
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.strict:
        return 0 if report.ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WaferLLM reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list PLMR device presets") \
        .set_defaults(func=cmd_devices)

    p = sub.add_parser("compliance", help="Figure 6/8 compliance analysis")
    p.add_argument("--device", default=WSE2.name)
    p.set_defaults(func=cmd_compliance)

    p = sub.add_parser("table", help="regenerate a paper table (2-8)")
    p.add_argument("number", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure (9/10)")
    p.add_argument("number", type=int)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("gemm", help="estimate a distributed GEMM")
    p.add_argument("--dim", type=int, default=16384)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--kernel", default="meshgemm")
    p.add_argument("--device", default=WSE2.name)
    p.set_defaults(func=cmd_gemm)

    p = sub.add_parser("gemv", help="estimate a distributed GEMV")
    p.add_argument("--dim", type=int, default=16384)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--kernel", default="meshgemv")
    p.add_argument("--device", default=WSE2.name)
    p.set_defaults(func=cmd_gemv)

    p = sub.add_parser("llm", help="estimate end-to-end LLM inference")
    p.add_argument("--model", default="llama3-8b")
    p.add_argument("--seq-in", type=int, default=4096)
    p.add_argument("--seq-out", type=int, default=4096)
    p.add_argument("--device", default=WSE2.name)
    p.set_defaults(func=cmd_llm)

    p = sub.add_parser(
        "place",
        help="defect-aware placement search (plan regions + spares)",
    )
    p.add_argument("--model", default="llama3-8b")
    p.add_argument("--device", default="cerebras-wse2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dead-cores", type=float, default=0.0,
                   help="dead-core rate for an injected defect map")
    p.add_argument("--dead-links", type=float, default=0.0)
    p.add_argument("--degraded-links", type=float, default=0.0)
    p.add_argument("--degraded-factor", type=float, default=0.5)
    p.add_argument("--spares", type=int, default=1)
    p.add_argument("--seq-len", type=int, default=4096)
    p.add_argument("--context-len", type=int, default=2048)
    p.add_argument("--json", action="store_true")
    p.add_argument("--explain", action="store_true",
                   help="show rejected candidates and their findings")
    p.add_argument("--compare-paper", action="store_true",
                   help="score the paper-default layout on the same fabric")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: small defective fabric, strict sanitizer")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("audit", help="memory audit of the paper's models")
    p.add_argument("--device", default=WSE2.name)
    p.add_argument("--int8", action="store_true",
                   help="audit int8-quantized variants")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("project", help="Section 8 future projections")
    p.add_argument("--model", default="llama2-13b")
    p.add_argument("--device", default=WSE2.name)
    p.add_argument("--region", type=int, default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser(
        "profile",
        help="replay a kernel's execution trace into a phase timeline")
    p.add_argument("--kernel", default="meshgemm")
    p.add_argument("--grid", type=int, default=8,
                   help="fabric side (width for non-square kernels)")
    p.add_argument("--height", type=int, default=None,
                   help="fabric height for non-square kernels")
    p.add_argument("--dim", type=int, default=None,
                   help="problem dimension (defaults per kernel family)")
    p.add_argument("--device", default="cerebras-wse2",
                   help="device preset providing per-core parameters")
    p.add_argument("--reconcile", action="store_true",
                   help="also reconcile the analytic plan against the trace")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("serve", help="simulate multi-request serving")
    p.add_argument("--model", default="llama3-8b")
    p.add_argument("--device", default=WSE2.name)
    p.add_argument("--mode", default="chunked",
                   choices=["chunked", "exclusive"])
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seq-in", type=int, default=1024)
    p.add_argument("--seq-out", type=int, default=256)
    p.add_argument("--interval", type=float, default=0.05)
    p.add_argument("--chunk", type=int, default=256,
                   help="prefill chunk size in tokens")
    p.add_argument("--priorities", type=int, default=2,
                   help="number of priority classes to cycle through")
    p.add_argument("--ttft-slo", type=float, default=None,
                   help="per-request TTFT SLO in seconds")
    p.add_argument("--tpot-slo", type=float, default=None,
                   help="per-request TPOT SLO in seconds")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="per-step failure probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=64,
                   help="consecutive step retries before escalating")
    p.add_argument("--spares", type=int, default=1,
                   help="spare regions available for core-death remaps")
    p.add_argument("--compare", action="store_true",
                   help="run chunked and exclusive on the same trace")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "faults",
        help="seeded fault sweep: availability / MTTR / goodput table")
    p.add_argument("--model", default="llama3-8b")
    p.add_argument("--device", default=WSE2.name)
    p.add_argument("--requests", type=int, default=16)
    p.add_argument("--seq-in", type=int, default=1024)
    p.add_argument("--seq-out", type=int, default=256)
    p.add_argument("--interval", type=float, default=0.05)
    p.add_argument("--chunk", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny fast sweep for CI")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "fleet",
        help="multi-wafer chaos sweep: availability / failover table")
    p.add_argument("--model", default="llama3-8b")
    p.add_argument("--device", default=WSE2.name)
    p.add_argument("--wafers", type=int, default=3)
    p.add_argument("--requests", type=int, default=24)
    p.add_argument("--interval", type=float, default=0.02)
    p.add_argument("--chunk", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny 3-wafer failover gate for CI")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "check",
        help="PLMR conformance: AST lint + trace sanitizer over the kernels")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on any finding")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument("--skip-lint", action="store_true",
                   help="run only the trace sanitizer")
    p.add_argument("--skip-sanitize", action="store_true",
                   help="run only the source lint")
    p.add_argument("--kernels", default=None,
                   help="comma-separated kernel names to sanitize "
                        "(default: the clean suite + attention path)")
    p.add_argument("--grid", type=int, default=4,
                   help="mesh side for the sanitizer kernels")
    p.add_argument("--no-remapped", action="store_true",
                   help="skip the remapped/degraded-fabric sweep")
    p.add_argument("--update-baseline", action="store_true",
                   help="accept current lint + dataflow findings into "
                        "the baseline (extended sweep) and print the delta")
    p.add_argument("--determinism", action="store_true",
                   help="run the double-run replay audit (serve / fleet "
                        "/ kernel scenarios)")
    p.add_argument("--scenario", default=None,
                   help="comma-separated audit scenarios "
                        "(default: serve,fleet,kernel)")
    p.add_argument("--audit-seed", type=int, default=0,
                   help="seed every audited run starts from")
    p.add_argument("--runs", type=int, default=2,
                   help="same-seed runs to compare per scenario")
    p.add_argument("--inject-divergence", action="store_true",
                   help="perturb the final run to demonstrate divergence "
                        "localization (makes the check fail)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
