"""Plan validation: candidates are *validated, not just scored*.

A placement the scorer likes can still be unservable: its region may sit
on a neighbourhood whose detours breach the L hop budget, its grid may
leave no KV room for the live context (M), or its probe replay may
disagree with the analytic plan.  The validator replays every winning
candidate at probe scale on the carve-out's *actual physical
neighbourhood* (cropped defect map, real detours) through

* the **reconciler** — the analytic phase plan must agree with the
  functional trace within the named :class:`~repro.mesh.reconcile.Tolerances`;
* the **PLMR trace sanitizer** — zero findings under the machine's own
  policy (hop bound widened only by what legitimate detours require);
* the **named budgets** — hop (physical shift distance), M (region KV
  capacity vs the live context, pipeline depth), R (fan-in, via the
  sanitizer).

Any breach rejects the plan outright; the findings that killed it travel
with the rejection (:class:`~repro.placement.plan.RejectedPlan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.findings import Finding
from repro.analysis.sanitize import policy_for_machine, sanitize_machine
from repro.core.plmr import PLMRDevice
from repro.errors import RemapError
from repro.llm.config import ModelConfig
from repro.llm.kvcache import region_token_capacity
from repro.mesh.reconcile import Tolerances, reconcile
from repro.placement.fabric import FabricView
from repro.placement.plan import PlacementPlan, PlanValidation
from repro.runtime.scheduler import USABLE_MEMORY_FRACTION

#: Deepest weight pipeline the runtime will schedule (beyond this the
#: bubble fraction makes the region useless — same constant
#: ``min_decode_grid`` enforces).
MAX_PIPELINE_STAGES = 64

#: Default probe side for functional replay.  Small enough to simulate
#: bit-level, large enough that shifts, K-trees, and broadcasts all
#: exercise real multi-hop routes.
DEFAULT_PROBE_SIDE = 4


@dataclass
class ValidationBudgets:
    """Named budgets a plan must meet to be emitted.

    ``hop_budget`` bounds the worst physical distance of a legitimate
    (<= 2 logical hops) shift inside the probe window — the L property
    with an allowance for remap displacement and one dead-link detour.
    ``min_kv_tokens`` is the live context the decode region must hold
    (M); ``tolerances`` are the reconciler's named tolerances.
    """

    hop_budget: int = 6
    min_kv_tokens: int = 2048
    max_stages: int = MAX_PIPELINE_STAGES
    probe_side: int = DEFAULT_PROBE_SIDE
    tolerances: Tolerances = field(default_factory=Tolerances)


def _finding(rule: str, subject: str, message: str) -> Finding:
    return Finding(rule=rule, message=message, subject=subject,
                   source="placement")


def _budget_findings(
    plan: PlacementPlan,
    model: ModelConfig,
    device: PLMRDevice,
    budgets: ValidationBudgets,
) -> List[Finding]:
    """Static M-budget checks (no replay needed)."""
    findings: List[Finding] = []
    grid = plan.decode_grid
    subject = plan.decode_region.name
    tokens = region_token_capacity(
        model, grid, device.core_memory_bytes, device.num_cores
    )
    if tokens < budgets.min_kv_tokens:
        findings.append(_finding(
            "memory-budget", subject,
            f"decode region {grid}x{grid} holds {tokens} KV tokens; the "
            f"plan must hold a {budgets.min_kv_tokens}-token live context "
            f"(M budget)",
        ))
    per_core_weights = model.weight_bytes / (grid * grid)
    capacity = device.core_memory_bytes * USABLE_MEMORY_FRACTION
    stages = math.ceil(per_core_weights / capacity)
    if stages >= budgets.max_stages:
        findings.append(_finding(
            "memory-budget", subject,
            f"decode region {grid}x{grid} needs {stages} pipeline stages "
            f"(budget {budgets.max_stages}); weights are spread too thin "
            f"(M budget)",
        ))
    return findings


def validate_plan(
    plan: PlacementPlan,
    view: FabricView,
    model: ModelConfig,
    budgets: Optional[ValidationBudgets] = None,
) -> PlanValidation:
    """Replay a plan through reconciler + sanitizer + budget checks."""
    from repro.profiling import build_case

    budgets = budgets or ValidationBudgets()
    probe = max(2, min(budgets.probe_side, plan.decode_grid))
    result = PlanValidation(probe_grid=probe)

    findings = _budget_findings(plan, model, view.device, budgets)
    result.budgets_ok = not findings
    result.findings.extend(findings)

    # Probe replay on the region's physical neighbourhood: decode's
    # GEMV and prefill's GEMM, each reconciled and sanitized.
    for carve, kernel in (
        (plan.decode_region, "meshgemv"),
        (plan.prefill_region, "meshgemm"),
    ):
        subject = f"{carve.name}:{kernel}@{probe}x{probe}"
        try:
            machine = view.probe_machine(carve, probe)
        except RemapError as exc:
            result.findings.append(_finding(
                "probe-unroutable", subject,
                f"probe window cannot host a dense {probe}x{probe} mesh: "
                f"{exc}",
            ))
            continue
        case = build_case(kernel, probe)
        case.runner(machine)
        # The policy reads the fabric's registered patterns and the
        # topology's legitimate detour distances, so it is derived from
        # the machine *after* the probe run.
        policy = policy_for_machine(machine)
        if policy.shift_hop_bound > budgets.hop_budget:
            result.findings.append(_finding(
                "hop-budget", subject,
                f"legitimate shifts need {policy.shift_hop_bound} physical "
                f"hops in this neighbourhood (budget {budgets.hop_budget}); "
                f"the region sits on too-displaced a patch (L budget)",
            ))
            continue
        sanitized = sanitize_machine(machine, subject=subject, policy=policy)
        if carve is plan.decode_region:
            result.sanitize_ok = sanitized.ok
        result.findings.extend(sanitized.findings)
        report = reconcile(
            case.planner(), machine.trace, machine.device,
            name=subject, tolerances=budgets.tolerances,
        )
        if carve is plan.decode_region:
            result.reconcile_ok = report.ok
            result.reconcile_summary = report.render()
        if not report.ok:
            worst = max(report.buckets, key=lambda b: b.rel_diff)
            result.findings.append(_finding(
                "reconcile-budget", subject,
                f"plan-vs-trace {worst.bucket} diverges "
                f"{worst.rel_diff:.0%} (tolerance "
                f"{worst.tolerance_rel:.0%}) on the probe replay",
            ))
    # Prefill-side sanitize/reconcile problems surface only as findings,
    # which still fail the plan via `ok` (findings must be empty).
    return result
