"""Orchestration for ``repro check``: run the lint, the cache-key
dataflow pass, the sanitizer — and, on request, the replay auditor —
then merge the findings into one report.

The lint side walks the extended sweep (``src/repro``, ``tests``,
``tools``, ``benchmarks``; fixtures excluded) with every registered AST
rule and subtracts the baseline; the dataflow side checks every
cache-key site against repo-wide mutations of its inputs; the sanitize
side executes the clean kernel suite (plus the attention path and
remapped variants) and checks each trace against its machine's PLMR
limits; the determinism side replays serve / fleet / kernel scenarios
twice from one seed and requires identical phase signatures.
``CheckReport.ok`` is the ``--strict`` exit criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.lint.baseline import (
    BASELINE_PATH,
    apply_baseline,
    load_baseline,
)
from repro.analysis.lint.engine import lint_repo


@dataclass
class CheckReport:
    """Combined outcome of one ``repro check`` invocation."""

    lint_findings: List[Finding] = field(default_factory=list)
    dataflow_findings: List[Finding] = field(default_factory=list)
    sanitize_findings: List[Finding] = field(default_factory=list)
    audit_findings: List[Finding] = field(default_factory=list)
    kernels_checked: List[str] = field(default_factory=list)
    audits: List[object] = field(default_factory=list)  # AuditReport
    baselined: int = 0

    @property
    def findings(self) -> List[Finding]:
        return [
            *self.lint_findings,
            *self.dataflow_findings,
            *self.sanitize_findings,
            *self.audit_findings,
        ]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "lint": [f.to_dict() for f in self.lint_findings],
            "dataflow": [f.to_dict() for f in self.dataflow_findings],
            "sanitize": [f.to_dict() for f in self.sanitize_findings],
            "audit": [f.to_dict() for f in self.audit_findings],
            "kernels_checked": list(self.kernels_checked),
            "audits": [a.to_dict() for a in self.audits],
            "baselined": self.baselined,
        }

    def render(self) -> str:
        lines: List[str] = []
        lines.append(
            f"lint: {len(self.lint_findings)} finding(s)"
            + (f" ({self.baselined} baselined)" if self.baselined else "")
        )
        lines.extend("  " + f.render() for f in self.lint_findings)
        lines.append(f"dataflow: {len(self.dataflow_findings)} finding(s)")
        lines.extend("  " + f.render() for f in self.dataflow_findings)
        lines.append(
            f"sanitize: {len(self.sanitize_findings)} finding(s) over "
            f"{len(self.kernels_checked)} trace(s)"
        )
        lines.extend("  " + f.render() for f in self.sanitize_findings)
        if self.audits:
            lines.append(
                f"determinism: {len(self.audit_findings)} finding(s) over "
                f"{len(self.audits)} scenario(s)"
            )
            for audit in self.audits:
                lines.extend("  " + ln for ln in audit.render().splitlines())
        lines.append("check: " + ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)


def static_findings() -> Tuple[List[Finding], List[Finding]]:
    """Raw lint and dataflow findings, before the baseline.

    The lint sweeps ``DEFAULT_ROOTS``, the dataflow pass ``src/repro``;
    both read the same memoized module records.
    """
    from repro.analysis.determinism.cachekeys import check_cache_keys

    return lint_repo(), check_cache_keys()


def run_check(
    lint: bool = True,
    sanitize: bool = True,
    determinism: bool = False,
    grid: int = 4,
    kernels: Optional[List[str]] = None,
    remapped: bool = True,
    baseline_path: Path = BASELINE_PATH,
    audit_seed: int = 0,
    audit_runs: int = 2,
    scenarios: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Run the requested sides of the conformance check.

    The static sides (lint + dataflow) read :func:`static_findings`.
    """
    report = CheckReport()
    if lint:
        baseline = load_baseline(baseline_path)
        raw, raw_flow = static_findings()
        report.lint_findings = apply_baseline(raw, baseline)
        report.dataflow_findings = apply_baseline(raw_flow, baseline)
        report.baselined = (
            len(raw) + len(raw_flow)
            - len(report.lint_findings) - len(report.dataflow_findings)
        )
    if sanitize:
        from repro.analysis.kernels import run_kernel_checks

        sanitize_reports = run_kernel_checks(
            grid=grid,
            kernels=kernels,
            remapped=("meshgemm", "meshgemv") if remapped else (),
        )
        for sub in sanitize_reports:
            report.kernels_checked.append(sub.subject)
            report.sanitize_findings.extend(sub.findings)
    if determinism:
        from repro.analysis.determinism.audit import audit_all

        report.audits = list(
            audit_all(seed=audit_seed, runs=audit_runs, scenarios=scenarios)
        )
        for audit in report.audits:
            report.audit_findings.extend(audit.findings())
    return report
