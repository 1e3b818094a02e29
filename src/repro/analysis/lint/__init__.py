"""AST-based pluggable lint framework (side 1 of the PLMR checker)."""

from repro.analysis.lint.baseline import (
    BASELINE_PATH,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.lint.engine import (
    REPO_ROOT,
    SOURCE_ROOT,
    LintRule,
    all_rules,
    lint_repo,
    lint_source,
    register_rule,
    rule_ids,
)

__all__ = [
    "BASELINE_PATH",
    "REPO_ROOT",
    "SOURCE_ROOT",
    "LintRule",
    "all_rules",
    "apply_baseline",
    "fingerprint",
    "lint_repo",
    "lint_source",
    "load_baseline",
    "register_rule",
    "rule_ids",
    "write_baseline",
]
