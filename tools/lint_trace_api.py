#!/usr/bin/env python3
"""Lint: kernels must not call the raw ``Trace.record_*`` API.

Thin shim over the AST-based ``raw-trace-record`` rule in
:mod:`repro.analysis.lint` — the regex this script used to carry false-
positived on comments and docstrings; the AST rule only sees real call
sites.  The entry point and the :func:`find_violations` signature are
kept so existing invocations and tests stay green; CI runs the rule
through ``repro check --strict``.

Run from the repository root::

    python tools/lint_trace_api.py

Exits non-zero listing each offending ``path:line`` on stderr.  The
full rule catalogue (this rule included) runs via ``repro check``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def find_violations(source_root: Path = SOURCE_ROOT) -> List[Tuple[Path, int, str]]:
    """All ``path, line number, line`` triples calling ``record_*`` directly."""
    from repro.analysis.lint.engine import lint_tree
    from repro.analysis.lint.rules import RawTraceRecordRule

    violations: List[Tuple[Path, int, str]] = []
    for finding in lint_tree(source_root, rules=[RawTraceRecordRule()]):
        path = REPO_ROOT / finding.path
        line = ""
        try:
            line = path.read_text(encoding="utf-8").splitlines()[
                (finding.line or 1) - 1
            ].strip()
        except (OSError, IndexError):
            pass
        violations.append((path, finding.line or 0, line))
    return violations


def main() -> int:
    violations = find_violations()
    for path, lineno, line in violations:
        rel = path.relative_to(REPO_ROOT)
        print(f"{rel}:{lineno}: direct trace recording: {line}",
              file=sys.stderr)
    if violations:
        print(
            f"\n{len(violations)} direct Trace.record_* call(s) outside "
            "repro/mesh/machine.py — route them through machine."
            "communicate / compute / barrier so the phase stream stays "
            "replayable.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
