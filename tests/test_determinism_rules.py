"""The determinism lint rules: true positives from the seeded fixtures,
negatives for the disciplined shapes, and the path gates."""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_source

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "determinism"


def _lint_fixture(name: str, rel_path: str = "src/repro/fx/mod.py"):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, rel_path)


# ----------------------------------------------------------------------
# wall-clock-read
# ----------------------------------------------------------------------

def test_wall_clock_fixture_flagged():
    findings = [
        f for f in _lint_fixture("bad_wall_clock.py")
        if f.rule == "wall-clock-read"
    ]
    assert len(findings) == 3
    assert all(f.line is not None for f in findings)


def test_wall_clock_flagged_in_bench_package():
    code = "import time\n\ndef t():\n    return time.perf_counter()\n"
    # No module under src/ is exempt, the report harness included.
    for path in ("src/repro/serving/chunked.py",
                 "src/repro/bench/experiments.py"):
        findings = lint_source(code, path)
        assert any(f.rule == "wall-clock-read" for f in findings), path


def test_datetime_now_flagged_only_for_datetime_objects():
    code = (
        "from datetime import datetime\n"
        "class Clock:\n"
        "    def now(self):\n"
        "        return 0\n"
        "def ok(c: Clock):\n"
        "    return c.now()\n"
        "def bad():\n"
        "    return datetime.now()\n"
    )
    findings = [
        f for f in lint_source(code, "src/repro/x.py")
        if f.rule == "wall-clock-read"
    ]
    assert len(findings) == 1
    assert findings[0].line == 8


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------

def test_unordered_fixture_flagged():
    findings = [
        f for f in _lint_fixture("bad_unordered.py")
        if f.rule == "unordered-iteration"
    ]
    assert len(findings) == 2


def test_sorted_set_iteration_allowed():
    code = (
        "import hashlib\n"
        "def signature_of(names):\n"
        "    d = hashlib.sha256()\n"
        "    for n in sorted({x.strip() for x in names}):\n"
        "        d.update(n.encode())\n"
        "    return d.hexdigest()\n"
    )
    findings = lint_source(code, "src/repro/x.py")
    assert not any(f.rule == "unordered-iteration" for f in findings)


def test_set_iteration_outside_sensitive_functions_allowed():
    # Set iteration is only order-hazardous when it feeds an
    # order-sensitive sink (hashes, heaps, trace records).
    code = (
        "def total(xs):\n"
        "    acc = 0\n"
        "    for x in set(xs):\n"
        "        acc += x\n"
        "    return acc\n"
    )
    findings = lint_source(code, "src/repro/x.py")
    assert not any(f.rule == "unordered-iteration" for f in findings)


# ----------------------------------------------------------------------
# object-identity-ordering
# ----------------------------------------------------------------------

def test_identity_order_fixture_flagged():
    findings = [
        f for f in _lint_fixture("bad_identity_order.py")
        if f.rule == "object-identity-ordering"
    ]
    assert len(findings) == 2


def test_time_seq_heap_discipline_allowed():
    # The fleet router's (time, seq, payload) heap triple is the
    # sanctioned shape: the monotone counter breaks timestamp ties.
    code = (
        "import heapq\n"
        "import itertools\n"
        "_seq = itertools.count()\n"
        "def schedule(heap, at_s, event):\n"
        "    heapq.heappush(heap, (at_s, next(_seq), event))\n"
    )
    findings = lint_source(code, "src/repro/x.py")
    assert not any(
        f.rule == "object-identity-ordering" for f in findings
    )


# ----------------------------------------------------------------------
# mutable-module-state
# ----------------------------------------------------------------------

def test_module_state_fixture_flagged():
    findings = [
        f for f in _lint_fixture("bad_module_state.py")
        if f.rule == "mutable-module-state"
    ]
    assert len(findings) == 1
    assert findings[0].line == 3


def test_versioned_module_state_allowed():
    findings = [
        f for f in _lint_fixture("good_module_state.py")
        if f.rule == "mutable-module-state"
    ]
    assert not findings


# ----------------------------------------------------------------------
# hashseed-dependent
# ----------------------------------------------------------------------

def test_builtin_hash_flagged_in_src():
    code = "def seed_for(name):\n    return hash(name) % 997\n"
    findings = [
        f for f in lint_source(code, "src/repro/x.py")
        if f.rule == "hashseed-dependent"
    ]
    assert len(findings) == 1


def test_builtin_hash_not_flagged_outside_src():
    code = "def seed_for(name):\n    return hash(name) % 997\n"
    findings = lint_source(code, "tools/helper.py")
    assert not any(f.rule == "hashseed-dependent" for f in findings)


def test_dunder_hash_method_allowed():
    code = (
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return 7\n"
        "def use(d, k: Key):\n"
        "    return d[k]\n"
    )
    findings = lint_source(code, "src/repro/x.py")
    assert not any(f.rule == "hashseed-dependent" for f in findings)


# ----------------------------------------------------------------------
# the tree itself
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule", [
    "wall-clock-read", "unordered-iteration", "object-identity-ordering",
    "mutable-module-state", "hashseed-dependent",
])
def test_src_tree_clean_of_rule(rule):
    from repro.analysis.lint import lint_tree

    findings = [f for f in lint_tree() if f.rule == rule]
    pretty = "\n".join(f.render() for f in findings)
    assert not findings, f"{rule} findings in src/repro:\n{pretty}"
