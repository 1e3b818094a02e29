"""The AST lint framework: rules, suppression and baseline."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.findings import Finding
from repro.analysis.lint import (
    SOURCE_ROOT,
    all_rules,
    apply_baseline,
    fingerprint,
    lint_repo,
    lint_source,
    rule_ids,
    write_baseline,
)


def _lint(code: str, rel_path: str = "src/repro/gemm/fake.py"):
    return lint_source(textwrap.dedent(code), rel_path)


def _rules_hit(code: str, rel_path: str = "src/repro/gemm/fake.py"):
    return {f.rule for f in _lint(code, rel_path)}


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------

def test_initial_rule_catalogue_registered():
    ids = set(rule_ids())
    assert {"raw-trace-record", "unseeded-rng",
            "non-neighbour-shift", "bare-advance-step"} <= ids
    # The determinism conformance rules register through the same engine.
    assert {"wall-clock-read", "unordered-iteration",
            "object-identity-ordering", "mutable-module-state",
            "hashseed-dependent"} <= ids
    assert len(all_rules()) == len(ids)


# ----------------------------------------------------------------------
# raw-trace-record
# ----------------------------------------------------------------------

def test_raw_record_flagged_outside_machine():
    code = """
    def bad(machine):
        machine.trace.record_comm(0, "p", [], [], {})
        machine.trace.record_compute(0, "c", [1.0])
        machine.trace.record_barrier(0, "b")
    """
    findings = [f for f in _lint(code) if f.rule == "raw-trace-record"]
    assert len(findings) == 3
    assert all(f.line is not None for f in findings)


def test_raw_record_allowed_in_machine_and_trace_modules():
    code = "def ok(self):\n    self.trace.record_comm(0, 'p', [], [], {})\n"
    for allowed in ("src/repro/mesh/machine.py", "src/repro/mesh/trace.py"):
        assert not lint_source(code, allowed)


def test_trace_mutation_fixture_flags_exactly_the_marked_lines():
    fixtures = Path(__file__).resolve().parent / "fixtures" / "lint"
    source = (fixtures / "trace_mutation.py").read_text(encoding="utf-8")
    marked = {
        number for number, line in enumerate(source.splitlines(), 1)
        if line.endswith("# flagged")
    }
    findings = [
        f for f in lint_source(source, "src/repro/llm/fake.py")
        if f.rule == "raw-trace-record"
    ]
    assert len(marked) == 14
    assert sorted(f.line for f in findings) == sorted(marked)
    assert all("trace mutated in place" in f.message for f in findings)


def test_trace_mutation_allowed_in_trace_owning_modules():
    code = "def ok(trace, r):\n    trace.comms.append(r)\n"
    assert "raw-trace-record" in _rules_hit(code, "src/repro/llm/fake.py")
    for allowed in ("src/repro/mesh/machine.py", "src/repro/mesh/trace.py",
                    "src/repro/mesh/program.py"):
        assert not lint_source(code, allowed)
    # The program module may mutate traces but not record into them.
    record = "def bad(trace):\n    trace.record_comm(0, 'p', [], [], {})\n"
    assert lint_source(record, "src/repro/mesh/program.py")


def test_raw_record_not_fooled_by_docstrings_and_comments():
    # The regex lint this rule replaced flagged these.
    code = '''
    def documented():
        """Example: trace.record_comm(0, "p", [], [], {}) is forbidden."""
        # never call trace.record_compute(...) directly
        return 1
    '''
    assert "raw-trace-record" not in _rules_hit(code)


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------

def test_unseeded_stdlib_random_flagged():
    code = """
    import random
    x = random.random()
    r = random.Random()
    """
    findings = [f for f in _lint(code) if f.rule == "unseeded-rng"]
    assert len(findings) == 2


def test_seeded_random_allowed():
    code = """
    import random
    r = random.Random(1234)
    x = r.random()
    """
    assert "unseeded-rng" not in _rules_hit(code)


def test_unseeded_numpy_rng_flagged():
    code = """
    import numpy as np
    g = np.random.default_rng()
    x = np.random.rand(3)
    np.random.seed(0)
    """
    findings = [f for f in _lint(code) if f.rule == "unseeded-rng"]
    assert len(findings) == 3


def test_seeded_numpy_rng_allowed():
    code = """
    import numpy as np
    g = np.random.default_rng(42)
    x = g.standard_normal(3)
    """
    assert "unseeded-rng" not in _rules_hit(code)


@pytest.mark.parametrize("code", [
    "import numpy.random\nx = numpy.random.rand(3)\n",
    "from numpy.random import rand\nx = rand(3)\n",
    "from numpy.random import default_rng\ng = default_rng()\n",
    "from random import Random\nr = Random()\n",
], ids=["import-numpy-random", "from-numpy-random-rand",
        "from-numpy-random-default-rng", "from-random-Random"])
def test_unseeded_rng_resolved_through_imports(code):
    # Every import form binds the same global RNG; the rule resolves
    # calls through the module's import table, not per-form alias sets.
    findings = [
        f for f in lint_source(code, "src/repro/x.py")
        if f.rule == "unseeded-rng"
    ]
    assert [f.line for f in findings] == [2]


def test_rng_rule_only_binds_src_repro():
    code = "import random\nx = random.random()\n"
    assert lint_source(code, "src/repro/mod.py")
    assert not lint_source(code, "benchmarks/helper.py")


# ----------------------------------------------------------------------
# non-neighbour-shift
# ----------------------------------------------------------------------

def test_far_literal_unicast_flagged_in_kernel_modules():
    code = """
    from repro.mesh.fabric import Flow
    flow = Flow.unicast((0, 0), (5, 0), "a", "a")
    """
    assert "non-neighbour-shift" in _rules_hit(code)
    # Same code outside kernel modules is not this rule's business.
    assert "non-neighbour-shift" not in _rules_hit(
        code, "src/repro/mesh/testing.py")


def test_neighbour_literals_allowed():
    code = """
    from repro.mesh.fabric import Flow
    a = Flow.unicast((0, 0), (1, 0), "a", "a")
    b = Flow.unicast((2, 2), (1, 1), "a", "a")
    """
    assert "non-neighbour-shift" not in _rules_hit(code)


def test_far_literal_shift_named_mapping_flagged():
    code = """
    def bad(machine):
        machine.shift_named("p", {(0, 0): (0, 3), (0, 3): (0, 0)}, "t", "t")
    """
    findings = [f for f in _lint(code) if f.rule == "non-neighbour-shift"]
    assert len(findings) == 2


# ----------------------------------------------------------------------
# bare-advance-step
# ----------------------------------------------------------------------

def test_bare_advance_step_flagged():
    code = """
    def bad(machine):
        machine.communicate("p", [])
        machine.advance_step()
    """
    assert "bare-advance-step" in _rules_hit(code)


def test_advance_step_allowed_in_machine_module():
    code = "def step(self):\n    return self.advance_step()\n"
    assert not lint_source(code, "src/repro/mesh/machine.py")


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------

def test_allow_comment_suppresses_named_rule():
    code = """
    def tolerated(machine):
        machine.advance_step()  # plmr: allow=bare-advance-step
    """
    assert not _lint(code)


def test_allow_comment_is_rule_specific():
    code = """
    def tolerated(machine):
        machine.advance_step()  # plmr: allow=unseeded-rng
    """
    assert "bare-advance-step" in _rules_hit(code)


def test_allow_star_suppresses_everything_on_the_line():
    code = """
    def tolerated(machine):
        machine.advance_step()  # plmr: allow=*
    """
    assert not _lint(code)


def test_allow_comment_inside_string_does_not_count():
    code = """
    def bad(machine):
        note = "# plmr: allow=bare-advance-step"
        machine.advance_step()
    """
    assert "bare-advance-step" in _rules_hit(code)


def test_allow_comment_multi_rule_list():
    code = """
    import time

    def tolerated(machine):
        machine.advance_step(); t = time.time()  # plmr: allow=bare-advance-step, wall-clock-read
    """
    assert not _lint(code)
    # Dropping one id from the list resurfaces that rule only.
    partial = code.replace(", wall-clock-read", "")
    assert _rules_hit(partial) == {"wall-clock-read"}


def test_allow_comment_inside_decorated_def():
    # Decorators shift nothing: findings inside a stacked-decorator
    # function still anchor at their own line, so a suppression there
    # holds and one on the decorator line does not leak onto the body.
    import textwrap

    body = """
    import functools
    import time

    @functools.wraps(print)  # plmr: allow=wall-clock-read
    def stamped():
        return time.time()
    """
    findings = _lint(body)
    assert [f.rule for f in findings] == ["wall-clock-read"]
    call_line = textwrap.dedent(body).splitlines().index(
        "    return time.time()") + 1
    assert findings[0].line == call_line
    suppressed = body.replace(
        "return time.time()",
        "return time.time()  # plmr: allow=wall-clock-read",
    )
    assert not _lint(suppressed)


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    finding = Finding(rule="demo-rule", message="m", path="src/demo.py", line=3)
    path = tmp_path / "baseline.json"
    write_baseline([finding], path)
    from repro.analysis.lint import load_baseline

    baseline = load_baseline(path)
    assert fingerprint(finding) in baseline
    assert apply_baseline([finding], baseline) == []
    other = Finding(rule="other-rule", message="m", path="src/demo.py", line=3)
    assert apply_baseline([other], baseline) == [other]


def test_missing_baseline_is_empty():
    from repro.analysis.lint import load_baseline

    assert load_baseline(Path("/nonexistent/baseline.json")) == set()


def test_repo_baseline_is_empty():
    # The placement deprecation shims that used to be baselined now
    # carry inline ``# plmr: allow=region-carveout-outside-planner``
    # comments, so the committed baseline holds no fingerprints at all:
    # every new finding fails immediately.
    from repro.analysis.lint import BASELINE_PATH, load_baseline

    assert BASELINE_PATH.is_file()
    assert load_baseline() == set()


def test_baseline_version_mismatch_discarded(tmp_path):
    import json

    from repro.analysis.lint import load_baseline
    from repro.analysis.lint.baseline import BASELINE_VERSION

    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": BASELINE_VERSION - 1,
        "fingerprints": ["deadbeef"],
    }))
    assert load_baseline(path) == set()


def test_fingerprint_stable_across_file_moves():
    # Identity is (rule, basename, offending line): relocating a module
    # to another directory must not invalidate its baseline entry.
    a = Finding(rule="r", message="m", path="src/repro/old/mod.py",
                line=None)
    b = Finding(rule="r", message="m", path="src/repro/new/deep/mod.py",
                line=None)
    assert fingerprint(a, context="x = 1") == fingerprint(b, context="x = 1")
    c = Finding(rule="r", message="m", path="src/repro/new/other.py",
                line=None)
    assert fingerprint(a, context="x = 1") != fingerprint(c, context="x = 1")
    assert fingerprint(a, context="x = 1") != fingerprint(a, context="x = 2")


# ----------------------------------------------------------------------
# the real tree + the shim
# ----------------------------------------------------------------------

def test_repo_tree_lints_clean():
    from repro.analysis.lint import load_baseline

    findings = apply_baseline(lint_repo((SOURCE_ROOT,)), load_baseline())
    pretty = "\n".join(f.render() for f in findings)
    assert not findings, f"lint findings in src/repro:\n{pretty}"


def test_source_root_sanity():
    assert (SOURCE_ROOT / "mesh" / "machine.py").is_file()
    assert len(list(SOURCE_ROOT.rglob("*.py"))) > 50


def test_extended_sweep_is_clean_and_skips_fixtures():
    from repro.analysis.lint import load_baseline
    from repro.analysis.lint.engine import DEFAULT_ROOTS, lint_repo

    findings = apply_baseline(lint_repo(), load_baseline())
    pretty = "\n".join(f.render() for f in findings)
    assert not findings, f"lint findings in extended sweep:\n{pretty}"
    # The sweep covers more than src/ ...
    roots = {r.name for r in DEFAULT_ROOTS}
    assert {"tests", "tools", "benchmarks"} <= roots
    # ... but never the seeded fixtures, which violate rules on purpose.
    assert not any(
        "tests/fixtures" in (f.path or "") for f in lint_repo()
    )


def test_syntax_error_reported_not_crashed():
    findings = lint_source("def broken(:\n", "src/repro/x.py")
    assert findings and findings[0].rule == "syntax-error"
