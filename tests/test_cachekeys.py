"""The cache-key version dataflow pass: site/mutation inventory, the
PR-6 bug-shape true positive, and the precision exemptions."""

from pathlib import Path

from repro.analysis.determinism import (
    check_cache_keys,
    collect_cache_sites,
    collect_mutations,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "determinism"


# ----------------------------------------------------------------------
# inventory over the real tree
# ----------------------------------------------------------------------

def test_repo_cache_sites_cover_the_known_stores():
    sites = collect_cache_sites()
    labels = {s.label for s in sites}
    # The stores the ISSUE names: fabric registration, topology route
    # caches, and the placement anchor memo all must be inventoried.
    assert any("FabricModel" in lbl for lbl in labels)
    assert any("Topology" in lbl for lbl in labels)
    assert "GridSearch.best_anchor" in labels or any(
        "best_anchor" in lbl for lbl in labels
    )


def test_fabric_register_key_consumes_links_version():
    sites = collect_cache_sites()
    register = [
        s for s in sites
        if s.cls == "FabricModel" and s.function == "register"
    ]
    assert register
    assert "links_version" in register[0].key_fields


def test_mutation_inventory_skips_constructors():
    mutations = collect_mutations()
    assert mutations
    assert all(m.function not in ("__init__", "__post_init__")
               for m in mutations)
    # The PR-6 mutator is inventoried, with its version bump visible.
    retrain = [m for m in mutations if m.function == "retrain_link"]
    assert retrain
    assert any("links_version" in m.bumps for m in retrain)


def test_repo_tree_has_no_unversioned_cache_mutations():
    findings = check_cache_keys()
    pretty = "\n".join(f.render() for f in findings)
    assert not findings, f"dataflow findings in src/repro:\n{pretty}"


# ----------------------------------------------------------------------
# the seeded fixtures
# ----------------------------------------------------------------------

def test_bug_shape_fixture_is_flagged():
    findings = check_cache_keys(roots=[FIXTURES])
    flagged = [
        f for f in findings
        if (f.path or "").endswith("bad_cache_mutation.py")
    ]
    assert len(flagged) == 1
    finding = flagged[0]
    assert finding.rule == "unversioned-cache-mutation"
    assert finding.source == "dataflow"
    assert "LinkState.retrain" in finding.message
    assert finding.subject == "FlowPricer.price"


def test_version_discipline_fixture_stays_quiet():
    findings = check_cache_keys(roots=[FIXTURES])
    assert not any(
        (f.path or "").endswith("good_cache_version.py") for f in findings
    )


def test_allow_comment_suppresses_dataflow_finding(tmp_path):
    source = (FIXTURES / "bad_cache_mutation.py").read_text()
    patched = source.replace(
        "self.degraded[link] = value",
        "self.degraded[link] = value"
        "  # plmr: allow=unversioned-cache-mutation",
    )
    assert patched != source
    (tmp_path / "mod.py").write_text(patched)
    assert check_cache_keys(roots=[tmp_path]) == []


def test_bump_pairing_clears_the_finding(tmp_path):
    # Adding the version bump to the mutator AND consuming the counter
    # in the key — the PR-6 hand fix — silences the pass.
    source = (FIXTURES / "bad_cache_mutation.py").read_text()
    fixed = source.replace(
        "        self.degraded[link] = value",
        "        self.degraded[link] = value\n"
        "        self._links_version += 1",
    ).replace(
        "key = (link,)  # BUG: key omits links_version",
        "key = (self.links._links_version, link)",
    )
    assert fixed != source
    (tmp_path / "mod.py").write_text(fixed)
    assert check_cache_keys(roots=[tmp_path]) == []


def test_same_class_cache_bookkeeping_exempt(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Own:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        self.rate = 1.0\n"
        "    def set_rate(self, r):\n"
        "        self.rate = r\n"
        "        self._memo.clear()\n"
        "    def value(self, k):\n"
        "        hit = self._memo.get(k)\n"
        "        if hit is None:\n"
        "            hit = self._memo[k] = k * self.rate\n"
        "        return hit\n"
    )
    assert check_cache_keys(roots=[tmp_path]) == []


def test_ctor_only_helper_exempt(tmp_path):
    # A builder invoked exclusively from __init__ is construction-time
    # initialization, not a post-hoc mutation of cached inputs.
    (tmp_path / "mod.py").write_text(
        "class View:\n"
        "    def __init__(self):\n"
        "        self._build()\n"
        "    def _build(self):\n"
        "        self.table = [1, 2, 3]\n"
        "class Planner:\n"
        "    def __init__(self, view):\n"
        "        self.view = view\n"
        "        self._plan_cache = {}\n"
        "    def lookup(self, view, k):\n"
        "        hit = self._plan_cache.get(k)\n"
        "        if hit is not None:\n"
        "            return hit\n"
        "        value = self.total(view)\n"
        "        self._plan_cache[k] = value\n"
        "        return value\n"
        "    def total(self, view):\n"
        "        return sum(view.table)\n"
    )
    assert check_cache_keys(roots=[tmp_path]) == []


_INDEXED_LIST_MODULE = (
    "class Ops:\n"
    "    def __init__(self):\n"
    "        self.generation = 0\n"
    "    def evict(self):\n"
    "        self.generation += 1\n"
    "    def current(self):\n"
    "        return self.generation\n"
    "class Model:\n"
    "    def __init__(self, ops):\n"
    "        self.ops = ops\n"
    "        self._caches = [[], []]\n"
    "    def layer(self, i):\n"
    "        return self._caches[i], self.ops.current()\n"
)


def test_indexed_list_named_cache_is_not_a_memo(tmp_path):
    # A per-layer list of cache managers is indexed, never filled by
    # key: reading it is no memo lookup, so what the reading function
    # computes from other fields is not a cached value.
    (tmp_path / "mod.py").write_text(_INDEXED_LIST_MODULE)
    assert check_cache_keys(roots=[tmp_path]) == []


def test_store_filled_by_key_is_a_memo(tmp_path):
    # The same subscript is a memo lookup once a function fills the
    # store by key, and the unkeyed ``generation`` input is flagged.
    (tmp_path / "mod.py").write_text(
        _INDEXED_LIST_MODULE
        + "    def fill(self, i, value):\n"
        "        self._caches[i] = value\n"
    )
    [finding] = check_cache_keys(roots=[tmp_path])
    assert "Ops.evict" in finding.message
    assert finding.subject == "Model.layer"
