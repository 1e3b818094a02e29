"""Replay-safety lint rules.

Five rules, each guarding one way "same seed, same timeline" quietly
breaks:

* ``wall-clock-read`` — real-time reads (``time.time``,
  ``perf_counter``, ``datetime.now``, ...) anywhere in the library make
  event times a function of the host, not the seed;
* ``unordered-iteration`` — iterating a ``set`` inside a function that
  feeds trace records, heap keys, or signatures makes event *order* a
  function of ``PYTHONHASHSEED``;
* ``object-identity-ordering`` — sort/heap keys built from ``id()`` or
  bare payload objects order events by allocation address (the
  ``(time, seq)`` event heap in ``fleet/router.py`` must stay totally
  ordered by value);
* ``mutable-module-state`` — module-level mutable caches without a
  version companion are exactly the hidden state the cache-key dataflow
  pass (:mod:`repro.analysis.determinism.cachekeys`) cannot see bumped;
* ``hashseed-dependent`` — builtin ``hash()`` is salted per process for
  strings; seeds and fingerprints derived from it do not replay across
  processes (use :func:`repro.mesh.faults.derive_seed` or hashlib).

All five register in the shared engine, so suppressions
(``# plmr: allow=...``) and the baseline apply unchanged.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.lint.engine import LintRule, register_rule


def _norm(rel_path: str) -> str:
    return rel_path.replace("\\", "/")


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@register_rule
class WallClockReadRule(LintRule):
    """No wall-clock reads anywhere in the library.

    Simulated time is event time: every timestamp in a trace, metrics
    rollup, or timeline signature must derive from the seeded event
    queue.  A real-clock read smuggles host state into the run, so two
    same-seed runs stop being byte-identical.  Wall-clock measurement
    lives outside ``src/`` in ``perfbench/``.
    """

    rule_id = "wall-clock-read"
    description = "real-time clock read in simulator code"

    TIME_FUNCS = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "thread_time", "thread_time_ns", "localtime", "gmtime",
    })
    DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(
        self, tree: ast.AST, rel_path: str, source: str
    ) -> Iterator[Finding]:
        time_aliases: Set[str] = set()
        datetime_aliases: Set[str] = set()
        bare_time_funcs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.TIME_FUNCS:
                            bare_time_funcs.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_aliases.add(alias.asname or alias.name)

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bare_time_funcs:
                yield self.finding(
                    rel_path, node,
                    f"{func.id}() reads the host clock — simulated "
                    "timestamps must come from the seeded event queue",
                )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in time_aliases
                and func.attr in self.TIME_FUNCS
            ):
                yield self.finding(
                    rel_path, node,
                    f"time.{func.attr}() reads the host clock — simulated "
                    "timestamps must come from the seeded event queue",
                )
            elif func.attr in self.DATETIME_FUNCS:
                root = base
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in datetime_aliases:
                    yield self.finding(
                        rel_path, node,
                        f"datetime {func.attr}() reads the host clock — "
                        "runs must be a pure function of their seed",
                    )


#: Call names whose presence makes a function order-sensitive: its
#: iteration order reaches a trace, a heap, or a digest.
_SINK_CALLS = frozenset({
    "heappush", "heapify", "heappushpop", "heapreplace",
    "record_comm", "record_compute", "record_barrier",
    "sha1", "sha256", "sha512", "md5", "blake2b", "blake2s",
})
_SINK_NAME_RE = re.compile(r"signature|fingerprint", re.IGNORECASE)

#: Set-returning method names (on sets themselves, so iterating the
#: result inherits the unordered semantics).
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


def _is_unordered_expr(node: ast.AST, tainted: Set[str]) -> bool:
    """Whether an expression's iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if name in _SET_METHODS:
            return True
    return False


@register_rule
class UnorderedIterationRule(LintRule):
    """No set iteration where order feeds traces, heaps, or digests.

    ``set`` iteration order depends on element hashes; for strings the
    hash is salted per process, so two runs of the same seed can emit
    the same events in different orders.  Inside functions that push to
    heaps, record trace events, or build signatures/fingerprints, every
    set must pass through ``sorted(...)`` before iteration.  (Dict
    iteration is insertion-ordered and is not flagged.)
    """

    rule_id = "unordered-iteration"
    description = "set iteration feeding trace records, heaps, or signatures"

    def check(
        self, tree: ast.AST, rel_path: str, source: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_sensitive(node):
                    yield from self._check_function(node, rel_path)

    def _is_sensitive(self, func: ast.AST) -> bool:
        if _SINK_NAME_RE.search(getattr(func, "name", "")):
            return True
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if _call_name(node.func) in _SINK_CALLS:
                    return True
        return False

    def _check_function(
        self, func: ast.AST, rel_path: str
    ) -> Iterator[Finding]:
        tainted: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _is_unordered_expr(
                node.value, tainted
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        iters: List[ast.AST] = []
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                # Order-sensitive conversions of a set: list/tuple
                # capture the arbitrary order; str.join serializes it.
                name = _call_name(node.func)
                if name in ("list", "tuple", "enumerate", "join"):
                    iters.extend(node.args)
        for expr in iters:
            if _is_unordered_expr(expr, tainted):
                yield self.finding(
                    rel_path, expr,
                    "iterating a set in an order-sensitive function "
                    f"({getattr(func, 'name', '?')}); wrap it in sorted(...) "
                    "so the event order is hash-independent",
                )


def _contains_id_call(node: ast.AST) -> Optional[ast.Call]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return sub
    return None


def _is_seq_tiebreaker(node: ast.AST) -> bool:
    """Whether a tuple element is a monotone tie-breaker."""
    if isinstance(node, ast.Call) and _call_name(node.func) == "next":
        return True
    label = ""
    if isinstance(node, ast.Name):
        label = node.id
    elif isinstance(node, ast.Attribute):
        label = node.attr
    return bool(re.search(r"seq|count|tie|index", label, re.IGNORECASE))


@register_rule
class ObjectIdentityOrderingRule(LintRule):
    """No ordering by object identity, no heap ties settled by payloads.

    ``id()`` is an allocation address: stable within a run, meaningless
    across runs — a sort or heap key containing it replays in a
    different order every process.  Heap entries shaped
    ``(time, payload)`` are the same bug one tie away: two events at
    equal times fall through to comparing the payload objects, which
    either raises ``TypeError`` or orders by identity.  A monotone
    sequence number between the time and the payload keeps the heap
    totally ordered by value (the ``(time, seq)`` discipline of
    ``fleet/router.py``).
    """

    rule_id = "object-identity-ordering"
    description = "sort/heap keys ordered by id() or bare payload objects"

    def check(
        self, tree: ast.AST, rel_path: str, source: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name in ("sorted", "min", "max", "sort", "nsmallest", "nlargest"):
                for kw in node.keywords:
                    if kw.arg == "key" and _contains_id_call(kw.value):
                        yield self.finding(
                            rel_path, kw.value,
                            f"id() inside a {name} key orders by allocation "
                            "address, which differs between same-seed runs — "
                            "key on a stable value instead",
                        )
            elif name in ("heappush", "heappushpop", "heapreplace"):
                if len(node.args) < 2:
                    continue
                item = node.args[1]
                if _contains_id_call(item):
                    yield self.finding(
                        rel_path, item,
                        "id() inside a heap entry orders by allocation "
                        "address, which differs between same-seed runs",
                    )
                    continue
                yield from self._check_heap_tuple(rel_path, item)

    def _check_heap_tuple(
        self, rel_path: str, item: ast.AST
    ) -> Iterator[Finding]:
        if not isinstance(item, ast.Tuple) or len(item.elts) < 2:
            return
        for elt in item.elts[1:]:
            if _is_seq_tiebreaker(elt):
                return  # totally ordered before any payload compares
            if isinstance(elt, ast.Constant):
                continue  # constants compare fine (and break no ties)
            yield self.finding(
                rel_path, item,
                "heap entry can tie on its leading key and fall through "
                "to comparing payload objects; insert a monotone sequence "
                "number (the (time, seq) discipline) before the payload",
            )
            return


_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
})
_CACHE_NAME_RE = re.compile(
    r"cache|memo|registry|state|pool|seen|intern", re.IGNORECASE
)


@register_rule
class MutableModuleStateRule(LintRule):
    """Module-level mutable caches must carry a version companion.

    A module-level dict/list/set that code mutates at runtime is state
    shared by every machine, fabric, and capture in the process — and
    invisible to every cache key.  The PR-6 ``retrain_link`` bug was
    exactly hidden mutable state without a version the keys consume.
    A cache-ish module-level mutable binding is accepted only when the
    module also binds ``<name>_version`` (which the mutating code must
    bump, and cache keys must include); import-time-only registries can
    say so with ``# plmr: allow=mutable-module-state``.
    """

    rule_id = "mutable-module-state"
    description = "module-level mutable cache without a version companion"

    def check(
        self, tree: ast.AST, rel_path: str, source: str
    ) -> Iterator[Finding]:
        if not isinstance(tree, ast.Module):
            return
        names: Set[str] = set()
        candidates: List = []
        for node in tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name):
                continue
            names.add(target.id)
            if self._is_mutable(value) and _CACHE_NAME_RE.search(target.id):
                candidates.append((node, target.id))
        lowered = {n.lower().lstrip("_") for n in names}
        for node, name in candidates:
            base = name.lower().lstrip("_")
            if f"{base}_version" in lowered:
                continue
            yield self.finding(
                rel_path, node,
                f"module-level mutable cache {name!r} has no version "
                f"companion; bind {name}_version next to it (and thread it "
                "through every cache key that can observe the mutation), or "
                "mark an import-time-only registry with an allow comment",
            )

    @staticmethod
    def _is_mutable(value: Optional[ast.expr]) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.SetComp,
                              ast.ListComp, ast.DictComp)):
            return True
        if isinstance(value, ast.Call):
            return _call_name(value.func) in _MUTABLE_CTORS
        return False


@register_rule
class HashseedDependentRule(LintRule):
    """No builtin ``hash()`` where the result must replay.

    CPython salts ``str``/``bytes`` hashes per process
    (``PYTHONHASHSEED``), so a seed, signature, or cache key derived
    from ``hash()`` differs between two runs of the same program.  Use
    :func:`repro.mesh.faults.derive_seed` (sha256-based) for seeds and
    ``hashlib`` for digests; ``hash()`` on our own frozen dataclasses of
    ints is stable but gains nothing over their tuple identity.
    """

    rule_id = "hashseed-dependent"
    description = "builtin hash() in replay-sensitive code"

    def applies_to(self, rel_path: str) -> bool:
        return "src/repro/" in _norm(rel_path)

    def check(
        self, tree: ast.AST, rel_path: str, source: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    rel_path, node,
                    "builtin hash() is salted per process for strings — "
                    "derive seeds with repro.mesh.faults.derive_seed and "
                    "digests with hashlib so runs replay across processes",
                )
