"""Cache-key version dataflow: every cached value's inputs live in its key.

The costliest determinism failure class this repo has hit (PR 6's
``retrain_link``) is *stale cache keys after hidden state mutation*: a
memoized value depended on ``DefectMap.degraded_links``, the key did
not, and a runtime retrain kept serving factors priced under the old
link state.  The hand fix was the version-counter discipline — the key
consumes ``links_version``, the mutator bumps it.  This pass generalizes
that discipline into a repo-wide check:

1. **Cache sites** — functions that look up a memo keyed by an
   expression (``self._register_cache.get(signature)``, the topology's
   ``_flow_cache``/``_route_cache`` subscripts — a subscript counts only
   when some function fills that store by key, so an indexed list such
   as a model's per-layer ``_caches`` is not a memo — ``lru_cache``-decorated
   interning like :func:`repro.mesh.topology.shared_topology`) plus
   fingerprint/signature builders (collected for the field inventory;
   they recompute per call, so they cannot go stale and are never
   flagged).  For each site we record the *key fields* (attribute /
   parameter names the key expression reads) and the *dependency
   fields* — every attribute the computation transitively reads,
   expanded through same-repo calls and properties, so
   ``flow_bandwidth_factor → link_bandwidth_factor → link_factor →
   degraded_links`` is visible.
2. **Mutation sites** — every attribute store, ``object.__setattr__``
   with a literal field name, subscript store, or mutator-method call
   (``.add`` / ``.append`` / ``.update`` / ``.pop`` / ...) on an
   attribute, anywhere in the tree, outside constructors.
3. **The check** — a mutation of field ``F`` in class ``Cm`` is flagged
   against a memoized site ``S`` when ``F`` is among ``S``'s
   dependencies, ``F`` is not in ``S``'s key, the mutation happens
   outside the class that owns the cache (a class invalidating or
   populating its own cache is bookkeeping, not hidden state), and the
   mutating function bumps no version field the key consumes.

The pass reads the lint engine's shared module records (one parse and
one walk per file per process, see
:class:`~repro.analysis.lint.engine.ModuleRecord`): each function's
calls, attribute reads and assignments are its per-function node lists.
Field names are compared after normalization (leading underscores
stripped, case-folded) so the ``_links_version`` attribute behind the
``links_version`` property pairs up.  Findings carry
``source="dataflow"`` under rule ``unversioned-cache-mutation`` and
honour the engine's ``# plmr: allow=`` suppressions and the shared
baseline.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.lint.engine import (
    SOURCE_ROOT,
    ModuleRecord,
    module_record,
    sweep,
)

RULE_ID = "unversioned-cache-mutation"

_CACHE_ATTR_RE = re.compile(r"cache|memo|intern", re.IGNORECASE)
_FINGERPRINT_RE = re.compile(r"fingerprint|signature", re.IGNORECASE)
_VERSION_RE = re.compile(r"version", re.IGNORECASE)

_CTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})
_ASSIGN_TYPES = (ast.Assign, ast.AnnAssign, ast.AugAssign)
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "setdefault", "update",
})
#: Call-graph expansion stops at these — builtins shadowed by repo names
#: would otherwise union unrelated read sets into every site.
_EXPAND_STOPLIST = frozenset({"get", "items", "keys", "values", "update"})
#: Expansion is by bare name (no type inference), so a name defined in
#: many places ("run", "step", "finish") is a hub that would union the
#: whole repo into every closure.  Names with more definitions than this
#: are treated as opaque.
_MAX_FANOUT = 3


def _norm_field(name: str) -> str:
    return name.lstrip("_").lower()


def _terminal_attr(node: ast.AST) -> Optional[str]:
    """Attribute name at the end of an attr/subscript chain, else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass(frozen=True)
class CacheSite:
    """One place a computed value is served from a key-addressed store."""

    path: str
    line: int
    cls: Optional[str]
    function: str
    kind: str  # "memo" | "lru" | "fingerprint"
    key_fields: Tuple[str, ...]  # normalized
    deps: Tuple[str, ...]  # normalized, call-graph expanded

    @property
    def label(self) -> str:
        """Qualified ``Class.function`` (or bare function) name."""
        return f"{self.cls}.{self.function}" if self.cls else self.function


@dataclass(frozen=True)
class MutationSite:
    """One write to an attribute field outside a constructor."""

    path: str
    line: int
    cls: Optional[str]
    function: str
    field: str  # raw attribute name as written
    bumps: Tuple[str, ...]  # normalized version fields the function bumps

    @property
    def norm_field(self) -> str:
        """Normalized field name (underscores stripped, case-folded)."""
        return _norm_field(self.field)

    @property
    def package(self) -> str:
        """Directory of the defining module (the dataflow scope unit)."""
        return self.path.rsplit("/", 1)[0] if "/" in self.path else ""

    @property
    def label(self) -> str:
        """Qualified ``Class.function`` (or bare function) name."""
        return f"{self.cls}.{self.function}" if self.cls else self.function


@dataclass
class _FunctionInfo:
    name: str
    cls: Optional[str]
    module: ModuleRecord
    node: ast.AST
    reads: Set[str]
    calls: Set[str]
    self_names: Set[str]  # attrs/methods accessed directly on ``self``
    store_fields: Set[str]  # normalized attrs read via ``.get(key)``
    keyed_fills: Set[str]  # normalized attrs assigned through a subscript
    mutations: List[Tuple[str, int]]  # (raw field, line)
    bumps: Set[str]  # normalized

    @property
    def path(self) -> str:
        """Repo-relative path of the defining module."""
        return self.module.rel_path

    @property
    def package(self) -> str:
        """Directory of the defining module (the dataflow scope unit)."""
        return self.path.rsplit("/", 1)[0] if "/" in self.path else ""


def _decorator_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for dec in getattr(func, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _analyze_function(
    module: ModuleRecord, func: ast.AST, cls: Optional[str]
) -> _FunctionInfo:
    reads: Set[str] = set()
    calls: Set[str] = set()
    self_names: Set[str] = set()
    store_fields: Set[str] = set()
    keyed_fills: Set[str] = set()
    mutations: List[Tuple[str, int]] = []
    bumps: Set[str] = set()
    call_funcs = set()

    def _on_self(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in ("self", "cls")

    for node in module.nodes(ast.Call, within=func):
        call_funcs.add(node.func)
        target = node.func
        name = ""
        if isinstance(target, ast.Attribute):
            name = target.attr
            if _on_self(target.value):
                self_names.add(name)
        elif isinstance(target, ast.Name):
            name = target.id
        if name:
            calls.add(name)
        if (
            name == "get"
            and node.args
            and isinstance(target, ast.Attribute)
        ):
            store = _terminal_attr(target.value)
            if store is not None:
                store_fields.add(_norm_field(store))
        if (
            name == "__setattr__"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            field = node.args[1].value
            mutations.append((field, node.lineno))
            if _VERSION_RE.search(field):
                bumps.add(_norm_field(field))
        elif name in _MUTATOR_METHODS and isinstance(
            target, ast.Attribute
        ):
            field = _terminal_attr(target.value)
            if field is not None:
                mutations.append((field, node.lineno))
    for node in module.nodes(ast.Attribute, within=func):
        if node not in call_funcs and isinstance(node.ctx, ast.Load):
            reads.add(_norm_field(node.attr))
            if _on_self(node.value):
                self_names.add(node.attr)
                self_names.add(_norm_field(node.attr))
    for node in module.nodes(_ASSIGN_TYPES, within=func):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute):
                mutations.append((target.attr, node.lineno))
                if _VERSION_RE.search(target.attr):
                    bumps.add(_norm_field(target.attr))
            elif isinstance(target, ast.Subscript):
                field = _terminal_attr(target)
                if field is not None:
                    mutations.append((field, node.lineno))
                    keyed_fills.add(_norm_field(field))
    return _FunctionInfo(
        name=func.name,
        cls=cls,
        module=module,
        node=func,
        reads=reads,
        calls=calls,
        self_names=self_names,
        store_fields=store_fields,
        keyed_fills=keyed_fills,
        mutations=mutations,
        bumps=bumps,
    )


def _key_fields(expr: ast.AST, local_assigns: Dict[str, ast.AST]) -> Set[str]:
    """Normalized attribute / parameter names a key expression consumes."""
    if isinstance(expr, ast.Name) and expr.id in local_assigns:
        expr = local_assigns[expr.id]
    fields: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute):
            fields.add(_norm_field(node.attr))
        elif isinstance(node, ast.Name):
            fields.add(_norm_field(node.id))
    return fields


def _cache_sites_in(
    info: _FunctionInfo, keyed_fills: Set[str]
) -> List[CacheSite]:
    """``info``'s cache sites; ``keyed_fills`` are the normalized store
    names any swept function assigns through a subscript."""
    func, module = info.node, info.module
    local_assigns: Dict[str, ast.AST] = {}
    for node in module.nodes(ast.Assign, within=func):
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                local_assigns.setdefault(target.id, node.value)

    def _cache_store(node: ast.AST) -> Optional[str]:
        """The cache-named attribute ``node`` reads, possibly through a
        local alias, else None."""
        attr = _terminal_attr(node)
        if attr is not None and _CACHE_ATTR_RE.search(attr):
            return attr
        if isinstance(node, ast.Name):
            bound = local_assigns.get(node.id)
            return None if bound is None else _cache_store(bound)
        return None

    sites: List[CacheSite] = []
    key_exprs: List[Tuple[ast.AST, int]] = []
    for node in module.nodes(ast.Call, within=func):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and _cache_store(node.func.value) is not None
        ):
            key_exprs.append((node.args[0], node.lineno))
    for node in module.nodes(ast.Subscript, within=func):
        store = _cache_store(node.value)
        if store is not None and _norm_field(store) in keyed_fills:
            key_exprs.append((node.slice, node.lineno))
    if key_exprs:
        fields: Set[str] = set()
        line = min(ln for _, ln in key_exprs)
        for expr, _ in key_exprs:
            fields.update(_key_fields(expr, local_assigns))
        sites.append(
            CacheSite(
                path=info.path,
                line=line,
                cls=info.cls,
                function=info.name,
                kind="memo",
                key_fields=tuple(sorted(fields)),
                deps=(),
            )
        )
    decorators = _decorator_names(func)
    if decorators & {"lru_cache", "cache"}:
        params = {
            _norm_field(a.arg)
            for a in list(func.args.args) + list(func.args.kwonlyargs)
        }
        sites.append(
            CacheSite(
                path=info.path,
                line=func.lineno,
                cls=info.cls,
                function=info.name,
                kind="lru",
                key_fields=tuple(sorted(params)),
                deps=(),
            )
        )
    if not sites and _FINGERPRINT_RE.search(info.name):
        sites.append(
            CacheSite(
                path=info.path,
                line=func.lineno,
                cls=info.cls,
                function=info.name,
                kind="fingerprint",
                key_fields=(),
                deps=(),
            )
        )
    return sites


class _RepoIndex:
    """All function infos in the swept modules, with call-graph dep
    expansion."""

    def __init__(self, roots: Sequence[Path]):
        self.functions: List[_FunctionInfo] = []
        self.by_name: Dict[str, List[_FunctionInfo]] = {}
        self.modules: Dict[str, ModuleRecord] = {}
        for rel_path, source in sweep(roots):
            try:
                module = module_record(rel_path, source)
            except SyntaxError:
                continue
            self.modules[module.rel_path] = module
            self._index_module(module)
        self._expanded: Dict[int, Tuple[Set, Set]] = {}
        #: (class, field) pairs read via ``.get(key)`` — fields that are
        #: themselves key-addressed stores; filling one is a memo write
        #: governed by its own site's key, not hidden state.
        self.store_fields: Set[Tuple[Optional[str], str]] = set()
        #: normalized fields some function assigns through a subscript.
        self.keyed_fills: Set[str] = set()
        #: bare call name -> functions whose body calls it.
        self.callers: Dict[str, List[_FunctionInfo]] = {}
        for info in self.functions:
            for field in info.store_fields:
                self.store_fields.add((info.cls, field))
            self.keyed_fills.update(info.keyed_fills)
            for name in info.calls:
                self.callers.setdefault(name, []).append(info)

    def _index_module(self, module: ModuleRecord) -> None:
        def add(func: ast.AST, cls: Optional[str]) -> None:
            info = _analyze_function(module, func, cls)
            self.functions.append(info)
            self.by_name.setdefault(info.name, []).append(info)

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node, None)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(sub, node.name)

    def expand_deps(
        self, info: _FunctionInfo
    ) -> Tuple[Set[Tuple[Optional[str], str]], Set[Tuple[Optional[str], str]]]:
        """Class-qualified transitive reads plus the traversed functions.

        Returns ``(deps, visited)``: ``deps`` is the set of
        ``(owning class, normalized field)`` pairs read anywhere in the
        closure (the class is the one whose method performed the read —
        the closest thing to field ownership name-based analysis has),
        and ``visited`` the ``(class, function)`` pairs the closure
        traversed.  Expansion follows calls and property reads by bare
        name, within the starting function's package, skipping hub names
        defined in more than ``_MAX_FANOUT`` places.
        """
        memo = self._expanded
        cached = memo.get(id(info))
        if cached is not None:
            return cached
        deps: Set[Tuple[Optional[str], str]] = set()
        visited: Set[Tuple[Optional[str], str]] = set()
        seen: Set[int] = set()
        stack = [info]
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            visited.add((current.cls, current.name))
            deps.update((current.cls, read) for read in current.reads)
            package = info.package

            def _resolve(name: str) -> List[_FunctionInfo]:
                candidates = [
                    c for c in self.by_name.get(name, ())
                    if c.package == package
                ]
                if name in current.self_names:
                    # self.<name> binds to this class: a namesake on
                    # another class must not pollute the closure.
                    candidates = [
                        c for c in candidates if c.cls == current.cls
                    ]
                if len(candidates) > _MAX_FANOUT:
                    return []
                return candidates

            for name in current.calls:
                if name in _EXPAND_STOPLIST or name.startswith("__"):
                    continue
                stack.extend(_resolve(name))
            # Properties read as plain attributes expand the same way —
            # but a read through another object (``self.device.x``)
            # could bind to any namesake property, so those only expand
            # when the package has exactly one definition.
            for read in current.reads:
                candidates = _resolve(read)
                if read not in current.self_names and len(candidates) > 1:
                    continue
                for candidate in candidates:
                    if "property" in _decorator_names(candidate.node):
                        stack.append(candidate)
        memo[id(info)] = (deps, visited)
        return deps, visited


def collect_cache_sites(
    roots: Optional[Sequence[Path]] = None,
    index: Optional[_RepoIndex] = None,
) -> List[CacheSite]:
    """Every cache-key / fingerprint site under ``roots``, deps expanded."""
    if index is None:
        index = _RepoIndex(roots or (SOURCE_ROOT,))
    sites: List[CacheSite] = []
    for info in index.functions:
        for site in _cache_sites_in(info, index.keyed_fills):
            dep_pairs, _ = index.expand_deps(info)
            dep_fields = {field for _, field in dep_pairs}
            key_fields = set(site.key_fields)
            if site.kind == "fingerprint":
                # Fingerprints recompute per call: every dep is, by
                # construction, consumed — collected for inventory only.
                key_fields = set(dep_fields)
            sites.append(
                CacheSite(
                    path=site.path,
                    line=site.line,
                    cls=site.cls,
                    function=site.function,
                    kind=site.kind,
                    key_fields=tuple(sorted(key_fields)),
                    deps=tuple(sorted(dep_fields)),
                )
            )
    return sites


def collect_mutations(
    roots: Optional[Sequence[Path]] = None,
    index: Optional[_RepoIndex] = None,
) -> List[MutationSite]:
    """Every non-constructor attribute mutation under ``roots``."""
    if index is None:
        index = _RepoIndex(roots or (SOURCE_ROOT,))
    mutations: List[MutationSite] = []
    for info in index.functions:
        if info.name in _CTOR_NAMES:
            continue
        bumps = tuple(sorted(info.bumps))
        for field, line in info.mutations:
            if _CACHE_ATTR_RE.search(field):
                continue  # stores into the cache itself are bookkeeping
            mutations.append(
                MutationSite(
                    path=info.path,
                    line=line,
                    cls=info.cls,
                    function=info.name,
                    field=field,
                    bumps=bumps,
                )
            )
    return mutations


def check_cache_keys(
    roots: Optional[Sequence[Path]] = None,
) -> List[Finding]:
    """Flag cross-class mutations of cached inputs without a version bump.

    Returns ``source="dataflow"`` findings anchored at the mutation line
    (``subject`` names the cache site whose key goes stale), after
    ``# plmr: allow=`` suppressions.
    """
    index = _RepoIndex(roots or (SOURCE_ROOT,))
    mutations = collect_mutations(index=index)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str, str]] = set()
    for info in index.functions:
        raw_sites = [
            s for s in _cache_sites_in(info, index.keyed_fills)
            if s.kind != "fingerprint"
        ]
        if not raw_sites:
            continue
        dep_pairs, visited = index.expand_deps(info)
        for site in raw_sites:
            key_fields = set(site.key_fields)
            for mut in mutations:
                field = mut.norm_field
                if (mut.cls, field) not in dep_pairs:
                    continue  # field ownership (by class) must line up
                if field in key_fields:
                    continue
                if mut.package != info.package:
                    continue  # name-only matching is noise across packages
                if mut.cls is not None and mut.cls == site.cls:
                    continue  # a class managing its own cache is bookkeeping
                if mut.cls is None and site.cls is None and mut.path == site.path:
                    continue
                if (mut.cls, mut.function) in visited:
                    continue  # mutation happens while computing the value
                             # (lazy init / memo fill), not behind its back
                if (mut.cls, field) in index.store_fields:
                    continue  # the field is itself a key-addressed memo
                              # store; staleness is that site's concern
                callers = index.callers.get(mut.function, ())
                if callers and all(
                    c.name in _CTOR_NAMES and c.cls == mut.cls
                    for c in callers
                ):
                    continue  # helper invoked only from constructors:
                              # construction-time init, not a mutation
                if set(mut.bumps) & key_fields:
                    continue  # the retrain_link/links_version discipline
                dedup = (mut.path, mut.line, mut.field, site.label)
                if dedup in seen:
                    continue
                seen.add(dedup)
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        message=(
                            f"{mut.label} mutates {mut.field!r}, an input "
                            f"of the {site.label} cache, but the key "
                            "consumes neither the field nor a version "
                            "counter this mutation bumps — cached values "
                            "go stale (the PR-6 retrain_link bug shape)"
                        ),
                        path=mut.path,
                        line=mut.line,
                        subject=site.label,
                        source="dataflow",
                    )
                )
    kept = [
        finding for finding in findings
        if not index.modules[finding.path].is_suppressed(finding)
    ]
    kept.sort(key=lambda f: (f.path or "", f.line or 0, f.subject or ""))
    return kept
