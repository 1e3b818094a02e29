"""AST-based pluggable lint engine for the repro source tree.

Every analyzer reads one :class:`ModuleRecord` per file: the module is
parsed once, walked once into per-node-type lists (module-wide and per
enclosing function), and carries its import table and its suppression
comments.  Records are memoized on ``(rel_path, source)``, so the lint
rules, the cache-key dataflow pass and every tree sweep in a process
share them, and a record can never go stale.

Rules subclass :class:`LintRule` and register through
:func:`register_rule`; each receives a record and yields
:class:`~repro.analysis.findings.Finding` objects.  Operating on the AST
means string literals, comments, and docstrings can never
false-positive — only real call sites are visited.

Suppression
-----------
A finding is suppressed by a comment on the offending line::

    machine.advance_step()  # plmr: allow=bare-advance-step

``allow=`` takes a comma-separated list of rule ids or ``*``.  Comments
are read with :mod:`tokenize`, so suppressions inside strings do not
count.  Persistent exceptions belong in the baseline file instead
(:mod:`repro.analysis.lint.baseline`).
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from collections import defaultdict, deque
from itertools import chain
from pathlib import Path
from typing import (
    Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type, Union,
)

from repro.analysis.findings import Finding

REPO_ROOT = Path(__file__).resolve().parents[4]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"
#: Trees swept by :func:`lint_repo` (the extended sweep ``repro check``
#: and ``--update-baseline`` run).  ``tests/fixtures`` is excluded by
#: :func:`lint_repo` itself: fixtures *seed* findings on purpose.
DEFAULT_ROOTS = (
    SOURCE_ROOT,
    REPO_ROOT / "tests",
    REPO_ROOT / "tools",
    REPO_ROOT / "benchmarks",
)

FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

_ALLOW_COMMENT = re.compile(r"#\s*plmr:\s*allow=([\w\-*,\s]+)")

def call_name(func: ast.AST) -> str:
    """Trailing name of the called object (``Flow.unicast`` -> ``unicast``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids allowed by a ``plmr: allow=`` comment."""
    allowed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_COMMENT.search(tok.string)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                allowed.setdefault(tok.start[0], set()).update(ids - {""})
    except tokenize.TokenError:  # pragma: no cover - malformed source
        pass
    return allowed


class ModuleRecord:
    """One parsed module, walked once, shared by every analyzer.

    ``nodes(T)`` lists the nodes of type ``T`` (a concrete node class or
    a tuple of them) in :func:`ast.walk` order; ``nodes(T, within=f)``
    restricts that to the subtree of function ``f``, ``f`` included —
    the level order of a subtree is the subtree's own level order, so
    the list equals a filtered ``ast.walk(f)``.  Both come from the one
    walk in the constructor.  Operator and expression-context nodes
    (``ast.Add``, ``ast.Load``, ...) are singletons CPython shares
    between trees: query them by single type only.
    """

    def __init__(self, rel_path: str, source: str, tree: ast.Module):
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self._index: Dict[type, List[ast.AST]] = defaultdict(list)
        self._scoped: Dict[ast.AST, Dict[type, List[ast.AST]]] = {}
        self._rank: Dict[ast.AST, int] = {}
        # ast.walk's breadth-first order (children enumerated as
        # ast.iter_child_nodes does, inlined: this loop is the hot path).
        # Each node carries the indexes it belongs to: the module's plus
        # one per enclosing function.
        todo = deque([(tree, (self._index,))])
        pop, push, node_type = todo.popleft, todo.append, ast.AST
        rank = 0
        while todo:
            node, indexes = pop()
            self._rank[node] = rank
            rank += 1
            kind = type(node)
            if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                scope = self._scoped[node] = defaultdict(list)
                indexes = indexes + (scope,)
            for index in indexes:
                index[kind].append(node)
            for name in node._fields:
                field = getattr(node, name, None)
                if isinstance(field, node_type):
                    push((field, indexes))
                elif isinstance(field, list):
                    for item in field:
                        if isinstance(item, node_type):
                            push((item, indexes))
        #: Local name -> dotted name it is bound to by an import.
        self.imports: Dict[str, str] = {}
        for node in self.nodes((ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    # ``import a.b`` binds ``a``; ``import a.b as c``, ``a.b``.
                    name = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[alias.asname or name] = name
            else:
                prefix = "." * node.level + (f"{node.module}." if node.module else "")
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = prefix + alias.name
        # Without the substring no allow comment can match, so skip
        # tokenizing the (large majority of) files that have none.
        self.allowed = _suppressions(source) if "plmr:" in source else {}

    def nodes(
        self,
        types: Union[Type[ast.AST], Tuple[Type[ast.AST], ...]],
        within: Optional[ast.AST] = None,
    ) -> Sequence[ast.AST]:
        """Nodes of ``types`` in walk order, optionally within a function."""
        index = self._index if within is None else self._scoped[within]
        if isinstance(types, type):
            return index.get(types, ())
        lists = [index[t] for t in types if t in index]
        if len(lists) == 1:
            return lists[0]
        return sorted(chain.from_iterable(lists), key=self._rank.__getitem__)

    def qualified(self, expr: ast.AST) -> Optional[str]:
        """Dotted name a ``Name``/``Attribute`` chain resolves to through
        the import table; ``None`` unless its root name is imported."""
        if isinstance(expr, ast.Attribute):
            base = self.qualified(expr.value)
            return None if base is None else f"{base}.{expr.attr}"
        if isinstance(expr, ast.Name):
            return self.imports.get(expr.id)
        return None

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether an allow comment on the finding's line covers its rule."""
        ids = self.allowed.get(finding.line) if finding.line else None
        return bool(ids) and ("*" in ids or finding.rule in ids)


@functools.lru_cache(maxsize=512)
def module_record(rel_path: str, source: str) -> ModuleRecord:
    """The shared record of one module; raises ``SyntaxError``.

    Keyed on the content, so an edited file gets a fresh record.
    """
    return ModuleRecord(rel_path, source, ast.parse(source))


def sweep(roots: Sequence[Path]) -> Iterator[Tuple[str, str]]:
    """``(rel_path, source)`` of every ``*.py`` under ``roots``, each
    root in sorted path order; paths outside the repo stay as given."""
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            try:
                rel = str(path.resolve().relative_to(REPO_ROOT))
            except ValueError:
                rel = str(path)
            yield rel.replace("\\", "/"), path.read_text(encoding="utf-8")


class LintRule:
    """Base class for one lint rule.

    Subclasses set ``rule_id`` / ``description``, implement
    :meth:`check`, and may narrow :meth:`applies_to` by path.
    """

    rule_id: str = ""
    description: str = ""

    def applies_to(self, rel_path: str) -> bool:
        """Whether this rule runs on the file at ``rel_path`` (``/``-separated)."""
        return True

    def check(self, module: ModuleRecord) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(
        self, module: ModuleRecord, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=self.rule_id,
            message=message,
            path=module.rel_path,
            line=getattr(node, "lineno", None),
            source="lint",
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}  # plmr: allow=mutable-module-state  (import-time only: register_rule rejects re-registration)


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def _load_rule_modules() -> None:
    # Importing the rule modules populates the registry.
    from repro.analysis.determinism import rules as _det_rules  # noqa: F401
    from repro.analysis.lint import rules as _rules  # noqa: F401


def all_rules() -> List[LintRule]:
    """Fresh instances of every registered rule, import side effects included."""
    _load_rule_modules()
    return [cls() for cls in _REGISTRY.values()]


def rule_ids() -> List[str]:
    """Stable list of registered rule ids."""
    _load_rule_modules()
    return list(_REGISTRY)


def lint_source(
    source: str,
    rel_path: str,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint one module given as text (``rel_path`` repo-relative and
    ``/``-separated); returns unsuppressed findings."""
    if rules is None:
        rules = all_rules()
    try:
        module = module_record(rel_path, source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                message=f"cannot parse: {exc.msg}",
                path=rel_path,
                line=exc.lineno,
                source="lint",
            )
        ]
    return [
        finding
        for rule in rules
        if rule.applies_to(module.rel_path)
        for finding in rule.check(module)
        if not module.is_suppressed(finding)
    ]


def lint_repo(
    roots: Sequence[Path] = DEFAULT_ROOTS,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint every ``*.py`` under ``roots`` (by default the extended
    sweep: src, tests, tools and benchmarks), root by root in sorted
    path order.

    ``tests/fixtures`` is skipped — those modules seed findings on
    purpose so the analyzers' true-positive tests have something to
    catch.
    """
    if rules is None:
        rules = all_rules()
    findings: List[Finding] = []
    for rel_path, source in sweep(roots):
        if "/tests/fixtures/" not in "/" + rel_path:
            findings.extend(lint_source(source, rel_path, rules))
    return findings
