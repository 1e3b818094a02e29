"""The shared module record: its one walk must answer every per-type
and per-function query exactly as a filtered ``ast.walk`` would, on
every swept file and every seeded fixture."""

import ast
from collections import defaultdict

from repro.analysis.lint.engine import (
    DEFAULT_ROOTS,
    FUNCTION_TYPES,
    module_record,
    sweep,
)

#: A multi-type query must interleave its types in walk order.
MIXED = (ast.For, ast.ListComp, ast.Call, ast.Assign, ast.AugAssign)


def _by_type(root):
    grouped = defaultdict(list)
    for node in ast.walk(root):
        grouped[type(node)].append(node)
    return grouped


def _assert_same(got, want, where):
    assert len(got) == len(want), where
    assert all(a is b for a, b in zip(got, want)), where


def test_record_index_equals_filtered_ast_walk():
    # DEFAULT_ROOTS includes tests/, so tests/fixtures is covered too.
    files = 0
    for rel_path, source in sweep(DEFAULT_ROOTS):
        module = module_record(rel_path, source)
        files += 1
        for kind, want in _by_type(module.tree).items():
            _assert_same(module.nodes(kind), want, (rel_path, kind))
        _assert_same(
            module.nodes(MIXED),
            [n for n in ast.walk(module.tree) if isinstance(n, MIXED)],
            (rel_path, "mixed"),
        )
        for func in module.nodes(FUNCTION_TYPES):
            where = (rel_path, func.name, func.lineno)
            for kind, want in _by_type(func).items():
                _assert_same(module.nodes(kind, within=func), want, where)
            _assert_same(
                module.nodes(MIXED, within=func),
                [n for n in ast.walk(func) if isinstance(n, MIXED)],
                where,
            )
    assert files > 200
