"""Every module under ``src/repro`` is reached by a real caller.

A module that nothing calls is either dead or reachable only from tests;
both are ways for a second implementation to outlive its callers.

The rule:

* The importer roots are ``src/repro``, ``benchmarks/`` and
  ``perfbench/`` (only read here: perfbench builds its workloads through
  the library like any other caller).  ``tests/`` and ``examples/`` are
  not roots, so a module only they import is flagged.  Imports are read
  from the AST, nested (in-function) imports included.
* ``import a.b`` reaches module ``a.b``; ``from a.b import c`` reaches
  ``a.b.c`` when that is a module, and otherwise the module that defines
  ``c``: a name a package ``__init__`` re-exports resolves through the
  re-export to its defining module.
* A package ``__init__`` reaches what it imports only when it uses the
  imported name in code other than its import and ``__all__`` — a
  registry such as ``GEMM_KERNELS`` counts, a bare re-export does not.
* ``repro/__main__.py`` is the one entry point run directly.

:data:`ALLOWED` would name a module kept without a caller, with its
reason; an entry that is reached, or that names no module, fails the
guard, so the list cannot go stale.  It is empty, and stays empty: a
test oracle lives under ``tests/``, not in the package.
"""

import ast
from pathlib import Path

from repro.analysis.lint.engine import (
    REPO_ROOT, SOURCE_ROOT, module_record, sweep,
)

IMPORTER_ROOTS = (
    SOURCE_ROOT, REPO_ROOT / "benchmarks", REPO_ROOT / "perfbench",
)
ENTRY_POINTS = {"repro.__main__"}
ALLOWED: dict = {}


def _module_names(package_root: Path) -> dict:
    """``rel_path -> (dotted name, is_package)`` of the package's files."""
    base = Path(package_root).resolve().parent
    names = {}
    for rel_path, _source in sweep([package_root]):
        path = (REPO_ROOT / rel_path).resolve().relative_to(base)
        parts = path.with_suffix("").parts
        is_package = parts[-1] == "__init__"
        dotted = ".".join(parts[:-1] if is_package else parts)
        names[rel_path] = (dotted, is_package)
    return names


def _bindings(node, modules: dict, exports: dict) -> list:
    """``(bound name, reached module)`` of one import statement."""
    if isinstance(node, ast.Import):
        return [
            (alias.asname or alias.name.split(".")[0], alias.name)
            for alias in node.names
        ]
    assert not node.level, "the guard reads absolute imports only"
    return [
        (alias.asname or alias.name,
         _defining_module(node.module, alias.name, modules, exports))
        for alias in node.names
    ]


def _defining_module(module: str, name: str, modules: dict,
                     exports: dict) -> str:
    """The module ``from module import name`` loads ``name`` from."""
    while f"{module}.{name}" not in modules and name in exports.get(module, {}):
        module, name = exports[module][name]
    submodule = f"{module}.{name}"
    return submodule if submodule in modules else module


def unimported_modules(package_root: Path, importer_roots) -> list:
    """Non-package modules under ``package_root`` that no file under
    ``importer_roots`` reaches; files outside the package are named by
    path."""
    names = _module_names(package_root)
    modules = dict(names.values())
    importers = [
        (*names.get(rel_path, (rel_path, False)),
         module_record(rel_path, source))
        for rel_path, source in sweep(importer_roots)
    ]
    # A package's re-exports: bound name -> (source module, source name).
    exports = {}
    for name, is_package, record in importers:
        if is_package:
            exports[name] = {
                alias.asname or alias.name: (node.module, alias.name)
                for node in record.tree.body
                if isinstance(node, ast.ImportFrom) and not node.level
                for alias in node.names
            }
    reached = set()
    for name, is_package, record in importers:
        used = ({node.id for node in record.nodes(ast.Name)}
                if is_package else None)
        for node in record.nodes((ast.Import, ast.ImportFrom)):
            for bound, target in _bindings(node, modules, exports):
                if target != name and (used is None or bound in used):
                    reached.add(target)
    return sorted(
        name for name, is_package in modules.items()
        if not is_package and name not in ENTRY_POINTS and name not in reached
    )


def guard_failures(package_root: Path, importer_roots, allowed) -> list:
    """Unreached modules not allowed, then stale allow-list entries."""
    unreached = unimported_modules(package_root, importer_roots)
    return [name for name in unreached if name not in allowed] + [
        f"stale allow-list entry: {name}"
        for name in sorted(set(allowed) - set(unreached))
    ]


def test_every_module_is_reached_by_a_caller():
    assert guard_failures(SOURCE_ROOT, IMPORTER_ROOTS, ALLOWED) == []


def test_allow_list_stays_empty():
    assert ALLOWED == {}



# ----------------------------------------------------------------------
# The rule on synthetic trees
# ----------------------------------------------------------------------
def _tree(tmp_path: Path, files: dict) -> Path:
    """Write ``files`` (path -> source) under ``tmp_path``; return the
    package root ``src/pkg``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path / "src" / "pkg"


def test_module_reached_only_through_a_re_export_is_flagged(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py":
            "from pkg.dead import helper\n__all__ = ['helper']\n",
        "src/pkg/dead.py": "def helper():\n    return 1\n",
    })
    assert unimported_modules(root, [root]) == ["pkg.dead"]


def test_registry_use_in_an_init_reaches_its_module(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py":
            "from pkg.kern import Kernel\n"
            "REGISTRY = {'kernel': Kernel}\n"
            "__all__ = ['Kernel', 'REGISTRY']\n",
        "src/pkg/kern.py": "class Kernel:\n    pass\n",
    })
    assert unimported_modules(root, [root]) == []


def test_from_package_import_resolves_to_the_defining_module(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py":
            "from pkg.sub import helper\n__all__ = ['helper']\n",
        "src/pkg/sub/__init__.py":
            "from pkg.sub.impl import helper as helper\n",
        "src/pkg/sub/impl.py": "def helper():\n    return 1\n",
        "src/pkg/other.py": "def unrelated():\n    return 2\n",
        "src/pkg/user.py":
            "from pkg import helper\n\n\ndef run():\n    return helper()\n",
    })
    # ``helper`` resolves through two re-exports to ``pkg.sub.impl``;
    # nothing imports ``other`` or ``user``.
    assert unimported_modules(root, [root]) == ["pkg.other", "pkg.user"]


def test_import_under_another_importer_root_counts(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/tool.py": "def run():\n    return 1\n",
        "perfbench/run.py":
            "def main():\n    from pkg.tool import run\n    return run()\n",
    })
    assert unimported_modules(root, [root]) == ["pkg.tool"]
    assert unimported_modules(root, [root, tmp_path / "perfbench"]) == []


def test_module_imported_only_by_tests_is_flagged(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/tested.py": "def run():\n    return 1\n",
        "tests/test_tested.py": "import pkg.tested\n",
    })
    assert unimported_modules(root, [root]) == ["pkg.tested"]


def test_allow_list_cannot_go_stale(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/kept.py": "def run():\n    return 1\n",
        "src/pkg/used.py": "def run():\n    return 1\n",
        "src/pkg/caller.py": "import pkg.used\n",
        "src/pkg/entry.py": "import pkg.caller\n",
    })
    roots = [root]
    assert unimported_modules(root, roots) == ["pkg.entry", "pkg.kept"]
    allowed = {"pkg.entry": "run directly", "pkg.kept": "a test oracle"}
    assert guard_failures(root, roots, allowed) == []
    assert guard_failures(root, roots, {"pkg.entry": "run directly"}) == [
        "pkg.kept",
    ]
    assert guard_failures(root, roots, {**allowed, "pkg.used": "reached"}) == [
        "stale allow-list entry: pkg.used",
    ]
    assert guard_failures(root, roots, {**allowed, "pkg.gone": "deleted"}) == [
        "stale allow-list entry: pkg.gone",
    ]
