"""Every module under ``src/repro`` is reached by an import.

A module that no other module imports is either dead or reachable only
from tests; both are ways for a second implementation to outlive its
callers.  Imports are read from the AST, nested (in-function) imports
included; ``repro/__main__.py`` is the one entry point run directly.
"""

import ast

from repro.analysis.lint.engine import SOURCE_ROOT, module_record, sweep

ENTRY_POINTS = {"repro.__main__"}


def _module_name(rel_path: str) -> tuple:
    """``(dotted name, is_package)`` of a ``src/repro`` file."""
    parts = rel_path[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


def _imported_names(import_nodes) -> set:
    """Dotted names the import statements may load, prefixes included.

    ``from a.b import c`` may load module ``a.b.c``, so it counts too.
    """
    names = set()
    for node in import_nodes:
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            assert not node.level, "the guard reads absolute imports only"
            targets = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


def unimported_modules() -> list:
    modules = {}
    importers = {}
    for rel_path, source in sweep([SOURCE_ROOT]):
        name, is_package = _module_name(rel_path)
        modules[name] = is_package
        record = module_record(rel_path, source)
        nodes = record.nodes((ast.Import, ast.ImportFrom))
        for target in _imported_names(nodes):
            importers.setdefault(target, set()).add(name)
    return sorted(
        name for name, is_package in modules.items()
        if not is_package
        and name not in ENTRY_POINTS
        and not importers.get(name, set()) - {name}
    )


def test_every_module_is_imported_by_another():
    assert unimported_modules() == []

