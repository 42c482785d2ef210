"""Every module of the package uses each name it imports, and every definition
in it is used by the package or exported."""

import ast
from pathlib import Path

import pytest

import hyperq

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperq"


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


# the tests' cold-start seam: it empties the shared lattice searches so that a test
# can time or count a walk from the seeds; no program path ever needs that
_TEST_SEAMS = {"quadrics._clear_search_cache"}


def test_every_definition_is_used_by_src_or_exported():
    # a module-level def or class that only tests call belongs in the tests
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    uses = []  # (module, line, name) of every name read in src; an import alone is no use
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in hyperq.__all__ or f"{module}.{node.name}" in _TEST_SEAMS:
                continue
            # a use inside the definition itself (recursion) does not count
            if not any(name == node.name and not (m == module and node.lineno <= line <= node.end_lineno)
                       for m, line, name in uses):
                unused.append(f"{module}.{node.name}")
    assert unused == []
