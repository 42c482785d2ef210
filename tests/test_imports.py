"""Every module of the package uses each name it imports, and every definition
in it is used by the package or exported.

Uses are matched by name, not by type: a read of `x.name` anywhere in src
counts for every class member called `name`.  So two classes that share a
member name share its uses, and one whose member only tests call hides behind
the other (`HermitianForm.is_zero` did behind `SignedRealPoly.is_zero`, which
`quadrics` called).  A member that is really dead is still caught once no src
class of that name is read either.

The member guard also skips dunders, and counts a read inside another dead
member as a use.  So it missed `GaussianRational`'s arithmetic: its operators
are dunders, and `norm_sq`'s only src read was inside the dead `__truediv__`.
That arithmetic now lives in the tests' oracle, and a test of its own keeps it
out of src.
"""

import ast
import inspect
from pathlib import Path

import pytest

import hyperq

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperq"


def test_public_names_are_the_classes_and_functions_the_package_imports():
    # `__all__` is computed from the import block of `hyperq/__init__.py`; this pins what it may hold without
    # listing the names a third time
    assert hyperq.__all__ == sorted(set(hyperq.__all__))
    for name in hyperq.__all__:
        value = getattr(hyperq, name)
        assert inspect.isclass(value) or inspect.isfunction(value), name
        assert value.__module__.startswith("hyperq.") and value.__module__ != "hyperq.cli", name
    assert not any(inspect.ismodule(getattr(hyperq, name)) for name in hyperq.__all__)
    namespace = {}
    exec("from hyperq import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == hyperq.__all__


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


def _src_reads():
    """The parsed src modules, and (module, line, name, as an attribute) of every name read in them;
    an import alone is no use."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    reads = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.attr, True))
    return trees, reads


def _read_outside(reads, module, name, node, attribute_only=False):
    # a use inside the definition itself (recursion, an assignment's own line) does not count
    return any(n == name and (attr or not attribute_only)
               and not (m == module and node.lineno <= line <= node.end_lineno) for m, line, n, attr in reads)


def test_every_definition_is_used_by_src_or_exported():
    # a module-level def or class that only tests call belongs in the tests
    trees, reads = _src_reads()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in hyperq.__all__:
                continue
            if not _read_outside(reads, module, node.name, node):
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_every_member_and_constant_is_used_by_src_or_exported():
    # a method or property of a src class must be read as an attribute in src outside its own
    # body, and a module-level constant must be read in src or exported; see the module
    # docstring for what matching by name cannot tell apart
    trees, reads = _src_reads()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("__")
                            and not _read_outside(reads, module, member.name, member, attribute_only=True)):
                        unused.append(f"{module}.{node.name}.{member.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if len(targets) != 1 or not isinstance(targets[0], ast.Name):
                    continue
                name = targets[0].id
                if name.startswith("__") or name in hyperq.__all__:
                    continue
                if not _read_outside(reads, module, name, node):
                    unused.append(f"{module}.{name}")
    assert unused == []


def test_gaussian_rational_has_no_arithmetic():
    # src computes on Gaussian-integer pairs; the field operations of Q(i) belong to `dense.Qi`
    removed = ["__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
               "__rtruediv__", "norm_sq"]
    assert [name for name in removed if hasattr(hyperq.GaussianRational, name)] == []


def test_only_linalg_clears_denominators():
    # one clearing rule, `linalg._cleared`: no other src module takes the lcm of `.denominator`s;
    # lcms of weight denominators held as int pairs read no `.denominator` and stay where they are
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "lcm":
                if any(isinstance(sub, ast.Attribute) and sub.attr == "denominator" for sub in ast.walk(node)):
                    found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_only_multiindex_packs_exponents():
    # one packed-monomial layout, `multiindex.places` and `unpack`: no other src module shifts by a
    # product, the hand-written `1 << w * k` field that each packing once spelled out for itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "multiindex":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift))
                    and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []
