"""The value types are immutable by convention, pinned here.

``ExactMatrix``, ``PresentedModule`` and ``ModuleMorphism`` are built with
plain slot stores and have no run-time guard, because one would cost every
build or every field read on the engine's hot path.  They are keys of the
engine caches, so a field changed after construction would corrupt them.
The oracle's ``Table`` is a key of its class memo in the same way, compared
on its radix and relation subgroup, with the relation columns that memo's
walk reads beside them.  This test scans the sources for any store to a
field of these classes or of ``RingSpec`` outside the class's own
constructor, apart from the hash that ``__hash__`` keeps on first use.
"""

import ast
import pathlib

import pytest

from hexext.rings import ZZ, Zmod

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "tools", "perfbench")
VALUE_CLASSES = {"ExactMatrix", "PresentedModule", "ModuleMorphism", "RingSpec", "Table"}
FIELDS = {"ring", "rows", "cols", "data", "generators", "relations", "source", "target", "matrix",
          "kind", "modulus", "_hash", "radix", "subgroup", "relation_cols"}
# where a value class may store: its constructor, and the kept hash on first use
ALLOWED = {"__init__": FIELDS, "__new__": FIELDS, "__hash__": {"_hash"}}


class _FieldStores(ast.NodeVisitor):
    """``(line, field)`` of each attribute store or delete, and each
    ``setattr``/``__setattr__``/``delattr``/``__delattr__`` call with a
    literal name, that targets one of ``FIELDS`` outside what ``ALLOWED``
    grants a value class's own methods."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[int, str]] = []

    def _allowed(self, field: str) -> bool:
        return (len(self.scope) >= 2 and self.scope[-2] in VALUE_CLASSES
                and field in ALLOWED.get(self.scope[-1], ()))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Attribute(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in FIELDS and not self._allowed(node.attr):
            self.found.append((node.lineno, node.attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name in ("setattr", "delattr", "__setattr__", "__delattr__") and len(node.args) >= 2:
            field = node.args[1]
            if isinstance(field, ast.Constant) and field.value in FIELDS and not self._allowed(field.value):
                self.found.append((node.lineno, field.value))
        self.generic_visit(node)


def field_stores(source: str) -> list[tuple[int, str]]:
    scan = _FieldStores()
    scan.visit(ast.parse(source))
    return scan.found


def test_no_field_of_a_value_type_is_stored_after_construction():
    files = sorted(p for top in SCANNED for p in (ROOT / top).rglob("*.py"))
    assert any(p.name == "linalg.py" for p in files) and any(p.name == "test_values.py" for p in files)
    found = [f"{p.relative_to(ROOT)}:{line}: {field}"
             for p in files for line, field in field_stores(p.read_text(encoding="utf-8"))]
    assert found == []


def test_the_scan_sees_each_kind_of_store():
    source = """
class PresentedModule:
    def __init__(self, relations):
        self.relations = relations
        self._hash = None
    def __hash__(self):
        self._hash = 1
        self.relations = None
def f(m, x):
    m.relations = m.relations
    m.rows += 1
    del m.data
    m.ring, m.kind = x
    setattr(m, "matrix", x)
    object.__setattr__(m, "modulus", x)
    m.other = x
    m.source.target = x
"""
    assert field_stores(source) == [(8, "relations"), (10, "relations"), (11, "rows"), (12, "data"), (13, "ring"),
                                    (13, "kind"), (14, "matrix"), (15, "modulus"), (17, "target")]


def test_a_ring_refuses_assignment():
    # only a few rings are ever built, so they keep a run-time guard; the
    # names are not literals, so the scan above does not count these stores
    for ring in (ZZ, Zmod(4)):
        for name in ("kind", "modulus", "other"):
            with pytest.raises(AttributeError):
                setattr(ring, name, 5)
            with pytest.raises(AttributeError):
                delattr(ring, name)
    assert Zmod(4).modulus == 4 and ZZ.kind == "Z" and ZZ.modulus is None
