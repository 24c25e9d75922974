"""Every imported name is used: the library (apart from the package's
re-exporting ``__init__.py``), the tests and the tools import nothing they
never refer to.  Every definition is used: each top-level function, class
and assigned name of the library and the tools is referred to somewhere in
the sources, the tests, the tools or the benchmark, and each top-level
definition and method of the library is referred to outside the tests,
apart from a short allow-list.  Outside the tests, a method counts as used
only where an attribute of its name is read or its name is in a string; a
bare name does not count, so a local variable cannot hide a method.  The
scan does not tell classes apart: a method stays hidden while a method of
the same name on another class is called.  Every field of a library
dataclass and every ``__slots__`` entry is read as an attribute outside the
tests, apart from an allow-list of one; fields, too, are matched by name
alone.  No library check is an ``assert`` statement, which ``python -O``
strips."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _annotation_names(node) -> set[str]:
    """Names inside a string annotation such as ``"Table"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def _referenced(scope) -> set[str]:
    """Every name read anywhere inside ``scope``, nested functions included."""
    used: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
    return used


def _imports(scope):
    """The import statements that bind names in ``scope``: those outside
    every function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each name an import binds that its module, or
    the function it is imported in, never refers to; in line order."""
    tree = ast.parse(source)
    found = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]:
        used = _referenced(scope)
        for node in _imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return sorted(found)


def definitions(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each function, class and assigned name at the
    top level of ``source``, dunder names apart."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found if not (name.startswith("__") and name.endswith("__"))]


def methods(source: str) -> list[tuple[int, str]]:
    """``(line, "Class.name")`` for each method of a top-level class of
    ``source``, dunder methods apart."""
    return [(item.lineno, f"{node.name}.{item.name}")
            for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def references(source: str) -> set[str]:
    """Every name ``source`` reads, imports or reaches as an attribute, and
    every identifier in its strings (names patched or looked up by string,
    dotted ones included)."""
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(part for part in node.value.split(".") if part.isidentifier())
    return used


def _declares_slots(node) -> bool:
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)


def attribute_references(source: str) -> set[str]:
    """Every attribute ``source`` reads and every identifier in its strings,
    ``__slots__`` declarations apart: the ways a method or a field is
    reached.  Bare names are left out."""
    used: set[str] = set()
    tree = ast.parse(source)
    declared = {id(e) for node in ast.walk(tree) if _declares_slots(node) for e in ast.walk(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in declared:
            used.update(part for part in node.value.split(".") if part.isidentifier())
    return used


def unreached(library: str, names: set[str], attributes: set[str]) -> list[tuple[int, str]]:
    """``(line, name)`` for each top-level definition of ``library`` not in
    ``names`` (:func:`references` of the code that should reach it) and each
    method whose name is not in ``attributes`` (:func:`attribute_references`
    of that code), in line order."""
    return sorted([d for d in definitions(library) if d[1] not in names]
                  + [d for d in methods(library) if d[1].split(".")[-1] not in attributes])


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] == "dataclass"
               for d in node.decorator_list)


def fields(source: str) -> list[tuple[int, str]]:
    """``(line, "Class.name")`` for each field of a top-level dataclass of
    ``source`` and each entry of a top-level class's ``__slots__``, dunder
    names apart."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and _is_dataclass(node):
                names = [item.target.id]
            elif _declares_slots(item):
                names = [e.value for e in ast.walk(item.value) if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            else:
                continue
            found += [(item.lineno, f"{node.name}.{n}") for n in names if not (n.startswith("__") and n.endswith("__"))]
    return found


def unread_fields(library: str, attributes: set[str]) -> list[tuple[int, str]]:
    """``(line, "Class.name")`` for each field of ``library`` whose name is
    not in ``attributes`` (:func:`attribute_references` of the code that
    should read it), in line order."""
    return [f for f in fields(library) if f[1].split(".")[-1] not in attributes]


def assert_statements(source: str) -> list[int]:
    """The line of each ``assert`` statement in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def _library() -> list[pathlib.Path]:
    return sorted(p for p in (ROOT / "src" / "hexext").glob("*.py") if p.name != "__init__.py")


def _checked_files() -> list[pathlib.Path]:
    return sorted(_library() + list((ROOT / "tests").glob("*.py")) + list((ROOT / "tools").glob("*.py")))


def _outside_tests() -> list[pathlib.Path]:
    """The code that runs the library: the library itself, the tools and
    the benchmark, with no test among them."""
    bench = [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT / "perfbench").parts]
    return _library() + sorted((ROOT / "tools").glob("*.py")) + sorted(bench)


# library definitions that only the tests call, each kept for a reason
TEST_ONLY = {
    "enumerate_morphisms": "the oracle's homomorphism search; the oracle is a layer of its own",
    "brute_equivalent": "the oracle's search for an equivalence of two extensions",
    "brute_injective": "the oracle's injectivity test by Baer's criterion",
    "brute_center_exists": "the oracle's search for a hexagon center, by the frame's definition",
    "ExtCount.representatives": "the oracle's sequence per Ext^1 class, built when read; the grid census reads it",
    "hexagon_compatible_iso": "the hexagon form of compatible_isomorphism, kept for extending morphisms",
}


def test_the_scan_finds_an_unused_import():
    sample = (
        "import json\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "def f(x: \"Path\") -> int:\n"
        "    from pathlib import Path\n"
        "    return least(x, os.path.sep)\n"
        "def g():\n"
        "    import os\n"
        "    return 0\n"
    )
    # gcd is never read; the os imported inside g is read only outside it
    assert unused_imports(sample) == [(1, "json"), (3, "gcd"), (8, "os")]


def test_no_module_imports_a_name_it_never_uses():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8")) for p in _checked_files()}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_scan_finds_an_unreferenced_definition():
    sample = (
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "__version__ = '1'\n"
        "def helper():\n"
        "    return LIMIT\n"
        "def orphan():\n"
        "    UNUSED = helper()\n"
        "class Patched:\n"
        "    pass\n"
        "setattr(object, 'Patched', None)\n"
    )
    # UNUSED is only ever assigned; Patched is named in a string
    refs = references(sample)
    assert [d for d in definitions(sample) if d[1] not in refs] == [(2, "UNUSED"), (6, "orphan")]


def test_the_scan_finds_a_library_definition_only_tests_use():
    library = (
        "def called():\n"
        "    return 1\n"
        "def tested():\n"
        "    return 2\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = called()\n"
        "    def size(self):\n"
        "        return self.n\n"
        "    def peek(self):\n"
        "        return self.n\n"
        "    def entry(self):\n"
        "        return self.n\n"
    )
    # the tool's local variable entry is no attribute read of Box.entry
    tool = "from lib import Box\nentry = Box().size()\nprint(entry)\n"
    test = "from lib import Box, tested\nassert tested() == 2 and Box().peek() == Box().entry() == 1\n"
    assert "entry" in references(tool)
    for sources, want in (((library, tool, test), []),
                          ((library, tool), [(3, "tested"), (10, "Box.peek"), (12, "Box.entry")])):
        names = set().union(*map(references, sources))
        assert unreached(library, names, set().union(*map(attribute_references, sources))) == want


def test_every_definition_is_referenced():
    roots = [ROOT / name for name in ("src", "tests", "tools", "perfbench")]
    used = set().union(*(references(p.read_text(encoding="utf-8")) for root in roots for p in root.rglob("*.py")))
    defining = [p for p in _checked_files() if p.parent.name != "tests"]
    found = [f"{p.relative_to(ROOT)}::{name}" for p in defining
             for _line, name in definitions(p.read_text(encoding="utf-8")) if name not in used]
    assert found == []
    # the second scan: what only the tests use has no place in the library,
    # apart from the allow-list, each of whose entries must still need it
    outside = [p.read_text(encoding="utf-8") for p in _outside_tests()]
    names, attributes = set().union(*map(references, outside)), set().union(*map(attribute_references, outside))
    test_only = [name for p in _library() for _line, name in unreached(p.read_text(encoding="utf-8"), names, attributes)]
    assert sorted(test_only) == sorted(TEST_ONLY)


# library fields that no code outside the tests reads, each kept for a reason
UNREAD_FIELDS: dict[str, str] = {}


def test_the_scan_finds_an_unread_field():
    library = (
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "    spare: int = 0\n"
        "    def total(self):\n"
        "        return self.left\n"
        "@dataclasses.dataclass\n"
        "class Named:\n"
        "    name: str = field(default='')\n"
        "class Plain:\n"
        "    note: str = ''\n"
        "    __slots__ = ('kind', 'size', '__weakref__')\n"
    )
    # spare is only ever assigned; size is read only by a test; Plain's
    # annotation is no field, as Plain is no dataclass
    tool = "from lib import Pair, Named\np = Pair(1, 2)\np.spare = 3\nprint(p.right, getattr(Named(), 'name'), x.kind)\n"
    test = "from lib import Plain\nassert Plain().size == 0\n"
    assert [name for _line, name in fields(library)] == [
        "Pair.left", "Pair.right", "Pair.spare", "Named.name", "Plain.kind", "Plain.size"]
    for sources, want in (((library, tool, test), [(7, "Pair.spare")]),
                          ((library, tool), [(7, "Pair.spare"), (15, "Plain.size")])):
        assert unread_fields(library, set().union(*map(attribute_references, sources))) == want


def test_every_field_is_read_outside_the_tests():
    outside = [p.read_text(encoding="utf-8") for p in _outside_tests()]
    attributes = set().union(*map(attribute_references, outside))
    unread = [name for p in _library() for _line, name in unread_fields(p.read_text(encoding="utf-8"), attributes)]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def test_the_scan_finds_an_assert_statement():
    sample = (
        "def f(x):\n"
        "    assert x, 'stripped under -O'\n"
        "    if not x:\n"
        "        raise AssertionError('kept')\n"
        "    return [y for y in x if y]\n"
        "assert True\n"
    )
    assert assert_statements(sample) == [2, 6]


def test_no_library_check_is_an_assert_statement():
    found = {str(p.relative_to(ROOT)): assert_statements(p.read_text(encoding="utf-8")) for p in _library()}
    assert {path: lines for path, lines in found.items() if lines} == {}
