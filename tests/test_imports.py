"""Every imported name is used: the library (apart from the package's
re-exporting ``__init__.py``), the tests and the tools import nothing they
never refer to.  Every definition is used: each top-level function, class
and assigned name of the library and the tools is referred to somewhere in
the sources, the tests, the tools or the benchmark."""

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


def _checked_files() -> list[pathlib.Path]:
    library = [p for p in (ROOT / "src" / "hexext").glob("*.py") if p.name != "__init__.py"]
    return sorted(library + list((ROOT / "tests").glob("*.py")) + list((ROOT / "tools").glob("*.py")))


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


def test_every_definition_is_referenced():
    roots = [ROOT / name for name in ("src", "tests", "tools", "perfbench")]
    used = set().union(*(references(p.read_text(encoding="utf-8")) for root in roots for p in root.rglob("*.py")))
    defining = [p for p in _checked_files() if p.parent.name != "tests"]
    found = [f"{p.relative_to(ROOT)}::{name}" for p in defining
             for _line, name in definitions(p.read_text(encoding="utf-8")) if name not in used]
    assert found == []
