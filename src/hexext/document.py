"""JSON document model: named rings, modules, morphisms, diagrams, hexagon
frames and extensions.

Format (all sections optional, all references by name):

    {"rings":     {"R": {"kind": "Zmod", "m": 4}},
     "modules":   {"P": {"ring": "R", "generators": 1, "relations": [[2]]}},
     "morphisms": {"f": {"source": "P", "target": "P", "matrix": [[1]]}},
     "diagrams":  {"D": {"P": "P", "E": "E", "R": "Rm", "H": "H",
                         "F": "F", "S": "S", "G": "G", "Q": "Q",
                         "rowTop": {"inject": "nu", "project": "er"}, ...}},
     "hexagons":  {"X": {"A1": ..., "B1": ..., "B2": ..., "A4": ...,
                         "A2": ..., "A3": ..., "alpha": ..., "beta": ...,
                         "topB": ..., "d": ..., "r": ..., "s": ...}},
     "extensions": {"E1": {"diagram": "D", "X": "Xmod",
                          "i": ..., "j": ..., "m": ..., "n": ...}}}

Relations are lists of columns (one list per relation, of generator length);
morphism matrices are lists of rows indexed by target generators.  Integers
are JSON numbers when ``|v| < 2**53`` and decimal strings beyond that, so
documents are bit-exact.  Every morphism certificate is re-checked on load,
by :func:`hexext.modules.hom`.  The named references of diagrams, hexagons and
extensions are spelled once, in the tables below, for both :func:`parse` and
:func:`serialize`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .diagram import Diagram3x3, DiagramExtension
from .errors import HexextError, WellDefinednessError
from .hexagon import HexagonFrame
from .linalg import ExactMatrix
from .modules import ModuleMorphism, PresentedModule, ShortExactSequence, hom
from .rings import RingSpec, ZZ, Zmod

_BIG = 1 << 53

# The most generators a module of a document may declare.  Relation columns
# and matrix rows are listed in full, so the document holds what they ask
# for; a generator count is the one number that asks for memory the
# document does not hold itself.
MAX_GENERATORS = 1024

# The diagram's corners, each the module of the attribute named in lower case.
_CORNERS = "PERHFSGQ"
# Each sequence of a diagram: its attribute and the corners it joins, left,
# middle and right.
_SEQUENCES = {"rowTop": ("row_top", "PER"), "rowBottom": ("row_bottom", "SGQ"),
              "colLeft": ("col_left", "PHS"), "colRight": ("col_right", "RFQ")}
# The modules and maps of a hexagon frame, each with the attribute it fills.
_HEXAGON_MODULES = {"A1": "a1", "B1": "b1", "B2": "b2", "A4": "a4", "A2": "a2", "A3": "a3"}
_HEXAGON_MAPS = {"alpha": "alpha", "beta": "beta", "topB": "top_b", "d": "d", "r": "r", "s": "s"}
# The maps of an extension, each named as its attribute.
_EXTENSION_MAPS = "ijmn"


class ParseError(HexextError):
    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}" if line else reason)


class SemanticError(HexextError):
    pass


@dataclass
class DocumentModel:
    rings: dict[str, RingSpec] = field(default_factory=dict)
    modules: dict[str, PresentedModule] = field(default_factory=dict)
    morphisms: dict[str, ModuleMorphism] = field(default_factory=dict)
    diagrams: dict[str, Diagram3x3] = field(default_factory=dict)
    hexagons: dict[str, HexagonFrame] = field(default_factory=dict)
    extensions: dict[str, DiagramExtension] = field(default_factory=dict)
    # names needed to re-serialize object references
    module_ring_names: dict[str, str] = field(default_factory=dict, compare=False)
    extension_diagram_names: dict[str, str] = field(default_factory=dict, compare=False)


def _beyond_digit_limit(what: str) -> str:
    """The message for ``what`` past Python's limit on digits per int
    conversion, naming the limit without Python's advice to raise it."""
    return f"{what} exceeds the {sys.get_int_max_str_digits()}-digit limit"


def _as_int(v) -> int:
    if isinstance(v, bool):
        raise SemanticError("booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        t = v[1:] if v.startswith("-") else v
        if t.isascii() and t.isdigit():
            try:
                return int(v)
            except ValueError as exc:  # Python's limit on digits per int
                raise SemanticError(_beyond_digit_limit(f"integer string of {len(t)} digits")) from exc
    raise SemanticError(f"not an integer: {v!r}")


def _int_literal(literal: str) -> int:
    """An integer literal of the JSON text; :class:`ParseError` naming
    Python's digit limit past it, without Python's advice to raise it."""
    try:
        return int(literal)
    except ValueError as exc:  # Python's limit on digits per int
        raise ParseError(None, _beyond_digit_limit(f"integer literal of {len(literal.lstrip('-'))} digits")) from exc


def _section(doc: dict, key: str) -> dict:
    """A top-level section whose every entry is an object."""
    sec = doc.get(key, {})
    if not isinstance(sec, dict):
        raise SemanticError(f"section {key!r} must be an object")
    for name, spec in sec.items():
        if not isinstance(spec, dict):
            raise SemanticError(f"{key[:-1]} {name}: must be an object")
    return sec


def _known(table: dict, ref) -> bool:
    """Is ``ref`` a name in ``table``?  Names are strings, so a reference of
    any other JSON type names nothing."""
    return isinstance(ref, str) and ref in table


def _refs(spec: dict, keys, table: dict, what: str) -> dict:
    """The entries of ``table`` that ``spec`` names under ``keys``, by key;
    :class:`SemanticError` ``"<what> <key>"`` at the first key that names
    nothing."""
    out = {}
    for key in keys:
        if not _known(table, spec.get(key)):
            raise SemanticError(f"{what} {key}")
        out[key] = table[spec[key]]
    return out


def _encode_rows(rows, what: str) -> list[list]:
    """Integer rows for JSON, an entry past a double's exact range written as
    a digit string; :class:`SemanticError` naming ``what`` when an entry has
    more digits than Python converts."""
    try:
        return [[x if -_BIG < x < _BIG else str(x) for x in row] for row in rows]
    except ValueError as exc:  # Python's limit on digits per int
        raise SemanticError(f"{what}: an entry cannot be written: {_beyond_digit_limit('it')}") from exc


def _matrix_from_rows(ring: RingSpec, rows, expect_rows: int, expect_cols: int, what: str) -> ExactMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SemanticError(f"{what}: matrix must be a list of rows")
    data = [[_as_int(x) for x in r] for r in rows]
    if len(data) != expect_rows:
        raise SemanticError(f"{what}: expected {expect_rows} rows, got {len(data)}")
    if data:
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise SemanticError(f"{what}: ragged rows")
        if w != expect_cols:
            raise SemanticError(f"{what}: expected {expect_cols} columns, got {w}")
    return ExactMatrix.from_rows(ring, data, expect_cols)


def parse(text: str) -> DocumentModel:
    """Parse and semantically validate a document; raises :class:`ParseError`
    for malformed JSON and :class:`SemanticError` for well-formed JSON that
    does not describe a consistent model."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    except ValueError:  # an integer literal beyond Python's digit limit
        # parse again, converting each literal ourselves, to name its length
        json.loads(text, parse_int=_int_literal)
        raise
    except RecursionError as exc:
        raise ParseError(None, "document nests too deeply") from exc
    if not isinstance(doc, dict):
        raise SemanticError("document root must be an object")
    model = DocumentModel()

    for name, spec in _section(doc, "rings").items():
        kind = spec.get("kind")
        if kind == "Z":
            model.rings[name] = ZZ
        elif kind == "Zmod":
            try:
                model.rings[name] = Zmod(_as_int(spec.get("m")))
            except ValueError as exc:
                raise SemanticError(f"ring {name}: {exc}") from exc
        else:
            raise SemanticError(f"ring {name}: unknown kind {kind!r}")

    for name, spec in _section(doc, "modules").items():
        rname = spec.get("ring")
        if not _known(model.rings, rname):
            raise SemanticError(f"module {name}: unknown ring {rname!r}")
        ring = model.rings[rname]
        g = _as_int(spec.get("generators"))
        if g < 0:
            raise SemanticError(f"module {name}: negative generator count")
        if g > MAX_GENERATORS:
            raise SemanticError(f"module {name}: more than {MAX_GENERATORS} generators")
        rels = spec.get("relations", [])
        if not isinstance(rels, list) or any(not isinstance(col, list) for col in rels):
            raise SemanticError(f"module {name}: relations must be a list of columns")
        cols = [[_as_int(x) for x in col] for col in rels]
        if any(len(c) != g for c in cols):
            raise SemanticError(f"module {name}: relation column length must equal generators")
        model.modules[name] = PresentedModule.make(ring, g, cols)
        model.module_ring_names[name] = rname

    for name, spec in _section(doc, "morphisms").items():
        sname, tname = spec.get("source"), spec.get("target")
        if not _known(model.modules, sname):
            raise SemanticError(f"morphism {name}: unknown source {sname!r}")
        if not _known(model.modules, tname):
            raise SemanticError(f"morphism {name}: unknown target {tname!r}")
        src, tgt = model.modules[sname], model.modules[tname]
        if src.ring != tgt.ring:
            raise SemanticError(f"morphism {name}: source and target rings differ")
        mat = _matrix_from_rows(src.ring, spec.get("matrix", []), tgt.generators, src.generators,
                                f"morphism {name}")
        try:
            model.morphisms[name] = hom(src, tgt, mat)
        except WellDefinednessError as exc:
            raise SemanticError(
                f"morphism {name}: not well defined (relation column {exc.first_violation})") from exc

    def ses_from(dspec, key, what) -> ShortExactSequence:
        block = dspec.get(key)
        if not isinstance(block, dict):
            raise SemanticError(f"{what}: missing sequence {key!r}")
        inj_name, proj_name = block.get("inject"), block.get("project")
        if not (_known(model.morphisms, inj_name) and _known(model.morphisms, proj_name)):
            raise SemanticError(f"{what}/{key}: unknown morphism reference")
        inj, proj = model.morphisms[inj_name], model.morphisms[proj_name]
        if inj.target != proj.source:
            raise SemanticError(f"{what}/{key}: inject and project do not compose")
        return ShortExactSequence(inj, proj)  # exactness is the diagram's to check

    for name, spec in _section(doc, "diagrams").items():
        corners = _refs(spec, _CORNERS, model.modules, f"diagram {name}: unknown module for corner")
        seqs = {key: ses_from(spec, key, f"diagram {name}") for key in _SEQUENCES}
        for key, (_, joins) in _SEQUENCES.items():
            for side, corner in zip(("left", "middle", "right"), joins):
                if getattr(seqs[key], side) != corners[corner]:
                    raise SemanticError(f"diagram {name}: {key}.{side} != {corner}")
        model.diagrams[name] = Diagram3x3(**{attr: seqs[key] for key, (attr, _) in _SEQUENCES.items()})

    for name, spec in _section(doc, "hexagons").items():
        objs = _refs(spec, _HEXAGON_MODULES, model.modules, f"hexagon {name}: unknown module for")
        maps = _refs(spec, _HEXAGON_MAPS, model.morphisms, f"hexagon {name}: unknown morphism for")
        model.hexagons[name] = HexagonFrame(**{_HEXAGON_MODULES[k]: v for k, v in objs.items()},
                                            **{_HEXAGON_MAPS[k]: v for k, v in maps.items()})

    for name, spec in _section(doc, "extensions").items():
        dname = spec.get("diagram")
        if not _known(model.diagrams, dname):
            raise SemanticError(f"extension {name}: unknown diagram {dname!r}")
        if not _known(model.modules, spec.get("X")):
            raise SemanticError(f"extension {name}: unknown middle module")
        maps = _refs(spec, _EXTENSION_MAPS, model.morphisms, f"extension {name}: unknown morphism for")
        model.extensions[name] = DiagramExtension(model.modules[spec["X"]], **maps)
        model.extension_diagram_names[name] = dname
    return model


def _first_names(table: dict) -> dict:
    """Each value of ``table`` with the first of its names in sorted order."""
    out = {}
    for name in sorted(table):
        out.setdefault(table[name], name)
    return out


def serialize(model: DocumentModel) -> str:
    """Deterministic JSON for a model; ``parse(serialize(m))`` equals ``m``."""
    ring_name = _first_names(model.rings)
    names = {"module": _first_names(model.modules), "morphism": _first_names(model.morphisms)}

    def named(kind: str, value, owner: str, slot: str) -> str:
        """The document name of ``value``, which fills ``slot`` of ``owner``."""
        name = names[kind].get(value)
        if name is None:
            raise SemanticError(f"{owner}: {slot} is not a named {kind}")
        return name

    doc: dict = {}
    if model.rings:
        doc["rings"] = {
            name: ({"kind": "Z"} if not r.is_modular else {"kind": "Zmod", "m": r.modulus})
            for name, r in sorted(model.rings.items())
        }
    if model.modules:
        out = {}
        for name, m in sorted(model.modules.items()):
            rname = model.module_ring_names.get(name) or ring_name.get(m.ring)
            if rname is None:
                raise SemanticError(f"module {name}: its ring has no name in the document")
            out[name] = {
                "ring": rname,
                "generators": m.generators,
                "relations": _encode_rows((m.relations.col(j) for j in range(m.relations.cols)),
                                          f"module {name}"),
            }
        doc["modules"] = out
    if model.morphisms:
        out = {}
        for name, f in sorted(model.morphisms.items()):
            owner = f"morphism {name}"
            out[name] = {"source": named("module", f.source, owner, "source"),
                         "target": named("module", f.target, owner, "target"),
                         "matrix": _encode_rows(f.matrix.data, owner)}
        doc["morphisms"] = out
    if model.diagrams:
        out = {}
        for name, dg in sorted(model.diagrams.items()):
            owner = f"diagram {name}"
            out[name] = {k: named("module", getattr(dg, k.lower()), owner, k) for k in _CORNERS}
            for key, (attr, _) in _SEQUENCES.items():
                seq = getattr(dg, attr)
                out[name][key] = {"inject": named("morphism", seq.inject, owner, f"{key} inject"),
                                  "project": named("morphism", seq.project, owner, f"{key} project")}
        doc["diagrams"] = out
    if model.hexagons:
        out = {}
        for name, hx in sorted(model.hexagons.items()):
            owner = f"hexagon {name}"
            out[name] = {k: named("module", getattr(hx, attr), owner, k) for k, attr in _HEXAGON_MODULES.items()}
            out[name].update((k, named("morphism", getattr(hx, attr), owner, k)) for k, attr in _HEXAGON_MAPS.items())
        doc["hexagons"] = out
    if model.extensions:
        out = {}
        for name, ex in sorted(model.extensions.items()):
            owner = f"extension {name}"
            if name not in model.extension_diagram_names:
                raise SemanticError(f"{owner}: its diagram has no name in the document")
            out[name] = {"diagram": model.extension_diagram_names[name], "X": named("module", ex.x, owner, "X")}
            out[name].update((k, named("morphism", getattr(ex, k), owner, k)) for k in _EXTENSION_MAPS)
        doc["extensions"] = out
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
