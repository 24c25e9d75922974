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
documents are bit-exact.  Every morphism certificate is re-checked on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .diagram import Diagram3x3, DiagramExtension
from .errors import HexextError
from .hexagon import HexagonFrame
from .linalg import ExactMatrix
from .modules import ModuleMorphism, PresentedModule, ShortExactSequence, _ses, check_well_defined
from .rings import RingSpec, ZZ, Zmod

_BIG = 1 << 53

# The most generators a module of a document may declare.  Relation columns
# and matrix rows are listed in full, so the document holds what they ask
# for; a generator count is the one number that asks for memory the
# document does not hold itself.
MAX_GENERATORS = 1024


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
    module_ring_names: dict[str, str] = field(default_factory=dict)
    extension_diagram_names: dict[str, str] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, DocumentModel):
            return NotImplemented
        return (self.rings, self.modules, self.morphisms, self.diagrams,
                self.hexagons, self.extensions) == \
               (other.rings, other.modules, other.morphisms, other.diagrams,
                other.hexagons, other.extensions)


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
                raise SemanticError(f"integer string of {len(t)} digits: {exc}") from exc
    raise SemanticError(f"not an integer: {v!r}")


def _section(doc: dict, key: str) -> dict:
    """A top-level section whose every entry is an object."""
    sec = doc.get(key) or {}
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


def _encode_rows(rows, what: str) -> list[list]:
    """Integer rows for JSON, an entry past a double's exact range written as
    a digit string; :class:`SemanticError` naming ``what`` when an entry has
    more digits than Python converts."""
    try:
        return [[x if -_BIG < x < _BIG else str(x) for x in row] for row in rows]
    except ValueError as exc:  # Python's limit on digits per int
        raise SemanticError(f"{what}: an entry cannot be written: {exc}") from exc


def _matrix_from_rows(ring: RingSpec, rows, expect_rows: int | None, expect_cols: int | None,
                      what: str) -> ExactMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SemanticError(f"{what}: matrix must be a list of rows")
    data = [[_as_int(x) for x in r] for r in rows]
    if expect_rows is not None and len(data) != expect_rows:
        raise SemanticError(f"{what}: expected {expect_rows} rows, got {len(data)}")
    if data:
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise SemanticError(f"{what}: ragged rows")
        if expect_cols is not None and w != expect_cols:
            raise SemanticError(f"{what}: expected {expect_cols} columns, got {w}")
    cols = expect_cols if expect_cols is not None else (len(data[0]) if data else 0)
    return ExactMatrix.from_rows(ring, data, cols)


def parse(text: str) -> DocumentModel:
    """Parse and semantically validate a document; raises :class:`ParseError`
    for malformed JSON and :class:`SemanticError` for well-formed JSON that
    does not describe a consistent model."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ParseError(None, str(exc)) from exc
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
        model.modules[name] = PresentedModule(ring, g, ExactMatrix.from_cols(ring, cols, g))
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
        rep = check_well_defined(src, tgt, mat)
        if not rep.ok:
            raise SemanticError(
                f"morphism {name}: not well defined (relation column {rep.first_violation})")
        model.morphisms[name] = ModuleMorphism(src, tgt, mat)

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
        return _ses(inj, proj)  # exactness is the diagram's to check

    for name, spec in _section(doc, "diagrams").items():
        for key in ("P", "E", "R", "H", "F", "S", "G", "Q"):
            if not _known(model.modules, spec.get(key)):
                raise SemanticError(f"diagram {name}: unknown module for corner {key}")
        row_top = ses_from(spec, "rowTop", f"diagram {name}")
        row_bottom = ses_from(spec, "rowBottom", f"diagram {name}")
        col_left = ses_from(spec, "colLeft", f"diagram {name}")
        col_right = ses_from(spec, "colRight", f"diagram {name}")
        named = {k: model.modules[spec[k]] for k in ("P", "E", "R", "H", "F", "S", "G", "Q")}
        checks = [
            (row_top.left, named["P"], "rowTop.left != P"), (row_top.middle, named["E"], "rowTop.middle != E"),
            (row_top.right, named["R"], "rowTop.right != R"),
            (row_bottom.left, named["S"], "rowBottom.left != S"), (row_bottom.middle, named["G"], "rowBottom.middle != G"),
            (row_bottom.right, named["Q"], "rowBottom.right != Q"),
            (col_left.left, named["P"], "colLeft.left != P"), (col_left.middle, named["H"], "colLeft.middle != H"),
            (col_left.right, named["S"], "colLeft.right != S"),
            (col_right.left, named["R"], "colRight.left != R"), (col_right.middle, named["F"], "colRight.middle != F"),
            (col_right.right, named["Q"], "colRight.right != Q"),
        ]
        for got, want, msg in checks:
            if got != want:
                raise SemanticError(f"diagram {name}: {msg}")
        model.diagrams[name] = Diagram3x3(row_top=row_top, row_bottom=row_bottom,
                                          col_left=col_left, col_right=col_right)

    for name, spec in _section(doc, "hexagons").items():
        objs = {}
        for key in ("A1", "B1", "B2", "A4", "A2", "A3"):
            if not _known(model.modules, spec.get(key)):
                raise SemanticError(f"hexagon {name}: unknown module for {key}")
            objs[key] = model.modules[spec[key]]
        maps = {}
        for key in ("alpha", "beta", "topB", "d", "r", "s"):
            if not _known(model.morphisms, spec.get(key)):
                raise SemanticError(f"hexagon {name}: unknown morphism for {key}")
            maps[key] = model.morphisms[spec[key]]
        model.hexagons[name] = HexagonFrame(
            a1=objs["A1"], b1=objs["B1"], b2=objs["B2"], a4=objs["A4"],
            a2=objs["A2"], a3=objs["A3"],
            alpha=maps["alpha"], beta=maps["beta"], top_b=maps["topB"],
            d=maps["d"], r=maps["r"], s=maps["s"])

    for name, spec in _section(doc, "extensions").items():
        dname = spec.get("diagram")
        if not _known(model.diagrams, dname):
            raise SemanticError(f"extension {name}: unknown diagram {dname!r}")
        if not _known(model.modules, spec.get("X")):
            raise SemanticError(f"extension {name}: unknown middle module")
        mor = {}
        for key in ("i", "j", "m", "n"):
            if not _known(model.morphisms, spec.get(key)):
                raise SemanticError(f"extension {name}: unknown morphism for {key}")
            mor[key] = model.morphisms[spec[key]]
        x = model.modules[spec["X"]]
        model.extensions[name] = DiagramExtension(x, mor["i"], mor["j"], mor["m"], mor["n"])
        model.extension_diagram_names[name] = dname
    return model


def serialize(model: DocumentModel) -> str:
    """Deterministic JSON for a model; ``parse(serialize(m))`` equals ``m``."""
    ring_name = {}
    for name in sorted(model.rings):
        ring_name.setdefault(model.rings[name], name)
    module_name = {}
    for name in sorted(model.modules):
        module_name.setdefault(model.modules[name], name)
    morphism_name = {}
    for name in sorted(model.morphisms):
        morphism_name.setdefault(model.morphisms[name], name)

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
            sname, tname = module_name.get(f.source), module_name.get(f.target)
            if sname is None or tname is None:
                raise SemanticError(f"morphism {name}: endpoints are not named modules")
            out[name] = {"source": sname, "target": tname,
                         "matrix": _encode_rows(f.matrix.data, f"morphism {name}")}
        doc["morphisms"] = out

    def seq_ref(s: ShortExactSequence, what: str):
        inj, proj = morphism_name.get(s.inject), morphism_name.get(s.project)
        if inj is None or proj is None:
            raise SemanticError(f"{what}: sequence maps are not named morphisms")
        return {"inject": inj, "project": proj}

    if model.diagrams:
        out = {}
        for name, dg in sorted(model.diagrams.items()):
            out[name] = {
                "P": module_name[dg.p], "E": module_name[dg.e], "R": module_name[dg.r],
                "H": module_name[dg.h], "F": module_name[dg.f], "S": module_name[dg.s],
                "G": module_name[dg.g], "Q": module_name[dg.q],
                "rowTop": seq_ref(dg.row_top, f"diagram {name}"),
                "rowBottom": seq_ref(dg.row_bottom, f"diagram {name}"),
                "colLeft": seq_ref(dg.col_left, f"diagram {name}"),
                "colRight": seq_ref(dg.col_right, f"diagram {name}"),
            }
        doc["diagrams"] = out
    if model.hexagons:
        out = {}
        for name, hx in sorted(model.hexagons.items()):
            out[name] = {
                "A1": module_name[hx.a1], "B1": module_name[hx.b1], "B2": module_name[hx.b2],
                "A4": module_name[hx.a4], "A2": module_name[hx.a2], "A3": module_name[hx.a3],
                "alpha": morphism_name[hx.alpha], "beta": morphism_name[hx.beta],
                "topB": morphism_name[hx.top_b], "d": morphism_name[hx.d],
                "r": morphism_name[hx.r], "s": morphism_name[hx.s],
            }
        doc["hexagons"] = out
    if model.extensions:
        out = {}
        for name, ex in sorted(model.extensions.items()):
            out[name] = {
                "diagram": model.extension_diagram_names[name],
                "X": module_name[ex.x],
                "i": morphism_name[ex.i], "j": morphism_name[ex.j],
                "m": morphism_name[ex.m], "n": morphism_name[ex.n],
            }
        doc["extensions"] = out
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
