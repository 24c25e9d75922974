"""Document parsing, semantic validation, and round-trip serialization."""

import json
import pathlib

import pytest

from hexext.document import MAX_GENERATORS, DocumentModel, ParseError, SemanticError, parse, serialize
from hexext.linalg import ExactMatrix
from hexext.modules import ModuleMorphism, PresentedModule
from hexext.rings import ZZ

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

MINIMAL = """
{
  "rings": {"R": {"kind": "Zmod", "m": 4}},
  "modules": {"M": {"ring": "R", "generators": 1, "relations": [[2]]}}
}
"""


def test_minimal_document():
    model = parse(MINIMAL)
    assert list(model.modules) == ["M"]
    assert model.modules["M"].cardinality() == 2


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse('{"rings": {\n  "R": }}')
    assert exc.value.line == 2


def test_unknown_ring_is_semantic_error():
    with pytest.raises(SemanticError):
        parse('{"modules": {"M": {"ring": "nope", "generators": 1, "relations": []}}}')


def test_wrong_matrix_dims_is_semantic_error():
    doc = {
        "rings": {"R": {"kind": "Zmod", "m": 4}},
        "modules": {
            "A": {"ring": "R", "generators": 1, "relations": [[2]]},
            "B": {"ring": "R", "generators": 2, "relations": []},
        },
        "morphisms": {"f": {"source": "A", "target": "B", "matrix": [[1]]}},
    }
    with pytest.raises(SemanticError):
        parse(json.dumps(doc))


def test_ill_defined_morphism_rejected_on_load():
    doc = {
        "rings": {"Z": {"kind": "Z"}},
        "modules": {
            "Z2": {"ring": "Z", "generators": 1, "relations": [[2]]},
            "Z4": {"ring": "Z", "generators": 1, "relations": [[4]]},
        },
        "morphisms": {"bad": {"source": "Z2", "target": "Z4", "matrix": [[1]]}},
    }
    with pytest.raises(SemanticError) as exc:
        parse(json.dumps(doc))
    assert "not well defined" in str(exc.value)


def test_big_integers_round_trip_as_strings():
    big = str(1 << 70)
    doc = {
        "rings": {"Z": {"kind": "Z"}},
        "modules": {"M": {"ring": "Z", "generators": 1, "relations": [[big]]}},
    }
    model = parse(json.dumps(doc))
    assert model.modules["M"].relations.data[0][0] == 1 << 70
    text = serialize(model)
    assert big in text
    assert parse(text) == model


@pytest.mark.parametrize("where", ["module", "morphism"])
def test_serialize_names_entry_beyond_digit_limit(where):
    # 5,001 digits: past Python's default limit on int-to-string conversion
    huge = 10 ** 5000
    model = DocumentModel(rings={"Z": ZZ})
    if where == "module":
        model.modules["A"] = PresentedModule.make(ZZ, 1, [[huge]])
    else:
        a = PresentedModule.free(ZZ, 1)
        model.modules["A"] = a
        model.morphisms["f"] = ModuleMorphism(a, a, ExactMatrix.from_rows(ZZ, [[huge]]))
    name = "module A" if where == "module" else "morphism f"
    with pytest.raises(SemanticError, match=f"^{name}: an entry cannot be written"):
        serialize(model)


@pytest.mark.parametrize("fixture, section, name, first_module", [
    ("allsplit.json", "diagrams", "D", "diagram D: P"),
    ("injective.json", "hexagons", "F", "hexagon F: A1"),
    ("allsplit.json", "extensions", "X1", "extension X1: X"),
])
def test_serialize_refuses_an_unnamed_reference(fixture, section, name, first_module):
    full = parse((FIXTURES / fixture).read_text(encoding="utf-8"))
    model = DocumentModel(extension_diagram_names=full.extension_diagram_names)
    getattr(model, section)[name] = getattr(full, section)[name]
    with pytest.raises(SemanticError, match=f"^{first_module} is not a named module$"):
        serialize(model)
    # with every module named, the first map is the one reported
    model.rings, model.modules, model.module_ring_names = full.rings, full.modules, full.module_ring_names
    with pytest.raises(SemanticError, match=f"^{section[:-1]} {name}: [A-Za-z ]+ is not a named morphism$"):
        serialize(model)


def test_serialize_refuses_an_extension_of_an_unnamed_diagram():
    full = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    model = DocumentModel(rings=full.rings, modules=full.modules, morphisms=full.morphisms,
                          extensions={"X1": full.extensions["X1"]})
    with pytest.raises(SemanticError, match="^extension X1: its diagram has no name in the document$"):
        serialize(model)


@pytest.mark.parametrize("name", ["obstructed.json", "allsplit.json", "injective.json", "zdiagram.json"])
def test_fixture_round_trip(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    model = parse(text)
    again = parse(serialize(model))
    assert again == model
    # and serialization is a fixed point after one pass
    assert serialize(again) == serialize(model)


def test_fixture_contents():
    model = parse((FIXTURES / "obstructed.json").read_text(encoding="utf-8"))
    assert "D" in model.diagrams and "F" in model.hexagons
    model = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    assert set(model.extensions) == {"X1", "X1b", "X2"}


NON_ASCII_DIGITS = {
    "modulus": {"rings": {"R": {"kind": "Zmod", "m": "٤"}}},
    "relation-entry": {"rings": {"R": {"kind": "Z"}},
                       "modules": {"M": {"ring": "R", "generators": 1, "relations": [["٣"]]}}},
    "matrix-entry": {"rings": {"R": {"kind": "Z"}},
                     "modules": {"M": {"ring": "R", "generators": 1, "relations": []}},
                     "morphisms": {"f": {"source": "M", "target": "M", "matrix": [["０"]]}}},
}


@pytest.mark.parametrize("where", sorted(NON_ASCII_DIGITS))
def test_non_ascii_digit_strings_rejected(where):
    # serialize writes ASCII digits only, so anything else is not an integer
    with pytest.raises(SemanticError, match="not an integer"):
        parse(json.dumps(NON_ASCII_DIGITS[where]))


def test_ascii_digit_strings_accepted():
    doc = {"rings": {"R": {"kind": "Zmod", "m": "4"}},
           "modules": {"M": {"ring": "R", "generators": 1, "relations": [["-2"]]}}}
    assert parse(json.dumps(doc)).modules["M"].cardinality() == 2


def _relation_entry_document(entry: str) -> str:
    """A module over Z with one relation entry, written as raw JSON text."""
    return ('{"rings": {"R": {"kind": "Z"}}, "modules": {"A": {"ring": "R", "generators": 1, '
            '"relations": [[' + entry + ']]}}}')


def test_integer_literal_beyond_digit_limit_is_parse_error():
    # Python refuses to convert more than 4,300 digits, inside json.loads
    with pytest.raises(ParseError, match="4300 digits"):
        parse(_relation_entry_document("7" * 5000))


def test_integer_string_beyond_digit_limit_is_semantic_error():
    with pytest.raises(SemanticError, match="integer string of 5000 digits"):
        parse(_relation_entry_document('"' + "7" * 5000 + '"'))


def _generator_count_document(count: int) -> str:
    return ('{"rings": {"R": {"kind": "Z"}}, "modules": {"A": {"ring": "R", "generators": '
            + str(count) + ', "relations": []}}}')


def test_generator_count_above_the_limit_is_semantic_error():
    # the count alone would ask for a relation matrix of 10^18 empty rows
    with pytest.raises(SemanticError, match=f"module A: more than {MAX_GENERATORS} generators"):
        parse(_generator_count_document(10 ** 18))
    with pytest.raises(SemanticError, match="module A"):
        parse(_generator_count_document(MAX_GENERATORS + 1))
    assert parse(_generator_count_document(MAX_GENERATORS)).modules["A"].free_rank() == MAX_GENERATORS


# -- the parser's reference messages ------------------------------------------------------------


def _allsplit() -> dict:
    """The all-split fixture as JSON data, with one extra module W over its
    ring that is not the module of any corner."""
    doc = json.loads((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    doc["modules"]["W"] = {"ring": "R4", "generators": 3, "relations": []}
    return doc


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


def _delete(path):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return edit


# one malformed document per message, each made by one edit of the fixture
REFERENCE_MESSAGES = [
    # a corner named for another module: the first sequence side that meets it
    (_set(("diagrams", "D", "P"), "W"), "diagram D: rowTop.left != P"),
    (_set(("diagrams", "D", "E"), "W"), "diagram D: rowTop.middle != E"),
    (_set(("diagrams", "D", "R"), "W"), "diagram D: rowTop.right != R"),
    (_set(("diagrams", "D", "H"), "W"), "diagram D: colLeft.middle != H"),
    (_set(("diagrams", "D", "F"), "W"), "diagram D: colRight.middle != F"),
    (_set(("diagrams", "D", "S"), "W"), "diagram D: rowBottom.left != S"),
    (_set(("diagrams", "D", "G"), "W"), "diagram D: rowBottom.middle != G"),
    (_set(("diagrams", "D", "Q"), "W"), "diagram D: rowBottom.right != Q"),
    (_set(("diagrams", "D", "H"), "nope"), "diagram D: unknown module for corner H"),
    (_delete(("diagrams", "D", "colLeft")), "diagram D: missing sequence 'colLeft'"),
    (_set(("diagrams", "D", "colRight", "project"), "nope"), "diagram D/colRight: unknown morphism reference"),
    (_set(("diagrams", "D", "rowBottom", "inject"), "bottom_proj"),
     "diagram D/rowBottom: inject and project do not compose"),
    (_set(("hexagons", "F", "A4"), "nope"), "hexagon F: unknown module for A4"),
    (_set(("hexagons", "F", "topB"), 7), "hexagon F: unknown morphism for topB"),
    (_set(("extensions", "X1", "diagram"), "nope"), "extension X1: unknown diagram 'nope'"),
    (_delete(("extensions", "X1", "X")), "extension X1: unknown middle module"),
    (_set(("extensions", "X1", "m"), "nope"), "extension X1: unknown morphism for m"),
    (_set(("modules", "Z2", "ring"), "nope"), "module Z2: unknown ring 'nope'"),
    (_set(("morphisms", "alpha", "target"), "nope"), "morphism alpha: unknown target 'nope'"),
    (_set(("morphisms", "bad"), {"source": "Z2", "target": "W", "matrix": [[1], [0], [0]]}),
     "morphism bad: not well defined (relation column 0)"),
]


@pytest.mark.parametrize("edit, message", REFERENCE_MESSAGES, ids=[m for _, m in REFERENCE_MESSAGES])
def test_reference_messages(edit, message):
    doc = _allsplit()
    parse(json.dumps(doc))  # the unedited document is sound
    edit(doc)
    with pytest.raises(SemanticError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


SECTIONS = ("rings", "modules", "morphisms", "diagrams", "hexagons", "extensions")


@pytest.mark.parametrize("value", [[], 0, False, "", None, [1], "x"], ids=repr)
@pytest.mark.parametrize("section", SECTIONS)
def test_a_present_section_must_be_an_object(section, value):
    # only a missing key is an empty section
    with pytest.raises(SemanticError, match=f"^section '{section}' must be an object$"):
        parse(json.dumps({section: value}))
    assert parse(json.dumps({section: {}})) == DocumentModel()
