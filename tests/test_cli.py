"""CLI subcommands, exit codes, and report shapes."""

import collections
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from hexext.cli import main
from hexext.document import parse, serialize

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SRC = FIXTURES.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_obstruction_nonzero_exits_1(capsys):
    code, report = run(capsys, "obstruction", FIXTURES / "obstructed.json", "D")
    assert code == 1
    assert report["is_zero"] is False
    assert report["baer_sum"]["coords"] == [1]
    assert report["baer_sum"]["group"]["invariant_factors"] == [2]


def test_extend_all_split_exits_0(capsys):
    code, report = run(capsys, "extend", FIXTURES / "allsplit.json", "D")
    assert code == 0
    assert report["extendable"] and report["valid"]
    assert sorted(report["X"]["invariant_factors"]) == [2, 2, 2, 2]


def test_extend_obstructed_exits_1(capsys):
    code, report = run(capsys, "extend", FIXTURES / "obstructed.json", "D")
    assert code == 1
    assert report["extendable"] is False
    assert report["obstruction"]["is_zero"] is False


def test_extend_engine_fault_is_not_a_verdict(capsys, monkeypatch):
    # grid maps that cannot be solved although the obstruction is zero are
    # the engine's fault: no report claims the diagram does not extend
    import hexext.diagram

    monkeypatch.setattr(hexext.diagram, "_solve_matrix", lambda *a, **k: None)
    with pytest.raises(AssertionError, match="grid maps are unsolvable"):
        main(["extend", str(FIXTURES / "allsplit.json"), "D"])
    assert capsys.readouterr().out == ""


def test_engine_error_propagates_with_its_traceback(capsys, monkeypatch):
    # a library error the input cannot cause is the engine's fault: it is
    # raised to the caller, not printed as a one-line verdict
    import hexext.ext
    from hexext.errors import NotExactError

    def broken(inject, project):
        raise NotExactError("left")

    monkeypatch.setattr(hexext.ext, "make_ses", broken)
    with pytest.raises(NotExactError, match="sequence fails exactness at left"):
        main(["extend", str(FIXTURES / "allsplit.json"), "D"])
    assert capsys.readouterr().out == ""


def test_ext_subcommand(capsys):
    code, report = run(capsys, "ext", FIXTURES / "zdiagram.json", "-i", "1", "Z6", "Zfree")
    assert code == 0
    assert report["group"]["invariant_factors"] == [6]


def test_unique_subcommand(capsys):
    code, report = run(capsys, "unique", FIXTURES / "allsplit.json", "D")
    assert code == 1 and report["unique"] is False
    assert report["image"]["invariant_factors"] == [2]   # two classes over Y
    code, report = run(capsys, "unique", FIXTURES / "injective.json", "D")
    assert code == 0 and report["unique"] is True
    assert report["image"]["invariant_factors"] == []


def test_unique_obstructed_exits_1(capsys):
    # no middle object at all, so none is unique: the report says why
    code, report = run(capsys, "unique", FIXTURES / "obstructed.json", "D")
    assert code == 1
    assert report["extendable"] is False and "unique" not in report
    assert report["obstruction"]["coords"] == [1]


def test_iso_same_class(capsys):
    code, report = run(capsys, "iso", FIXTURES / "allsplit.json", "D", "X1", "X1b")
    assert code == 0 and report["found"]


def test_iso_classes_differ(capsys):
    code, report = run(capsys, "iso", FIXTURES / "allsplit.json", "D", "X1", "X2")
    assert code == 1 and not report["found"]


def test_iso_matrix_on_allsplit(capsys):
    code, report = run(capsys, "iso", FIXTURES / "allsplit.json", "D", "X1", "X1b")
    assert code == 0
    assert report["matrix"] == [[1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_iso_correction_not_extendable(capsys):
    # one class over Y, so the diagram is unique, yet P = Z/2 is not
    # injective and these two solutions have no compatible isomorphism
    code, report = run(capsys, "unique", FIXTURES / "lambda.json", "D")
    assert code == 0 and report["unique"]
    code, report = run(capsys, "iso", FIXTURES / "lambda.json", "D", "X1", "X1p")
    assert code == 1 and not report["found"]
    assert report["reason"].startswith("correction not extendable")


def test_iso_extension_of_another_diagram_exits_2(tmp_path, capsys):
    # X1 and X1b solve D; asking for them over D2 is an input error
    model = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    other = parse((FIXTURES / "injective.json").read_text(encoding="utf-8"))
    for name, m in other.modules.items():
        model.modules[f"inj_{name}"] = m
        model.module_ring_names[f"inj_{name}"] = other.module_ring_names[name]
    for name, f in other.morphisms.items():
        model.morphisms[f"inj_{name}"] = f
    model.diagrams["D2"] = other.diagrams["D"]
    p = tmp_path / "two.json"
    p.write_text(serialize(model), encoding="utf-8")
    assert main(["iso", str(p), "D2", "X1", "X1b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'D'" in err and "Traceback" not in err
    code, report = run(capsys, "iso", p, "D", "X1", "X1b")
    assert code == 0 and report["found"]


def test_hexagon_solve(capsys):
    code, report = run(capsys, "hexagon", FIXTURES / "injective.json", "solve", "F")
    assert code == 0 and report["solved"] and report["verified"]


def test_hexagon_obstructed(capsys):
    code, report = run(capsys, "hexagon", FIXTURES / "obstructed.json", "solve", "F")
    assert code == 1 and report["solved"] is False


# a frame whose kernels do not match: the one CI's console-script step refuses
BAD_FRAME = {
    "rings": {"R": {"kind": "Zmod", "m": 4}},
    "modules": {"Z2": {"ring": "R", "generators": 1, "relations": [[2]]},
                "O": {"ring": "R", "generators": 0, "relations": []}},
    "morphisms": {"id": {"source": "Z2", "target": "Z2", "matrix": [[1]]},
                  "zero": {"source": "Z2", "target": "Z2", "matrix": [[0]]},
                  "out": {"source": "Z2", "target": "O", "matrix": []}},
    "hexagons": {"F": {"A1": "Z2", "B1": "Z2", "B2": "Z2", "A4": "O", "A2": "Z2", "A3": "Z2", "alpha": "id",
                       "beta": "zero", "topB": "zero", "d": "id", "r": "out", "s": "out"}},
}


def inexact_document() -> dict:
    """fixtures/allsplit.json with a diagram Bad whose rowTop projection is
    zero and an extension Xbad of D whose m is zero."""
    doc = json.loads((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    doc["morphisms"]["zero_proj"] = {"source": "Z2xZ2", "target": "Z2", "matrix": [[0, 0]]}
    doc["morphisms"]["zero_m"] = {"source": "mid_X1", "target": "Z2xZ2", "matrix": [[0] * 4] * 2}
    doc["diagrams"]["Bad"] = {**doc["diagrams"]["D"], "rowTop": {"inject": "alpha", "project": "zero_proj"}}
    doc["extensions"]["Xbad"] = {**doc["extensions"]["X1"], "m": "zero_m"}
    return doc


@pytest.mark.parametrize("argv, name, violation", [
    (["extend", "Bad"], "Bad", "rowTop/right: image strictly smaller than kernel"),
    (["obstruction", "Bad"], "Bad", "rowTop/right: image strictly smaller than kernel"),
    (["unique", "Bad"], "Bad", "rowTop/right: image strictly smaller than kernel"),
    (["iso", "D", "X1", "Xbad"], "D", "second extension invalid: rowMid/interior 0"),
    (["hexagon", "solve", "F"], "F", "ker(alpha) != ker(beta) inside A1"),
], ids=["extend", "obstruction", "unique", "iso", "hexagon"])
def test_invalid_object_exits_1_with_the_validate_report(tmp_path, capsys, argv, name, violation):
    # one JSON document on stdout, with validate's keys, and nothing on stderr
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(BAD_FRAME if argv[0] == "hexagon" else inexact_document()), encoding="utf-8")
    code = main([argv[0], str(p), *argv[1:]])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 1 and err == ""
    assert set(report) == {"op", "name", "ok", "violations"}
    assert (report["op"], report["name"], report["ok"]) == (argv[0], name, False)
    assert any(v.startswith(violation) for v in report["violations"]), report["violations"]


@pytest.mark.parametrize("argv", [["validate", "F"], ["hexagon", "solve", "F"]], ids=["validate", "hexagon"])
def test_miswired_frame_exits_1(tmp_path, capsys, argv):
    # fixtures/allsplit.json with frame F's alpha naming topB's map, B1 -> B2
    doc = json.loads((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    doc["hexagons"]["F"]["alpha"] = doc["hexagons"]["F"]["topB"]
    p = tmp_path / "miswired.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code = main([argv[0], str(p), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["violations"] == ["alpha does not connect the declared objects"]


def test_validate_subcommand(capsys):
    for name, expect in (("D", 0), ("F", 0)):
        code, report = run(capsys, "validate", FIXTURES / "allsplit.json", name)
        assert code == expect and report["ok"]


def test_validate_every_named_object_of_every_fixture(capsys):
    kinds = collections.Counter()
    for path in sorted(FIXTURES.glob("*.json")):
        model = parse(path.read_text(encoding="utf-8"))
        for table in ("diagrams", "hexagons", "extensions", "morphisms", "modules"):
            for name in getattr(model, table):
                code, report = run(capsys, "validate", path, name)
                assert (code, report["ok"], report["kind"]) == (0, True, table[:-1]), (path.name, name)
                kinds[report["kind"]] += 1
    assert sum(kinds.values()) == 121 and len(kinds) == 5


def test_oracle_compare(capsys):
    code, report = run(capsys, "oracle-compare", FIXTURES / "allsplit.json", "Z2", "Z2")
    assert code == 0 and report["agree"]
    assert report["brute_classes"] == report["computed_order"] == 2


@pytest.mark.parametrize("budget, code, message", [
    ("abc", 2, "HEXEXT_BUDGET must be a positive integer"),
    ("0", 2, "HEXEXT_BUDGET must be a positive integer"),
    ("1", 2, "oracle budget exceeded"),
    ("64", 0, None),
])
def test_oracle_budget_from_the_environment(capsys, monkeypatch, budget, code, message):
    monkeypatch.setenv("HEXEXT_BUDGET", budget)
    assert main(["oracle-compare", str(FIXTURES / "allsplit.json"), "Z2", "Z2"]) == code
    captured = capsys.readouterr()
    if message is None:
        assert json.loads(captured.out)["agree"] and captured.err == ""
    else:
        assert captured.out == "" and captured.err.startswith("input error: " + message)


@pytest.mark.parametrize("budget, message", [
    ("9" * 5000, f"HEXEXT_BUDGET of 5000 digits exceeds the {sys.get_int_max_str_digits()}-digit limit"),
    ("-" + "9" * 5000, "HEXEXT_BUDGET must be a positive integer: a value of 5001 characters"),
    ("x" * 5000, "HEXEXT_BUDGET must be a positive integer: a value of 5000 characters"),
])
def test_oracle_budget_is_never_echoed_at_length(capsys, monkeypatch, budget, message):
    # a positive integer past Python's digit limit is named as such, and no
    # refused value is echoed in full
    monkeypatch.setenv("HEXEXT_BUDGET", budget)
    assert main(["oracle-compare", str(FIXTURES / "allsplit.json"), "Z2", "Z2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {message}\n" and "Traceback" not in err


@pytest.mark.parametrize("q, p", [("Zfree", "Z2"), ("Z2", "Zfree"), ("Zfree", "Zfree")])
def test_oracle_compare_names_an_infinite_module(capsys, monkeypatch, q, p):
    # no budget makes an infinite module finite, so the refusal names the
    # module, Q before P, not the budget
    monkeypatch.setenv("HEXEXT_BUDGET", "1000")
    assert main(["oracle-compare", str(FIXTURES / "zdiagram.json"), q, p]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: module 'Zfree' is infinite; the oracle compares finite modules only\n"


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", "no_such_file.json", "D"]) == 2
    # a directory and a document that is not UTF-8 are input errors too
    assert main(["ext", str(tmp_path), "-i", "1", "Q", "P"]) == 2
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"rings": {"R\xe9": {"kind": "Z"}}}')
    assert main(["validate", str(bad), "D"]) == 2
    err = capsys.readouterr().err
    assert err.count("input error:") == 3 and "Traceback" not in err


def test_bad_document_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(p), "D"]) == 2


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"rings": {"R": {"kind": "Z"}}, "modules": {"M": {"ring": "R", "generators": 1, "relations": '
    + "[" * 100_000 + "]" * 100_000 + "}}}",
], ids=["open-brackets", "nested-relations"])
def test_deeply_nested_document_exits_2(tmp_path, capsys, text):
    # written as text: json.dumps recurses as deep as the document nests
    p = tmp_path / "deep.json"
    p.write_text(text, encoding="utf-8")
    assert main(["validate", str(p), "M"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("entry", ["7" * 5000, '"' + "7" * 5000 + '"'], ids=["literal", "string"])
def test_integer_beyond_digit_limit_exits_2(tmp_path, capsys, entry):
    p = tmp_path / "bigint.json"
    p.write_text('{"rings": {"R": {"kind": "Z"}}, "modules": {"A": {"ring": "R", "generators": 1, '
                 '"relations": [[' + entry + ']]}}}', encoding="utf-8")
    assert main(["validate", str(p), "A"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "digits" in err and "Traceback" not in err


def test_answer_beyond_digit_limit_exits_2(tmp_path, capsys):
    # both 2,500-digit entries parse, but Ext^0(A, A) has an invariant factor of 4,998 digits
    p = tmp_path / "bigout.json"
    p.write_text('{"rings": {"R": {"kind": "Z"}}, "modules": {"A": {"ring": "R", "generators": 2, '
                 '"relations": [[' + "7" * 2500 + ', 0], [0, 1' + "0" * 2498 + '1]]}}}', encoding="utf-8")
    assert main(["ext", str(p), "-i", "0", "A", "A"]) == 2
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert out == ""
    assert err == f"input error: the answer cannot be written: an integer exceeds the {limit}-digit limit\n"
    assert "set_int_max_str_digits" not in err


def test_huge_generator_count_exits_2(tmp_path):
    # a 105-byte document whose count alone asks for 10^18 matrix rows; a
    # separate process, so that the memory it would ask for is not this one's
    p = tmp_path / "huge.json"
    p.write_text('{"rings":{"R":{"kind":"Z"}},"modules":{"A":{"ring":"R",'
                 '"generators":1000000000000000000,"relations":[]}}}', encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hexext.cli import main; sys.exit(main())",
         "validate", str(p), "A"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error: module A:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


MIXED_RINGS = {
    "rings": {"Z": {"kind": "Z"}, "R4": {"kind": "Zmod", "m": 4}},
    "modules": {"Q": {"ring": "Z", "generators": 1, "relations": [[2]]},
                "P": {"ring": "R4", "generators": 1, "relations": [[2]]}},
}


Z_RING = {"R": {"kind": "Z"}}
ONE_AND_TWO = {"M": {"ring": "R", "generators": 1, "relations": []},
               "N": {"ring": "R", "generators": 2, "relations": []}}


@pytest.mark.parametrize("doc,command,message", [
    ({"rings": {"R": 5}}, ["validate", "M"], "ring R: must be an object"),
    ({"rings": {"R": {"kind": "Zmod", "m": 1}}}, ["validate", "M"], "ring R: modulus must be an integer >= 2"),
    ({"rings": {"R": {"kind": "Z"}}, "modules": {"M": {"ring": "R", "generators": 1, "relations": [2]}}},
     ["validate", "M"], "module M: relations must be a list of columns"),
    ({"modules": [1]}, ["validate", "M"], "section 'modules' must be an object"),
    ({"diagrams": {"D": 5}}, ["validate", "M"], "diagram D: must be an object"),
    ({"rings": {"R": {"kind": "Z"}}, "modules": {"M": {"ring": ["R"], "generators": 1}}}, ["validate", "M"],
     "module M: unknown ring ['R']"),
    ({"rings": {"R": {"kind": "Zmod", "m": "\u00b2"}}}, ["validate", "M"], "not an integer"),
    ({"rings": {"R": {"kind": "Zmod", "m": "\u0664"}}, "modules": {"M": {"ring": "R", "generators": 1}}},
     ["validate", "M"], "not an integer"),
    ({"rings": {"R": {"kind": "Z"}}, "modules": {"M": {"ring": "R", "generators": 1, "relations": [["\u0663"]]}}},
     ["validate", "M"], "not an integer"),
    ({"rings": {"R": {"kind": "Z"}}, "modules": {"M": {"ring": "R", "generators": 1, "relations": []}},
      "morphisms": {"f": {"source": "M", "target": "M", "matrix": [["\uff10"]]}}}, ["validate", "f"],
     "not an integer"),
    (MIXED_RINGS, ["ext", "-i", "1", "Q", "P"], "modules 'Q' and 'P' are over different rings"),
    (MIXED_RINGS, ["oracle-compare", "Q", "P"], "modules 'Q' and 'P' are over different rings"),
    ({"rings": Z_RING, "modules": {"M": {"ring": "R", "generators": True}}}, ["validate", "M"],
     "booleans are not integers"),
    ({"rings": Z_RING, "modules": ONE_AND_TWO, "morphisms": {"f": {"source": "M", "target": "M", "matrix": 5}}},
     ["validate", "f"], "morphism f: matrix must be a list of rows"),
    ({"rings": Z_RING, "modules": ONE_AND_TWO,
      "morphisms": {"f": {"source": "M", "target": "N", "matrix": [[1], [1, 2]]}}},
     ["validate", "f"], "morphism f: ragged rows"),
    ({"rings": Z_RING, "modules": ONE_AND_TWO, "morphisms": {"f": {"source": "N", "target": "M", "matrix": [[1]]}}},
     ["validate", "f"], "morphism f: expected 2 columns, got 1"),
    ([1], ["validate", "M"], "document root must be an object"),
    ({"rings": {"R": {"kind": "Q"}}}, ["validate", "M"], "ring R: unknown kind 'Q'"),
    ({"rings": Z_RING, "modules": {"M": {"ring": "R", "generators": -1}}}, ["validate", "M"],
     "module M: negative generator count"),
    ({"rings": Z_RING, "modules": {"M": {"ring": "R", "generators": 2, "relations": [[1]]}}}, ["validate", "M"],
     "module M: relation column length must equal generators"),
    ({"rings": Z_RING, "modules": ONE_AND_TWO, "morphisms": {"f": {"source": "P", "target": "M", "matrix": [[1]]}}},
     ["validate", "f"], "morphism f: unknown source 'P'"),
    ({"rings": {**Z_RING, "R4": {"kind": "Zmod", "m": 4}},
      "modules": {**ONE_AND_TWO, "P": {"ring": "R4", "generators": 1}},
      "morphisms": {"f": {"source": "P", "target": "M", "matrix": [[1]]}}},
     ["validate", "f"], "morphism f: source and target rings differ"),
], ids=["ring-not-object", "modulus-1", "flat-relations", "modules-not-object", "diagram-not-object",
        "list-as-name", "superscript-digit", "arabic-indic-modulus", "arabic-indic-relation-entry",
        "full-width-matrix-entry", "ext-mixed-rings", "oracle-compare-mixed-rings",
        "boolean-generator-count", "matrix-not-rows", "ragged-rows", "wrong-column-count",
        "root-not-object", "unknown-ring-kind", "negative-generators", "short-relation-column",
        "unknown-source", "rings-differ"])
def test_malformed_document_exits_2(tmp_path, capsys, doc, command, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command[0], str(p), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("flags, reason", [
    (["--count", "2", "--max-order", "0"], "--max-order must be at least 1"),
    (["--count", "-3"], "--count must be at least 0"),
    (["--count", "1", "--ring", "Zmod+4"], "unknown ring 'Zmod+4'"),
    (["--count", "1", "--ring", "Zmod 4"], "unknown ring 'Zmod 4'"),
    (["--count", "1", "--ring", "Zmod4_0"], "unknown ring 'Zmod4_0'"),
    (["--count", "1", "--ring", "Zmod\u0664"], "unknown ring"),
    (["--count", "1", "--ring", "Zmod1"], "ring 'Zmod1': modulus must be an integer >= 2"),
    (["--count", "1", "--ring", "Zmod0"], "ring 'Zmod0': modulus must be an integer >= 2"),
], ids=["max-order-0", "count-negative", "ring-plus-sign", "ring-space", "ring-underscore", "ring-arabic-indic-digit",
        "ring-modulus-1", "ring-modulus-0"])
def test_fuzz_rejects_out_of_range_flags(flags, reason):
    # a separate process with a timeout, so that a generator looping forever
    # fails the test instead of hanging the suite
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hexext.cli import main; sys.exit(main())",
         "fuzz", "--ring", "Zmod4", "--seed", "1", *flags],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr
    assert reason in proc.stderr


def test_fuzz_over_a_huge_modulus_finishes():
    # the generator's factor pool is cut at max_order, so its cost does not
    # grow with the modulus; a timeout fails the test instead of hanging
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hexext.cli import main; sys.exit(main())",
         "fuzz", "--ring", "Zmod1000000000000", "--seed", "1", "--count", "20"],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failures"] == 0


def test_fuzz_over_a_modulus_past_the_digit_limit_exits_2(capsys):
    # 5,000 nines are past Python's limit on digits per int: the one line on
    # stderr names the digit count and the limit, not the modulus itself
    assert main(["fuzz", "--ring", "Zmod" + "9" * 5000, "--seed", "1", "--count", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert err == f"input error: ring modulus of 5000 digits exceeds the {sys.get_int_max_str_digits()}-digit limit\n"
    assert "set_int_max_str_digits" not in err


_NINES = "9" * 5000


@pytest.mark.parametrize("argv, message", [
    (["ext", str(FIXTURES / "allsplit.json"), "-i", _NINES, "Z2", "Z2"], "argument -i: integer of 5000 digits"),
    (["fuzz", "--ring", "Zmod4", "--seed", _NINES, "--count", "1"], "argument --seed: integer of 5000 digits"),
    (["fuzz", "--ring", "Zmod4", "--seed", "1", "--count", _NINES], "argument --count: integer of 5000 digits"),
    (["fuzz", "--ring", "Zmod4", "--seed", "1", "--count", "1", "--max-order", _NINES],
     "argument --max-order: integer of 5000 digits"),
    (["fuzz", "--ring", "Zmod4", "--seed", "x" * 5000, "--count", "1"],
     "argument --seed: invalid int value: a value of 5000 characters"),
], ids=["i", "seed", "count", "max-order", "seed-not-digits"])
def test_integer_flag_is_never_echoed_at_length(capsys, argv, message):
    # an integer flag past Python's digit limit is named by its digit count
    # and the limit, and no refused value is echoed in full
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and len(err.encode()) < 400
    assert message in err and "set_int_max_str_digits" not in err
    if "digits" in message:
        assert f"{message} exceeds the {sys.get_int_max_str_digits()}-digit limit\n" in err


_ALLSPLIT, _LONG_NINES, _LONG_NAME = str(FIXTURES / "allsplit.json"), "9" * 4000, "N" * 4000
_LONG = "a value of 4000 characters"


def _named_document() -> str:
    """allsplit.json with a ring Z and, for a long and a short name each, a
    free module over Z and a copy of diagram D, with an extension solving
    that copy (XL for the long name, XS for E), beside Z2z = Z/2 over Z."""
    doc = json.loads(pathlib.Path(_ALLSPLIT).read_text(encoding="utf-8"))
    doc["rings"]["Z"] = {"kind": "Z"}
    doc["modules"]["Z2z"] = {"ring": "Z", "generators": 1, "relations": [[2]]}
    for name, ext_name in ((_LONG_NAME, "XL"), ("E", "XS")):
        doc["modules"][name] = {"ring": "Z", "generators": 1, "relations": []}
        doc["diagrams"][name] = doc["diagrams"]["D"]
        doc["extensions"][ext_name] = {**doc["extensions"]["X1"], "diagram": name}
    return json.dumps(doc)


@pytest.mark.parametrize("argv, message", [
    (["ext", _ALLSPLIT, "-i", _LONG_NINES, "Z2", "Z2"],
     f"argument -i: invalid choice: {_LONG} (choose from 0, 1, 2)"),
    (["fuzz", "--ring", "Zmod4", "--seed", "1", "--count", "-" + _LONG_NINES],
     "--count must be at least 0, got a value of 4001 characters"),
    (["fuzz", "--ring", "Zmod4", "--seed", "1", "--count", "1", "--max-order", "-" + _LONG_NINES],
     "--max-order must be at least 1, got a value of 4001 characters"),
    (["hexagon", _ALLSPLIT, "solve" + _LONG_NINES, "F"],
     "argument {solve}: invalid choice: a value of 4005 characters (choose from 'solve')"),
    (["extend", _ALLSPLIT, _LONG_NAME], f"no diagram named {_LONG} in the document"),
    (["hexagon", _ALLSPLIT, "solve", _LONG_NAME], f"no hexagon named {_LONG} in the document"),
    (["validate", _ALLSPLIT, _LONG_NAME], f"nothing named {_LONG} in the document"),
    (["iso", _ALLSPLIT, _LONG_NAME, "X1", "X2"], f"no diagram named {_LONG} in the document"),
    (["iso", _ALLSPLIT, "D", "X1", _LONG_NAME], f"no extension named {_LONG} in the document"),
    (["fuzz", "--ring", "Q" + _LONG_NINES, "--seed", "1", "--count", "1"],
     "unknown ring a value of 4001 characters (use Z or Zmod<m>)"),
    (["ext", _ALLSPLIT, "-i", "3", "Z2", "Z2"], "argument -i: invalid choice: 3 (choose from 0, 1, 2)"),
    (["hexagon", _ALLSPLIT, "solved", "F"], "argument {solve}: invalid choice: 'solved' (choose from 'solve')"),
    (["ext", "-", "-i", "1", _LONG_NAME, "Z2"], f"modules {_LONG} and 'Z2' are over different rings"),
    (["oracle-compare", "-", _LONG_NAME, "Z2z"], f"module {_LONG} is infinite; the oracle compares finite modules only"),
    (["iso", "-", "D", "X1", "XL"], f"extension 'XL' solves diagram {_LONG}, not 'D'"),
    (["ext", "-", "-i", "1", "E", "Z2"], "modules 'E' and 'Z2' are over different rings"),
    (["oracle-compare", "-", "E", "Z2z"], "module 'E' is infinite; the oracle compares finite modules only"),
    (["iso", "-", "D", "X1", "XS"], "extension 'XS' solves diagram 'E', not 'D'"),
], ids=["i", "count", "max-order", "hexagon-action", "diagram", "frame", "validate", "iso-diagram", "iso-extension",
        "ring", "i-short", "hexagon-action-short", "rings", "infinite", "iso-solved", "rings-short", "infinite-short",
        "iso-solved-short"])
def test_refused_value_is_echoed_only_when_short(capsys, monkeypatch, argv, message):
    # a value or name from the command line or a document that is refused is
    # echoed in full up to 20 characters, else by its length; a document
    # named "-" is read from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(_named_document()))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.encode()) < 400 and "Traceback" not in err
    assert message in err


def test_unknown_name_exits_2(capsys):
    assert main(["validate", str(FIXTURES / "allsplit.json"), "nope"]) == 2
    assert main(["extend", str(FIXTURES / "allsplit.json"), "Nope"]) == 2
    err = capsys.readouterr().err
    assert "no diagram named 'Nope'" in err and "Traceback" not in err


def test_stdin_document(capsys, monkeypatch):
    text = (FIXTURES / "zdiagram.json").read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, report = run(capsys, "validate", "-", "D")
    assert code == 0 and report["ok"]


def test_fuzz_deterministic(capsys):
    code1, r1 = run(capsys, "fuzz", "--ring", "Zmod4", "--seed", "9", "--count", "4")
    out1 = json.dumps(r1, sort_keys=True)
    code2, r2 = run(capsys, "fuzz", "--ring", "Zmod4", "--seed", "9", "--count", "4")
    out2 = json.dumps(r2, sort_keys=True)
    assert code1 == code2 == 0
    assert out1 == out2
    assert r1["summary"]["failures"] == 0


def test_fuzz_over_z(capsys):
    code, report = run(capsys, "fuzz", "--ring", "Z", "--seed", "3", "--count", "3")
    assert code == 0
    assert report["summary"]["obstructed"] == 0


# -- mutated fixtures ------------------------------------------------------------

MUTANT_VALUES = (None, True, 0, 1, -1, 3, 10 ** 20, 1.5, "", "Z2", [], {}, [[1]], [[0, 1], [1, 0]])


def _mutate(rng, doc) -> str:
    """Replace one value of ``doc``, delete one of its keys or pop one of its
    list entries, at any depth below the top; return what was done."""
    places = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            places.append((node, key, f"{path}/{key}"))
            walk(value, f"{path}/{key}")

    walk(doc, "")
    node, key, path = rng.choice(places)
    if rng.random() < 0.5:
        value = rng.choice(MUTANT_VALUES)
        node[key] = json.loads(json.dumps(value))
        return f"{path} = {value!r}"
    del node[key]
    return f"del {path}"


def _document_commands(doc) -> list[list[str]]:
    """Every subcommand that reads a document, on names ``doc`` defines."""
    modules = sorted(doc.get("modules", {}))
    extensions = sorted(doc.get("extensions", {}))
    commands = [["ext", "-", "-i", str(i), modules[0], modules[-1]] for i in (0, 1, 2)]
    commands += [["oracle-compare", "-", modules[0], modules[1]]]
    commands += [["validate", "-", name] for table in ("modules", "diagrams", "hexagons", "extensions")
                 for name in sorted(doc.get(table, {}))[:2]]
    for d in sorted(doc.get("diagrams", {})):
        commands += [[op, "-", d] for op in ("extend", "obstruction", "unique")]
        commands += [["iso", "-", d, extensions[0], extensions[-1]]] if extensions else []
    commands += [["hexagon", "-", "solve", f] for f in sorted(doc.get("hexagons", {}))]
    return commands


def test_mutated_fixtures_exit_with_a_code_and_a_short_message(capsys, monkeypatch):
    # a shipped fixture with a value replaced, a key deleted or a list entry
    # popped, once or twice, answers every subcommand that reads a document
    # with exit 0, 1 or 2 (argparse's own exit included), lets no other
    # exception escape, and keeps stderr short
    rng = random.Random("mutated fixtures")
    fixtures = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.json"))}
    codes, ops = collections.Counter(), collections.Counter()
    for _ in range(500):
        name = rng.choice(sorted(fixtures))
        doc = json.loads(json.dumps(fixtures[name]))
        argv = rng.choice(_document_commands(doc))
        done = [_mutate(rng, doc) for _ in range(rng.choice((1, 1, 2)))]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any other escape is the finding
            pytest.fail(f"{name}.json with {done}, {argv}: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (name, done, argv, code)
        assert len(err.encode()) < 400, (name, done, argv, err[:400])
        codes[code] += 1
        ops[argv[0]] += 1
    assert set(ops) == {"ext", "oracle-compare", "validate", "extend", "obstruction", "unique", "iso", "hexagon"}, ops
    # most mutants exit 2; some still reach the engine and answer
    assert codes[2] >= 300 and codes[0] >= 10 and codes[1] >= 2, codes
