"""Command-line interface.

Subcommands operate on a JSON document (path or ``-`` for stdin) and emit a
JSON report on stdout.  Exit codes: 0 when the computation succeeds and the
checked property holds, 1 when a property fails, a diagram does not extend
or the diagram, extension or frame asked about is invalid (reported with
``validate``'s keys), 2 for input errors.

    hexext ext DOC -i {0|1|2} Q P
    hexext obstruction DOC D
    hexext extend DOC D
    hexext unique DOC D
    hexext iso DOC D EXT1 EXT2
    hexext hexagon DOC solve F
    hexext validate DOC NAME
    hexext oracle-compare DOC Q P
    hexext fuzz --ring RING --seed N --count N [--max-order N]

The environment variable ``HEXEXT_BUDGET`` overrides the oracle's maximum
order, of Q, P and the middle object, for ``oracle-compare``.  All
randomness in ``fuzz`` derives from ``--seed``; reports are byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .diagram import (
    check_uniqueness,
    compatible_isomorphism,
    extend_diagram,
    obstruction,
    validate_diagram1,
    validate_extension,
)
from .document import DocumentModel, ParseError, SemanticError, _beyond_digit_limit, parse
from .errors import (
    BudgetExceededError,
    ClassesDifferError,
    FrameInvalidError,
    InvalidDiagramError,
    LambdaNotExtendableError,
    NotExtendableError,
)
from .ext import ExtClass, ext_module
from .hexagon import solve_hexagon, validate_frame, verify_hexagon
from .modules import PresentedModule
from .oracle import EnumerationBudget, brute_ext1
from .randgen import random_diagram
from .rings import RingSpec, ZZ, Zmod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _module_report(m: PresentedModule) -> dict:
    return {
        "invariant_factors": list(m.invariant_factors()),
        "free_rank": m.free_rank(),
        "generators": m.generators,
    }


def _class_report(c: ExtClass) -> dict:
    return {
        "coords": list(c.coords),
        "group": _module_report(c.parent.presentation),
        "is_zero": c.is_zero(),
    }


def _matrix_report(mat) -> list[list[int]]:
    return [list(r) for r in mat.data]


def _emit(report: dict, code: int) -> int:
    try:
        text = json.dumps(report, sort_keys=True, indent=2)
    except ValueError as exc:  # an integer of the answer beyond Python's digit limit
        raise SemanticError(f"the answer cannot be written: {_beyond_digit_limit('an integer')}") from exc
    sys.stdout.write(text + "\n")
    return code


def _load(path: str) -> DocumentModel:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(None, f"cannot read {path}: {exc}") from exc
    return parse(text)


def _need(model: DocumentModel, table: str, name: str):
    d = getattr(model, table)
    if name not in d:
        raise SemanticError(f"no {table[:-1]} named {_shown(name)} in the document")
    return d[name]


def _module_pair(model: DocumentModel, q_name: str, p_name: str):
    """The modules Q and P of an Ext computation; both must be over one ring."""
    q = _need(model, "modules", q_name)
    p = _need(model, "modules", p_name)
    if q.ring != p.ring:
        raise SemanticError(f"modules {q_name!r} and {p_name!r} are over different rings")
    return q, p


def _cmd_ext(args) -> int:
    model = _load(args.document)
    q, p = _module_pair(model, args.q, args.p)
    e = ext_module(args.degree, q, p)
    return _emit({"op": "ext", "degree": args.degree, "Q": args.q, "P": args.p,
                  "group": _module_report(e.presentation)}, EXIT_OK)


def _cmd_obstruction(args) -> int:
    model = _load(args.document)
    d = _need(model, "diagrams", args.diagram)
    ob = obstruction(d)
    report = {
        "op": "obstruction", "diagram": args.diagram,
        "yoneda_EF": _class_report(ob.yoneda_ef),
        "yoneda_HG": _class_report(ob.yoneda_hg),
        "baer_sum": _class_report(ob.baer_sum),
        "is_zero": ob.is_zero,
    }
    return _emit(report, EXIT_OK if ob.is_zero else EXIT_FAIL)


def _not_extendable(op: str, name: str, exc: NotExtendableError) -> int:
    """The exit-1 report of a subcommand asked about a diagram that does not
    extend."""
    report = {"op": op, "diagram": name, "extendable": False,
              "obstruction": _class_report(exc.report.baer_sum)}
    return _emit(report, EXIT_FAIL)


def _cmd_extend(args) -> int:
    model = _load(args.document)
    d = _need(model, "diagrams", args.diagram)
    try:
        ext = extend_diagram(d)
    except NotExtendableError as exc:
        return _not_extendable("extend", args.diagram, exc)
    report = {
        "op": "extend", "diagram": args.diagram, "extendable": True,
        "X": _module_report(ext.x),
        "i": _matrix_report(ext.i.matrix), "j": _matrix_report(ext.j.matrix),
        "m": _matrix_report(ext.m.matrix), "n": _matrix_report(ext.n.matrix),
        "valid": validate_extension(d, ext) == [],
    }
    return _emit(report, EXIT_OK)


def _cmd_unique(args) -> int:
    model = _load(args.document)
    d = _need(model, "diagrams", args.diagram)
    try:
        rep = check_uniqueness(d)
    except NotExtendableError as exc:
        return _not_extendable("unique", args.diagram, exc)
    report = {
        "op": "unique", "diagram": args.diagram, "unique": rep.unique,
        "restriction": _matrix_report(rep.restriction.matrix),
        "image": _module_report(rep.image),
    }
    return _emit(report, EXIT_OK if rep.unique else EXIT_FAIL)


def _cmd_iso(args) -> int:
    model = _load(args.document)
    d = _need(model, "diagrams", args.diagram)
    e1 = _need(model, "extensions", args.ext1)
    e2 = _need(model, "extensions", args.ext2)
    for name in (args.ext1, args.ext2):
        solved = model.extension_diagram_names[name]
        if solved != args.diagram:
            raise SemanticError(f"extension {_shown(name)} solves diagram {solved!r}, not {_shown(args.diagram)}")
    try:
        phi = compatible_isomorphism(d, e1, e2)
    except ClassesDifferError as exc:
        return _emit({"op": "iso", "found": False, "reason": f"classes differ: {exc}"}, EXIT_FAIL)
    except LambdaNotExtendableError as exc:
        return _emit({"op": "iso", "found": False, "reason": f"correction not extendable: {exc}"}, EXIT_FAIL)
    return _emit({"op": "iso", "found": True, "matrix": _matrix_report(phi.matrix)}, EXIT_OK)


def _cmd_hexagon(args) -> int:
    model = _load(args.document)
    frame = _need(model, "hexagons", args.frame)
    try:
        solved = solve_hexagon(frame)
    except NotExtendableError as exc:
        report = {"op": "hexagon", "frame": args.frame, "solved": False,
                  "obstruction": _class_report(exc.report.baer_sum)}
        return _emit(report, EXIT_FAIL)
    report = {
        "op": "hexagon", "frame": args.frame, "solved": True,
        "center": _module_report(solved.center),
        "i": _matrix_report(solved.i.matrix), "j": _matrix_report(solved.j.matrix),
        "c": _matrix_report(solved.c.matrix), "curv": _matrix_report(solved.curv.matrix),
        "verified": verify_hexagon(solved) == [],
    }
    return _emit(report, EXIT_OK)


def _cmd_validate(args) -> int:
    model = _load(args.document)
    name = args.name
    if name in model.diagrams:
        violations = validate_diagram1(model.diagrams[name])
        kind = "diagram"
    elif name in model.hexagons:
        violations = validate_frame(model.hexagons[name])
        kind = "hexagon"
    elif name in model.extensions:
        dname = model.extension_diagram_names[name]
        violations = validate_extension(model.diagrams[dname], model.extensions[name])
        kind = "extension"
    elif name in model.morphisms:
        violations = []  # certificates re-checked on load
        kind = "morphism"
    elif name in model.modules:
        violations = []
        kind = "module"
    else:
        raise SemanticError(f"nothing named {_shown(name)} in the document")
    report = {"op": "validate", "name": name, "kind": kind,
              "ok": violations == [], "violations": violations}
    return _emit(report, EXIT_OK if not violations else EXIT_FAIL)


def _to_int(text: str, what: str) -> int | None:
    """``text`` as an int, or ``None`` if it is not one: the command line's
    one conversion of text to an int.  Digits past Python's limit per int
    raise :class:`SemanticError` naming ``what`` and the limit."""
    try:
        return int(text)
    except ValueError as exc:
        digits = text.strip()
        if digits.isascii() and digits.isdigit():
            raise SemanticError(_beyond_digit_limit(f"{what} of {len(digits)} digits")) from exc
        return None


def _shown(value) -> str:
    """A refused value or name from the command line as echoed in a message:
    its ``repr`` if its text is short, else its length."""
    text = str(value)
    return repr(value) if len(text) <= 20 else f"a value of {len(text)} characters"


def _int_flag(text: str) -> int:
    """The ``type`` of every integer flag, refusing a value in a short message."""
    try:
        value = _to_int(text, "integer")
    except SemanticError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")
    return value


def _choice(convert, choices):
    """The ``type`` of an argument with a fixed set of values, refusing any
    other in a short message; its ``metavar`` lists the values for usage."""
    def check(text):
        value = convert(text)
        if value not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(f"invalid choice: {_shown(value)} (choose from {listed})")
        return value
    return check


def _oracle_budget() -> EnumerationBudget:
    """The oracle's budget, with ``HEXEXT_BUDGET`` as its maximum order."""
    raw = os.environ.get("HEXEXT_BUDGET")
    if not raw:
        return EnumerationBudget()
    order = _to_int(raw, "HEXEXT_BUDGET")
    if order is None or order < 1:
        raise SemanticError(f"HEXEXT_BUDGET must be a positive integer: {_shown(raw)}")
    return EnumerationBudget(max_order=order)


def _cmd_oracle_compare(args) -> int:
    model = _load(args.document)
    q, p = _module_pair(model, args.q, args.p)
    for name, m in ((args.q, q), (args.p, p)):
        if m.cardinality() is None:
            raise SemanticError(f"module {name!r} is infinite; the oracle compares finite modules only")
    budget = _oracle_budget()
    try:
        brute = brute_ext1(q, p, budget)
    except BudgetExceededError as exc:
        raise SemanticError(f"oracle budget exceeded: {exc}") from exc
    computed = ext_module(1, q, p).cardinality()
    agree = brute.count == computed
    report = {"op": "oracle-compare", "Q": args.q, "P": args.p,
              "brute_classes": brute.count, "computed_order": computed, "agree": agree}
    return _emit(report, EXIT_OK if agree else EXIT_FAIL)


def _parse_ring(text: str) -> RingSpec:
    if text == "Z":
        return ZZ
    digits = text[4:]
    if text.startswith("Zmod") and digits.isascii() and digits.isdigit():
        try:
            return Zmod(_to_int(digits, "ring modulus"))
        except ValueError as exc:
            raise SemanticError(f"ring {_shown(text)}: {exc}") from exc
    raise SemanticError(f"unknown ring {_shown(text)} (use Z or Zmod<m>)")


def _cmd_fuzz(args) -> int:
    ring = _parse_ring(args.ring)
    if args.count < 0:
        raise SemanticError(f"--count must be at least 0, got {_shown(args.count)}")
    if args.max_order < 1:
        raise SemanticError(f"--max-order must be at least 1, got {_shown(args.max_order)}")
    rng = random.Random(args.seed)
    cases = []
    failures = 0
    for idx in range(args.count):
        d = random_diagram(rng, ring, args.max_order)
        ob = obstruction(d)
        entry = {
            "index": idx,
            "corners": {k: _module_report(getattr(d, k)) for k in ("p", "r", "s", "q")},
            "obstruction_zero": ob.is_zero,
        }
        try:
            ext = extend_diagram(d)
            entry["extended"] = True
            entry["extension_valid"] = validate_extension(d, ext) == []
            entry["X"] = _module_report(ext.x)
        except NotExtendableError:
            entry["extended"] = False
            entry["extension_valid"] = None
        law = entry["extended"] == ob.is_zero and entry.get("extension_valid") in (True, None)
        entry["law_holds"] = law
        if not law:
            failures += 1
        if entry["extended"]:
            entry["unique"] = check_uniqueness(d).unique
        cases.append(entry)
    report = {
        "op": "fuzz", "ring": args.ring, "seed": args.seed, "count": args.count,
        "max_order": args.max_order,
        "cases": cases,
        "summary": {
            "extended": sum(1 for c in cases if c["extended"]),
            "obstructed": sum(1 for c in cases if not c["extended"]),
            "failures": failures,
        },
    }
    return _emit(report, EXIT_OK if failures == 0 else EXIT_FAIL)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hexext",
                                 description="exact diagram-extension and hexagon computations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ext", help="compute Ext^i(Q, P)")
    p.add_argument("document")
    p.add_argument("-i", dest="degree", type=_choice(_int_flag, (0, 1, 2)), metavar="{0,1,2}", required=True)
    p.add_argument("q", metavar="Q")
    p.add_argument("p", metavar="P")
    p.set_defaults(func=_cmd_ext)

    p = sub.add_parser("obstruction", help="extendability obstruction of a diagram")
    p.add_argument("document")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("extend", help="construct a middle object")
    p.add_argument("document")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("unique", help="uniqueness of the middle object's class")
    p.add_argument("document")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_unique)

    p = sub.add_parser("iso", help="compatible isomorphism between two extensions")
    p.add_argument("document")
    p.add_argument("diagram")
    p.add_argument("ext1")
    p.add_argument("ext2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("hexagon", help="solve a hexagon frame")
    p.add_argument("document")
    p.add_argument("action", type=_choice(str, ("solve",)), metavar="{solve}")
    p.add_argument("frame")
    p.set_defaults(func=_cmd_hexagon)

    p = sub.add_parser("validate", help="validate a named object")
    p.add_argument("document")
    p.add_argument("name")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("oracle-compare", help="brute-force vs computed Ext^1")
    p.add_argument("document")
    p.add_argument("q", metavar="Q")
    p.add_argument("p", metavar="P")
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("fuzz", help="seeded law-checking over random diagrams")
    p.add_argument("--ring", required=True)
    p.add_argument("--seed", type=_int_flag, required=True)
    p.add_argument("--count", type=_int_flag, required=True)
    p.add_argument("--max-order", type=_int_flag, default=16)
    p.set_defaults(func=_cmd_fuzz)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SemanticError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (InvalidDiagramError, FrameInvalidError) as exc:
        # the subcommands that raise these name a frame or a diagram
        name = args.frame if args.command == "hexagon" else args.diagram
        return _emit({"op": args.command, "name": name, "ok": False, "violations": exc.violations}, EXIT_FAIL)


if __name__ == "__main__":
    sys.exit(main())
