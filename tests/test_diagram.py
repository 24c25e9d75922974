"""The 3x3 extension problem: obstruction, construction, uniqueness,
compatible isomorphisms."""

import collections
import gc
import itertools
import pathlib
import random
import re
import sys
import weakref
from dataclasses import replace

import pytest

import hexext.diagram as diagram_module
import hexext.ext as ext_namespace
import hexext.linalg as linalg_module
import hexext.modules as modules_module
from hexext.diagram import (
    Diagram3x3,
    DiagramExtension,
    _connecting_image,
    _is_coboundary,
    _realize,
    _solve_restriction,
    _tau,
    build_Y,
    check_uniqueness,
    compatible_isomorphism,
    enumerate_extensions,
    extend_diagram,
    obstruction,
    validate_diagram1,
    validate_extension,
)
from hexext.document import parse
from hexext.errors import (
    BudgetExceededError,
    ClassesDifferError,
    HexextError,
    InvalidDiagramError,
    LambdaNotExtendableError,
    NotExtendableError,
)
from hexext.ext import (
    class_of_ses,
    ext_module,
    ses_of_class,
)
from hexext.hexagon import fold_frame, solve_hexagon
from hexext.linalg import ExactMatrix
from hexext.modules import (
    ModuleMorphism,
    PresentedModule,
    ShortExactSequence,
    direct_sum,
    exactness_violations,
    hom,
    lift,
    make_ses,
    split_ses,
    zero_morphism,
)
from hexext.oracle import EnumerationBudget, enumerate_morphisms
from hexext.randgen import frame_from_diagram, perturb_extension, random_diagram
from hexext.rings import ZZ, Zmod
import routes
from routes import (
    _transport_matrix,
    connecting_alpha,
    extend_with_variant_cocycle,
    grid_maps_over_x,
    identity_morphism,
    is_injective_module,
    middle_maps,
    morphism_cokernel,
    projection_to_y_through_pullback,
    restriction_solve_over_ext,
    snake_connecting,
    sum_diagram,
    tau_ses,
    transport_contravariant,
    yoneda_product_of_ses,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
R4 = Zmod(4)
Z2m = PresentedModule.cyclic(R4, 2)
Z4m = PresentedModule.free(R4, 1)
Zf = PresentedModule.free(ZZ, 1)


def nonsplit_mod4():
    e = ext_module(1, Z2m, Z2m)
    return ses_of_class(e.class_from_coords((1,)))


def example_a():
    """Nonsplit top row and right column, split elsewhere; obstructed."""
    ns = nonsplit_mod4()
    sp = split_ses(Z2m, Z2m)
    return Diagram3x3(row_top=ns, row_bottom=sp, col_left=sp, col_right=ns)


def all_split():
    sp = split_ses(Z2m, Z2m)
    return Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp, col_right=sp)


# -- validation -----------------------------------------------------------------


def test_validate_all_split_ok():
    assert validate_diagram1(all_split()) == []


def test_validate_example_a_ok():
    assert validate_diagram1(example_a()) == []


def test_validate_flags_nonsurjective_projection():
    sp = split_ses(Z2m, Z2m)
    broken = ShortExactSequence(sp.inject, zero_morphism(sp.middle, sp.right))
    d = Diagram3x3(row_top=broken, row_bottom=sp, col_left=sp, col_right=sp)
    out = validate_diagram1(d)
    assert any("rowTop" in v for v in out)


def test_validate_reports_maps_that_do_not_compose():
    sp = split_ses(Z2m, Z2m)
    sp4 = split_ses(Z4m, Z4m)
    broken = ShortExactSequence(sp.inject, sp4.project)
    d = Diagram3x3(row_top=broken, row_bottom=sp, col_left=sp, col_right=sp)
    assert "rowTop: maps 0 and 1 do not compose" in validate_diagram1(d)


def test_validate_passes_engine_faults_through(monkeypatch):
    d = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8")).diagrams["D"]

    def fault(*_args):
        raise AssertionError("engine fault")

    monkeypatch.setattr(diagram_module, "exactness_violations", fault)
    with pytest.raises(AssertionError, match="^engine fault$"):
        validate_diagram1(d)


def test_validate_flags_corner_mismatch():
    sp = split_ses(Z2m, Z2m)
    sp4 = split_ses(Z4m, Z4m)
    d = Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp4, col_right=sp)
    assert any("corner" in v for v in validate_diagram1(d))


def _with_zero_relation(m: PresentedModule) -> PresentedModule:
    """The same module with one more, zero, relation column: isomorphic to
    ``m`` but a different value."""
    return PresentedModule(m.relations.hstack(ExactMatrix.zeros(m.ring, m.generators, 1)))


# one targeted change to allsplit's D, or to its solution X1, per violation
DIAGRAM_VIOLATIONS = {
    "corner R differs between rowTop and colRight":
        lambda d: replace(d, col_right=split_ses(_with_zero_relation(d.r), d.q)),
    "corner Q differs between colRight and rowBottom":
        lambda d: replace(d, row_bottom=split_ses(d.s, _with_zero_relation(d.q))),
}
EXTENSION_VIOLATIONS = {
    "wrong sources for i or j":
        lambda d, ext: replace(ext, i=ModuleMorphism(_with_zero_relation(d.h), ext.x, ext.i.matrix)),
    "wrong targets for m or n":
        lambda d, ext: replace(ext, m=ModuleMorphism(ext.x, _with_zero_relation(d.f), ext.m.matrix)),
    "maps do not meet the middle object":
        lambda d, ext: replace(ext, x=_with_zero_relation(ext.x)),
    "square P: j o nu != i o mu":
        lambda d, ext: replace(ext, j=zero_morphism(d.e, ext.x)),
    "square E-F: m o j != (R->F) o (E->R)":
        lambda d, ext: replace(ext, m=zero_morphism(ext.x, d.f)),
}


@pytest.mark.parametrize("message", sorted(DIAGRAM_VIOLATIONS) + sorted(EXTENSION_VIOLATIONS))
def test_every_violation_can_fire(message):
    model = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    d, ext = model.diagrams["D"], model.extensions["X1"]
    assert validate_diagram1(d) == [] and validate_extension(d, ext) == []
    if message in DIAGRAM_VIOLATIONS:
        out = validate_diagram1(DIAGRAM_VIOLATIONS[message](d))
    else:
        out = validate_extension(d, EXTENSION_VIOLATIONS[message](d, ext))
    assert message in out


def test_a_sequence_is_its_maps():
    # a row cannot claim ends its maps do not have: rowTop starts at Z/4, so
    # the shared corner P differs, and the diagram fails at the boundary
    # instead of deep inside Ext
    sp = split_ses(Z2m, Z2m)
    top = split_ses(Z4m, Z2m)
    assert (top.left, top.middle, top.right) == (top.inject.source, top.inject.target, top.project.target)
    d = Diagram3x3(row_top=top, row_bottom=sp, col_left=sp, col_right=sp)
    assert validate_diagram1(d) == ["corner P differs between rowTop and colLeft"]
    with pytest.raises(InvalidDiagramError, match="corner P differs between rowTop and colLeft"):
        obstruction(d)


# -- obstruction ------------------------------------------------------------------


def test_obstruction_example_a_nonzero():
    ob = obstruction(example_a())
    assert not ob.yoneda_ef.is_zero()
    assert ob.yoneda_hg.is_zero()
    assert not ob.is_zero


def test_obstruction_all_split_zero():
    ob = obstruction(all_split())
    assert ob.yoneda_ef.is_zero() and ob.yoneda_hg.is_zero() and ob.is_zero


def test_obstruction_over_z_always_zero():
    rng = random.Random(4)
    for _ in range(5):
        d = random_diagram(rng, ZZ, 16)
        assert obstruction(d).is_zero


def test_obstruction_requires_valid_diagram():
    sp = split_ses(Z2m, Z2m)
    sp4 = split_ses(Z4m, Z4m)
    d = Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp4, col_right=sp)
    with pytest.raises(InvalidDiagramError):
        obstruction(d)


# every public entry taking a diagram, called on a diagram and one extension
ENTRIES = {
    "obstruction": lambda d, ext: obstruction(d),
    "build_Y": lambda d, ext: build_Y(d),
    "extend_diagram": lambda d, ext: extend_diagram(d),
    "enumerate_extensions": lambda d, ext: enumerate_extensions(d),
    "check_uniqueness": lambda d, ext: check_uniqueness(d),
    "compatible_isomorphism": lambda d, ext: compatible_isomorphism(d, ext, ext),
    "extend_with_variant_cocycle": lambda d, ext: extend_with_variant_cocycle(random.Random(0), d),
}


def _count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of each call of ``hexext.diagram.<name>`` and
    pass the call through."""
    calls = []
    real = getattr(diagram_module, name)
    monkeypatch.setattr(diagram_module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_validates_diagram_once(entry, monkeypatch):
    # validated, and Y pulled back, at most once per diagram object: exactly
    # once on a fresh object, and not again when the entry asks a second
    # time; every entry that builds Y snake-checks it, once, and a compatible
    # isomorphism that is found builds no Y
    ext = extend_diagram(all_split())
    seen = _count_calls(monkeypatch, "validate_diagram1")
    pullbacks = _count_calls(monkeypatch, "pullback")
    snakes = _count_calls(monkeypatch, "_snake_cross_check")
    d = all_split()
    ENTRIES[entry](d, ext)
    assert len(seen) == 1 and seen[0][0] is d
    assert len(pullbacks) <= 1
    assert len(snakes) == (0 if entry in ("obstruction", "compatible_isomorphism") else 1)
    ENTRIES[entry](d, ext)
    assert len(seen) == 1 and len(pullbacks) <= 1
    assert len(snakes) == (0 if entry in ("obstruction", "compatible_isomorphism") else 1)


def test_memo_answers_later_entries_on_the_same_object(monkeypatch):
    # the questions a fuzz case asks of one diagram: one validation, one Y,
    # one round of the two spliced products
    validations = _count_calls(monkeypatch, "validate_diagram1")
    pullbacks = _count_calls(monkeypatch, "pullback")
    products = _count_calls(monkeypatch, "_obstruction")
    d = all_split()
    obstruction(d)
    extend_diagram(d)
    assert (len(validations), len(pullbacks), len(products)) == (1, 1, 1)
    check_uniqueness(d)
    enumerate_extensions(d)
    obstruction(d)
    assert (len(validations), len(pullbacks), len(products)) == (1, 1, 1)


def test_memo_is_keyed_on_identity_not_value(monkeypatch):
    validations = _count_calls(monkeypatch, "validate_diagram1")
    d1, d2 = all_split(), all_split()
    assert d1 == d2 and d1 is not d2
    obstruction(d1)
    obstruction(d2)
    obstruction(d1)   # one slot: d2 replaced d1
    assert len(validations) == 3
    assert all(v is want for (v,), want in zip(validations, (d1, d2, d1)))


def test_memo_keeps_no_failure(monkeypatch):
    sp, sp4 = split_ses(Z2m, Z2m), split_ses(Z4m, Z4m)
    bad = Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp4, col_right=sp)
    for entry in ("obstruction", "extend_diagram", "obstruction", "check_uniqueness"):
        with pytest.raises(InvalidDiagramError, match="corner"):
            ENTRIES[entry](bad, None)
    # a Y core that raises is built again on the next call
    real = diagram_module.pullback
    failures = [RuntimeError("first pullback fails")]

    def flaky(f, g):
        if failures:
            raise failures.pop()
        return real(f, g)

    monkeypatch.setattr(diagram_module, "pullback", flaky)
    d = all_split()
    with pytest.raises(RuntimeError, match="first pullback fails"):
        build_Y(d)
    assert build_Y(d).y.cardinality() == 8   # |R (+) S| |Q|


def test_memo_runs_each_cross_check_once(monkeypatch):
    # the snake cross-check and the comparison of the connecting image with
    # the product sum run once per diagram object, whatever entry asks; the
    # connecting image is a chain lift, so only route 1 splices
    snakes = _count_calls(monkeypatch, "_snake_cross_check")
    splices = _count_calls(monkeypatch, "_splice_cocycle")
    images = _count_calls(monkeypatch, "_connecting_image")
    d = all_split()
    extend_diagram(d)
    assert (len(snakes), len(splices), len(images)) == (1, 2, 1)   # ef and hg spliced
    extend_diagram(d)
    check_uniqueness(d)
    assert (len(snakes), len(splices), len(images)) == (1, 2, 1)


def test_memo_holds_one_diagram():
    d1 = all_split()
    extend_diagram(d1)
    ref = weakref.ref(d1)
    del d1
    gc.collect()
    assert ref() is not None   # the last diagram analysed is kept
    extend_diagram(all_split())
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("entry", ["check_uniqueness", "enumerate_extensions", "extend_diagram",
                                   "extend_with_variant_cocycle"])
def test_entry_checks_obstruction_routes_agree(entry, monkeypatch):
    # a product cocycle shifted by a cocycle that is no coboundary, off the
    # connecting image, must stop every entry past the obstruction on the
    # routes' disagreement, before the now nonzero sum could be reported
    d = all_split()
    real = diagram_module._obstruction
    one = ext_module(2, d.q, d.p).class_from_coords((1,))
    assert not one.is_zero()
    assert not _is_coboundary(one.cocycle(), real(d).resolution, d.p)

    def shifted(dg):
        ob = real(dg)
        return replace(ob, ef=ob.ef + one.cocycle())

    monkeypatch.setattr(diagram_module, "_obstruction", shifted)
    with pytest.raises(AssertionError, match="obstruction routes disagree"):
        ENTRIES[entry](d, None)


def test_variant_cocycle_reports_obstruction():
    d = parse((FIXTURES / "obstructed.json").read_text(encoding="utf-8")).diagrams["D"]
    with pytest.raises(NotExtendableError) as exc:
        extend_with_variant_cocycle(random.Random(0), d)
    assert exc.value.report is not None and not exc.value.report.is_zero


def _wrap_in_every_module(monkeypatch, name: str, record, home=modules_module) -> None:
    """Wrap ``home.<name>`` (``hexext.modules`` unless given) under every
    hexext or routes name bound to it; ``record`` sees each call's
    arguments and result."""
    real = getattr(home, name)

    def wrapped(*args):
        out = real(*args)
        record(args, out)
        return out

    for mod in [m for key, m in sys.modules.items() if key.startswith("hexext.") or key == "routes"]:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapped)


def test_snake_cross_check_builds_no_zero_kernel_or_cokernel(monkeypatch):
    # in the ladder (id_R, p_f, G -> Q) ker(id_R) and all three cokernels
    # are zero, so the check builds only ker(p_f) and ker(G -> Q), both S
    kernels, cokernels = [], []
    _wrap_in_every_module(monkeypatch, "morphism_kernel", lambda args, out: kernels.append(out[0]))
    _wrap_in_every_module(monkeypatch, "morphism_cokernel", lambda args, out: cokernels.append(out[0]), routes)
    grids = 0
    for ring in (R4, Zmod(8), Zmod(9), Zmod(12), ZZ):
        rng = random.Random(f"snake {ring}")
        for _ in range(8):
            kernels.clear()
            d = random_diagram(rng, ring, 16)
            build_Y(d)
            assert len(kernels) == 2 and all(k.is_isomorphic_to(d.s) for k in kernels)
            grids += 1
    assert grids == 40 and not cokernels


def _scaled(f: ModuleMorphism, c: int) -> ModuleMorphism:
    a = f.matrix
    return ModuleMorphism(f.source, f.target, ExactMatrix.from_rows(a.ring, [[c * x for x in r] for r in a.data], a.cols))


# each of Y's maps into or out of the ladder's top row, scaled by 0
SNAKE_FAULTS = {
    "w_r": "derived sequence not exact: snake top row/left: image strictly smaller than kernel; "
           "snake top row/interior 0: image strictly smaller than kernel",
    "p_g": "derived sequence not exact: snake top row/interior 0: image strictly smaller than kernel; "
           "snake top row/right: image strictly smaller than kernel",
    "p_f": "left square of the snake ladder does not commute",
}


@pytest.mark.parametrize("field", sorted(SNAKE_FAULTS))
def test_snake_cross_check_fault_is_an_assertion(field):
    d = all_split()
    by = build_Y(d)
    broken = replace(by, **{field: _scaled(getattr(by, field), 0)})
    with pytest.raises(AssertionError, match=f"^{SNAKE_FAULTS[field]}$"):
        diagram_module._snake_cross_check(d, broken)


def test_snake_cross_check_needs_p_f_onto_and_p_g_into_ker_q():
    # with R = 0 the top row is Y -> G alone and the left square holds for
    # any p_f: zero p_f is not onto, and p_g followed by the swap of
    # G = S (+) Q sends ker(p_f), the copy of S, outside ker(G -> Q)
    zero = PresentedModule.zero(R4)
    d = Diagram3x3(row_top=split_ses(Z2m, zero), row_bottom=split_ses(Z2m, Z2m),
                   col_left=split_ses(Z2m, Z2m), col_right=split_ses(zero, Z2m))
    by = build_Y(d)
    with pytest.raises(AssertionError, match="^Y -> F is not onto in the derived grid$"):
        diagram_module._snake_cross_check(d, replace(by, p_f=_scaled(by.p_f, 0)))
    swap = hom(d.g, d.g, [[0, 1], [1, 0]])
    with pytest.raises(AssertionError,
                       match="^Y -> G does not carry the kernel of Y -> F into the kernel of G -> Q$"):
        diagram_module._snake_cross_check(d, replace(by, p_g=swap @ by.p_g))


def _library_verdict(d: Diagram3x3, by) -> bool:
    """The right square, which ``_y_core`` checks, and the snake cross-check."""
    if not (d.col_right.project @ by.p_f).equals(d.row_bottom.project @ by.p_g):
        return False
    try:
        diagram_module._snake_cross_check(d, by)
    except AssertionError:
        return False
    return True


def _general_verdict(d: Diagram3x3, by) -> bool:
    """The general snake lemma of the same ladder: it is built and its
    six-term sequence is exact."""
    try:
        top = make_ses(by.w_r, by.p_g)
        res = snake_connecting(top, d.col_right, identity_morphism(d.r), by.p_f, d.row_bottom.project)
    except HexextError:
        return False
    return exactness_violations("chain", list(res.six_term)) == []


def test_snake_cross_check_agrees_with_the_general_lemma():
    # Y's maps as built, and each of w_r, p_g and p_f scaled by 0, 2 or 3
    verdicts = collections.Counter()
    for ring in (R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12), ZZ):
        rng = random.Random(f"snake verdicts {ring}")
        for _ in range(25):
            d = random_diagram(rng, ring, 16)
            by = build_Y(d)
            for variant in [by] + [replace(by, **{field: _scaled(getattr(by, field), c)})
                                   for field in ("w_r", "p_g", "p_f") for c in (0, 2, 3)]:
                verdicts[_library_verdict(d, variant), _general_verdict(d, variant)] += 1
    assert sum(verdicts.values()) == 1500 and set(verdicts) <= {(True, True), (False, False)}
    assert verdicts[True, True] >= 450 and verdicts[False, False] >= 1000


def _without_leg_to_g(pb):
    return replace(pb, to_right=zero_morphism(pb.module, pb.to_right.target))


# Faults that can only occur after the diagram is accepted: each is the
# engine's own failure, never a verdict that the diagram does not extend.
# Only the snake's check that ker(G -> Q) is S compares modules up to
# isomorphism; Y with zero factors through the pullback is not exact, and Y
# with a zero leg to G breaks the right square
ENGINE_FAULTS = [
    (diagram_module, "_solve_matrix", lambda *a, **k: None, "restriction classes matched but grid maps are unsolvable"),
    (diagram_module, "validate_extension", lambda *a: ["forced"], "constructed extension failed validation: forced"),
    (diagram_module, "pullback_factor", lambda pb, u, v: zero_morphism(u.source, pb.module),
     "derived sequence not exact: Y-sequence/left: image strictly smaller than kernel; "
     "Y-sequence/interior 0: image strictly smaller than kernel"),
    (diagram_module, "pullback", lambda f, g: _without_leg_to_g(modules_module.pullback(f, g)),
     "pullback projections do not agree over Q"),
    (ModuleMorphism, "is_isomorphism", lambda *a: False,
     "Y -> G does not carry the kernel of Y -> F isomorphically onto the kernel of G -> Q"),
    # the first cochain checked is a product cocycle, against d3
    (diagram_module, "_first_outside", lambda *a, **k: 0, "a restricted or chased cochain F2 -> P is not a cocycle"),
    (PresentedModule, "is_isomorphic_to", lambda *a: False, "kernel of G -> Q does not match S in the derived grid"),
]


@pytest.mark.parametrize("owner, name, fake, message", ENGINE_FAULTS, ids=[f[1] for f in ENGINE_FAULTS])
def test_engine_fault_is_an_assertion(owner, name, fake, message, monkeypatch):
    # a freshly parsed diagram, so the memo holds no fact of it
    d = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8")).diagrams["D"]
    monkeypatch.setattr(owner, name, fake)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        extend_diagram(d)


# Faults behind facts the memo keeps: ``prime`` asks for the facts before the
# fault, then the diagram layer's ``name`` answers ``answered`` more calls
# and from the next one on gives ``failed``, a lift with no solution or a
# column outside a span; the call that fails is the one the message names.
# With the obstruction kept, tau's cocycles are the first checked, against d2
KEPT_FACT_FAULTS = [
    (build_Y, "lift", 0, None, "the Y-sequence's cocycle does not lift through d1(R) (+) d1(S)"),
    (build_Y, "lift", 1, None, "obstruction vanished but the restriction map has no solution"),
    (check_uniqueness, "lift", 0, None, "restriction classes matched but grid maps are unsolvable"),
    (obstruction, "_first_outside", 0, 0, "a restricted or chased cochain F1 -> P is not a cocycle"),
]


@pytest.mark.parametrize("prime, name, answered, failed, message", KEPT_FACT_FAULTS,
                         ids=["connecting-image", "xi", "grid-map", "tau"])
def test_engine_fault_behind_kept_facts_is_an_assertion(prime, name, answered, failed, message, monkeypatch):
    d = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8")).diagrams["D"]
    prime(d)
    calls = itertools.count()
    real = getattr(diagram_module, name)
    monkeypatch.setattr(diagram_module, name, lambda *a: real(*a) if next(calls) < answered else failed)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        extend_diagram(d)


def test_compatible_morphism_that_is_not_an_isomorphism_is_an_engine_fault(monkeypatch):
    # the diagram is extended only to have an extension to compare with
    # itself; the compatible map found is then asked is_isomorphism once
    d = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8")).diagrams["D"]
    ext = extend_diagram(d)
    calls = []
    monkeypatch.setattr(ModuleMorphism, "is_isomorphism", lambda *a: calls.append(a) or False)
    with pytest.raises(AssertionError, match="^compatible morphism is not an isomorphism$"):
        compatible_isomorphism(d, ext, ext)
    assert len(calls) == 1


def test_not_extendable_always_carries_its_obstruction():
    with pytest.raises(TypeError):
        NotExtendableError()
    ob = obstruction(example_a())
    assert NotExtendableError(ob).report is ob


def test_extend_diagram_checks_only_solved_maps(monkeypatch):
    # maps built by construction skip the well-definedness check, which only
    # the checked constructor hom runs; the five read off a solve keep it:
    # Y's two pullback factors, the snake check's lift of ker(p_f) into
    # ker(G -> Q), and the grid maps i and j.  Asked again of the same
    # object, only i and j are solved anew
    seen = []
    _wrap_in_every_module(monkeypatch, "hom", lambda args, out: seen.append(args))
    d = all_split()
    extend_diagram(d)
    assert len(seen) == 5
    seen.clear()
    extend_diagram(d)
    assert len(seen) == 2


def test_every_solve_is_a_lift(monkeypatch):
    # solve_linear is wrapped under every hexext name bound to it, and each
    # call records the function that made it: only modules.lift may solve
    real = linalg_module.solve_linear
    callers = []

    def recorded(*args):
        callers.append(sys._getframe(1).f_code)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "hexext" and getattr(mod, "solve_linear", None) is real:
            monkeypatch.setattr(mod, "solve_linear", recorded)
    model = parse((FIXTURES / "allsplit.json").read_text(encoding="utf-8"))
    d = model.diagrams["D"]
    extend_diagram(d)
    compatible_isomorphism(d, model.extensions["X1"], model.extensions["X1b"])
    assert callers and set(callers) == {modules_module.lift.__code__}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_rejects_invalid_diagram(entry):
    sp = split_ses(Z2m, Z2m)
    sp4 = split_ses(Z4m, Z4m)
    d = Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp4, col_right=sp)
    with pytest.raises(InvalidDiagramError):
        ENTRIES[entry](d, extend_diagram(all_split()))


# -- Y ---------------------------------------------------------------------------------


def test_build_y_cardinality():
    by = build_Y(example_a())
    assert by.y.cardinality() == 8  # |R (+) S| * |Q|
    assert by.ses.left.cardinality() * by.ses.right.cardinality() == 8


def test_build_y_all_split():
    d = all_split()
    by = build_Y(d)
    expected = PresentedModule.from_invariant_factors(R4, [2, 2, 2])
    assert by.y.is_isomorphic_to(expected)


def test_build_y_degenerate_diagonal():
    # F = G = Q with identity maps: Y is the diagonal, R = S = 0
    z = PresentedModule.zero(R4)
    idseq = make_ses(zero_morphism(z, Z4m), hom(Z4m, Z4m, [[1]]))
    d = Diagram3x3(row_top=make_ses(zero_morphism(z, z), zero_morphism(z, z)),
                   row_bottom=idseq, col_left=make_ses(zero_morphism(z, z), zero_morphism(z, z)),
                   col_right=idseq)
    by = build_Y(d)
    assert by.y.is_isomorphic_to(Z4m)


# -- extension -------------------------------------------------------------------------


def test_extend_example_a_not_extendable():
    with pytest.raises(NotExtendableError) as exc:
        extend_diagram(example_a())
    assert exc.value.report is not None and not exc.value.report.is_zero


def test_extend_all_split():
    d = all_split()
    ext = extend_diagram(d)
    assert validate_extension(d, ext) == []


def mixed_corners_over_z():
    """P = Z, R = Z/2, S = Z/3, Q = Z/6, every sequence nonsplit; [colLeft]
    has order 3."""
    z2 = PresentedModule.cyclic(ZZ, 2)
    z3 = PresentedModule.cyclic(ZZ, 3)
    z6 = PresentedModule.cyclic(ZZ, 6)
    return Diagram3x3(
        row_top=ses_of_class(ext_module(1, z2, Zf).class_from_coords((1,))),
        col_left=ses_of_class(ext_module(1, z3, Zf).class_from_coords((1,))),
        row_bottom=ses_of_class(ext_module(1, z6, z3).class_from_coords((1,))),
        col_right=ses_of_class(ext_module(1, z6, z2).class_from_coords((1,))),
    )


def test_extend_over_z_with_mixed_corners():
    d = mixed_corners_over_z()
    ext = extend_diagram(d)
    assert validate_extension(d, ext) == []


def test_validate_extension_rejects_zeroed_map():
    d = all_split()
    ext = extend_diagram(d)
    broken = DiagramExtension(ext.x, ext.i, ext.j, ext.m, zero_morphism(ext.x, d.g))
    out = validate_extension(d, broken)
    assert any("colMid" in v or "square" in v for v in out)


def test_validate_extension_accepts_hand_built_middle():
    # coordinate middle for the all-split diagram: X = P (+) R (+) S (+) Q
    d = all_split()
    x = PresentedModule.from_invariant_factors(R4, [2, 2, 2, 2])
    i = hom(d.h, x, [[1, 0], [0, 0], [0, 1], [0, 0]])        # H = P (+) S
    j = hom(d.e, x, [[1, 0], [0, 1], [0, 0], [0, 0]])        # E = P (+) R
    m = hom(x, d.f, [[0, 1, 0, 0], [0, 0, 0, 1]])            # F = R (+) Q
    n = hom(x, d.g, [[0, 0, 1, 0], [0, 0, 0, 1]])            # G = S (+) Q
    ext = DiagramExtension(x, i, j, m, n)
    assert validate_extension(d, ext) == []


def test_degenerate_corner_p_zero():
    # P = 0 forces X isomorphic to Y
    z = PresentedModule.zero(R4)
    rt = make_ses(zero_morphism(z, Z2m), hom(Z2m, Z2m, [[1]]))
    cl = make_ses(zero_morphism(z, Z2m), hom(Z2m, Z2m, [[1]]))
    rb = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    cr = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((0,)))
    d = Diagram3x3(row_top=rt, row_bottom=rb, col_left=cl, col_right=cr)
    ext = extend_diagram(d)
    assert validate_extension(d, ext) == []
    assert ext.x.is_isomorphic_to(build_Y(d).y)


# -- uniqueness --------------------------------------------------------------------------


def test_uniqueness_all_split_false():
    rep = check_uniqueness(all_split())
    assert not rep.unique
    assert not rep.restriction.is_zero()
    assert rep.image.cardinality() == 2


def test_uniqueness_trivial_when_ext_vanishes():
    # free Q over Z: Ext^1(Q, P) = 0
    z = PresentedModule.zero(ZZ)
    idse = make_ses(zero_morphism(z, Zf), hom(Zf, Zf, [[1]]))
    zz = make_ses(zero_morphism(z, z), zero_morphism(z, z))
    d = Diagram3x3(row_top=zz, row_bottom=idse, col_left=zz, col_right=idse)
    assert check_uniqueness(d).unique


def test_uniqueness_alpha_onto_over_z():
    # free R makes Hom(R (+) S, Z) big enough for the connecting map to hit
    # the generator of Ext^1(Z/2, Z), so its restriction to Y is zero:
    # P = Z, R = Z, S = 0, Q = Z/2
    z2 = PresentedModule.cyclic(ZZ, 2)
    z = PresentedModule.zero(ZZ)
    rt = split_ses(Zf, Zf)                                    # 0 -> Z -> Z^2 -> Z -> 0
    cl = make_ses(hom(Zf, Zf, [[1]]), zero_morphism(Zf, z))   # S = 0
    rb = make_ses(zero_morphism(z, z2), hom(z2, z2, [[1]]))   # G = Q = Z/2
    cr = make_ses(hom(Zf, Zf, [[2]]), hom(Zf, z2, [[1]]))     # 0 -> Z -> Z -> Z/2 -> 0
    d = Diagram3x3(row_top=rt, row_bottom=rb, col_left=cl, col_right=cr)
    assert validate_diagram1(d) == []
    rep = check_uniqueness(d)
    assert rep.unique and rep.restriction.is_zero()
    assert rep.image.cardinality() == 1


def test_uniqueness_of_obstructed_diagram_raises():
    d = example_a()
    with pytest.raises(NotExtendableError) as info:
        check_uniqueness(d)
    assert info.value.report is obstruction(d)


# -- restriction data over R (+) S -------------------------------------------------------


def resolved_restriction_data(d, by):
    """Reference route: pull [rowTop] and [colLeft] back along the
    projections into Ext^1 of the resolved direct sum."""
    rs = direct_sum(d.r, d.s)
    assert rs.module == by.ses.left
    return (transport_contravariant(class_of_ses(d.row_top), rs.project_left)
            + transport_contravariant(class_of_ses(d.col_left), rs.project_right))


def resolved_solve_restriction(d, by, tau):
    """Reference route: restrict along R (+) S -> Y into tau's module."""
    e_y = ext_module(1, by.y, d.p)
    e_rs = tau.parent
    rho = ModuleMorphism(e_y.presentation, e_rs.presentation,
                         _transport_matrix(e_y, e_rs, lambda x: transport_contravariant(x, by.ses.inject)))
    x = lift(rho, ExactMatrix.from_cols(d.p.ring, [tau.coords], e_rs.presentation.generators))
    return None if x is None else e_y.class_from_coords(x.col(0))


def _class_order(c) -> int:
    n, multiple = 1, c
    while not multiple.is_zero():
        n, multiple = n + 1, multiple + c
    return n


def _restriction_route_outcome(d) -> str:
    """Check the restriction route of ``d`` against the resolved sum and
    return the diagram's kind: obstructed, unique or not unique."""
    by = build_Y(d)
    tau, ref_tau = tau_ses(d, by), resolved_restriction_data(d, by)
    assert class_of_ses(tau) == ref_tau
    assert yoneda_product_of_ses(tau, by.ses) == obstruction(d).baer_sum
    xi, ref_xi = _solve_restriction(d, by, _tau(d)), resolved_solve_restriction(d, by, ref_tau)
    assert (xi is None) == (ref_xi is None) == (not obstruction(d).is_zero)
    if xi is None:
        return "obstructed"
    assert xi.coords == ref_xi.coords
    x, ref_x = extend_diagram(d).x, _realize(d, by, ref_xi.cocycle()).x
    assert (x.free_rank(), x.invariant_factors()) == (ref_x.free_rank(), ref_x.invariant_factors())
    return "unique" if check_uniqueness(d).unique else "not unique"


def test_restriction_route_matches_resolved_sum():
    # Z/6 is semisimple, so its diagrams are all unique and unobstructed; the
    # other rings supply the obstructed and the non-unique cases.  The random
    # diagrams' classes all have order at most 2, so the diagram over Z, where
    # [colLeft] has order 3, is the one where the sign of the skew copy of P
    # in the tau sequence shows
    outcomes = []
    diagrams = [mixed_corners_over_z()]
    for ring in (R4, Zmod(6), Zmod(8), Zmod(9), ZZ):
        rng = random.Random(f"restriction {ring}")
        diagrams += [random_diagram(rng, ring, 16) for _ in range(16)]
    for d in diagrams:
        outcomes.append(_restriction_route_outcome(d))
    assert min(outcomes.count(k) for k in ("obstructed", "unique", "not unique")) >= 3
    # the sign of the skew copy of P shows only where -[rowTop] or -[colLeft]
    # differs from the class itself, so keep the draws with a class of order
    # 3 or more.  Over Z/8 none exists: Ext^1 between cyclic Z/8-modules is
    # Z/2 or 0, so the 2-power ring drawn from is Z/16, where it reaches Z/4
    signed = collections.Counter()
    for ring in (Zmod(9), Zmod(16), ZZ):
        rng = random.Random(f"sign-sensitive {ring}")
        for _ in range(40):
            d = random_diagram(rng, ring, 32)
            if max(_class_order(class_of_ses(d.row_top)), _class_order(class_of_ses(d.col_left))) >= 3:
                _restriction_route_outcome(d)
                signed[str(ring)] += 1
    assert min(signed[str(ring)] for ring in (Zmod(9), Zmod(16), ZZ)) >= 3, signed


def test_restriction_cochain_solve_matches_the_ext_solve():
    # the pipeline compares the restriction of xi with tau as cochains modulo
    # coboundaries; the route compares classes in Ext^1(R, P) (+) Ext^1(S, P).
    # Both solve for the same coordinate set, so the canonical solutions agree
    # on the nose.  Classes of order 3 or more (over Z/9, Z/16, Z/25, Z/27
    # and Z) are where a sign slip in tau's cocycles would show
    nonzero, unsolvable = collections.Counter(), 0
    for ring in (R4, Zmod(8), Zmod(9), Zmod(12), Zmod(16), Zmod(25), Zmod(27), ZZ):
        rng = random.Random(f"restriction solve {ring}")
        for _ in range(60):
            d = random_diagram(rng, ring, 32)
            by = build_Y(d)
            xi, routed = _solve_restriction(d, by, _tau(d)), restriction_solve_over_ext(d, by)
            assert (xi is None) == (routed is None)
            if xi is None:
                unsolvable += 1
                continue
            assert xi.coords == routed.coords
            nonzero[str(ring)] += not xi.is_zero()
    assert min(nonzero[str(ring)] for ring in (R4, Zmod(8), Zmod(9), Zmod(12), Zmod(16), Zmod(25),
                                                 Zmod(27), ZZ)) >= 3, nonzero
    assert unsolvable >= 20


def test_split_tau_sequence_makes_the_obstruction_routes_disagree(monkeypatch):
    # zero cocycles are those of the split tau sequence: their connecting
    # image is zero, the product obstruction of the obstructed fixture is not
    d = parse((FIXTURES / "obstructed.json").read_text(encoding="utf-8")).diagrams["D"]
    assert not obstruction(d).is_zero
    real = diagram_module._tau
    monkeypatch.setattr(diagram_module, "_tau", lambda dg: tuple(ExactMatrix.zeros(phi.ring, phi.rows, phi.cols) for phi in real(dg)))
    with pytest.raises(AssertionError, match="obstruction routes disagree"):
        extend_diagram(d)


def test_connecting_image_chain_lift_matches_the_splice_and_the_products():
    # route 2 lifts tau's cocycles along the Y-sequence, the reference
    # splices tau's sequence with it, and route 1 splices the rows with the
    # columns: all three agree coordinate for coordinate.  Classes of order
    # 3 or more (over Z/9, Z/27 and Z) are where a sign slip in tau's
    # cocycles would show; over Z, Ext^2 is zero, so no draw is obstructed
    obstructed, signed = 0, collections.Counter()
    for ring in (R4, Zmod(8), Zmod(9), Zmod(16), Zmod(27), ZZ):
        rng = random.Random(f"connecting image {ring}")
        for _ in range(40):
            d = random_diagram(rng, ring, 32)
            by = build_Y(d)
            lifted = ext_module(2, d.q, d.p).class_of_cocycle(_connecting_image(d, by, _tau(d)))
            spliced = yoneda_product_of_ses(tau_ses(d, by), by.ses)
            assert lifted.coords == spliced.coords == obstruction(d).baer_sum.coords
            obstructed += not lifted.is_zero()
            if max(_class_order(class_of_ses(d.row_top)), _class_order(class_of_ses(d.col_left))) >= 3:
                signed[str(ring)] += 1
    assert obstructed >= 15
    assert min(signed[str(ring)] for ring in (Zmod(9), Zmod(27), ZZ)) >= 3, signed


def test_obstruction_cochain_verdicts_match_the_ext2_classes():
    # the pipeline decides the obstruction, and compares its two routes, as
    # cocycles modulo coboundaries; the classes in Ext^2(Q, P) must decide
    # the same.  On the draws of the test above, the connecting image is
    # also compared shifted by each generating cocycle of Ext^2, so that
    # unequal routes are compared too.  Classes of order 3 or more (over
    # Z/9, Z/27 and Z) are where a sign slip would show
    counts, signed = collections.Counter(), collections.Counter()
    for ring in (R4, Zmod(8), Zmod(9), Zmod(27), ZZ):
        rng = random.Random(f"connecting image {ring}")
        for _ in range(40):
            d = random_diagram(rng, ring, 32)
            ob, by = obstruction(d), build_Y(d)
            assert ob.is_zero == ob.baer_sum.is_zero()
            e2, delta = ob.baer_sum.parent, _connecting_image(d, by, _tau(d))
            for shift in (delta - delta,) + e2.cocycles:
                agree = _is_coboundary(delta + shift - ob.ef - ob.hg, ob.resolution, d.p)
                assert agree == (e2.class_of_cocycle(delta + shift) == ob.baer_sum)
                counts["routes agree" if agree else "routes differ"] += 1
            counts["obstructed"] += not ob.is_zero
            if max(_class_order(class_of_ses(d.row_top)), _class_order(class_of_ses(d.col_left))) >= 3:
                signed[str(ring)] += 1
    assert counts["obstructed"] >= 15 and min(counts["routes agree"], counts["routes differ"]) >= 100, counts
    assert min(signed[str(ring)] for ring in (Zmod(9), Zmod(27), ZZ)) >= 3, signed


def test_direct_sum_is_obstructed_iff_a_summand_is():
    # the spliced products are additive, so the obstruction of d0 (+) d1
    # vanishes exactly when both summands' do.  The sums are drawn past the
    # oracle's reach, |P||R||S||Q| > 16; over Z, Ext^2 is zero, so no sum
    # there is obstructed
    counts = collections.Counter()   # (ring, obstruction zero) -> sums
    for ring in (R4, Zmod(8), Zmod(9), Zmod(12), ZZ):
        rng = random.Random(f"direct sum {ring}")
        for _ in range(12):
            d0, d1 = random_diagram(rng, ring, 16), random_diagram(rng, ring, 16)
            d = sum_diagram(d0, d1)
            assert validate_diagram1(d) == []
            assert d.p.cardinality() * d.r.cardinality() * d.s.cardinality() * d.q.cardinality() > 16
            zero = [obstruction(x).is_zero for x in (d0, d1, d)]
            assert zero[2] == (zero[0] and zero[1])
            counts[str(ring), zero[2]] += 1
    assert sum(n for (_, zero), n in counts.items() if not zero) >= 8, counts
    assert not counts[str(ZZ), False], counts


def test_uniqueness_image_counts_the_classes_over_y():
    # the image of the restriction Ext^1(Q, P) -> Ext^1(Y, P) is the
    # cokernel of the connecting map alpha from Hom(R (+) S, P), and each of
    # its elements is one admissible class, so one enumerated extension
    outcomes = []
    for ring in (R4, Zmod(6), Zmod(8), Zmod(9), ZZ):
        rng = random.Random(f"uniqueness {ring}")
        for _ in range(16):
            d = random_diagram(rng, ring, 16)
            if not obstruction(d).is_zero:
                continue
            rep = check_uniqueness(d)
            by = build_Y(d)
            alpha = connecting_alpha(class_of_ses(by.ses), d.p)
            order = rep.image.cardinality()
            assert order == morphism_cokernel(alpha)[0].cardinality()
            assert rep.unique == (order == 1)
            # the reference walk transports each class of Ext^1(Q, P) on its own
            xi0 = _solve_restriction(d, by, _tau(d))
            walk = [xi0 + transport_contravariant(c, by.ses.project)
                    for c in ext_module(1, d.q, d.p).all_classes()]
            classes = list(dict.fromkeys(xi.coords for xi in walk))
            assert len(classes) == order
            exts = enumerate_extensions(d)
            assert [e.x for e in exts] == [_realize(d, by, xi0.parent.class_from_coords(c).cocycle()).x
                                           for c in classes]
            outcomes.append(rep.unique)
    assert min(outcomes.count(True), outcomes.count(False)) >= 3


def test_grid_maps_by_construction_match_the_full_solve():
    # i and j keep W, the matrix of w_s o (H -> S) (of w_r o (E -> R) for
    # j), as their rows in Y and solve only their rows in P; the route
    # solves over all of Hom(-, X).  Both meet the grid constraints, so they
    # differ by iota_p o k o (H -> S) for some k : S -> P (R -> P for j):
    # equal as morphisms when Hom(S, P) is zero, and otherwise each picks its
    # own canonical solution
    counts = collections.Counter()
    for ring in (R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12), ZZ):
        rng = random.Random(f"grid maps {ring}")
        for _ in range(12):
            d = random_diagram(rng, ring, 16)
            try:
                exts = enumerate_extensions(d)
            except NotExtendableError:
                continue
            by = build_Y(d)
            for ext in exts:
                assert validate_extension(d, ext) == []
                iota_p, pi_y = middle_maps(d, by, ext.x)
                for got, routed, side, w in zip((ext.i, ext.j), grid_maps_over_x(d, by, ext.x),
                                                (d.col_left, d.row_top), (by.w_s, by.w_r)):
                    assert (pi_y @ got).matrix == (w @ side.project).matrix
                    h = lift(iota_p, (got - routed).matrix)
                    assert h is not None
                    k = modules_module.solve_morphism(side.right, d.p,
                                                      pre=[(side.project, hom(side.middle, d.p, h))])
                    assert k is not None
                    if ext_module(0, side.right, d.p).cardinality() == 1:
                        assert got.equals(routed)
                    counts["equal" if got.equals(routed) else "shifted"] += 1
    assert min(counts["equal"], counts["shifted"]) >= 3, counts


def test_lambda_fixture_facts():
    # what fixtures/lambda.json is for, read through the library: one class
    # over Y, Ext^1(Q, P) and Hom(Q, P) of order 2, and two solutions with
    # the same class over Y that no compatible isomorphism relates
    model = parse((FIXTURES / "lambda.json").read_text(encoding="utf-8"))
    d, x1, x1p = model.diagrams["D"], model.extensions["X1"], model.extensions["X1p"]
    assert check_uniqueness(d).image.cardinality() == 1
    assert ext_module(1, d.q, d.p).cardinality() == 2
    assert ext_module(0, d.q, d.p).cardinality() == 2
    by = build_Y(d)
    c1, c2 = (class_of_ses(make_ses(ext.i @ d.col_left.inject, diagram_module._projection_to_y(by, ext)))
              for ext in (x1, x1p))
    assert c1 == c2
    with pytest.raises(LambdaNotExtendableError):
        compatible_isomorphism(d, x1, x1p)


def test_extend_diagram_never_resolves_the_sum(monkeypatch):
    # extending a grid or a hexagon frame asks only for Ext^1(Y, P) (the
    # class over Y and the middle object), and for nothing when the grid is
    # obstructed: the obstruction is decided in cochains.  Reading the
    # report's classes asks for Ext^2(Q, P), once, and the uniqueness verdict
    # adds only Ext^1(Q, P): no Ext of R (+) S is resolved, as either
    # argument, and none of R or of S is built either
    for obj in vars(ext_namespace).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    monkeypatch.setattr(diagram_module, "_last", {"diagram": None})
    asked = []
    for mod in (ext_namespace, diagram_module):
        real = mod.ext_module
        monkeypatch.setattr(mod, "ext_module", lambda k, q, p, real=real: asked.append((k, q, p)) or real(k, q, p))
    rng = random.Random("ext traffic")
    kinds = collections.Counter()
    for ring in (R4, Zmod(6), Zmod(8), Zmod(9), ZZ):
        for _ in range(10):
            frame = frame_from_diagram(random_diagram(rng, ring, 16), rng)
            d = fold_frame(frame)
            seen = []
            for entry, arg in ((solve_hexagon, frame), (extend_diagram, d)):
                asked.clear()
                try:
                    entry(arg)
                    extends = True
                except NotExtendableError:
                    extends = False
                seen.append((extends, set(asked)))
            y = build_Y(d).y
            wanted = {(1, y, d.p)} if extends else set()
            assert seen == [(extends, wanted)] * 2
            ob = obstruction(d)
            asked.clear()
            classes = (ob.baer_sum, ob.yoneda_ef, ob.yoneda_hg, ob.baer_sum)
            assert asked == [(2, d.q, d.p)] and classes[0].is_zero() == ob.is_zero == extends
            kinds["extends" if extends else "obstructed"] += 1
            if extends:
                asked.clear()
                check_uniqueness(d)
                assert set(asked) == wanted | {(1, d.q, d.p)}
                kinds["distinct"] += not {d.r, d.s, direct_sum(d.r, d.s).module} & {d.q, y}
    assert kinds["extends"] >= 20 and kinds["obstructed"] >= 2 and kinds["distinct"] >= 20, kinds


# -- compatible isomorphisms ------------------------------------------------------------------


def test_compatible_automorphism_with_itself():
    d = all_split()
    ext = extend_diagram(d)
    phi = compatible_isomorphism(d, ext, ext)
    assert phi.is_isomorphism()


def test_compatible_isomorphism_forms_pullback_once(monkeypatch):
    # no pullback when a map is found, even on a fresh diagram; when none
    # is, Y explains why, formed once per diagram object
    d = all_split()
    ext = extend_diagram(d)
    calls = _count_calls(monkeypatch, "pullback")
    compatible_isomorphism(d, ext, ext)
    compatible_isomorphism(all_split(), ext, ext)
    assert calls == []
    exts = enumerate_extensions(all_split())
    calls.clear()
    fresh = all_split()
    for _ in range(2):
        with pytest.raises(ClassesDifferError):
            compatible_isomorphism(fresh, exts[0], exts[1])
    assert len(calls) == 1


def test_projection_to_y_matches_the_pullback_route():
    # the solve over Y's embedding in F (+) G against the cone (m, n)
    # factored through the pullback, on every class over Y of seeded
    # diagrams and on the two solutions of the lambda fixture
    rng = random.Random("projection to Y")
    checked = 0
    for ring in (R4, Zmod(8), Zmod(9), Zmod(12), ZZ):
        for _ in range(4):
            d = random_diagram(rng, ring, 16)
            try:
                exts = enumerate_extensions(d)
            except NotExtendableError:
                continue
            by = build_Y(d)
            for ext in exts:
                assert diagram_module._projection_to_y(by, ext).equals(projection_to_y_through_pullback(d, ext))
                checked += 1
    model = parse((FIXTURES / "lambda.json").read_text(encoding="utf-8"))
    d = model.diagrams["D"]
    for name in ("X1", "X1p"):
        ext = model.extensions[name]
        assert diagram_module._projection_to_y(build_Y(d), ext).equals(projection_to_y_through_pullback(d, ext))
    assert checked >= 20, checked


def test_distinct_lift_classes_rejected():
    d = all_split()
    exts = enumerate_extensions(d)
    assert len(exts) == 2
    with pytest.raises(ClassesDifferError):
        compatible_isomorphism(d, exts[0], exts[1])


def test_variant_cocycle_representatives_compatible():
    # P injective here, so any two valid solutions must be compatible
    rng = random.Random(21)
    rt = ses_of_class(ext_module(1, Z2m, Z4m).zero_class())
    ns = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    d = Diagram3x3(row_top=rt, row_bottom=ns, col_left=rt, col_right=ns)
    assert is_injective_module(d.p)
    e1 = extend_diagram(d)
    e2 = extend_with_variant_cocycle(rng, d)
    phi = compatible_isomorphism(d, e1, e2)
    assert (phi @ e1.i).equals(e2.i)
    assert (phi @ e1.j).equals(e2.j)
    assert (e2.m @ phi).equals(e1.m)
    assert (e2.n @ phi).equals(e1.n)


def test_perturbed_solutions_compatible_under_injective_p():
    rng = random.Random(31)
    rt = ses_of_class(ext_module(1, Z2m, Z4m).zero_class())
    ns = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    d = Diagram3x3(row_top=rt, row_bottom=ns, col_left=rt, col_right=ns)
    base = extend_diagram(d)
    for _ in range(3):
        other = perturb_extension(rng, d, base)
        assert validate_extension(d, other) == []
        phi = compatible_isomorphism(d, base, other)
        assert phi.is_isomorphism()


def test_compatibility_bijective_on_elements():
    d = all_split()
    ext = extend_diagram(d)
    phi = compatible_isomorphism(d, ext, ext)
    seen = set()
    for el in ext.x.elements():
        seen.add(ext.x.canonical_rep(phi.apply(el)))
    assert len(seen) == ext.x.cardinality()


def test_compatible_isomorphism_matches_the_oracle(capsys):
    # an isomorphism is found iff some brute-force morphism X1 -> X2
    # satisfies the four compatibility equations; pairs with more than
    # the budget's candidate morphisms are skipped
    budget = EnumerationBudget(max_order=256, max_candidates=50_000)
    outcomes, skipped = collections.Counter(), 0
    for ring, seed, max_order in ((R4, 6, 16), (Zmod(6), 8, 16), (Zmod(8), 10, 16),
                                  (Zmod(9), 11, 16), (ZZ, 2, 32)):
        rng = random.Random(seed)
        for _ in range(2):
            d = random_diagram(rng, ring, max_order)
            try:
                sols = enumerate_extensions(d)[:3]
            except NotExtendableError:
                continue
            sols += [perturb_extension(rng, d, sols[0]), extend_with_variant_cocycle(rng, d)]
            for a, b in itertools.product(sols, repeat=2):
                try:
                    morphisms = enumerate_morphisms(a.x, b.x, budget)
                except BudgetExceededError:
                    skipped += 1
                    continue
                compatible = any((f @ a.i).equals(b.i) and (f @ a.j).equals(b.j)
                                 and (b.m @ f).equals(a.m) and (b.n @ f).equals(a.n)
                                 for f in morphisms)
                try:
                    compatible_isomorphism(d, a, b)
                    outcome = "iso"
                except ClassesDifferError:
                    outcome = "classes"
                except LambdaNotExtendableError:
                    outcome = "lambda"
                assert compatible == (outcome == "iso"), (ring, outcome)
                outcomes[outcome] += 1
    with capsys.disabled():
        print(f"compatible isomorphisms against the oracle: {sum(outcomes.values())} pairs checked "
              f"({dict(outcomes)}), {skipped} over budget skipped")
    assert outcomes["lambda"] >= 1 and outcomes["classes"] >= 1


# -- injectivity --------------------------------------------------------------------------------


@pytest.mark.parametrize("module,expected", [
    (Z4m, True),
    (Z2m, False),
    (PresentedModule.zero(R4), True),
    (PresentedModule.from_invariant_factors(R4, [4, 4]), True),
    (PresentedModule.from_invariant_factors(R4, [2, 4]), False),
    # over Z/6 = Z/2 x Z/3, injectivity is componentwise: Z/2 and Z/3 both
    # carry the full prime power of their prime, so they are injective
    (PresentedModule.from_invariant_factors(Zmod(6), [6]), True),
    (PresentedModule.from_invariant_factors(Zmod(6), [2]), True),
    (PresentedModule.from_invariant_factors(Zmod(6), [2, 3]), True),
    (PresentedModule.from_invariant_factors(Zmod(12), [2]), False),
    (PresentedModule.from_invariant_factors(Zmod(12), [3]), True),
    (PresentedModule.cyclic(ZZ, 2), False),
    (PresentedModule.zero(ZZ), True),
])
def test_is_injective_module(module, expected):
    assert is_injective_module(module) is expected


def test_injective_matches_brute_force_small():
    from hexext.oracle import brute_injective
    from tests.conftest import all_modules_over

    for ring in (R4, Zmod(8), Zmod(9)):
        for m in all_modules_over(ring, 16):
            assert is_injective_module(m) == brute_injective(m), m


def test_existence_law_over_composite_moduli():
    # moduli with several primes exercise the unit-rescaling paths
    for m in (6, 12):
        rng = random.Random(m)
        ring = Zmod(m)
        for _ in range(15):
            d = random_diagram(rng, ring, 16)
            zero = obstruction(d).is_zero
            try:
                ext = extend_diagram(d)
                assert validate_extension(d, ext) == [] and zero
            except NotExtendableError:
                assert not zero
