"""Resolutions, Ext groups, class/sequence conversion, Baer sums, products."""

import itertools
import random
import re

import pytest

from hexext import ext
from hexext.errors import ArgumentMismatchError, NotExactError
from hexext.ext import (
    chain_map,
    class_of_ses,
    ext_module,
    free_resolution,
    restriction,
    ses_of_class,
)
from hexext.linalg import ExactMatrix
from hexext.modules import (
    PresentedModule,
    ShortExactSequence,
    direct_sum,
    exactness_report,
    hom,
    make_ses,
    split_ses,
    zero_morphism,
)
from hexext.randgen import random_hom, random_module, random_ses
from hexext.rings import ZZ, Zmod
from routes import (
    _transport_matrix,
    baer_sum_explicit,
    connecting_hom,
    identity_morphism,
    pullback_ses,
    pushout_ses,
    transport_contravariant,
    transport_covariant,
    yoneda_product,
    yoneda_product_of_ses,
    yoneda_product_via_chain_lift,
)

R4 = Zmod(4)
R8 = Zmod(8)
R9 = Zmod(9)
Z2m = PresentedModule.cyclic(R4, 2)
Z4m = PresentedModule.free(R4, 1)
Zf = PresentedModule.free(ZZ, 1)
Z2z = PresentedModule.cyclic(ZZ, 2)
Z4z = PresentedModule.cyclic(ZZ, 4)
Z6z = PresentedModule.cyclic(ZZ, 6)


# -- resolutions -----------------------------------------------------------------


def test_resolution_cyclic_over_z():
    res = free_resolution(Z6z)
    assert (res.rank(0), res.rank(1), res.rank(2)) == (1, 1, 0)
    assert res.d1.data == ((6,),)


def test_resolution_free_module():
    res = free_resolution(PresentedModule.free(ZZ, 2))
    assert res.rank(1) == 0 and res.rank(2) == 0


def test_resolution_periodic_mod4():
    res = free_resolution(Z2m)
    assert (res.rank(0), res.rank(1), res.rank(2)) == (1, 1, 1)
    assert res.d1.data == ((2,),) and res.d2.data == ((2,),)


def test_resolution_exactness_invariants():
    for m in (Z6z, Z2m, PresentedModule.from_invariant_factors(R4, [2, 4]),
              PresentedModule.from_invariant_factors(R9, [3, 9])):
        res = free_resolution(m)
        assert not any(map(any, (res.d1 @ res.d2).data))
        # im(d2) = ker(d1): containment both ways via membership
        from hexext.linalg import kernel_columns, reduce_mod_lattice

        ker = kernel_columns(res.d1)
        for j in range(ker.cols):
            assert all(x == 0 for x in reduce_mod_lattice(ker.col(j), res.d2))


# -- ext modules -------------------------------------------------------------------


@pytest.mark.parametrize("degree,q,p,expect", [
    (1, Z6z, Zf, (6,)),
    (1, Zf, Z6z, ()),
    (2, Z2m, Z2m, (2,)),
    (0, Z4z, Z2z, (2,)),
    (1, Z4z, Zf, (4,)),
])
def test_ext_module_examples(degree, q, p, expect):
    assert ext_module(degree, q, p).presentation.invariant_factors() == expect


def test_ext2_vanishes_over_z():
    mods = [Zf, Z2z, Z4z, Z6z, PresentedModule.from_invariant_factors(ZZ, [2, 4])]
    for q in mods:
        for p in mods:
            assert ext_module(2, q, p).presentation.cardinality() == 1


# -- class <-> sequence ---------------------------------------------------------------


def test_split_class_is_zero():
    assert class_of_ses(split_ses(Z2m, Z2m)).is_zero()


def test_nonsplit_mod4_class():
    s = make_ses(hom(Z2m, Z4m, [[2]]), hom(Z4m, Z2m, [[1]]))
    c = class_of_ses(s)
    assert not c.is_zero()
    assert c.parent.presentation.invariant_factors() == (2,)


def test_multiplication_ses_generates():
    s = make_ses(hom(Zf, Zf, [[6]]), hom(Zf, Z6z, [[1]]))
    c = class_of_ses(s)
    # the class generates Ext^1(Z/6, Z) = Z/6
    acc, order = c, 1
    while not acc.is_zero():
        acc, order = acc + c, order + 1
    assert order == 6


def round_trip_exhaustive(ring, orders_bound):
    from tests.conftest import all_modules_over

    mods = all_modules_over(ring, orders_bound)
    for q in mods:
        for p in mods:
            e = ext_module(1, q, p)
            if e.presentation.cardinality() > 8:
                continue
            for cls in e.all_classes():
                back = class_of_ses(ses_of_class(cls))
                assert back == cls


def test_every_class_and_its_cocycle_round_trip_in_degrees_0_1_2():
    # a class's cocycle is its coordinates combined over the basis cocycles,
    # and that cocycle lifts back to the class, in each degree and over Z too
    rng = random.Random(40)
    seen = {False: 0, True: 0}   # classes checked in finite and in infinite Ext modules
    for ring in (R4, Zmod(6), R8, R9, Zmod(12), ZZ):
        for _ in range(10):
            q = random_module(rng, ring, 12, free_rank_chance=0.5)
            p = random_module(rng, ring, 12, free_rank_chance=0.5)
            for degree in (0, 1, 2):
                e = ext_module(degree, q, p)
                if e.cardinality() is None:
                    gens = e.presentation.generators
                    classes = [e.class_from_coords([rng.randrange(-5, 6) for _ in range(gens)]) for _ in range(8)]
                else:
                    classes = list(itertools.islice(e.all_classes(), 16))
                for c in classes:
                    cocycle = c.cocycle()
                    assert e.class_of_cocycle(cocycle) == c
                    m = ring.modulus
                    combo = [[sum(x * phi.data[a][j] for x, phi in zip(c.coords, e.cocycles))
                              for j in range(cocycle.cols)] for a in range(cocycle.rows)]
                    assert cocycle.data == tuple(tuple(v % m if m else v for v in r) for r in combo)
                    seen[e.cardinality() is None] += 1
    assert seen[False] > 300 and seen[True] > 20


def test_round_trip_all_classes_small_mod4():
    round_trip_exhaustive(R4, 8)


def test_round_trip_all_classes_small_mod9():
    round_trip_exhaustive(R9, 9)


def test_middle_objects_distinguish_classes_mod4():
    e = ext_module(1, Z2m, Z2m)
    mids = {cls.coords: ses_of_class(cls).middle.invariant_factors() for cls in e.all_classes()}
    assert mids[(0,)] == (2, 2) and mids[(1,)] == (4,)


def test_generator_of_ext_z2_z_has_free_middle():
    e = ext_module(1, Z2z, Zf)
    gen = e.class_from_coords((1,))
    s = ses_of_class(gen)
    assert s.middle.free_rank() == 1 and s.middle.invariant_factors() == ()


# -- transport ---------------------------------------------------------------------------


def test_transport_identity():
    e = ext_module(1, Z2m, Z2m)
    c = e.class_from_coords((1,))
    assert transport_contravariant(c, identity_morphism(Z2m)) == c
    assert transport_covariant(c, identity_morphism(Z2m)) == c


def test_transport_composes():
    e = ext_module(1, Z4z, Zf)
    c = e.class_from_coords((1,))
    f = hom(Z2z, Z4z, [[2]])
    g = hom(PresentedModule.cyclic(ZZ, 2), Z2z, [[1]])
    both = transport_contravariant(transport_contravariant(c, f), g)
    direct = transport_contravariant(c, f @ g)
    assert both == direct


def test_pullback_along_zero_map_splits():
    e = ext_module(1, Z2m, Z2m)
    c = e.class_from_coords((1,))
    assert transport_contravariant(c, zero_morphism(Z2m, Z2m)).is_zero()


def test_pushforward_generator_nonzero():
    e = ext_module(1, Z4z, Zf)
    gen = e.class_from_coords((1,))
    red = hom(Zf, Z2z, [[1]])
    pushed = transport_covariant(gen, red)
    assert not pushed.is_zero()
    assert pushed.parent.presentation.invariant_factors() == (2,)


def test_sequence_level_transport_agrees_with_class_level():
    e = ext_module(1, Z4z, Zf)
    gen = e.class_from_coords((1,))
    s = ses_of_class(gen)
    f = hom(Z2z, Z4z, [[2]])
    assert class_of_ses(pullback_ses(s, f)) == transport_contravariant(gen, f)
    g = hom(Zf, Z2z, [[1]])
    assert class_of_ses(pushout_ses(s, g)) == transport_covariant(gen, g)


# -- restriction ----------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("ring", [R4, Zmod(6), R8, R9, ZZ], ids=str)
def test_restriction_matches_transporting_each_generator(ring, degree):
    # one chain lift per map gives the matrix that transporting each
    # generator on its own gives; P = 0 makes Ext empty on both sides
    rng = random.Random(f"restriction {ring} {degree}")
    free = PresentedModule.free(ring, 1)
    for i in range(16):
        q, q2, p = (random_module(rng, ring, 8, free_rank_chance=0.3) for _ in range(3))
        if i % 3 == 0:
            q = direct_sum(q, free).module
        if i == 0:
            p = PresentedModule.zero(ring)
        e, e2 = ext_module(degree, q, p), ext_module(degree, q2, p)
        f = random_hom(rng, q2, q)
        got = restriction(e, f)
        assert (got.source, got.target) == (e.presentation, e2.presentation)
        assert got.matrix == _transport_matrix(e, e2, lambda c: transport_contravariant(c, f))


def test_restriction_rejects_a_map_into_another_module():
    with pytest.raises(ArgumentMismatchError):
        restriction(ext_module(1, Z4z, Zf), identity_morphism(Z2z))


# -- Baer sums -----------------------------------------------------------------------------


def test_baer_identity_element():
    e = ext_module(1, Z2m, Z2m)
    s = ses_of_class(e.class_from_coords((1,)))
    total = baer_sum_explicit(s, split_ses(Z2m, Z2m))
    assert class_of_ses(total) == class_of_ses(s)


def test_baer_two_torsion():
    e = ext_module(1, Z2m, Z2m)
    s = ses_of_class(e.class_from_coords((1,)))
    assert class_of_ses(baer_sum_explicit(s, s)).is_zero()


def test_baer_order_four_over_z():
    e = ext_module(1, Z4z, Zf)
    gen = e.class_from_coords((1,))
    s = ses_of_class(gen)
    total = baer_sum_explicit(s, s)
    c = class_of_ses(total)
    assert c == gen + gen and c.coords == (2,)
    assert total.middle.is_isomorphic_to(PresentedModule.from_invariant_factors(ZZ, [2], free_rank=1))


def test_baer_coherence_exhaustive_small():
    # every pair of classes, both rings: explicit construction = coordinate sum
    for ring in (R4, R8):
        z2 = PresentedModule.cyclic(ring, 2)
        e = ext_module(1, z2, z2)
        for c1 in e.all_classes():
            for c2 in e.all_classes():
                got = class_of_ses(baer_sum_explicit(ses_of_class(c1), ses_of_class(c2)))
                assert got == c1 + c2


# -- Yoneda products -------------------------------------------------------------------------


def test_product_with_zero_factor_vanishes():
    e = ext_module(1, Z2m, Z2m)
    c = e.class_from_coords((1,))
    z = e.zero_class()
    assert yoneda_product(z, c).is_zero()
    assert yoneda_product(c, z).is_zero()


def test_nonsplit_product_mod4_nonzero():
    e = ext_module(1, Z2m, Z2m)
    c = e.class_from_coords((1,))
    prod = yoneda_product(c, c)
    assert not prod.is_zero()
    assert prod.parent.presentation.invariant_factors() == (2,)


def test_products_over_z_vanish():
    c1 = ext_module(1, Z2z, Zf).class_from_coords((1,))
    c2 = ext_module(1, Z4z, Z2z).class_from_coords((1,))
    assert yoneda_product(c1, c2).is_zero()


def test_bilinearity_mod9():
    z3 = PresentedModule.cyclic(R9, 3)
    e = ext_module(1, z3, z3)
    classes = list(e.all_classes())
    for a in classes:
        for b in classes:
            lhs = yoneda_product(a + b, classes[1])
            rhs = yoneda_product(a, classes[1]) + yoneda_product(b, classes[1])
            assert lhs == rhs


def test_chain_lift_route_agrees_with_splice():
    rng = random.Random(12)
    for ring in (R4, R9):
        for _ in range(6):
            s = random_module(rng, ring, 8, allow_zero=False)
            p = random_module(rng, ring, 8, allow_zero=False)
            q = random_module(rng, ring, 8, allow_zero=False)
            e = ext_module(1, s, p)
            g = ext_module(1, q, s)
            from hexext.randgen import random_class

            c1 = random_class(rng, e)
            c2 = random_class(rng, g)
            assert yoneda_product(c1, c2) == yoneda_product_via_chain_lift(c1, c2)


def test_splice_validates_and_reads_class():
    e = ext_module(1, Z2m, Z2m)
    c = e.class_from_coords((1,))
    s = ses_of_class(c)
    assert yoneda_product_of_ses(s, s) == yoneda_product(c, c)


# -- the Hom/Ext long exact sequence ------------------------------------------------------------


def _ladder_exact(lad):
    """The ladder stops at Ext^2(C, P), which delta1 need not reach, so
    every position but the right end must be exact."""
    return all(verdict == "exact" for pos, verdict in exactness_report(list(lad.maps)) if pos != "right")


def test_connecting_split_gives_zero_maps():
    lad = connecting_hom(split_ses(Z2m, Z2m), Z2m)
    assert lad.alpha.is_zero()
    assert lad.delta1.is_zero()
    assert _ladder_exact(lad)


def test_connecting_x2_alpha_surjective():
    s = make_ses(hom(Zf, Zf, [[2]]), hom(Zf, Z2z, [[1]]))
    lad = connecting_hom(s, Zf)
    assert lad.modules[3].presentation.invariant_factors() == (2,)
    assert lad.alpha.is_surjective()
    assert _ladder_exact(lad)


def test_connecting_mod4_ladder_exact():
    s = make_ses(hom(Z2m, Z4m, [[2]]), hom(Z4m, Z2m, [[1]]))
    lad = connecting_hom(s, Z2m)
    assert _ladder_exact(lad)


@pytest.mark.slow
def test_ladder_exact_on_seeded_random_sequences():
    rng = random.Random(99)
    for ring in (R4, R9):
        for _ in range(40):
            a = random_module(rng, ring, 8, allow_zero=False)
            c = random_module(rng, ring, 8, allow_zero=False)
            p = random_module(rng, ring, 8, allow_zero=False)
            s = random_ses(rng, a, c)
            lad = connecting_hom(s, p)
            assert _ladder_exact(lad)


# -- argument checks ------------------------------------------------------------------------------


def _chain_map_with_failed_lift(monkeypatch):
    monkeypatch.setattr(ext, "lift", lambda *a: None)
    res = free_resolution(Z2m)
    return chain_map(res, res, identity_morphism(Z2m), 1)


# each check with a call that fails it, given pytest's monkeypatch, and
# the typed error and message it raises
ARGUMENT_CHECKS = {
    "differential-past-degree-3": (lambda mp: free_resolution(Z2m).differential(4),
                                   ValueError, "no differential at degree 4"),
    "class-of-non-cocycle": (lambda mp: ext_module(0, Z2m, Z4m).class_of_cocycle(ExactMatrix.identity(R4, 1)),
                             ArgumentMismatchError, "matrix is not a cocycle for this Ext module"),
    "add-across-modules": (lambda mp: ext_module(1, Z2m, Z2m).zero_class() + ext_module(0, Z2m, Z2m).zero_class(),
                           ArgumentMismatchError, "classes live in different Ext modules"),
    "ext-degree-3": (lambda mp: ext_module(3, Z2m, Z2m), ValueError, "only degrees 0, 1, 2 are computed"),
    "ext-across-rings": (lambda mp: ext_module(1, Z2m, Z2z), ArgumentMismatchError, "arguments over different rings"),
    "class-of-inexact-sequence": (lambda mp: class_of_ses(ShortExactSequence(identity_morphism(Z2m),
                                                                             zero_morphism(Z2m, Z2m))),
                                  NotExactError, "sequence fails exactness at projection is not surjective"),
    "sequence-of-degree-2-class": (lambda mp: ses_of_class(ext_module(2, Z2m, Z2m).zero_class()),
                                   ArgumentMismatchError,
                                   "only degree-1 classes are realizable as short exact sequences"),
    "chain-map-lift-fails": (_chain_map_with_failed_lift,
                             ArgumentMismatchError, "chain map lift failed; resolution invariant broken"),
    "splice-without-shared-end": (lambda mp: yoneda_product_of_ses(split_ses(Z2m, Z4m), split_ses(Z2m, Z2m)),
                                  ArgumentMismatchError, "splice needs a shared end object"),
}


@pytest.mark.parametrize("name", list(ARGUMENT_CHECKS))
def test_argument_check_raises_its_typed_error(name, monkeypatch):
    call, error, message = ARGUMENT_CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call(monkeypatch)
    assert err.type is error


# -- the public surface ---------------------------------------------------------------------------

# second routes and helpers that only the tests call, now in tests/routes.py
MOVED_TO_ROUTES = ("connecting_hom", "HomExtLadder", "connecting_alpha", "_transport_matrix",
                   "transport_contravariant", "transport_covariant", "pullback_ses", "pushout_ses",
                   "baer_sum_explicit", "yoneda_product", "yoneda_product_via_chain_lift",
                   "Pushout", "pushout", "snake_connecting", "SnakeResult", "morphism_cokernel",
                   "identity_morphism", "is_injective_module", "extend_with_variant_cocycle",
                   "yoneda_product_of_ses")
# the splice layer, which yoneda_product_of_ses replaced by one chase, the
# second certificate check beside hom, the error only the snake lemma raised,
# is_exact, which repeated ``exactness_violations(name, maps) == []``, and
# the Smith form's rank count and the echelon basis's start, which the
# returned diagonal and ``[None] * nrows`` replaced
DELETED = ("YonedaTwoExtension", "splice", "two_extension_class", "check_well_defined", "WellDefinedReport",
           "LadderNotCommutingError", "is_exact", "_rank_of_diag", "_echelon_start")


def test_public_names_resolve_and_test_routes_stay_out_of_the_library():
    import importlib
    import pkgutil

    import hexext
    import routes
    from hexext.diagram import BuildY, DiagramExtension, UniquenessReport
    from hexext.ext import ExtClass, ExtModule, FreeResolution
    from hexext.linalg import ExactMatrix
    from hexext.modules import PresentedModule
    from hexext.rings import RingSpec

    assert len(set(hexext.__all__)) == len(hexext.__all__) == 54
    # a stale entry would break ``from hexext import *``
    assert [name for name in hexext.__all__ if not hasattr(hexext, name)] == []
    submodules = [importlib.import_module(f"hexext.{info.name}") for info in pkgutil.iter_modules(hexext.__path__)]
    assert len(submodules) == 11
    for mod in [hexext, *submodules]:
        assert [name for name in MOVED_TO_ROUTES + DELETED if hasattr(mod, name)] == [], mod.__name__
    assert all(hasattr(routes, name) for name in MOVED_TO_ROUTES)
    # ``.data[i][i]`` and ``not any(m.canonical_rep(v))`` read what these two methods did
    assert not hasattr(ExactMatrix, "diagonal") and not hasattr(PresentedModule, "contains")
    assert not hasattr(DiagramExtension, "row_mid") and not hasattr(DiagramExtension, "col_mid")
    # ``.data[i][j]``, ``not any(map(any, a.data))`` and repeated addition
    # read what these three did; R (+) S is ``by.ses.left``
    assert not any(hasattr(ExactMatrix, name) for name in ("entry", "is_zero")) and not hasattr(ExtClass, "scale")
    assert "rs" not in BuildY.__dataclass_fields__
    # ``_basis`` is the one cocycle basis; ``==`` compares classes, and
    # ``rank(i)`` reads a resolution's ranks
    assert not hasattr(ExtModule, "rank_at_degree")
    assert "_cycles" not in ExtModule.__dataclass_fields__ and "_to_min" not in ExtModule.__dataclass_fields__
    assert not any(hasattr(ExtClass, name) for name in ("same_as", "__neg__", "__sub__"))
    assert not any(hasattr(FreeResolution, name) for name in ("f0", "f1", "f2"))
    assert not hasattr(ExactMatrix, "scale") and not hasattr(RingSpec, "reduce")
    assert "image" not in UniquenessReport.__dataclass_fields__
