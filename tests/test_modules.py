"""Presented modules, morphisms, and the categorical constructions."""

import copy
import math
import pickle
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hexext import linalg, modules
from hexext.errors import NonComposableError, NotExactError, WellDefinednessError
from hexext.linalg import ExactMatrix, solve_linear
from hexext.modules import (
    PresentedModule,
    direct_sum,
    exactness_report,
    exactness_violations,
    ModuleMorphism,
    hom,
    lift,
    make_ses,
    morphism_image,
    morphism_kernel,
    pullback,
    pullback_factor,
    simplify,
    solve_morphism,
    submodule_generated,
    zero_morphism,
)
from hexext.randgen import random_hom, random_module, random_ses
from hexext.rings import ZZ, Zmod
import routes
from routes import identity_morphism, morphism_cokernel, pushout, snake_connecting

R4 = Zmod(4)
Z2m = PresentedModule.cyclic(R4, 2)
Z4m = PresentedModule.free(R4, 1)
Zf = PresentedModule.free(ZZ, 1)
Z2z = PresentedModule.cyclic(ZZ, 2)
Z4z = PresentedModule.cyclic(ZZ, 4)


# -- well-definedness ----------------------------------------------------------


def test_mod2_reduction_accepted():
    # relation 4*e maps to 4 = 0 mod 2
    hom(Z4z, Z2z, ExactMatrix.from_rows(ZZ, [[1]], 1))


def test_bad_section_rejected_with_column():
    with pytest.raises(WellDefinednessError, match="^relation column 0 is not respected$") as exc:
        hom(Z2z, Z4z, [[1]])
    assert exc.value.first_violation == 0


def test_hom_rejects_mismatched_endpoints():
    # a matrix that cannot be a morphism matrix between the endpoints is a
    # composition error, not a relation that fails to hold
    with pytest.raises(NonComposableError, match="2x1 but the endpoints need 1x1"):
        hom(Z4m, Z4m, [[1], [1]])
    with pytest.raises(NonComposableError, match="between modules over Z/4 and Z$"):
        hom(Z4m, Z4z, [[1]])
    with pytest.raises(NonComposableError, match="matrix over Z between modules over Z/4 and Z/4"):
        hom(Z4m, Z4m, ExactMatrix.from_rows(ZZ, [[1]], 1))


def per_column_first_violation(source, target, matrix):
    """Reference: the relation-by-relation loop, testing each relation's
    image for membership in the target."""
    if source.ring != target.ring:
        return -1
    if matrix.rows != target.generators or matrix.cols != source.generators:
        return -1
    rels = source.relations
    for j in range(rels.cols):
        if any(target.canonical_rep(matrix.apply(rels.col(j)))):
            return j
    return None


@st.composite
def candidate_matrices(draw):
    """Random modules and a random matrix between them.  One time in five
    the target is made to respect the matrix; otherwise the matrix is mostly
    not well defined.  Entries come from a seeded generator, since
    hypothesis's own draws favour zero and so well-defined matrices."""
    ring = draw(st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lo, hi = (-6, 6) if ring == ZZ else (0, ring.modulus - 1)

    def matrix(rows, cols):
        return ExactMatrix.from_rows(ring, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols)

    gs, gt = rng.randint(1, 3), rng.randint(1, 3)
    source = PresentedModule(matrix(gs, rng.randint(1, 4)))
    m = matrix(gt, gs)
    target_rels = matrix(gt, rng.randint(0, 1))
    if rng.randrange(5) == 0:
        target_rels = target_rels.hstack(m @ source.relations)
    return source, PresentedModule(target_rels), m


@given(candidate_matrices())
@settings(max_examples=300, deadline=None)
def test_hom_matches_per_column_loop(case):
    source, target, m = case
    ref = per_column_first_violation(source, target, m)
    if ref == -1:
        with pytest.raises(NonComposableError):
            hom(source, target, m)
    elif ref is None:
        assert hom(source, target, m).matrix == m
    else:
        with pytest.raises(WellDefinednessError) as exc:
            hom(source, target, m)
        assert exc.value.first_violation == ref


def test_identity_always_accepted():
    for m in (Z2m, Z4m, Zf, Z4z, PresentedModule.zero(ZZ)):
        hom(m, m, ExactMatrix.identity(m.ring, m.generators))


# -- elements -------------------------------------------------------------------


def test_element_equality_is_membership():
    # two coefficient columns are the same element iff their difference is
    # zero in the module, and then they share a canonical representative
    assert not any(Z4z.canonical_rep((4,)))
    assert Z4z.canonical_rep((4,)) == Z4z.canonical_rep((0,))
    assert any(Z4z.canonical_rep((1,)))
    assert Z4z.canonical_rep((1,)) != Z4z.canonical_rep((0,))


def test_element_enumeration_and_cardinality():
    m = PresentedModule.from_invariant_factors(R4, [2, 4])
    els = list(m.elements())
    assert len(els) == 8 == m.cardinality()
    assert len({m.canonical_rep(e) for e in els}) == 8


# -- kernel / image / cokernel ---------------------------------------------------


def test_kic_doubling_on_z():
    f = hom(Zf, Zf, [[2]])
    image = morphism_image(f)[0]
    assert morphism_kernel(f)[0].cardinality() == 1
    assert image.free_rank() == 1 and image.invariant_factors() == ()
    assert morphism_cokernel(f)[0].invariant_factors() == (2,)


def test_kic_doubling_on_z4():
    f = hom(Z4m, Z4m, [[2]])
    kernel, kernel_inclusion = morphism_kernel(f)
    image, _inclusion, corestriction = morphism_image(f)
    cokernel, cokernel_projection = morphism_cokernel(f)
    # enumerate the four elements: kernel {0,2}, image {0,2}, cokernel of order 2
    assert kernel.cardinality() == 2
    assert image.cardinality() == 2
    assert cokernel.cardinality() == 2
    assert (f @ kernel_inclusion).is_zero()
    assert (cokernel_projection @ f).is_zero()
    assert exactness_violations("chain", [kernel_inclusion, corestriction]) == []


def test_kic_zero_map():
    f = zero_morphism(Z4m, Z2m)
    assert morphism_kernel(f)[0].cardinality() == 4
    assert morphism_image(f)[0].cardinality() == 1
    assert morphism_cokernel(f)[0].cardinality() == 2


def test_zero_kernel_and_cokernel_over_z():
    # over Z an infinite source or target is decided by the kernel, not by
    # counting orders; the rules are the same
    for f, injective, surjective in ((hom(Zf, Zf, [[2]]), True, False), (hom(Zf, Z2z, [[1]]), False, True),
                                     (hom(Z2z, Z4z, [[2]]), True, False), (identity_morphism(Zf), True, True)):
        kernel, kernel_inclusion = morphism_kernel(f)
        cokernel, cokernel_projection = morphism_cokernel(f)
        assert (kernel.generators == 0) == injective
        assert (cokernel.relations == ExactMatrix.identity(ZZ, f.target.generators)) == surjective
        assert exactness_violations("chain", [kernel_inclusion, f, cokernel_projection]) == []


def test_cardinality_multiplicative():
    for f in (hom(Z4m, Z4m, [[2]]), hom(Z4m, Z2m, [[1]]), zero_morphism(Z2m, Z4m)):
        assert f.source.cardinality() == morphism_kernel(f)[0].cardinality() * morphism_image(f)[0].cardinality()


@st.composite
def finite_homs(draw):
    ring = draw(st.sampled_from([Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]))
    # a seeded generator: hypothesis's own randoms favour zero and give mostly zero maps
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_hom(rng, random_module(rng, ring, 24), random_module(rng, ring, 24))


@given(finite_homs())
@settings(max_examples=100, deadline=None)
def test_kernel_image_cokernel_of_random_homs(f):
    # an injective map's kernel is the zero module on no generators, and a
    # surjective map's cokernel keeps the target's generators with identity
    # relations, built with no elimination
    kernel, kernel_inclusion = morphism_kernel(f)
    image, inclusion, corestriction = morphism_image(f)
    shrunk = []
    with mock.patch.object(routes, "shrink_generators", lambda a: shrunk.append(a) or linalg.shrink_generators(a)):
        cokernel, cokernel_projection = morphism_cokernel(f)
    assert (kernel.generators == 0) == f.is_injective()
    if f.is_surjective():
        assert cokernel.relations == ExactMatrix.identity(f.target.ring, f.target.generators)
        assert not shrunk
    else:
        assert len(shrunk) == 1
    assert f.source.cardinality() == kernel.cardinality() * image.cardinality()
    assert f.target.cardinality() == image.cardinality() * cokernel.cardinality()
    assert exactness_violations("chain", [kernel_inclusion, corestriction]) == []
    assert exactness_violations("chain", [inclusion, cokernel_projection]) == []
    assert (inclusion @ corestriction).equals(f)


# -- direct sums -----------------------------------------------------------------


def test_direct_sum_block_presentation():
    ds = direct_sum(Z2m, Z2m)
    assert ds.module.invariant_factors() == (2, 2)
    assert (ds.project_left @ ds.inject_left).equals(identity_morphism(Z2m))
    assert (ds.project_right @ ds.inject_left).is_zero()


def test_direct_sum_with_zero():
    z = PresentedModule.zero(R4)
    ds = direct_sum(Z4m, z)
    assert ds.module.is_isomorphic_to(Z4m)


def test_direct_sum_coprime_over_z():
    ds = direct_sum(PresentedModule.cyclic(ZZ, 2), PresentedModule.cyclic(ZZ, 3))
    assert ds.module.invariant_factors() == (6,)


# -- pullback / pushout ------------------------------------------------------------


def test_pullback_diagonal():
    pb = pullback(identity_morphism(Z4m), identity_morphism(Z4m))
    assert pb.module.is_isomorphic_to(Z4m)


def test_pullback_two_reductions():
    p = hom(Z4m, Z2m, [[1]])
    pb = pullback(p, p)
    # pairs (a, b) in Z/4 x Z/4 with a = b mod 2
    assert pb.module.cardinality() == 8


def test_pullback_with_zero_leg():
    p = hom(Z4m, Z2m, [[1]])
    z = zero_morphism(Z2m, Z2m)
    pb = pullback(z, p)
    # A x_C B = A (+) ker(g) when f = 0
    ker = morphism_kernel(p)[0]
    expected = direct_sum(Z2m, ker).module
    assert pb.module.is_isomorphic_to(expected)


def test_pullback_universal_property_enumerated():
    p = hom(Z4m, Z2m, [[1]])
    pb = pullback(p, p)
    t = Z2m
    u = hom(t, Z4m, [[2]])
    assert (p @ u).equals(p @ u)
    fac = pullback_factor(pb, u, u)
    assert (pb.to_left @ fac).equals(u)
    assert (pb.to_right @ fac).equals(u)
    # uniqueness on enumerated elements: any two factorizations agree elementwise
    for el in t.elements():
        img = fac.apply(el)
        lhs = pb.to_left.apply(img)
        assert Z4m.canonical_rep(lhs) == Z4m.canonical_rep(u.apply(el))


def test_lift_solves_in_the_target_or_returns_none():
    # doubling Z -> Z/4: the image is 2Z/4Z
    f = hom(Zf, Z4z, [[2]])
    rhs = ExactMatrix.from_rows(ZZ, [[2, 6, 0, -2]], 4)
    x = lift(f, rhs)
    assert x is not None and x.cols == 4
    for j in range(rhs.cols):
        diff = [a - b for a, b in zip((f.matrix @ x).col(j), rhs.col(j))]
        assert not any(Z4z.canonical_rep(diff))
    assert lift(f, ExactMatrix.from_rows(ZZ, [[2, 1]], 2)) is None


@pytest.mark.parametrize("ring", [ZZ, Zmod(12)], ids=["Z", "Zmod12"])
def test_lift_graph_has_rows_only_for_the_source_unknowns(monkeypatch, ring):
    # the slack unknowns of the target's three relations get no identity
    # rows: each column is solved on [A | R; -I_g 0], rows + g rows high,
    # whose Hermite form is keyed on (R, A, g); the only other entry read is
    # R's own form, which a miss resumes from
    source = PresentedModule.free(ring, 2)
    target = PresentedModule.make(ring, 3, [[2, 0, 0], [0, 3, 0], [1, 1, 6]])
    f = hom(source, target, [[1, 2], [0, 1], [3, 5]])
    rhs = f.matrix @ ExactMatrix.from_rows(ring, [[1, 4], [2, 7]], 2)
    graphs, others = [], []
    real = linalg._hermite_cols

    def recorded(rel, a, m, k):
        if a:
            graphs.append((len(rel) + k, len(rel[0]), len(a[0])))
        else:
            others.append((rel, m, k))
        return real(rel, a, m, k)

    monkeypatch.setattr(linalg, "_hermite_cols", recorded)
    x = lift(f, rhs)
    assert graphs == [(target.generators + source.generators, 3, source.generators)] * rhs.cols
    assert set(others) <= {(target.relations.data, ring.modulus or 0, 0)}
    full = f.matrix.hstack(target.relations)
    assert [x.col(j) for j in range(rhs.cols)] == [solve_linear(full, rhs.col(j))[:2] for j in range(rhs.cols)]


@pytest.mark.parametrize("ring", [ZZ, Zmod(12)], ids=["Z", "Zmod12"])
def test_lift_inserts_only_the_map_columns(monkeypatch, ring):
    # once the target's relation form is cached, a lift through a map with c
    # columns resumes from it and inserts those c columns alone, however
    # many right-hand sides it solves
    target = PresentedModule.make(ring, 3, [[2, 0, 0], [0, 3, 0], [1, 1, 6], [4, 0, 2]])
    linalg._hermite_cols.cache_clear()
    target.cardinality()
    inserts = []
    real = linalg._echelon_insert
    monkeypatch.setattr(linalg, "_echelon_insert", lambda *a: inserts.append(a[1]) or real(*a))
    for c in (1, 2, 3):
        inserts.clear()
        f = hom(PresentedModule.free(ring, c), target, [[1, 2, 0][:c], [0, 1, 5][:c], [3, 5, 1][:c]])
        assert lift(f, f.matrix @ ExactMatrix.from_rows(ring, [[1, 4, 0], [2, 7, 1], [0, 1, 1]][:c], 3)) is not None
        assert len(inserts) == c


def test_pushout_identity_legs():
    po = pushout(identity_morphism(Z4m), identity_morphism(Z4m))
    assert po.module.is_isomorphic_to(Z4m)


def test_pushout_of_zero_source():
    z = PresentedModule.zero(R4)
    po = pushout(zero_morphism(z, Z2m), zero_morphism(z, Z2m))
    assert po.module.invariant_factors() == (2, 2)


def test_pushout_along_inclusion():
    # 2Z/4 inside Z/4, pushed to Z/2 by the identification 2 -> 1
    sub, incl = submodule_generated(Z4m, ExactMatrix.from_cols(R4, [[2]], 1))
    f = incl
    g = hom(sub, Z2m, [[1]])
    po = pushout(f, g)
    assert po.module.cardinality() == 4


# -- exactness ----------------------------------------------------------------------


def test_exact_z_sequence():
    f = hom(Zf, Zf, [[2]])
    p = hom(Zf, Z2z, [[1]])
    rep = exactness_report([f, p])
    assert all(v == "exact" for _pos, v in rep)


def test_zero_maps_fail_everywhere():
    f = zero_morphism(Z2m, Z2m)
    rep = exactness_report([f, f])
    verdicts = [v for _pos, v in rep]
    assert verdicts[0] != "exact" and verdicts[1] != "exact"


def test_exact_mod4_sequence():
    i = hom(Z2m, Z4m, [[2]])
    p = hom(Z4m, Z2m, [[1]])
    assert exactness_violations("chain", [i, p]) == []
    ses = make_ses(i, p)
    assert ses.middle.cardinality() == 4 == ses.left.cardinality() * ses.right.cardinality()


def test_make_ses_rejects_nonexact():
    with pytest.raises(NotExactError):
        make_ses(zero_morphism(Z2m, Z4m), hom(Z4m, Z2m, [[1]]))


def _kernel_route_injective(f):
    """Reference: f is injective iff its kernel on coefficient columns lies in
    the source relation span."""
    return modules._first_outside(modules.preimage_kernel_columns(f), f.source.relations) is None


def _structure_order(m):
    """Reference: the order read off the Smith form of the relations, as
    ``modules._structure`` reads it; ``None`` when the free rank is positive."""
    diag = linalg.smith_lattice(m.relations)[0]
    return None if len(diag) < m.generators else math.prod(diag)


def _kernel_route_surjective(f):
    coker = PresentedModule(f.target.relations.hstack(f.matrix))
    return _structure_order(coker) == 1


@st.composite
def maps_with_orders(draw):
    """A random module (with free summands over Z), a random map out of it
    and the projection onto its cokernel, which is always surjective."""
    ring = draw(st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mod = lambda: random_module(rng, ring, 24, free_rank_chance=0.4)
    f = random_hom(rng, mod(), mod())
    return f, morphism_cokernel(f)[1]


@given(maps_with_orders())
@settings(max_examples=120, deadline=None)
def test_orders_match_structure_route(case):
    for f in case:
        for m in (f.source, f.target):
            assert m.cardinality() == _structure_order(m)
            assert (m.cardinality() == 1) == (_structure_order(m) == 1)
        assert f.is_surjective() == _kernel_route_surjective(f)
    assert case[1].is_surjective()


def _kernel_route_report(maps):
    """Reference: exactness read off kernel generators, the route taken
    whenever an order it would count is infinite."""
    out = [("left", "exact" if _kernel_route_injective(maps[0]) else "image strictly smaller than kernel")]
    for i, (f, g) in enumerate(zip(maps, maps[1:])):
        if not (g @ f).is_zero():
            out.append((f"interior {i}", "composite nonzero"))
            continue
        inside = modules._first_outside(modules.preimage_kernel_columns(g), f.matrix.hstack(f.target.relations))
        out.append((f"interior {i}", "exact" if inside is None else "image strictly smaller than kernel"))
    out.append(("right", "exact" if _kernel_route_surjective(maps[-1]) else "image strictly smaller than kernel"))
    return out


def _scaled(f, k):
    a = f.matrix
    return ModuleMorphism(f.source, f.target, ExactMatrix.from_rows(a.ring, [[k * x for x in r] for r in a.data], a.cols))


def _random_chain(rng, ring):
    """1-3 composable maps over the ring: random morphisms between random
    modules, or a short exact sequence whose maps may be scaled and which
    may be extended by a random map at either end, so that exact, composite
    nonzero and image-proper positions all occur.  Over Z some modules have
    a free summand, so both the counting and the kernel route are taken."""
    mod = lambda: random_module(rng, ring, 24, free_rank_chance=0.3)
    if rng.randrange(2):
        objs = [mod() for _ in range(rng.randint(2, 4))]
        return [random_hom(rng, a, b) for a, b in zip(objs, objs[1:])]
    ses = random_ses(rng, mod(), mod())
    maps = [_scaled(ses.inject, rng.choice((1, 1, 2, 3))), _scaled(ses.project, rng.choice((1, 1, 2, 3)))]
    if rng.randrange(2):
        maps.insert(0, random_hom(rng, mod(), ses.left))
    else:
        maps.append(random_hom(rng, ses.right, mod()))
    lo = rng.randrange(len(maps))
    return maps[lo:lo + rng.randint(1, 3)]


ZM_RINGS = [Zmod(m) for m in (4, 6, 8, 9, 12, 36)]


def _assert_routes_agree(maps):
    report = exactness_report(maps)
    assert report == _kernel_route_report(maps)
    for f in maps:
        inj, surj = _kernel_route_injective(f), _kernel_route_surjective(f)
        assert (f.is_injective(), f.is_surjective(), f.is_isomorphism()) == (inj, surj, inj and surj)
    return report


@given(ring=st.sampled_from([ZZ] + ZM_RINGS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_exactness_by_orders_matches_kernel_route(ring, seed):
    _assert_routes_agree(_random_chain(random.Random(seed), ring))


def test_random_chains_reach_every_verdict():
    rng = random.Random(20261018)
    seen = set()
    for k in range(240):
        report = _assert_routes_agree(_random_chain(rng, ZM_RINGS[k % len(ZM_RINGS)]))
        seen |= {(pos.split()[0], verdict) for pos, verdict in report}
    assert seen == {(pos, verdict) for pos in ("left", "right") for verdict in
                    ("exact", "image strictly smaller than kernel")} | {
        ("interior", verdict) for verdict in ("exact", "composite nonzero", "image strictly smaller than kernel")}


def test_finite_exactness_builds_no_smith_form(monkeypatch):
    # finite modules are counted on either ring; a free module keeps the kernel route
    finite = [(hom(Z2m, Z4m, [[2]]), hom(Z4m, Z2m, [[1]])), (hom(Z2z, Z4z, [[2]]), hom(Z4z, Z2z, [[1]]))]
    inject, project = hom(Zf, Zf, [[2]]), hom(Zf, Z2z, [[1]])
    for layer in (linalg, modules):
        for obj in vars(layer).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def smith(*_args):
        raise AssertionError("reached the Smith form")

    monkeypatch.setattr(linalg, "_snf_int", smith)
    for i, p in finite:
        assert exactness_violations("chain", [i, p]) == [] and exactness_violations("chain", [p, i]) != []
        assert exactness_report([i, p])[1] == ("interior 0", "exact")
        assert i.is_injective() and not p.is_injective()
        assert p.is_surjective() and not i.is_surjective()
        assert make_ses(i, p).middle == i.target
    # surjectivity counts even with a free module; injectivity and the interior
    # do not, the interior also when only its target is free (the finite
    # injective first map of into_free counts)
    assert project.is_surjective() and not inject.is_surjective()
    into_free = [finite[1][0], hom(Z4z, Zf, [[0]])]
    for call in (inject.is_injective, lambda: exactness_report(into_free),
                 lambda: exactness_report([inject, project]), lambda: make_ses(inject, project)):
        with pytest.raises(AssertionError, match="reached the Smith form"):
            call()


# -- snake lemma ----------------------------------------------------------------------


def _ladder_x2():
    f = hom(Zf, Zf, [[2]])
    p = hom(Zf, Z2z, [[1]])
    top = make_ses(f, p)
    vc = hom(Z2z, Z2z, [[0]])
    return top, f, vc


def test_snake_connecting_iso():
    top, f, vc = _ladder_x2()
    res = snake_connecting(top, top, f, f, vc)
    assert res.connecting.is_isomorphism()
    assert exactness_violations("chain", list(res.six_term)) == []


def test_snake_identity_verticals():
    top, f, _ = _ladder_x2()
    idz, id2 = identity_morphism(Zf), identity_morphism(Z2z)
    res = snake_connecting(top, top, idz, idz, id2)
    assert res.connecting.is_zero()
    assert exactness_violations("chain", list(res.six_term)) == []


def test_snake_zero_verticals_splits():
    top, _, _ = _ladder_x2()
    res = snake_connecting(top, top, zero_morphism(Zf, Zf), zero_morphism(Zf, Zf),
                           zero_morphism(Z2z, Z2z))
    assert res.connecting.is_zero()
    assert exactness_violations("chain", list(res.six_term)) == []


def test_snake_element_chase_small():
    # verify the connecting map by chasing every element on a finite ladder
    i = hom(Z2m, Z4m, [[2]])
    p = hom(Z4m, Z2m, [[1]])
    top = make_ses(i, p)
    v = hom(Z4m, Z4m, [[2]])
    va = hom(Z2m, Z2m, [[1]]) @ identity_morphism(Z2m)
    va = zero_morphism(Z2m, Z2m)  # x2 kills Z/2
    vc = zero_morphism(Z2m, Z2m)
    res = snake_connecting(top, top, va, v, vc)
    assert exactness_violations("chain", list(res.six_term)) == []
    kc, kc_in = res.kernels[2], res.kernel_inclusions[2]
    ca = res.cokernels[0]
    for el in kc.elements():
        x = kc_in.apply(el)                      # element of Z/2 = ker vc
        bl = None
        for cand in Z4m.elements():              # lift through p by search
            if Z2m.canonical_rep(p.apply(cand)) == Z2m.canonical_rep(x):
                bl = cand
                break
        y = v.apply(bl)                          # down the middle
        al = None
        for cand in Z2m.elements():              # pull back through i by search
            if Z4m.canonical_rep(i.apply(cand)) == Z4m.canonical_rep(y):
                al = cand
                break
        got = ca.canonical_rep(res.connecting.apply(el))
        assert got == ca.canonical_rep(al)


# -- value semantics --------------------------------------------------------------------


def test_modules_are_values():
    from hexext.ext import ext_module

    a, b = PresentedModule.make(R4, 2, [[2, 0], [1, 1]]), PresentedModule.make(R4, 2, [[2, 0], [1, 1]])
    assert a is not b and a == b and hash(a) == hash(b)
    for cached, call in [(modules._structure, modules._structure),
                         (ext_module, lambda m: ext_module(1, m, Z2m))]:
        first = call(a)
        hits = cached.cache_info().hits
        assert call(b) is first and cached.cache_info().hits == hits + 1
    # the relation matrix defines the module: its ring and row count are the
    # module's, and the module compares and hashes as the matrix does
    rels = ExactMatrix.zeros(Zmod(8), 3, 1)
    m = PresentedModule(rels)
    assert (m.ring, m.generators, m.relations) == (Zmod(8), 3, rels)
    assert hash(a) == hash(a.relations) and a != a.relations and a.relations != a
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    # a difference in ring alone, or in the relations' cols alone, makes the
    # modules unequal
    assert PresentedModule.cyclic(Zmod(8), 2) != Z2m and PresentedModule.cyclic(ZZ, 2) != Z2m
    assert PresentedModule.free(R4, 1) != PresentedModule(ExactMatrix.zeros(R4, 1, 1))
    assert PresentedModule.zero(R4) != PresentedModule.zero(ZZ)
    assert repr(Z2m) == ("PresentedModule(relations="
                         "ExactMatrix(ring=RingSpec(kind='Zmod', modulus=4), rows=1, cols=1, data=((2,),)))")


def test_morphisms_are_values():
    f, g = hom(Z4m, Z2m, [[1]]), hom(PresentedModule.free(R4, 1), PresentedModule.cyclic(R4, 2), [[1]])
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != hom(Z2m, Z2m, [[1]]) and f != hom(Z4m, Z4m, [[2]]) and f != hom(Z4m, Z2m, [[3]])
    assert hom(Zf, Z2z, [[1]]) != f
    assert f != (f.source, f.target, f.matrix) and (f.source, f.target, f.matrix) != f
    assert repr(zero_morphism(PresentedModule.zero(R4), PresentedModule.zero(R4))) == (
        "ModuleMorphism(source=PresentedModule(relations=ExactMatrix(ring=RingSpec(kind='Zmod', modulus=4), "
        "rows=0, cols=0, data=())), target=PresentedModule(relations=ExactMatrix(ring=RingSpec(kind='Zmod', "
        "modulus=4), rows=0, cols=0, data=())), matrix=ExactMatrix(ring=RingSpec(kind='Zmod', modulus=4), rows=0, "
        "cols=0, data=()))")


# -- canonicalization ------------------------------------------------------------------


def test_isomorphism_detection_under_shuffle():
    import random

    rng = random.Random(5)
    base = PresentedModule.from_invariant_factors(R4, [2, 4])
    cols = [list(base.relations.col(j)) for j in range(base.relations.cols)]
    cols.append([sum(c[0] for c in cols), sum(c[1] for c in cols)])  # redundant sum
    rng.shuffle(cols)
    shuffled = PresentedModule(ExactMatrix.from_cols(R4, cols, 2))
    assert base.is_isomorphic_to(shuffled)
    assert not base.is_isomorphic_to(PresentedModule.from_invariant_factors(R4, [2, 2]))
    # a unit relation kills its generator; a zero divisor leaves its factor
    assert PresentedModule.make(R4, 1, [[3]]).invariant_factors() == ()
    assert PresentedModule.make(R4, 1, [[2]]).invariant_factors() == (2,)


def test_simplify_round_trip():
    m = PresentedModule.make(R4, 3, [[2, 0, 0], [1, 1, 0], [0, 2, 0], [3, 1, 2]])
    s = simplify(m)
    assert (s.to_min @ s.from_min).equals(identity_morphism(s.module))
    assert (s.from_min @ s.to_min).equals(identity_morphism(m))
    assert s.module.is_isomorphic_to(m)


def test_zero_module_flows_through_everything():
    z = PresentedModule.zero(R4)
    assert z.cardinality() == 1
    ds = direct_sum(z, Z4m)
    assert ds.module.is_isomorphic_to(Z4m)
    f = zero_morphism(z, Z4m)
    assert morphism_kernel(f)[0].cardinality() == 1 and morphism_cokernel(f)[0].cardinality() == 4
    assert exactness_violations("chain", [ds.inject_left, ds.project_right]) == []


# -- argument checks -----------------------------------------------------------------------


_ID2, _ID4 = identity_morphism(Z2m), identity_morphism(Z4m)

# each check with a call that fails it and the typed error and message it raises
ARGUMENT_CHECKS = {
    "elements-of-infinite": (lambda: next(Zf.elements()), ValueError, "module is infinite; cannot enumerate elements"),
    "compose-endpoints": (lambda: _ID2 @ _ID4, NonComposableError, "composition endpoint mismatch"),
    "sum-endpoints": (lambda: _ID2 + _ID4, NonComposableError, "sum endpoint mismatch"),
    "first-outside-length": (lambda: modules._first_outside(ExactMatrix.identity(R4, 2), ExactMatrix.identity(R4, 1)),
                             ValueError, "vector length mismatch"),
    "direct-sum-rings": (lambda: direct_sum(Z2m, Z2z), NonComposableError, "direct sum over different rings"),
    "pullback-targets": (lambda: pullback(_ID2, hom(Z2m, Z4m, [[2]])), NonComposableError,
                         "pullback legs must share a target"),
    "pullback-factor-cone": (lambda: pullback_factor(pullback(_ID2, _ID2), _ID2, zero_morphism(Z2m, Z2m)),
                             NonComposableError, "cone does not factor through the pullback"),
    "solve-pre-endpoints": (lambda: modules._solve_matrix(Z2m, Z2m, pre=[(_ID4, _ID2)]), NonComposableError,
                            "pre-constraint endpoints mismatch"),
    "solve-post-endpoints": (lambda: modules._solve_matrix(Z2m, Z2m, post=[(_ID4, _ID2)]), NonComposableError,
                             "post-constraint endpoints mismatch"),
}


@pytest.mark.parametrize("name", list(ARGUMENT_CHECKS))
def test_argument_check_raises_its_typed_error(name):
    call, error, message = ARGUMENT_CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call()
    assert err.type is error


# -- constrained morphism solving --------------------------------------------------------


def test_solve_morphism_extension_found():
    sub, incl = submodule_generated(Z4m, ExactMatrix.from_cols(R4, [[2]], 1))
    lam = hom(sub, Z4m, [[2]])
    z = solve_morphism(Z4m, Z4m, pre=[(incl, lam)])
    assert z is not None and (z @ incl).equals(lam)


def test_solve_morphism_no_solution():
    sub, incl = submodule_generated(Z4m, ExactMatrix.from_cols(R4, [[2]], 1))
    lam = hom(sub, Z2m, [[1]])
    assert solve_morphism(Z4m, Z2m, pre=[(incl, lam)]) is None


def slack_system_solve_morphism(source, target, pre=(), post=()):
    """Reference: the constrained-morphism solver as one system written out
    row by row, each block holding modulo its ambient relations through a
    group of slack unknowns of its own."""
    ring = source.ring
    gs, gt = source.generators, target.generators
    nz = gs * gt
    blocks = []
    for j in range(source.relations.cols):
        blocks.append(("pre", source.relations.col(j), [0] * gt, target.relations))
    for g_, rhs_m in pre:
        for j in range(g_.source.generators):
            blocks.append(("pre", g_.matrix.col(j), list(rhs_m.matrix.col(j)), target.relations))
    for p_, rhs_m in post:
        for j in range(gs):
            blocks.append(("post", (j, p_.matrix), list(rhs_m.matrix.col(j)), p_.target.relations))
    ncols = nz + sum(b[3].cols for b in blocks)
    sys_rows, sys_rhs = [], []
    slack_at = nz
    for kind, datum, rvec, rel in blocks:
        if kind == "pre":
            for a in range(gt):
                row = [0] * ncols
                for j in range(gs):
                    row[j * gt + a] = datum[j]
                for sj in range(rel.cols):
                    row[slack_at + sj] = -rel.data[a][sj]
                sys_rows.append(row)
                sys_rhs.append(rvec[a])
        else:
            j, pmat = datum
            for r in range(pmat.rows):
                row = [0] * ncols
                for a in range(gt):
                    row[j * gt + a] = pmat.data[r][a]
                for sj in range(rel.cols):
                    row[slack_at + sj] = -rel.data[r][sj]
                sys_rows.append(row)
                sys_rhs.append(rvec[r])
        slack_at += rel.cols
    zvec = (0,) * nz
    if sys_rows:
        sol = solve_linear(ExactMatrix.from_rows(ring, sys_rows, ncols), sys_rhs)
        if sol is None:
            return None
        zvec = sol[:nz]
    return hom(source, target, [[zvec[j * gt + a] for j in range(gs)] for a in range(gt)])


@st.composite
def constrained_systems(draw):
    """A source, a target and random pre- and post-constraints.  Half the
    right-hand sides come from one matrix ``Z0`` that the target is made to
    receive well defined, so those systems are solvable; the others are
    random and mostly unsolvable.  Modules may have zero generators."""
    ring = draw(st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(9)]))
    entries = st.integers(-3, 3) if ring == ZZ else st.integers(0, ring.modulus - 1)

    def matrix(rows, cols):
        return ExactMatrix.from_rows(ring, [[draw(entries) for _ in range(cols)] for _ in range(rows)], cols)

    def module(max_gens=3, extra=None):
        g = draw(st.integers(0, max_gens))
        rels = matrix(g, draw(st.integers(0, 2)))
        if extra is not None:
            rels = rels.hstack(extra)
        return PresentedModule(rels)

    source = module()
    gt = draw(st.integers(0, 3))
    z0 = matrix(gt, source.generators)
    target = PresentedModule(matrix(gt, draw(st.integers(0, 2))).hstack(z0 @ source.relations))
    witnessed = draw(st.booleans())
    pre = []
    for _ in range(draw(st.integers(0, 2))):
        t = module(2)
        g_ = ModuleMorphism(t, source, matrix(source.generators, t.generators))
        rhs = z0 @ g_.matrix if witnessed else matrix(gt, t.generators)
        pre.append((g_, ModuleMorphism(t, target, rhs)))
    post = []
    for _ in range(draw(st.integers(0, 2))):
        u = module(2)
        p_ = ModuleMorphism(target, u, matrix(u.generators, gt))
        rhs = p_.matrix @ z0 if witnessed else matrix(u.generators, source.generators)
        post.append((p_, ModuleMorphism(source, u, rhs)))
    return source, target, pre, post, witnessed


@given(constrained_systems())
@settings(max_examples=200, deadline=None)
def test_solve_morphism_matches_slack_system(case):
    source, target, pre, post, witnessed = case
    got = solve_morphism(source, target, pre=pre, post=post)
    ref = slack_system_solve_morphism(source, target, pre=pre, post=post)
    if ref is None:
        assert got is None and not witnessed
        return
    assert got is not None and got.matrix == ref.matrix
    assert all((got @ g_).equals(rhs) for g_, rhs in pre)
    assert all((p_ @ got).equals(rhs) for p_, rhs in post)
