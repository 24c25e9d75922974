"""The brute-force oracles and their agreement with the computed path."""

import dataclasses
import hashlib
import json
import random
import re
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from hexext import linalg, modules, oracle
from hexext.diagram import Diagram3x3, extend_diagram, obstruction
from hexext.errors import BudgetExceededError, NotExtendableError
from hexext.ext import class_of_ses, ext_module, ses_of_class
from hexext.linalg import ExactMatrix
from hexext.modules import PresentedModule, ShortExactSequence, hom, make_ses, split_ses, zero_morphism
from hexext.oracle import (
    EnumerationBudget,
    Table,
    _Meter,
    _bareiss_rank_pivots,
    _ext1_classes,
    _ext1_walk,
    _iter_homs,
    _module_table,
    _pools,
    _product_types,
    _tabulate,
    brute_equivalent,
    brute_ext1,
    brute_extension_exists,
    brute_injective,
    enumerate_morphisms,
)
from hexext.randgen import random_diagram, random_module, random_ses
from hexext.rings import ZZ, Zmod
from routes import is_injective_module, plain_hom_walk
from tests.conftest import all_modules_over

R4 = Zmod(4)
Z2m = PresentedModule.cyclic(R4, 2)
Z4m = PresentedModule.free(R4, 1)


# -- morphism enumeration ---------------------------------------------------------


def test_hom_z4_z2_over_z():
    homs = enumerate_morphisms(PresentedModule.cyclic(ZZ, 4), PresentedModule.cyclic(ZZ, 2))
    assert len(homs) == 2


def test_hom_from_zero():
    homs = enumerate_morphisms(PresentedModule.zero(ZZ), PresentedModule.cyclic(ZZ, 4))
    assert len(homs) == 1 and homs[0].is_zero()


def test_hom_z2_z4_over_z():
    homs = enumerate_morphisms(PresentedModule.cyclic(ZZ, 2), PresentedModule.cyclic(ZZ, 4))
    assert len(homs) == 2
    images = sorted(h.matrix.data[0][0] for h in homs)
    assert images == [0, 2]  # the generator must land in the 2-torsion


def test_hom_counts_match_computed_hom_module():
    for ring in (R4, Zmod(9)):
        for a in all_modules_over(ring, 8):
            for b in all_modules_over(ring, 8):
                got = len(enumerate_morphisms(a, b))
                want = ext_module(0, a, b).cardinality()
                assert got == want, (a, b)


def test_enumeration_rejects_infinite():
    with pytest.raises(BudgetExceededError):
        enumerate_morphisms(PresentedModule.free(ZZ, 1), PresentedModule.cyclic(ZZ, 2))


@pytest.mark.parametrize("ring", [ZZ, Zmod(32)], ids=["Z", "Zmod32"])
def test_max_order_bounds_every_table(ring):
    # Z/32 is past the default max_order of 16 for every operation that
    # tabulates it, and within a max_order of 64
    z32 = PresentedModule.cyclic(ring, 32)
    ses = split_ses(PresentedModule.zero(ring), z32)
    calls = {
        "enumerate_morphisms": (lambda budget: len(enumerate_morphisms(z32, z32, budget)), 32),
        "brute_equivalent": (lambda budget: brute_equivalent(ses, ses, budget), True),
        "brute_injective": (lambda budget: brute_injective(z32, budget), ring != ZZ),
    }
    for name, (call, expected) in calls.items():
        with pytest.raises(BudgetExceededError, match="module order 32 exceeds budget 16"):
            call(EnumerationBudget())
        assert call(EnumerationBudget(max_order=64)) == expected, name


# -- argument checks ---------------------------------------------------------------


_SPLIT = split_ses(Z2m, Z2m)
_Z2, _Z32 = PresentedModule.cyclic(ZZ, 2), PresentedModule.cyclic(ZZ, 32)

# each check with a call that fails it and the typed error and message it raises
ARGUMENT_CHECKS = {
    # F is Z/2 in an inexact column, so |H||F| = 8 and |E||G| = 16
    "grid-orders-disagree": (lambda: brute_extension_exists(Diagram3x3(
        row_top=_SPLIT, row_bottom=_SPLIT, col_left=_SPLIT,
        col_right=ShortExactSequence(hom(Z2m, Z2m, [[1]]), zero_morphism(Z2m, Z2m)))),
        ValueError, "inconsistent grid orders"),
    "max-order-not-positive": (lambda: EnumerationBudget(max_order=0), ValueError, "budget bounds must be positive"),
    "max-candidates-not-positive": (lambda: EnumerationBudget(max_candidates=0), ValueError,
                                    "budget bounds must be positive"),
    "module-infinite": (lambda: enumerate_morphisms(PresentedModule.free(ZZ, 1), _Z2), BudgetExceededError,
                        "module is infinite; oracle tables need finite modules"),
    "ambient-over-candidates": (lambda: enumerate_morphisms(_Z32, _Z2, EnumerationBudget(max_candidates=31)),
                                BudgetExceededError, "candidate count exceeded 31"),
}


@pytest.mark.parametrize("name", list(ARGUMENT_CHECKS))
def test_argument_check_raises_its_typed_error(name):
    call, error, message = ARGUMENT_CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call()
    assert err.type is error


# -- extension counting --------------------------------------------------------------


def _prime_power_types(n, m):
    """Reference: every multiset of prime powers with product n, each power
    dividing m unless m is None, as a descending tuple, listed once."""

    def is_prime_power(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        return q == 1

    powers = [q for q in range(2, n + 1) if n % q == 0 and is_prime_power(q) and (m is None or m % q == 0)]

    def descending(rest, cap):
        if rest == 1:
            yield ()
            return
        for q in powers:
            if q <= cap and rest % q == 0:
                for tail in descending(rest // q, q):
                    yield (q,) + tail

    return sorted(descending(n, n), reverse=True)


@pytest.mark.parametrize("ring", [ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12), Zmod(36)], ids=str)
def test_product_types_list_each_isomorphism_type_once(ring):
    # the reference lists each type once, so equality rules out a type such
    # as (6,) beside (3, 2), which would walk one middle object twice
    for n in range(1, 65):
        assert _product_types(ring, n) == _prime_power_types(n, ring.modulus), n


def test_ext_classes_mod4():
    out = brute_ext1(Z2m, Z2m)
    assert out.count == 2
    mids = sorted(s.middle.invariant_factors() for s in out.representatives)
    assert mids == [(2, 2), (4,)]


def test_ext_classes_free_quotient():
    assert brute_ext1(Z4m, Z2m).count == 1  # free over Z/4: split only


def test_ext_classes_coprime_over_z():
    assert brute_ext1(PresentedModule.cyclic(ZZ, 2), PresentedModule.cyclic(ZZ, 3)).count == 1


def test_ext_count_budget_guard():
    with pytest.raises(BudgetExceededError):
        brute_ext1(PresentedModule.from_invariant_factors(R4, [4, 4]),
                   PresentedModule.from_invariant_factors(R4, [4, 4]),
                   EnumerationBudget(max_order=16))


def test_representatives_have_declared_classes():
    out = brute_ext1(Z2m, Z2m)
    classes = {class_of_ses(s).coords for s in out.representatives}
    assert len(classes) == out.count


def test_factor_set_grouping_matches_ladder_iso_search():
    # the canonical-factor-set invariant and the explicit middle-isomorphism
    # search must induce the same partition on representatives
    for q, p in ((Z2m, Z2m), (PresentedModule.from_invariant_factors(R4, [2, 2]), Z2m),
                 (PresentedModule.cyclic(Zmod(9), 3), PresentedModule.cyclic(Zmod(9), 3))):
        reps = brute_ext1(q, p).representatives
        for a in reps:
            for b in reps:
                assert brute_equivalent(a, b) == (a is b)


# -- equivalence ------------------------------------------------------------------------


def test_equivalent_to_itself():
    s = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    assert brute_equivalent(s, s)


def test_nonsplit_not_equivalent_to_split():
    s = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    assert not brute_equivalent(s, split_ses(Z2m, Z2m))


def test_sequences_with_other_ends_or_middle_orders_are_not_equivalent():
    sp = split_ses(Z2m, Z2m)
    assert not brute_equivalent(sp, split_ses(Z2m, Z4m))
    # an inexact sequence with the same ends and a middle of order 2, not 4
    assert not brute_equivalent(sp, ShortExactSequence(zero_morphism(Z2m, Z2m), hom(Z2m, Z2m, [[1]])))


def test_brute_equivalence_matches_class_equality():
    for ring in (R4, Zmod(9)):
        z = PresentedModule.cyclic(ring, ring.modulus // 2 if ring.modulus == 4 else 3)
        e = ext_module(1, z, z)
        seqs = [(c, ses_of_class(c)) for c in e.all_classes()]
        for c1, s1 in seqs:
            for c2, s2 in seqs:
                assert brute_equivalent(s1, s2) == (c1 == c2)


def test_equivalence_sees_through_presentation_changes():
    # same class realized from different cocycle representatives
    from hexext.ext import ses_of_cocycle
    from hexext.linalg import ExactMatrix

    e = ext_module(1, Z2m, Z2m)
    c = e.class_from_coords((1,))
    s1 = ses_of_class(c)
    psi = ExactMatrix.from_rows(R4, [[3]], 1)
    s2 = ses_of_cocycle(e, c.cocycle() + (psi @ e.resolution.d1))
    assert brute_equivalent(s1, s2)
    assert class_of_ses(s2) == c


# -- injectivity --------------------------------------------------------------------------


def test_brute_injective_examples():
    assert not brute_injective(Z2m)
    assert brute_injective(Z4m)
    assert brute_injective(PresentedModule.zero(R4))


def test_brute_injective_matches_formula_everywhere():
    for ring in (R4, Zmod(8), Zmod(9)):
        for m in all_modules_over(ring, 16):
            assert brute_injective(m) == is_injective_module(m)


# -- exhaustive extension search --------------------------------------------------------------


def test_extension_search_agrees_with_obstruction_mod4():
    ns = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    sp = split_ses(Z2m, Z2m)
    cases = [
        Diagram3x3(row_top=ns, row_bottom=sp, col_left=sp, col_right=ns),   # obstructed
        Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp, col_right=sp),   # split
        Diagram3x3(row_top=ns, row_bottom=ns, col_left=ns, col_right=ns),   # products cancel
        Diagram3x3(row_top=sp, row_bottom=ns, col_left=ns, col_right=sp),   # both zero
    ]
    for d in cases:
        expected = obstruction(d).is_zero
        assert brute_extension_exists(d) == expected
        try:
            extend_diagram(d)
            constructed = True
        except NotExtendableError:
            constructed = False
        assert constructed == expected


def test_extension_search_budget_guard():
    big = PresentedModule.from_invariant_factors(R4, [4, 4])
    sp = split_ses(big, big)
    d = Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp, col_right=sp)
    with pytest.raises(BudgetExceededError):
        brute_extension_exists(d, EnumerationBudget(max_order=64))


# -- element tables ------------------------------------------------------------------------------


class _DigitGroup:
    """Reference arithmetic on mixed-radix codes (position 0 least
    significant): every operation works on digits and returns the least code
    of the result's coset of the relation span."""

    def __init__(self, radix, relation_cols):
        self.moduli = radix
        self.weights = [prod(radix[:i]) for i in range(len(radix))]
        self.span = {0}
        for col in relation_cols:
            r = self.encode(col)
            order = lcm(1, *(o // gcd(d, o) for d, o in zip(self.digits(r), radix)))
            self.span = {self._raw_combination((1, k), (s, r)) for s in self.span for k in range(order)}
        # walk each coset of the span once, mapping every code to its least
        self.least = {}
        for c in range(prod(radix)):
            if c not in self.least:
                coset = [self._raw_combination((1, 1), (c, s)) for s in self.span]
                self.least.update(dict.fromkeys(coset, min(coset)))
        self.elements = sorted(set(self.least.values()))

    def digits(self, code):
        return [code // w % o for w, o in zip(self.weights, self.moduli)]

    def encode(self, digits):
        return sum(d % o * w for d, o, w in zip(digits, self.moduli, self.weights))

    def _raw_combination(self, ks, codes):
        total = [0] * len(self.moduli)
        for k, code in zip(ks, codes):
            total = [t + k * d for t, d in zip(total, self.digits(code))]
        return self.encode(total)

    def canon(self, code):
        return self.least[code]

    def add(self, a, b):
        return self.canon(self._raw_combination((1, 1), (a, b)))

    def smul(self, k, a):
        return self.canon(self._raw_combination((k,), (a,)))

    def from_coeffs(self, col):
        return self.canon(self.encode(col))

    def gen(self, i):
        return self.from_coeffs([int(t == i) for t in range(len(self.moduli))])


@settings(max_examples=40, deadline=None)
@given(radix=st.lists(st.integers(2, 12), max_size=3),
       data=st.data())
def test_table_matches_digit_arithmetic(radix, data):
    assume(prod(radix) <= 400)
    coeff = st.integers(-10**6, 10**6)
    rels = data.draw(st.lists(st.lists(coeff, min_size=len(radix), max_size=len(radix)), max_size=3))
    t = Table(tuple(radix), rels)
    ref = _DigitGroup(radix, rels)
    code = ref.elements
    assert t.n == len(code)
    for x in range(t.n):
        assert [code[s] for s in t.sums[x]] == [ref.add(code[x], code[y]) for y in range(t.n)]
        for k in (-(10**20) - 3, -7, -1, 0, 1, 2, 5, 10**18 + 9):
            assert code[t.smul(k, x)] == ref.smul(k, code[x])
    unit = [[int(j == i) for j in range(len(radix))] for i in range(len(radix))]
    for i, e_i in enumerate(unit):
        assert code[t.from_coeffs(e_i)] == ref.gen(i)
    col = data.draw(st.lists(coeff, min_size=len(radix), max_size=len(radix)))
    assert code[t.from_coeffs(col)] == ref.from_coeffs(col)
    # the homomorphism x -> k * x into a quotient by further relations,
    # valued at every element at once and one element at a time
    extra = data.draw(st.lists(st.lists(coeff, min_size=len(radix), max_size=len(radix)), max_size=2))
    k = data.draw(coeff)
    tgt = Table(tuple(radix), rels + extra)
    tgt_ref = _DigitGroup(radix, rels + extra)
    images = [tgt.smul(k, tgt.from_coeffs(e_i)) for e_i in unit]
    vals = t.hom_value_table(tgt, images)
    assert vals == [tgt.combination(t.digits[x], images) for x in range(t.n)]
    assert [tgt_ref.elements[v] for v in vals] == [tgt_ref.smul(k, c) for c in code]


def test_hom_value_table_on_one_element_tables():
    # no generators, or generators that the relations kill: the only value is 0
    tgt = Table((4,), [])
    for t, images in ((Table((), []), []), (Table((4, 3), [(1, 0), (0, 1)]), [1, 2])):
        assert t.n == 1 and t._steps == ()
        assert t.hom_value_table(tgt, images) == [0] == [tgt.combination(t.digits[0], images)]


def test_oversized_table_raises_before_allocating():
    # the caller's meter refuses a box over its bound (Z/32's 32 under 31)
    # before the table is asked for, so nothing is tabulated; a box that
    # fits (Z/101's 101 under 1000) is refused at the table's cost, before
    # its 101 x 101 addition table is allocated
    _tabulate.cache_clear()
    z101 = PresentedModule.cyclic(ZZ, 101)
    for m, bound, count, kept in ((_Z32, 31, 32, 0), (z101, 1000, 101 + 101 + 101**2, 1)):
        budget = EnumerationBudget(max_order=200, max_candidates=bound)
        meter = _Meter(budget)
        with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {bound}$"):
            _module_table(m, budget, meter)
        assert meter.count == count and _tabulate.cache_info().currsize == kept
    assert "sums" not in vars(_tabulate((101,), ((101,),)))
    # the kept table is charged like a fresh one, and answers once that fits
    budget = EnumerationBudget(max_order=200, max_candidates=101 + 101 + 101**2)
    meter = _Meter(budget)
    assert _module_table(z101, budget, meter).n == 101
    assert meter.count == 101 + 101 + 101**2 and _tabulate.cache_info()[:2] == (2, 1)


def test_module_table_refused_at_its_cost_builds_no_addition_table():
    # a caller's meter one candidate short of a module table's box plus its
    # cost refuses it at the cost: the memo keeps the table, whose addition
    # table and multiples are first built when read
    for m in (Z4m, PresentedModule.from_invariant_factors(ZZ, [2, 2]),
              PresentedModule.from_invariant_factors(Zmod(9), [3, 9])):
        budget = EnumerationBudget(max_order=64)
        full = _Meter(budget)
        _module_table(m, budget, full)
        _tabulate.cache_clear()
        short = _Meter(EnumerationBudget(max_order=64, max_candidates=full.count - 1))
        with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {full.count - 1}$"):
            _module_table(m, short.budget, short)
        box = _presented_radix(m)
        t = _tabulate(box, tuple(m.relations.columns()))
        assert _tabulate.cache_info()[:2] == (1, 1) and short.count == full.count == prod(box) + t.cost
        assert "sums" not in vars(t) and "multiples" not in vars(t)
        assert t.smul(1, 1) == 1 and len(t.sums) == t.n > 1


def test_table_is_frozen():
    t = _tabulate((2, 3), ((2, 0),))
    for part in (t.digits, t.sums, t.multiples, t._gens, t._steps, t.radix, t.relation_cols):
        assert isinstance(part, tuple)
    assert all(isinstance(row, tuple) for row in t.sums + t.multiples + t.digits + t._steps + t.relation_cols)
    assert isinstance(t.subgroup, frozenset)


def _ext1_outcome(q, p, budget):
    try:
        out = brute_ext1(q, p, budget)
    except BudgetExceededError as exc:
        return str(exc)
    return out.count, [(s.middle.relations, s.inject.matrix, s.project.matrix) for s in out.representatives]


def test_table_memo_changes_no_answer():
    # seeded pairs over Z and Z/m with |Q||P| <= 12, each under the default
    # budget and under candidate budgets that a third and nearly all of them
    # exceed, some while tabulating: counts, representatives and error
    # messages agree with every table built afresh and every answer walked
    # afresh, and with every table and answer kept
    pairs = []
    for ring in (ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12)):
        rng = random.Random(f"table-memo-{ring}")
        for _ in range(8):
            q = random_module(rng, ring, 6)
            pairs.append((q, random_module(rng, ring, 12 // q.cardinality())))
    # Z/2 by Z/2 over five rings: one shared table, and counts 2, 1, 2, 2, 2,
    # so an answer kept without its ring would be read over the wrong ring
    z2_rings = (R4, Zmod(6), Zmod(8), Zmod(12), ZZ)
    pairs += [(PresentedModule.cyclic(ring, 2), PresentedModule.cyclic(ring, 2)) for ring in z2_rings]
    calls = [(q, p, EnumerationBudget(max_candidates=c)) for q, p in pairs for c in (20_000_000, 500, 100)]
    cold = []
    for q, p, budget in calls:
        _tabulate.cache_clear()
        _ext1_walk.cache_clear()
        _ext1_classes.cache_clear()
        cold.append(_ext1_outcome(q, p, budget))
    assert [o[0] for o in cold[-15::3]] == [2, 1, 2, 2, 2]
    for q, p, budget in calls:
        _ext1_outcome(q, p, budget)
    answer_hits = _ext1_walk.cache_info().hits
    warm = [_ext1_outcome(q, p, budget) for q, p, budget in calls]
    assert _tabulate.cache_info().hits > 0
    assert _ext1_walk.cache_info().hits > answer_hits
    assert warm == cold
    assert any(isinstance(o, str) for o in cold) and any(not isinstance(o, str) for o in cold)


def test_kept_answer_is_the_walked_answer():
    budget = EnumerationBudget()
    _ext1_walk.cache_clear()
    walked = _ext1_outcome(Z2m, Z2m, budget)
    out = brute_ext1(Z2m, Z2m)
    assert _ext1_walk.cache_info().hits == 1
    assert (out.count, [(s.middle.relations, s.inject.matrix, s.project.matrix)
                        for s in out.representatives]) == walked
    # the kept answer is immutable: no caller can change a later answer
    assert isinstance(out.representatives, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.representatives = ()
    assert _ext1_outcome(Z2m, Z2m, budget) == walked
    # a kept pair is still refused by a middle order over the budget
    with pytest.raises(BudgetExceededError, match="^middle order 4 exceeds budget 3$"):
        brute_ext1(Z2m, Z2m, EnumerationBudget(max_order=3))
    # a walk its candidate budget refuses keeps nothing, in either memo
    _ext1_walk.cache_clear()
    _ext1_classes.cache_clear()
    with pytest.raises(BudgetExceededError, match="^candidate count exceeded 20$"):
        brute_ext1(Z2m, Z2m, EnumerationBudget(max_candidates=20))
    assert _ext1_walk.cache_info().currsize == _ext1_classes.cache_info().currsize == 0
    assert _ext1_outcome(Z2m, Z2m, budget) == walked
    assert _ext1_walk.cache_info() == (0, 2, linalg.CACHE_SIZE, 1)


def _lattice_presentations(m):
    """``m`` and four other presentations of its relation lattice: its
    columns reversed, its first column repeated, its first column replaced
    by the sum of its first two, and ``k * e_0`` added, for ``k`` the ring
    modulus over Z/m and the order of ``m`` over Z.  The sum leaves no
    single-generator column, so that presentation's radix is its own."""
    cols = [list(c) for c in m.relations.columns()]
    k = m.ring.modulus if m.ring.is_modular else m.cardinality()
    summed = [[a + b for a, b in zip(cols[0], cols[1])]] + cols[1:]
    return [PresentedModule.make(m.ring, m.generators, c)
            for c in (cols[::-1], cols, cols + [cols[0]], summed, cols + [[k * (i == 0) for i in range(m.generators)]])]


def _presented_radix(m):
    """Reference: the ring modulus, or over Z the Bareiss pivot product, cut
    to ``gcd(mod, k)`` at generator i by each relation column ``k * e_i``."""
    mod = m.ring.modulus if m.ring.is_modular else _bareiss_rank_pivots([list(r) for r in m.relations.data])[1]
    radix = [mod] * m.generators
    for col in m.relations.columns():
        support = [i for i, k in enumerate(col) if k]
        if len(support) == 1:
            radix[support[0]] = gcd(radix[support[0]], col[support[0]])
    return tuple(radix)


def _least_budget(q, p):
    """The smallest candidate budget under which ``brute_ext1(q, p)`` answers."""
    lo, hi = 1, 20_000_000
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(_ext1_outcome(q, p, EnumerationBudget(max_candidates=mid)), str):
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("ring", [R4, ZZ], ids=str)
def test_least_budget_search_keeps_one_table_per_lattice(ring):
    # a binary search asks for Q's, P's and the two middle types' tables
    # under each of its candidate bounds: the memo keeps each of the four
    # once, whatever the bound, and serves every later call
    q = PresentedModule.make(ring, 2, [[2, 0], [1, 1]])
    p = PresentedModule.make(ring, 2, [[2, 0], [0, 1]])
    _tabulate.cache_clear()
    _ext1_walk.cache_clear()
    _ext1_classes.cache_clear()
    assert _least_budget(q, p) == 66
    info = _tabulate.cache_info()
    assert info.currsize == info.misses == 4 and info.hits > 0


@pytest.mark.parametrize("ring, q_cols, p_cols", [
    (R4, [[2, 0], [1, 1]], [[2, 0], [0, 1]]),
    (Zmod(12), [[2, 0], [1, 3]], [[2, 0], [0, 1]]),
    (ZZ, [[2, 0], [1, 3]], [[2, 0], [0, 1]]),
], ids=["Z/4", "Z/12", "Z"])
def test_lattice_memo_walks_each_pair_of_lattices_once(ring, q_cols, p_cols):
    # five presentations each of one Q and one P, one Q on a presented radix
    # of its own: the tables are equal, the walk runs for the first pair
    # only, and every pair gets representatives on its own P and Q that
    # equal a cold walk's, and the same refusal one candidate below the
    # walk's total
    qs = _lattice_presentations(PresentedModule.make(ring, 2, q_cols))
    ps = _lattice_presentations(PresentedModule.make(ring, 2, p_cols))
    budget = EnumerationBudget()
    assert len({(q, p) for q, p in zip(qs, ps)}) == 5
    assert len({_presented_radix(q) for q in qs}) == 2
    assert len({(_module_table(q, budget, _Meter(budget)), _module_table(p, budget, _Meter(budget)))
                for q, p in zip(qs, ps)}) == 1
    cold = []
    for q, p in zip(qs, ps):
        _ext1_walk.cache_clear()
        _ext1_classes.cache_clear()
        cold.append(_ext1_outcome(q, p, budget))
    _ext1_walk.cache_clear()
    _ext1_classes.cache_clear()
    for q, p, want in zip(qs, ps, cold):
        out = brute_ext1(q, p, budget)
        assert all(s.inject.source is p and s.project.target is q for s in out.representatives)
        assert _ext1_outcome(q, p, budget) == want
    assert _ext1_classes.cache_info()[:2] == (4, 1)
    assert cold[0][0] >= 2 and all(c[0] == cold[0][0] for c in cold)
    least = _least_budget(qs[0], ps[0])
    for q, p in zip(qs, ps):
        assert brute_ext1(q, p, EnumerationBudget(max_candidates=least)).count == cold[0][0]
        with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {least - 1}$"):
            brute_ext1(q, p, EnumerationBudget(max_candidates=least - 1))


def test_lattices_of_one_radix_and_order_do_not_share_a_walk():
    # over Z/4 on two generators, <(1, 1)> and <(1, 3)> both leave Z/4 on
    # the radix (4, 4), but they are different lattices
    p = PresentedModule.cyclic(R4, 2)
    budget = EnumerationBudget()
    q1, q2 = PresentedModule.make(R4, 2, [[1, 1]]), PresentedModule.make(R4, 2, [[1, 3]])
    t1, t2 = (_module_table(q, budget, _Meter(budget)) for q in (q1, q2))
    assert (t1.radix, t1.n) == (t2.radix, t2.n) == ((4, 4), 4) and t1 != t2
    cold = []
    for q in (q1, q2):
        _ext1_walk.cache_clear()
        _ext1_classes.cache_clear()
        cold.append(_ext1_outcome(q, p, budget))
    _ext1_walk.cache_clear()
    _ext1_classes.cache_clear()
    assert [_ext1_outcome(q, p, budget) for q in (q1, q2)] == cold
    assert _ext1_classes.cache_info()[:2] == (0, 2)


def test_presentations_on_other_radices_share_a_walk():
    # over Z/4, <(2, 2), (0, 2)> is presented on the radix (4, 2) and the
    # same lattice with (2, 4) added on (2, 2); both tables are on (2, 2)
    p = PresentedModule.cyclic(R4, 2)
    budget = EnumerationBudget()
    q1 = PresentedModule.make(R4, 2, [[2, 2], [0, 2]])
    q2 = PresentedModule.make(R4, 2, [[2, 2], [0, 2], [2, 4]])
    assert (_presented_radix(q1), _presented_radix(q2)) == ((4, 2), (2, 2))
    t1, t2 = (_module_table(q, budget, _Meter(budget)) for q in (q1, q2))
    assert t1 == t2 and t1.radix == (2, 2)
    cold = []
    for q in (q1, q2):
        _ext1_walk.cache_clear()
        _ext1_classes.cache_clear()
        cold.append(_ext1_outcome(q, p, budget))
    _ext1_walk.cache_clear()
    _ext1_classes.cache_clear()
    assert [_ext1_outcome(q, p, budget) for q in (q1, q2)] == cold
    assert _ext1_classes.cache_info()[:2] == (1, 1)


def test_budgets_that_differ_only_in_max_order_share_a_walk():
    # the middle order is refused before the walk, so the walk is keyed on
    # the candidate bound alone: one miss and one hit with equal answers,
    # and under a bound that refuses the walk, equal messages and nothing kept
    q, p = PresentedModule.make(R4, 2, [[2, 0], [1, 1]]), Z2m
    least = _least_budget(q, p)
    for c, hits, misses, kept in ((20_000_000, 1, 1, 1), (least - 1, 0, 2, 0)):
        _ext1_walk.cache_clear()
        _ext1_classes.cache_clear()
        outcomes = [_ext1_outcome(q, p, EnumerationBudget(max_order=o, max_candidates=c)) for o in (16, 64)]
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (c < least)
        assert _ext1_classes.cache_info()[:] == (hits, misses, linalg.CACHE_SIZE, kept)


def _assert_digit_group(t, box, relation_cols):
    """A second route: ``t`` has the elements, sums and multiples of
    ``_DigitGroup`` on ``box``, element x being its x-th least code, and its
    radix is the reference's generator orders."""
    ref = _DigitGroup(box, relation_cols)
    code = ref.elements
    assert [tuple(ref.digits(c)) for c in code] == list(t.digits)
    for x in range(t.n):
        assert [code[s] for s in t.sums[x]] == [ref.add(code[x], code[y]) for y in range(t.n)]
        mult = t.multiples[x]
        assert [code[y] for y in mult] == [ref.smul(k, code[x]) for k in range(len(mult))]
        assert ref.smul(len(mult), code[x]) == 0
    orders = [next(k for k in range(1, len(code) + 1) if ref.smul(k, ref.gen(i)) == 0) for i in range(len(box))]
    assert t.radix == tuple(orders)


@pytest.mark.parametrize("ring", [R4, Zmod(6), Zmod(8), Zmod(12), ZZ], ids=str)
def test_module_table_matches_presented_radix(ring):
    # on seeded modules, some with their first relation column replaced by
    # the sum of their first two, the module table has the elements and
    # arithmetic of digit arithmetic on the presented radix, and its radix is
    # its generators' orders, smaller than the presented radix on some
    rng = random.Random(f"presented-radix-{ring}")
    budget = EnumerationBudget(max_order=64)
    smaller = 0
    for _ in range(40):
        m = random_module(rng, ring, 16)
        cols = [list(c) for c in m.relations.columns()]
        if len(cols) >= 2 and rng.randrange(2):
            m = PresentedModule.make(ring, m.generators, [[a + b for a, b in zip(cols[0], cols[1])]] + cols[1:])
        t = _module_table(m, budget, _Meter(budget))
        _assert_digit_group(t, _presented_radix(m), m.relations.columns())
        smaller += t.radix != _presented_radix(m)
    assert smaller >= 3


def test_representatives_are_built_when_read():
    q = PresentedModule.make(R4, 2, [[2, 0], [1, 1]])
    p = PresentedModule.make(R4, 2, [[2, 0], [0, 1]])
    budget = EnumerationBudget()
    _ext1_walk.cache_clear()
    _ext1_classes.cache_clear()
    walked = _ext1_outcome(q, p, budget)
    _ext1_walk.cache_clear()
    out = brute_ext1(q, p, budget)
    # the count is read off the classes, with no sequence built
    assert out.count == walked[0] >= 2
    assert "representatives" not in vars(out)
    reps = out.representatives
    assert [(s.middle.relations, s.inject.matrix, s.project.matrix) for s in reps] == walked[1]
    assert isinstance(reps, tuple) and out.representatives is reps
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.representatives = ()
    assert all(s.inject.source is p and s.project.target is q for s in reps)


@pytest.mark.parametrize("ring", [R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12), ZZ], ids=str)
def test_walk_ticks_its_walked_pools_once_before_its_first_candidate(ring):
    # on seeded table pairs, with a zero relation column added, a walk yields
    # exactly the plain walk's assignments, an injective one the subsequence
    # that keeps each generator's order in the source; its meter reads the
    # starting count plus the product of the walked pools at the first yield
    # and at exhaustion, and under a budget one candidate below that the walk
    # raises before yielding anything
    rng = random.Random(f"order-walk-{ring}")
    budget = EnumerationBudget()
    start = 5
    filtered = 0
    for _ in range(12):
        a, b = random_module(rng, ring, 8), random_module(rng, ring, 16)
        ta, tb = (_module_table(m, budget, _Meter(budget)) for m in (a, b))
        rels = a.relations.columns() + [(0,) * a.generators]
        ta = Table(ta.radix, rels)
        cands = _pools(ta, tb)
        plain = list(plain_hom_walk(tb, rels, cands, _Meter(budget)))
        for injective in (False, True):
            def keeps(y, o):
                return not injective or len(tb.multiples[y]) == o
            want = [images for images in plain if all(map(keeps, images, ta.radix))]
            walked = prod(sum(keeps(y, o) for y in pool) for pool, o in zip(cands, ta.radix))
            meter = _Meter(budget)
            meter.count = start
            seen = [(images, meter.count) for images in _iter_homs(ta, tb, cands, meter, injective)]
            assert seen == [(images, start + walked) for images in want]
            assert meter.count == start + walked
            short = _Meter(EnumerationBudget(max_candidates=start + walked - 1))
            short.count = start
            with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {start + walked - 1}$"):
                next(_iter_homs(ta, tb, cands, short, injective))
            filtered += injective and len(want) < len(plain)
    assert filtered >= 3


# the smallest candidate budget under which brute_ext1 answers, on seeded
# pairs over Z and Z/m: one candidate less is refused
_METER_PINS = {
    "Z": (1667, 94), "Z/4": (317, 1495), "Z/6": (251, 251),
    "Z/8": (1802, 398), "Z/9": (235, 31), "Z/12": (414, 414),
}


@pytest.mark.parametrize("ring", [ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12)], ids=str)
def test_ext1_candidate_count_is_pinned(ring):
    rng = random.Random(f"meter-pin-{ring}")
    for least in _METER_PINS[str(ring)]:
        q = random_module(rng, ring, 8)
        p = random_module(rng, ring, 16 // q.cardinality())
        assert brute_ext1(q, p, EnumerationBudget(max_candidates=least)).count >= 1
        with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {least - 1}$"):
            brute_ext1(q, p, EnumerationBudget(max_candidates=least - 1))


def _grid_with_small_middle(rng, ring):
    """A seeded grid whose middle object has order at most 16."""
    while True:
        d = random_diagram(rng, ring, 8)
        if d.e.cardinality() * d.g.cardinality() <= 16:
            return d


# the smallest candidate budget under which brute_extension_exists answers,
# and its answer, on seeded grids: one candidate less is refused
_EXTENSION_PINS = {
    "Z": ((401, True), (255, True), (279, True), (367, True)),
    "Z/4": ((1021, True), (114, True), (508, True), (252, False)),
    "Z/6": ((285, True), (285, True), (331, True), (140, True)),
    "Z/8": ((184, True), (1352, False), (1429, True), (1429, True)),
    "Z/9": ((173, True), (272, True), (173, True), (69, True)),
    "Z/12": ((453, True), (131, True), (1137, True), (153, True)),
}


@pytest.mark.parametrize("ring", [ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12)], ids=str)
def test_extension_search_candidate_count_is_pinned(ring):
    rng = random.Random(f"ext-search-pin-{ring}")
    for least, extends in _EXTENSION_PINS[str(ring)]:
        d = _grid_with_small_middle(rng, ring)
        assert brute_extension_exists(d, EnumerationBudget(max_candidates=least)) == extends
        with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {least - 1}$"):
            brute_extension_exists(d, EnumerationBudget(max_candidates=least - 1))


# the same for brute_equivalent on seeded pairs of sequences with the same
# ends and |Q||P| <= 16
_EQUIVALENCE_PINS = {
    "Z": ((824, False), (284, True), (284, True), (696, False)),
    "Z/4": ((194, True), (196, True), (744, False), (668, True)),
    "Z/6": ((394, True), (384, True), (394, True), (28, True)),
    "Z/8": ((412, True), (244, True), (666, True), (666, True)),
    "Z/9": ((264, False), (306, True), (264, False), (49, True)),
    "Z/12": ((1000, False), (952, True), (464, False), (394, True)),
}


@pytest.mark.parametrize("ring", [ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12)], ids=str)
def test_equivalence_candidate_count_is_pinned(ring):
    rng = random.Random(f"equivalence-pin-{ring}")
    for least, equivalent in _EQUIVALENCE_PINS[str(ring)]:
        q = random_module(rng, ring, 8)
        p = random_module(rng, ring, 16 // q.cardinality())
        s1, s2 = random_ses(rng, p, q), random_ses(rng, p, q)
        assert brute_equivalent(s1, s2, EnumerationBudget(max_candidates=least)) == equivalent
        with pytest.raises(BudgetExceededError, match=f"^candidate count exceeded {least - 1}$"):
            brute_equivalent(s1, s2, EnumerationBudget(max_candidates=least - 1))


def test_ext1_outcomes_are_pinned():
    # counts, representatives' matrices and refusal messages on seeded pairs
    # with |Q||P| <= 16, under the default budget and three small ones
    outcomes = []
    for ring in (ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12)):
        rng = random.Random(f"outcome-pin-{ring}")
        for _ in range(10):
            q = random_module(rng, ring, 12)
            p = random_module(rng, ring, 16 // q.cardinality())
            for c in (20_000_000, 2000, 500, 100):
                out = _ext1_outcome(q, p, EnumerationBudget(max_candidates=c))
                if not isinstance(out, str):
                    out = [out[0], [[m.data for m in rep] for rep in out[1]]]
                outcomes.append(out)
    assert sum(isinstance(o, str) for o in outcomes) == 78
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "1624326cc81aaed117fe692966ea52708b54d90539c1be9340d627eba1d4da8f"


@pytest.mark.parametrize("ring", [R4, ZZ], ids=str)
def test_ext1_charges_each_middle_types_projections_once(ring):
    # P = (Z/2)^3 has 31 * 30 * 28 = 26,040 injections into the middle type
    # (Z/2)^5 alone, and Q = (Z/2)^2 has 4^5 projection candidates from it:
    # charged once per middle type, not once per injection, they fit the
    # default candidate bound
    q = PresentedModule.from_invariant_factors(ring, [2, 2])
    p = PresentedModule.from_invariant_factors(ring, [2, 2, 2])
    assert brute_ext1(q, p, EnumerationBudget(max_order=32)).count == 64 == ext_module(1, q, p).cardinality()


def test_module_table_radix_per_generator():
    # a relation column k * e_i bounds generator i's presented radix by
    # gcd(mod, k), whose ambient size is ticked; the table's radix is each
    # generator's order, and the table ticks its ambient size and n * n
    for m, ambient, radix, order in (
            (PresentedModule.from_invariant_factors(ZZ, [2, 3, 5]), 30, (2, 3, 5), 30),
            (PresentedModule.from_invariant_factors(Zmod(12), [2, 2, 2]), 8, (2, 2, 2), 8),
            (PresentedModule.make(ZZ, 2, [[4, 0], [2, 6], [0, -3]]), 12, (2, 3), 6),
            (PresentedModule.make(R4, 1, [[3]]), 1, (1,), 1),
            (PresentedModule.make(Zmod(12), 2, [[8, 0], [0, 9], [6, 6]]), 12, (2, 3), 6)):
        budget = EnumerationBudget(max_order=30)
        meter = _Meter(budget)
        t = _module_table(m, budget, meter)
        assert (t.radix, t.n, meter.count) == (radix, order, ambient + prod(radix) + order * order)
        # a kept table counts the same candidates as a fresh build
        again = _Meter(budget)
        assert _module_table(m, budget, again).sums == t.sums and again.count == meter.count


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from([ZZ, R4, Zmod(6), Zmod(8), Zmod(9), Zmod(12)]), seed=st.integers(0, 2**32 - 1))
def test_module_table_matches_uniform_radix(ring, seed):
    # the same on the uniform radix: every position gets the ring modulus,
    # or over Z the Bareiss pivot product
    rng = random.Random(seed)
    a = random_module(rng, ring, 12)
    if a.generators and rng.randrange(2):
        # a relation column k * e_i with k not always dividing the modulus
        i, k = rng.randrange(a.generators), rng.randint(1, 12)
        a = PresentedModule(a.relations.hstack(
            ExactMatrix.from_cols(ring, [[k if r == i else 0 for r in range(a.generators)]], a.generators)))
    mod = ring.modulus if ring.is_modular else _bareiss_rank_pivots([list(r) for r in a.relations.data])[1]
    assume(mod ** a.generators <= 20_000)
    budget = EnumerationBudget()
    _assert_digit_group(_module_table(a, budget, _Meter(budget)), (mod,) * a.generators, a.relations.columns())


# -- independence from the engine --------------------------------------------------------------


def _oracle_calls():
    """Named oracle calls with their expected answers, over Z/4 and Z; the
    inputs are built here, with the engine."""
    z2, z4 = PresentedModule.cyclic(ZZ, 2), PresentedModule.cyclic(ZZ, 4)
    ns = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    sp, zsp = split_ses(Z2m, Z2m), split_ses(z2, z2)
    d = Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp, col_right=sp)
    zd = Diagram3x3(row_top=zsp, row_bottom=zsp, col_left=zsp, col_right=zsp)
    return {
        "enumerate_morphisms-Z4": (lambda: len(enumerate_morphisms(Z2m, Z4m)), 2),
        "enumerate_morphisms-Z": (lambda: len(enumerate_morphisms(z4, z2)), 2),
        "brute_ext1-Z4": (lambda: brute_ext1(Z2m, Z2m).count, 2),
        "brute_ext1-Z": (lambda: brute_ext1(z2, z2).count, 2),
        "brute_equivalent-Z4": (lambda: brute_equivalent(ns, sp), False),
        "brute_equivalent-Z": (lambda: brute_equivalent(zsp, zsp), True),
        "brute_injective-Z4": (lambda: brute_injective(Z4m), True),
        "brute_injective-Z": (lambda: brute_injective(z2), False),
        "brute_injective-Z-zero": (lambda: brute_injective(PresentedModule.make(ZZ, 1, [[3], [2]])), True),
        "brute_extension_exists-Z4": (lambda: brute_extension_exists(d), True),
        "brute_extension_exists-Z": (lambda: brute_extension_exists(zd), True),
    }


@pytest.mark.parametrize("name", list(_oracle_calls()))
def test_oracle_answers_without_the_engine(monkeypatch, name):
    call, expected = _oracle_calls()[name]
    # empty the engine's caches, so that no cached result hides a call below
    # them, and the oracle's memos, so that the call builds its own tables
    # and walks its own answer
    for layer in (linalg, modules, oracle):
        for obj in vars(layer).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def engine(*_args):
        raise AssertionError("the oracle reached the elimination engine")

    for fn in ("_snf_int", "_hermite_cols", "_echelon_insert"):
        monkeypatch.setattr(linalg, fn, engine)
    assert call() == expected
    assert _ext1_walk.cache_info().hits == 0


def test_oracle_results_pass_the_engine_checks():
    # the oracle builds its morphisms and sequences with the unchecked
    # constructors; the engine's checks must accept every one of them
    zmods = [PresentedModule.cyclic(ZZ, n) for n in (2, 3, 4)] + [PresentedModule.make(ZZ, 2, [[2, 1], [0, 3]])]
    # Z/6 on one generator too, which all_modules_over presents as Z/3 + Z/2
    z6mods = all_modules_over(Zmod(6), 6) + [PresentedModule.from_invariant_factors(Zmod(6), [6])]
    for mods in (all_modules_over(R4, 8), z6mods, zmods):
        for a in mods:
            for b in mods:
                for f in enumerate_morphisms(a, b):
                    hom(a, b, f.matrix)
                if a.cardinality() * b.cardinality() <= 16:
                    for s in brute_ext1(a, b).representatives:
                        assert make_ses(s.inject, s.project) == s, (a, b)
