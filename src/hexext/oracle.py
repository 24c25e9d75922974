"""Brute-force ground truth for tiny finite modules.

Everything here works on explicit element tables.  A finite abelian group is
a :class:`Table`, built once: its elements are the numbers ``0..n-1``, each
with its mixed-radix digits, plus an addition table and the multiples of
every element, so sums, scalar multiples and linear combinations are list
lookups; subgroups are closures, quotients are coset labellings.

Presented modules become tables by reducing each coefficient modulo a
multiple of its generator's order (the ring modulus, or over Z an exponent
multiple obtained by fraction-free elimination, cut down by any relation
column that is a multiple of that generator alone; annihilation is implied
by the relations, so nothing is lost) and dividing out the additive closure
of the relation columns.

The oracle calls nothing in the Smith-form / Hermite / resolution engine: it
reads presentations and morphism matrices, decides with its own elimination
and tables, and returns morphisms and sequences built with the plain
constructors.  That independence is the whole point, since these
enumerations exist to validate the engine.

Budgets are enforced by explicit candidate counting; every table's ambient
size and addition-table cells count as candidates, on every call, also when
:func:`_table` hands out a table kept from an earlier call.  ``max_order``
bounds the order of every module an operation tabulates, and of the middle
objects that :func:`brute_ext1` and :func:`brute_extension_exists` enumerate.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from itertools import product as iproduct
from math import gcd, prod

from .errors import BudgetExceededError
from .linalg import CACHE_SIZE, ExactMatrix
from .modules import ModuleMorphism, PresentedModule, ShortExactSequence
from .rings import prime_factors


# the default order budget, and the largest order of a table kept by _table
_DEFAULT_MAX_ORDER = 16


@dataclass(frozen=True)
class EnumerationBudget:
    max_order: int = _DEFAULT_MAX_ORDER
    max_candidates: int = 20_000_000

    def __post_init__(self):
        if self.max_order < 1 or self.max_candidates < 1:
            raise ValueError("budget bounds must be positive")


class _Meter:
    def __init__(self, budget: EnumerationBudget):
        self.budget = budget
        self.count = 0

    def tick(self, n: int = 1):
        self.count += n
        if self.count > self.budget.max_candidates:
            raise BudgetExceededError(f"candidate count exceeded {self.budget.max_candidates}")


def _bareiss_rank_pivots(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, |pivot product|) by fraction-free elimination.  For a relation
    matrix of full row rank the pivot product is the determinant of a square
    subsystem, and that determinant annihilates the cokernel."""
    m = [r[:] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    pivots = 1
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nr):
            for j in range(col + 1, nc):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        pivots = abs(prev)
        rank += 1
        if rank == nr:
            break
    return rank, pivots


def _closure(gens, add, zero) -> dict:
    """The subgroup generated by ``gens``: breadth-first closure of ``zero``
    under adding a generator.  Its elements are the keys, in the order
    reached; each one after ``zero`` maps to ``(earlier, g)``, the element
    it was reached from by adding ``gens[g]``."""
    reached = {zero: None}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g, gen in enumerate(gens):
                y = add(x, gen)
                if y not in reached:
                    reached[y] = (x, g)
                    nxt.append(y)
        frontier = nxt
    return reached


class Table:
    """A finite abelian group, built once as lookup tables.

    ``radix`` holds the per-position moduli of an ambient product group and
    ``relation_cols`` span the subgroup divided out of it.  Elements are the
    numbers ``0..n-1``, one per coset, numbered in increasing order of the
    least mixed-radix code (position 0 least significant) in the coset, so 0
    is zero and, with no relations, an element is its own code.
    ``digits[x]`` holds the digits of that least code, ``sums`` is the n x n
    addition table and ``multiples[x]`` lists ``0, x, 2x, ...`` up to the
    order of x.  ``_steps`` lists every nonzero element once as
    ``(x, earlier, g)`` with ``x = earlier + generator g``, in breadth-first
    order from 0, so :meth:`hom_value_table` spends one addition per element
    with or without relations.  All of them are tuples, since :func:`_table`
    shares one table between calls.
    """

    def __init__(self, radix: tuple[int, ...], relation_cols, meter: _Meter):
        self.radix = tuple(radix)
        self.k = len(self.radix)
        meter.tick(prod(self.radix))

        def add_digits(a, b):
            return tuple((x + y) % o for x, y, o in zip(a, b, self.radix))

        sub = _closure([tuple(c % o for c, o in zip(col, self.radix)) for col in relation_cols],
                       add_digits, (0,) * self.k)
        index: dict[tuple[int, ...], int] = {}
        digits: list[tuple[int, ...]] = []
        for high_first in iproduct(*(range(o) for o in reversed(self.radix))):
            code = high_first[::-1]
            if code not in index:
                for s in sub:
                    index[add_digits(code, s)] = len(digits)
                digits.append(code)
        self.digits = tuple(digits)
        self.n = len(digits)
        meter.tick(self.n * self.n)
        self.sums = tuple(tuple(index[add_digits(a, b)] for b in digits) for a in digits)
        multiples = []
        for x in range(self.n):
            mult = [0]
            y = x
            while y:
                mult.append(y)
                y = self.sums[y][x]
            multiples.append(tuple(mult))
        self.multiples = tuple(multiples)
        self._gens = tuple(index[tuple(int(t == i) % o for t, o in enumerate(self.radix))]
                           for i in range(self.k))
        reached = iter(_closure(self._gens, self.add, 0).items())
        next(reached)  # zero
        self._steps = tuple((x, earlier, g) for x, (earlier, g) in reached)

    def add(self, a: int, b: int) -> int:
        return self.sums[a][b]

    def smul(self, k: int, a: int) -> int:
        mult = self.multiples[a]
        return mult[k % len(mult)]

    def gen_code(self, idx: int) -> int:
        return self._gens[idx]

    def combination(self, coeffs, elems) -> int:
        """``sum(c * e)`` over paired coefficients and elements."""
        acc = 0
        sums, multiples = self.sums, self.multiples
        for c, e in zip(coeffs, elems):
            if c:
                mult = multiples[e]
                acc = sums[acc][mult[c % len(mult)]]
        return acc

    def from_coeffs(self, col) -> int:
        return self.combination(col, self._gens)

    def subgroup(self, gens) -> frozenset[int]:
        return frozenset(_closure(gens, self.add, 0))

    def apply_images(self, target: "Table", images, x: int) -> int:
        """Value at ``x`` of the homomorphism with the given generator
        images (only meaningful once the hom conditions hold)."""
        return target.combination(self.digits[x], images)

    def hom_value_table(self, target: "Table", images) -> list[int]:
        """:meth:`apply_images` at every element, one addition per element
        along ``_steps``."""
        vals = [0] * self.n
        sums = target.sums
        for x, earlier, g in self._steps:
            vals[x] = sums[vals[earlier]][images[g]]
        return vals


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")
_kept_tables: OrderedDict[tuple, Table] = OrderedDict()
_kept_lookups = {"hits": 0, "misses": 0}


def _table(radix: tuple[int, ...], relation_cols, meter: _Meter) -> Table:
    """``Table(radix, relation_cols, meter)``, kept for the process if small.

    The memo is an LRU of at most ``CACHE_SIZE`` tables, keyed on the radix
    and the relation columns, and keeps only tables of order at most the
    default ``max_order`` (so at most 256 sum cells each).  A miss builds
    under the caller's meter, so an oversized table still raises before it
    allocates; a hit ticks the same two counts as a build, so every budget
    refuses a kept table at the same point and with the same message.
    """
    key = (tuple(radix), tuple(map(tuple, relation_cols)))
    t = _kept_tables.get(key)
    if t is None:
        _kept_lookups["misses"] += 1
        t = Table(radix, relation_cols, meter)
        if t.n <= _DEFAULT_MAX_ORDER:
            _kept_tables[key] = t
            if len(_kept_tables) > CACHE_SIZE:
                _kept_tables.popitem(last=False)
        return t
    _kept_lookups["hits"] += 1
    _kept_tables.move_to_end(key)
    meter.tick(prod(t.radix))
    meter.tick(t.n * t.n)
    return t


def _table_cache_info() -> _CacheInfo:
    return _CacheInfo(_kept_lookups["hits"], _kept_lookups["misses"], CACHE_SIZE, len(_kept_tables))


def _table_cache_clear() -> None:
    _kept_tables.clear()
    _kept_lookups.update(hits=0, misses=0)


# the interface of an lru_cache, so the memo is inspected like the engine's caches
_table.cache_info, _table.cache_clear = _table_cache_info, _table_cache_clear


def _module_table(m: PresentedModule, budget: EnumerationBudget, meter: _Meter) -> Table:
    """The module's table.  ``mod`` (the ring modulus, or over Z the Bareiss
    pivot product) kills every generator; generator i gets the radix
    ``gcd(mod, k)`` over the relation columns ``k * e_i``, since that
    multiple of ``e_i`` lies in the relation lattice too."""
    g = m.generators
    if g == 0:
        return _table((), [], meter)
    if m.ring.is_modular:
        mod = m.ring.modulus
    else:
        rank, mod = _bareiss_rank_pivots([list(r) for r in m.relations.data])
        if rank < g:
            raise BudgetExceededError("module is infinite; oracle tables need finite modules")
    radix = [mod] * g
    for col in m.relations.columns():
        support = [i for i, k in enumerate(col) if k]
        if len(support) == 1:
            i = support[0]
            radix[i] = gcd(radix[i], col[i])
    if prod(radix) > budget.max_candidates:
        raise BudgetExceededError("ambient table too large for the budget")
    return _table(tuple(radix), m.relations.columns(), meter)


def _bounded_table(m: PresentedModule, budget: EnumerationBudget, meter: _Meter) -> Table:
    """:func:`_module_table`, refused once the module's order exceeds the
    budget's ``max_order``."""
    t = _module_table(m, budget, meter)
    if t.n > budget.max_order:
        raise BudgetExceededError(f"module order {t.n} exceeds budget {budget.max_order}")
    return t


def _morphism_images(f: ModuleMorphism, tgt: Table) -> list[int]:
    return [tgt.from_coeffs(c) for c in f.matrix.columns()]


def _morphism(source: PresentedModule, target: PresentedModule, tgt: Table, images) -> ModuleMorphism:
    """The morphism with the given generator images, read off ``tgt``'s
    digits; the images come from a relation-killing search, so the matrix
    is well defined by construction."""
    rows = [[tgt.digits[img][i] for img in images] for i in range(target.generators)]
    return ModuleMorphism(source, target, ExactMatrix.from_rows(source.ring, rows, source.generators))


def _hom_candidates(src: Table, tgt: Table) -> list[list[int]]:
    """Restrict per-generator candidate images by the generator's ambient
    order (implied by the relation conditions; filtering early is sound and
    cheap)."""
    return [[y for y in range(tgt.n) if tgt.smul(o, y) == 0] for o in src.radix]


def _iter_homs(tgt: Table, relation_cols, candidates, meter: _Meter):
    """Generator-image assignments that kill every relation column."""
    for images in iproduct(*candidates):
        meter.tick()
        if all(tgt.combination(col, images) == 0 for col in relation_cols):
            yield list(images)


# ---------------------------------------------------------------------------
# Public oracle operations
# ---------------------------------------------------------------------------


def enumerate_morphisms(a: PresentedModule, b: PresentedModule,
                        budget: EnumerationBudget = EnumerationBudget()) -> list[ModuleMorphism]:
    """Every well-defined morphism ``a -> b``; complete and duplicate-free
    under morphism equality (images are distinct table elements)."""
    meter = _Meter(budget)
    ta = _bounded_table(a, budget, meter)
    tb = _bounded_table(b, budget, meter)
    cands = _hom_candidates(ta, tb)
    if prod(len(c) for c in cands) > budget.max_candidates:
        raise BudgetExceededError("morphism space too large")
    return [_morphism(a, b, tb, images)
            for images in _iter_homs(tb, a.relations.columns(), cands, meter)]


def _product_types(ring, n: int) -> list[tuple[int, ...]]:
    """Cyclic decompositions with total order n available over the ring."""
    if n == 1:
        return [()]
    if ring.is_modular:
        divisors = [d for d in range(2, ring.modulus + 1) if ring.modulus % d == 0]

        def rec(remaining: int, max_d: int):
            if remaining == 1:
                yield ()
                return
            for d in divisors:
                if d <= max_d and remaining % d == 0:
                    for rest in rec(remaining // d, d):
                        yield (d,) + rest

        return sorted({tuple(sorted(t, reverse=True)) for t in rec(n, ring.modulus)}, reverse=True)
    facs = prime_factors(n)

    def partitions(total, mx):
        if total == 0:
            yield ()
            return
        for k in range(min(total, mx), 0, -1):
            for rest in partitions(total - k, k):
                yield (k,) + rest

    per_prime = []
    for p, e in facs.items():
        per_prime.append([tuple(p ** k for k in part) for part in partitions(e, e)])
    out = set()
    for combo in iproduct(*per_prime):
        factors = []
        for group in combo:
            factors.extend(group)
        out.add(tuple(sorted(factors, reverse=True)))
    return sorted(out, reverse=True)


@dataclass
class ExtCount:
    count: int
    representatives: list = field(default_factory=list)


def _ladder_iso_exists(tp: Table, tq: Table,
                       tx1: Table, i1: list[int], p1: list[int],
                       tx2: Table, i2: list[int], p2: list[int],
                       rel1, meter: _Meter) -> bool:
    """Search for ``phi : X1 -> X2`` with ``phi o i1 = i2`` and
    ``p2 o phi = p1``; by the short five lemma any such map is an
    isomorphism."""
    if tx1.n != tx2.n:
        return False
    fibers: dict[int, list[int]] = {}
    for y, v in enumerate(tx2.hom_value_table(tq, p2)):
        fibers.setdefault(v, []).append(y)
    cand = []
    for gidx, o in enumerate(tx1.radix):
        pool = fibers.get(tx1.apply_images(tq, p1, tx1.gen_code(gidx)), [])
        pool = [y for y in pool if tx2.smul(o, y) == 0]
        if not pool:
            return False
        cand.append(pool)
    along_i = list(zip(tp.hom_value_table(tx1, i1), tp.hom_value_table(tx2, i2)))
    for images in _iter_homs(tx2, rel1, cand, meter):
        phi = tx1.hom_value_table(tx2, images)
        if all(phi[x1] == x2 for x1, x2 in along_i):
            return True
    return False


def _coboundary_deltas(tp: Table, tq: Table, meter: _Meter) -> list[tuple]:
    """All coboundaries of maps Q -> P fixing 0, as flat tuples over the
    nonzero-pair grid.  Depends only on the end tables, so callers compute
    this once per (P, Q)."""
    q_elems = range(1, tq.n)
    neg = [tp.smul(-1, a) for a in range(tp.n)]
    add, qadd = tp.sums, tq.sums
    deltas = []
    meter.tick(tp.n ** len(q_elems))
    for g_vals in iproduct(range(tp.n), repeat=len(q_elems)):
        g = (0,) + g_vals
        row = []
        for q1 in q_elems:
            gq1 = g[q1]
            for q2 in q_elems:
                row.append(add[add[gq1][g[q2]]][neg[g[qadd[q1][q2]]]])
        deltas.append(tuple(row))
    return deltas


def _projections_by_kernel(tx: Table, tq: Table, candidates, order: int) -> dict[frozenset, list[tuple]]:
    """The projection candidates ``X -> Q`` whose kernel has the given order,
    as generator images grouped by kernel, each group in candidate order.
    With ``|X| = order * |Q|`` these are exactly the surjections with a
    kernel of that order."""
    groups: dict[frozenset, list[tuple]] = {}
    for p_imgs in iproduct(*candidates):
        vals = tx.hom_value_table(tq, p_imgs)
        if vals.count(0) == order:
            kernel = frozenset(x for x, v in enumerate(vals) if v == 0)
            groups.setdefault(kernel, []).append(p_imgs)
    return groups


def _section_factor_set(tq: Table, tx: Table, p_vals: list[int]) -> tuple:
    """``s(q1) + s(q2) - s(q1 + q2)`` over the nonzero-pair grid of Q, as
    elements of the projection's kernel in X, for the section ``s`` taking
    each element of Q to the least element over it.  The zero element lies
    over 0 and is least, so ``s(0) = 0``: the section is normalised."""
    section: dict[int, int] = {}
    for x, v in enumerate(p_vals):
        section.setdefault(v, x)
    s = [section[v] for v in range(tq.n)]
    # the last listed multiple of an element is its negative
    neg = [tx.multiples[x][-1] for x in s]
    xadd = tx.sums
    out: list[int] = []
    for q1 in range(1, tq.n):
        row, qrow = xadd[s[q1]], tq.sums[q1]
        out += [xadd[row[s[q2]]][neg[qrow[q2]]] for q2 in range(1, tq.n)]
    return tuple(out)


def _canonical_factor_set(tp: Table, base: tuple, deltas: list[tuple]) -> tuple:
    """Canonical invariant of the equivalence class of a short exact
    sequence: its factor set ``base`` (a normalised section's, as elements
    of P over the nonzero-pair grid of Q), minimised over the coboundary
    subgroup ``deltas``.

    Two sequences with the same P and Q are equivalent (middle isomorphism
    commuting with the end identities) iff their factor sets differ by the
    coboundary of some map Q -> P fixing 0; translating by all such
    coboundaries and taking the minimum is therefore a complete invariant.
    It depends on ``base`` alone, so callers compute it once per factor set.
    """
    add = tp.sums
    best = None
    for delta in deltas:
        if best is None:
            best = tuple(add[a][b] for a, b in zip(base, delta))
            continue
        # lazy lexicographic comparison against the current minimum
        decided = 0  # -1 smaller, +1 larger
        prefix = []
        for a, b, c in zip(base, delta, best):
            v = add[a][b]
            prefix.append(v)
            if v != c:
                decided = -1 if v < c else 1
                break
        if decided == -1:
            k = len(prefix)
            best = tuple(prefix) + tuple(add[a][b] for a, b in zip(base[k:], delta[k:]))
    return best


def brute_ext1(q: PresentedModule, p: PresentedModule,
               budget: EnumerationBudget = EnumerationBudget()) -> ExtCount:
    """Count equivalence classes of ``0 -> P -> X -> Q -> 0`` by enumerating
    every candidate middle of order ``|P| * |Q|``, every injection of P,
    every projection whose kernel is the injection's image, and grouping by
    extension equivalence (middle isomorphism commuting with the end
    identities), decided through canonical factor sets.

    Each piece of work runs once per thing it depends on.  A middle type's
    projection candidates are walked once, on its first injective
    injection, and the surjections among them are grouped by kernel, so an
    injection finds its projections by looking up its image.  Every
    injective injection still counts all projection candidates against the
    budget, in one tick.  A projection's factor set is computed once, as
    elements of X, and read into P through each injection's inverse; each
    distinct factor set is canonicalised once per call.  The pairs come in
    the order of a walk over every (injection, projection) pair, so each
    class keeps the first pair that reaches it as its representative."""
    meter = _Meter(budget)
    tp = _module_table(p, budget, meter)
    tq = _module_table(q, budget, meter)
    n = tp.n * tq.n
    if n > budget.max_order:
        raise BudgetExceededError(f"middle order {n} exceeds budget {budget.max_order}")

    p_rel = p.relations.columns()
    deltas = _coboundary_deltas(tp, tq, meter)
    canonical: dict[tuple, tuple] = {}
    classes: set[tuple] = set()
    reps: list[ShortExactSequence] = []

    for orders in _product_types(p.ring, n):
        tx = _table(orders, [], meter)
        pcand = _hom_candidates(tx, tq)
        by_kernel = None
        factor_sets: dict[tuple, tuple] = {}
        for i_imgs in _iter_homs(tx, p_rel, _hom_candidates(tp, tx), meter):
            i_vals = tp.hom_value_table(tx, i_imgs)
            image = frozenset(i_vals)
            if len(image) != tp.n:
                continue
            meter.tick(prod(map(len, pcand)))
            if by_kernel is None:
                by_kernel = _projections_by_kernel(tx, tq, pcand, tp.n)
            i_inv = {x: pe for pe, x in enumerate(i_vals)}
            for p_imgs in by_kernel.get(image, ()):
                if tp.n == 1:
                    key = ()  # P = 0: every sequence splits
                else:
                    if p_imgs not in factor_sets:
                        factor_sets[p_imgs] = _section_factor_set(tq, tx, tx.hom_value_table(tq, p_imgs))
                    base = tuple(map(i_inv.__getitem__, factor_sets[p_imgs]))
                    if base not in canonical:
                        canonical[base] = _canonical_factor_set(tp, base, deltas)
                    key = canonical[base]
                if key in classes:
                    continue
                classes.add(key)
                x_mod = PresentedModule.from_invariant_factors(p.ring, list(orders))
                reps.append(ShortExactSequence(_morphism(p, x_mod, tx, i_imgs), _morphism(x_mod, q, tq, p_imgs)))
    return ExtCount(len(reps), reps)


def brute_equivalent(s1: ShortExactSequence, s2: ShortExactSequence,
                     budget: EnumerationBudget = EnumerationBudget()) -> bool:
    """Is there a middle isomorphism commuting with the end identities?"""
    if s1.left != s2.left or s1.right != s2.right:
        return False
    meter = _Meter(budget)
    tp = _bounded_table(s1.left, budget, meter)
    tq = _bounded_table(s1.right, budget, meter)
    tx1 = _bounded_table(s1.middle, budget, meter)
    tx2 = _bounded_table(s2.middle, budget, meter)
    i1 = _morphism_images(s1.inject, tx1)
    i2 = _morphism_images(s2.inject, tx2)
    p1 = _morphism_images(s1.project, tq)
    p2 = _morphism_images(s2.project, tq)
    rel1 = s1.middle.relations.columns()
    return _ladder_iso_exists(tp, tq, tx1, i1, p1, tx2, i2, p2, rel1, meter)


def brute_injective(p: PresentedModule, budget: EnumerationBudget = EnumerationBudget()) -> bool:
    """Baer's criterion by enumeration over the ideals of Z/m: a morphism
    ``(d) -> P`` is an element killed by ``m/d``, and it extends to the whole
    ring iff it is divisible by ``d`` inside P.  Over Z the only finitely
    generated injective module is zero: full relation rank and a one-element
    table."""
    meter = _Meter(budget)
    if not p.ring.is_modular:
        rank, _ = _bareiss_rank_pivots([list(r) for r in p.relations.data])
        return rank == p.generators and _bounded_table(p, budget, meter).n == 1
    tp = _bounded_table(p, budget, meter)
    m = p.ring.modulus
    for d in range(1, m + 1):
        if m % d:
            continue
        dp = {tp.smul(d, z) for z in range(tp.n)}
        if any(tp.smul(m // d, y) == 0 and y not in dp for y in range(tp.n)):
            return False
    return True


def brute_extension_exists(d, budget: EnumerationBudget = EnumerationBudget()) -> bool:
    """Exhaustive search for a valid full grid: every candidate middle X of
    order ``|E| * |G|`` over the ring, every surjection pair (m, n)
    compatible over Q, every injection pair (j, i) hitting the right kernels
    and commuting with the outer maps.  True iff some grid exists."""
    meter = _Meter(budget)
    te = _module_table(d.e, budget, meter)
    th = _module_table(d.h, budget, meter)
    tf = _module_table(d.f, budget, meter)
    tg = _module_table(d.g, budget, meter)
    tq = _module_table(d.q, budget, meter)
    tp = _module_table(d.p, budget, meter)

    n = te.n * tg.n
    if n != th.n * tf.n:
        raise ValueError("inconsistent grid orders")
    if n > budget.max_order:
        raise BudgetExceededError(f"middle order {n} exceeds budget {budget.max_order}")

    ef_img = _morphism_images(d.col_right.inject @ d.row_top.project, tf)   # E -> F
    hg_img = _morphism_images(d.row_bottom.inject @ d.col_left.project, tg) # H -> G
    pfq_img = _morphism_images(d.col_right.project, tq)
    pgq_img = _morphism_images(d.row_bottom.project, tq)
    nu_img = _morphism_images(d.row_top.inject, te)    # P -> E
    mu_img = _morphism_images(d.col_left.inject, th)   # P -> H

    fq_vals = tf.hom_value_table(tq, pfq_img)
    gq_vals = tg.hom_value_table(tq, pgq_img)
    e_rel = d.e.relations.columns()
    h_rel = d.h.relations.columns()

    for orders in _product_types(d.p.ring, n):
        tx = _table(orders, [], meter)
        for m_imgs in iproduct(*_hom_candidates(tx, tf)):
            meter.tick()
            m_imgs = list(m_imgs)
            if len(tf.subgroup(m_imgs)) != tf.n:
                continue
            m_vals = tx.hom_value_table(tf, m_imgs)
            ker_m = frozenset(x for x, v in enumerate(m_vals) if v == 0)
            if len(ker_m) != th.n:
                continue
            fiber_m: dict[int, list[int]] = {}
            for x, v in enumerate(m_vals):
                fiber_m.setdefault(v, []).append(x)
            ncand = []
            feasible = True
            for gi in range(tx.k):
                qv = fq_vals[m_imgs[gi]]
                opts = [y for y in range(tg.n) if tg.smul(orders[gi], y) == 0 and gq_vals[y] == qv]
                if not opts:
                    feasible = False
                    break
                ncand.append(opts)
            if not feasible:
                continue
            for n_imgs in iproduct(*ncand):
                meter.tick()
                n_imgs = list(n_imgs)
                if len(tg.subgroup(n_imgs)) != tg.n:
                    continue
                n_vals = tx.hom_value_table(tg, n_imgs)
                ker_n = frozenset(x for x, v in enumerate(n_vals) if v == 0)
                if len(ker_n) != te.n:
                    continue
                fiber_n: dict[int, list[int]] = {}
                for x, v in enumerate(n_vals):
                    fiber_n.setdefault(v, []).append(x)
                jcand = []
                feasible = True
                for jg in range(te.k):
                    opts = [x for x in fiber_m.get(ef_img[jg], [])
                            if x in ker_n and tx.smul(te.radix[jg], x) == 0]
                    if not opts:
                        feasible = False
                        break
                    jcand.append(opts)
                if not feasible:
                    continue
                for j_imgs in _iter_homs(tx, e_rel, jcand, meter):
                    jvals = te.hom_value_table(tx, j_imgs)
                    if len(set(jvals)) != te.n or set(jvals) != ker_n:
                        continue
                    icand = []
                    feasible = True
                    for ig in range(th.k):
                        opts = [x for x in fiber_n.get(hg_img[ig], [])
                                if x in ker_m and tx.smul(th.radix[ig], x) == 0]
                        if not opts:
                            feasible = False
                            break
                        icand.append(opts)
                    if not feasible:
                        continue
                    for i_imgs in _iter_homs(tx, h_rel, icand, meter):
                        ivals = th.hom_value_table(tx, i_imgs)
                        if len(set(ivals)) != th.n or set(ivals) != ker_m:
                            continue
                        if all(ivals[mu] == jvals[nu] for mu, nu in zip(mu_img, nu_img)):
                            return True
    return False
