"""Brute-force ground truth for tiny finite modules.

Everything here works on explicit element tables.  A finite abelian group is
a :class:`Table`, built once: its elements are the numbers ``0..n-1``, each
with its mixed-radix digits, plus an addition table and the multiples of
every element, so sums, scalar multiples and linear combinations are list
lookups; quotients are coset labellings.

Presented modules become tables by reducing each coefficient modulo a
multiple of its generator's order (the ring modulus, or over Z an exponent
multiple obtained by fraction-free elimination, cut down by any relation
column that is a multiple of that generator alone; annihilation is implied
by the relations, so nothing is lost) and dividing out the additive closure
of the relation columns.  A table's addition table is filled from one shift
permutation per generator, so its build costs k * n digit additions.

Homomorphism searches draw their candidate generator images from
:func:`_pools` and walk them with :func:`_iter_homs`, which builds each
relation test once per search, as the column's nonzero terms; zero columns
and single-generator columns that the pools already enforce are dropped.
:func:`brute_extension_exists` lists each middle type's pools once and
narrows them for each surjection pair with :func:`_narrowed`.
The injection searches (:func:`brute_ext1`'s injections,
:func:`brute_equivalent`'s middle map, which the five lemma makes an
isomorphism, and :func:`brute_extension_exists`'s j and i) walk only the
candidates that keep each generator's order, since an injective map keeps
every order.  The candidates they skip still count, ticked in place, so
every meter reads as it would after a walk over every candidate.

The oracle calls nothing in the Smith-form / Hermite / resolution engine: it
reads presentations and morphism matrices, decides with its own elimination
and tables, and returns morphisms and sequences built with the plain
constructors.  That independence is the whole point, since these
enumerations exist to validate the engine.

Budgets are enforced by explicit candidate counting; every table's ambient
size and addition-table cells count as candidates, on every call, also when
:func:`_table` hands out a table kept from an earlier call.  A table is a
value, compared on its radix and the relation subgroup it divides out, and
:func:`brute_ext1` walks once per process for each pair of tables and
budget, so presentations of the same relation lattices share one walk; its
representatives are rebuilt on the caller's own modules.  All three memos
are ``lru_cache`` functions capped at ``CACHE_SIZE``, like every cache in
``hexext`` except the ``diagram._known`` identity slot.  ``max_order``
bounds the order of every module an operation tabulates, and of the middle
objects that :func:`brute_ext1` and :func:`brute_extension_exists`
enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product as iproduct
from math import gcd, prod

from .errors import BudgetExceededError
from .linalg import CACHE_SIZE, ExactMatrix
from .modules import ModuleMorphism, PresentedModule, ShortExactSequence
from .rings import prime_factors


# the default order budget, and the largest ambient order of a table kept by _table
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

    ``radix`` holds the per-position moduli of an ambient product group,
    ``relation_cols`` the given relation columns reduced mod the radix, and
    ``subgroup`` the codes of the subgroup they span, which the table
    divides out.  Every other part follows from ``radix`` and ``subgroup``,
    so a table is a value: it compares and hashes as ``(radix, subgroup)``,
    and two presentations of one lattice give equal tables.

    Elements are the numbers ``0..n-1``, one per coset, numbered in
    increasing order of the least mixed-radix code (position 0 least
    significant) in the coset, so 0 is zero and, with no relations, an
    element is its own code.  ``digits[x]`` holds the digits of that least
    code, ``multiples[x]`` lists ``0, x, 2x, ...`` up to the order of x and
    ``gen_orders[g]`` is the order of generator g.  ``_steps`` lists every
    nonzero element once as ``(x, earlier, g)`` with ``x = earlier +
    generator g``, in breadth-first order from 0, so
    :meth:`hom_value_table` spends one addition per element with or without
    relations.  ``sums`` is the n x n addition table, filled row by row
    along ``_steps`` from one shift permutation per generator, so its build
    costs k * n digit additions, not n * n.  All of them are tuples or
    frozen sets, since :func:`_table` shares one table between calls.
    """

    def __init__(self, radix: tuple[int, ...], relation_cols, meter: _Meter):
        self.radix = tuple(radix)
        self.k = len(self.radix)
        meter.tick(prod(self.radix))

        def add_digits(a, b):
            return tuple((x + y) % o for x, y, o in zip(a, b, self.radix))

        self.relation_cols = tuple(tuple(c % o for c, o in zip(col, self.radix)) for col in relation_cols)
        sub = _closure(self.relation_cols, add_digits, (0,) * self.k)
        self.subgroup = frozenset(sub)
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
        # shifts[i][x] is x + generator i: k * n digit additions in all
        shifts = [tuple(index[add_digits(code, unit)] for code in digits)
                  for unit in (tuple(int(t == i) % o for t, o in enumerate(self.radix)) for i in range(self.k))]
        self._gens = tuple(shift[0] for shift in shifts)
        reached = iter(_closure(shifts, lambda x, shift: shift[x], 0).items())
        next(reached)  # zero
        self._steps = tuple((x, earlier, g) for x, (earlier, g) in reached)
        sums = []
        for a in range(self.n):
            row = [a] * self.n
            for x, earlier, g in self._steps:
                row[x] = shifts[g][row[earlier]]
            sums.append(tuple(row))
        self.sums = tuple(sums)
        multiples = []
        for x in range(self.n):
            mult = [0]
            y = x
            while y:
                mult.append(y)
                y = self.sums[y][x]
            multiples.append(tuple(mult))
        self.multiples = tuple(multiples)
        self.gen_orders = tuple(len(multiples[x]) for x in self._gens)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.radix == other.radix and self.subgroup == other.subgroup

    def __hash__(self) -> int:
        return hash((self.radix, self.subgroup))

    def smul(self, k: int, a: int) -> int:
        mult = self.multiples[a]
        return mult[k % len(mult)]

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

    def hom_value_table(self, target: "Table", images) -> list[int]:
        """The value at every element of the homomorphism with the given generator
        images (once the hom conditions hold), one addition per element along ``_steps``."""
        vals = [0] * self.n
        sums = target.sums
        for x, earlier, g in self._steps:
            vals[x] = sums[vals[earlier]][images[g]]
        return vals


@lru_cache(maxsize=CACHE_SIZE)
def _small_table(radix: tuple[int, ...], relation_cols: tuple[tuple[int, ...], ...]) -> Table:
    """``Table(radix, relation_cols)`` for an ambient group of at most the
    default ``max_order`` elements, kept for the process.  Its meter is its
    own: such a build ticks at most 16 + 256 candidates, and :func:`_table`
    charges them to the caller."""
    return Table(radix, relation_cols, _Meter(EnumerationBudget()))


def _table(radix: tuple[int, ...], relation_cols, meter: _Meter) -> Table:
    """``Table(radix, relation_cols, meter)``, kept for the process if small.

    A table whose ambient group has at most the default ``max_order``
    elements comes from :func:`_small_table`, an ``lru_cache`` capped at
    ``CACHE_SIZE``, and then ticks its ambient size and its sum cells on the
    caller's meter, as a build does, so every budget refuses a kept table at
    the same point and with the same message.  A larger table is built under
    the caller's meter every time, so an oversized one still raises before
    it allocates.
    """
    ambient = prod(radix)
    if ambient > _DEFAULT_MAX_ORDER:
        return Table(radix, relation_cols, meter)
    t = _small_table(tuple(radix), tuple(map(tuple, relation_cols)))
    meter.tick(ambient)
    meter.tick(t.n * t.n)
    return t


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


def _digit_rows(tgt: Table, images) -> tuple[tuple[int, ...], ...]:
    """The matrix, as rows, of the map with the given generator images, read
    off ``tgt``'s digits."""
    return tuple(tuple(tgt.digits[img][i] for img in images) for i in range(tgt.k))


def _morphism(source: PresentedModule, target: PresentedModule, rows) -> ModuleMorphism:
    """The morphism with the matrix ``rows``, built by the plain constructor:
    the rows come from a relation-killing search, so the matrix is well
    defined by construction."""
    return ModuleMorphism(source, target, ExactMatrix.from_rows(source.ring, rows, source.generators))


def _pools(src: Table, tgt: Table, posts=()) -> list[list[int]] | None:
    """The candidate images in ``tgt`` of each generator of ``src``, every
    homomorphism search's one source of candidates: the elements that the
    generator's ambient order kills (implied by the relation conditions;
    filtering early is sound and cheap), narrowed by ``posts`` as
    :func:`_narrowed` does.  Each pool is ascending; ``None`` as soon as
    one generator has no candidate."""
    return _narrowed([[y for y in range(tgt.n) if tgt.smul(o, y) == 0] for o in src.radix], posts)


def _narrowed(pools, posts) -> list[list[int]] | None:
    """``pools`` with generator g's pool cut to the elements that, for each
    ``(vals, images)`` in ``posts``, the map with value table ``vals`` sends
    to ``images[g]``; ``None`` as soon as one pool is empty.  A search that
    narrows the same pools many times lists them once and narrows them
    here."""
    out = []
    for g, pool in enumerate(pools):
        for vals, images in posts:
            want = images[g]
            pool = [y for y in pool if vals[y] == want]
        if not pool:
            return None
        out.append(pool)
    return out


def _iter_homs(tgt: Table, relation_cols, candidates, meter: _Meter, orders=None):
    """Generator-image assignments that kill every relation column, in the
    product order of ``candidates``.

    With ``orders``, the walk takes only the assignments that send each
    generator g to an element of order ``orders[g]``: an injective map keeps
    every order, so an injection search loses nothing.  The meter still
    counts every candidate of the product, in place: a walked candidate
    ticks itself and the skipped ones before it, and the end of the walk
    ticks those after the last, so the count at every yield, at an early
    exit and at a refusal is that of a walk over every candidate.

    The relation tests are built once per search: each column becomes its
    nonzero terms, each a generator with the table of ``c * y`` over the
    target.  A zero column is dropped, and so is a column ``c * e_g`` whose
    ``c`` kills every walked candidate for g, since every assignment passes
    it."""
    # images[g] holds the walked candidates for generator g, and weights[g]
    # what each adds to the position in the product of all candidates
    weights, images = [], []
    stride = 1
    for g in reversed(range(len(candidates))):
        pool = candidates[g]
        keep = [i for i, y in enumerate(pool) if orders is None or len(tgt.multiples[y]) == orders[g]]
        weights.append([i * stride for i in keep])
        images.append([pool[i] for i in keep])
        stride *= len(pool)
    weights.reverse()
    images.reverse()
    tests = []
    for col in relation_cols:
        terms = [(g, c) for g, c in enumerate(col) if c]
        if not terms or len(terms) == 1 and all(tgt.smul(c, y) == 0 for g, c in terms for y in images[g]):
            continue
        tests.append([(g, tuple(tgt.smul(c, y) for y in range(tgt.n))) for g, c in terms])
    sums = tgt.sums
    last = -1
    for offsets, imgs in zip(iproduct(*weights), iproduct(*images)):
        pos = sum(offsets)
        meter.tick(pos - last)
        last = pos
        for terms in tests:
            acc = 0
            for g, times in terms:
                acc = sums[acc][times[imgs[g]]]
            if acc:
                break
        else:
            yield list(imgs)
    meter.tick(stride - 1 - last)


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
    cands = _pools(ta, tb)
    if prod(len(c) for c in cands) > budget.max_candidates:
        raise BudgetExceededError("morphism space too large")
    return [_morphism(a, b, _digit_rows(tb, images))
            for images in _iter_homs(tb, a.relations.columns(), cands, meter)]


def _product_types(ring, n: int) -> list[tuple[int, ...]]:
    """Every isomorphism type of order n over the ring, once each, as
    descending prime-power orders: for each prime, a partition of its
    exponent in n, with parts capped over Z/m at its exponent in m."""
    caps = prime_factors(ring.modulus) if ring.is_modular else None

    def partitions(total, mx):
        if total == 0:
            yield ()
            return
        for k in range(min(total, mx), 0, -1):
            for rest in partitions(total - k, k):
                yield (k,) + rest

    per_prime = [[[p ** k for k in part] for part in partitions(e, e if caps is None else caps.get(p, 0))]
                 for p, e in prime_factors(n).items()]
    return sorted((tuple(sorted(chain(*combo), reverse=True)) for combo in iproduct(*per_prime)), reverse=True)


@dataclass
class ExtCount:
    count: int
    representatives: list = field(default_factory=list)


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
    return min(tuple([add[a][b] for a, b in zip(base, delta)]) for delta in deltas)


def brute_ext1(q: PresentedModule, p: PresentedModule,
               budget: EnumerationBudget = EnumerationBudget()) -> ExtCount:
    """Count equivalence classes of ``0 -> P -> X -> Q -> 0`` by enumerating
    every candidate middle of order ``|P| * |Q|``, every injection of P,
    every projection whose kernel is the injection's image, and grouping by
    extension equivalence (middle isomorphism commuting with the end
    identities), told apart by canonical factor sets.

    The walk runs once per process for each pair of tables and budget:
    :func:`_ext1_classes` is kept on Q's and P's tables, which are equal
    for any two presentations of the same relation lattices, so another
    presentation of a walked pair only reads the kept classes and rebuilds
    each representative on the caller's own P and Q.  :func:`_ext1_walk`
    keeps those representatives on ``(Q, P, budget)``, and a later call
    returns them in a fresh list.  A refused walk raises and keeps nothing;
    another budget walks afresh."""
    reps = _ext1_walk(q, p, budget)
    return ExtCount(len(reps), list(reps))


@lru_cache(maxsize=CACHE_SIZE)
def _ext1_walk(q: PresentedModule, p: PresentedModule,
               budget: EnumerationBudget) -> tuple[ShortExactSequence, ...]:
    """The representatives :func:`brute_ext1` counts, one per class, on P
    and Q.  Keyed on Q and P as values (their relation matrices, ring
    included) and on the budget, so callers pass all three positionally.
    It tabulates P and Q under its own meter, refuses a middle order over
    the budget, and rebuilds the classes of :func:`_ext1_classes` with the
    plain constructors."""
    meter = _Meter(budget)
    tp = _module_table(p, budget, meter)
    tq = _module_table(q, budget, meter)
    n = tp.n * tq.n
    if n > budget.max_order:
        raise BudgetExceededError(f"middle order {n} exceeds budget {budget.max_order}")
    reps = []
    for orders, i_rows, p_rows in _ext1_classes(p.ring, tq, tp, budget):
        x_mod = PresentedModule.from_invariant_factors(p.ring, list(orders))
        reps.append(ShortExactSequence(_morphism(p, x_mod, i_rows), _morphism(x_mod, q, p_rows)))
    return tuple(reps)


@lru_cache(maxsize=CACHE_SIZE)
def _ext1_classes(ring, tq: Table, tp: Table, budget: EnumerationBudget) -> tuple[tuple, ...]:
    """The classes of :func:`_ext1_walk`, one ``(orders, i rows, p rows)``
    per class: the middle's prime-power orders and the matrices of its
    representative's injection and projection.  Keyed on the ring, on Q's
    and P's tables as values and on the budget, so every presentation of
    one pair of relation lattices shares one walk.  Equal tables give the
    same pools, the same candidate order and the same passing assignments,
    so the walk, its meter and its refusals do not depend on which
    presentation came first.  A table's radix is read off its presentation
    (the modulus and the single-generator columns), so two presentations
    share the walk when their radices agree too.  Its meter starts with the
    ticks of tabulating P and then Q, which :func:`_ext1_walk` has already
    passed under the same budget.

    Each piece of work runs once per thing it depends on.  A middle type's
    projection candidates are walked once, on its first injective
    injection, and the surjections among them are grouped by kernel, so an
    injection finds its projections by looking up its image.  Every
    injective injection still counts all projection candidates against the
    budget, in one tick.  A projection's factor set is computed once, as
    elements of X, and read into P through each injection's inverse; each
    distinct factor set is canonicalised once per walk.  The pairs come in
    the order of a walk over every (injection, projection) pair, so each
    class keeps the first pair that reaches it as its representative."""
    meter = _Meter(budget)
    meter.tick(prod(tp.radix) + tp.n * tp.n + prod(tq.radix) + tq.n * tq.n)
    n = tp.n * tq.n
    deltas = _coboundary_deltas(tp, tq, meter)
    canonical: dict[tuple, tuple] = {}
    classes: set[tuple] = set()
    reps: list[tuple] = []

    for orders in _product_types(ring, n):
        tx = _table(orders, [], meter)
        pcand = _pools(tx, tq)
        by_kernel = None
        factor_sets: dict[tuple, tuple] = {}
        for i_imgs in _iter_homs(tx, tp.relation_cols, _pools(tp, tx), meter, tp.gen_orders):
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
                reps.append((orders, _digit_rows(tx, i_imgs), _digit_rows(tq, p_imgs)))
    return tuple(reps)


def brute_equivalent(s1: ShortExactSequence, s2: ShortExactSequence,
                     budget: EnumerationBudget = EnumerationBudget()) -> bool:
    """Is there a middle isomorphism commuting with the end identities?
    Searches for ``phi : X1 -> X2`` with ``phi o i1 = i2`` and
    ``p2 o phi = p1``; by the short five lemma any such map is an
    isomorphism."""
    if s1.left != s2.left or s1.right != s2.right:
        return False
    meter = _Meter(budget)
    tp = _bounded_table(s1.left, budget, meter)
    tq = _bounded_table(s1.right, budget, meter)
    tx1 = _bounded_table(s1.middle, budget, meter)
    tx2 = _bounded_table(s2.middle, budget, meter)
    if tx1.n != tx2.n:
        return False
    p2_vals = tx2.hom_value_table(tq, _morphism_images(s2.project, tq))
    cand = _pools(tx1, tx2, [(p2_vals, _morphism_images(s1.project, tq))])
    if cand is None:
        return False
    along_i = list(zip(tp.hom_value_table(tx1, _morphism_images(s1.inject, tx1)),
                       tp.hom_value_table(tx2, _morphism_images(s2.inject, tx2))))
    for images in _iter_homs(tx2, s1.middle.relations.columns(), cand, meter, tx1.gen_orders):
        phi = tx1.hom_value_table(tx2, images)
        if all(phi[x1] == x2 for x1, x2 in along_i):
            return True
    return False


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
        # the pools before any condition on m or n, listed once per middle
        # type and narrowed for each (m, n) pair
        n_pools, j_pools, i_pools = _pools(tx, tg), _pools(te, tx), _pools(th, tx)
        # |X| = |H||F| = |E||G|, so m and n are onto exactly when their
        # kernels have the orders of H and E
        for m_imgs in _iter_homs(tf, [], _pools(tx, tf), meter):
            m_vals = tx.hom_value_table(tf, m_imgs)
            if m_vals.count(0) != th.n:
                continue
            ncand = _narrowed(n_pools, [(gq_vals, [fq_vals[y] for y in m_imgs])])
            if ncand is None:
                continue
            for n_imgs in _iter_homs(tg, [], ncand, meter):
                n_vals = tx.hom_value_table(tg, n_imgs)
                if n_vals.count(0) != te.n:
                    continue
                # j's generators go into ker n and, along m, over E -> F;
                # i's into ker m and, along n, over H -> G.  |ker n| = |E|
                # and |ker m| = |H|, so an injective j or i fills its kernel
                jcand = _narrowed(j_pools, [(m_vals, ef_img), (n_vals, [0] * te.k)])
                if jcand is None:
                    continue
                icand = _narrowed(i_pools, [(m_vals, [0] * th.k), (n_vals, hg_img)])
                for j_imgs in _iter_homs(tx, e_rel, jcand, meter, te.gen_orders):
                    jvals = te.hom_value_table(tx, j_imgs)
                    if len(set(jvals)) != te.n or icand is None:
                        continue
                    for i_imgs in _iter_homs(tx, h_rel, icand, meter, th.gen_orders):
                        ivals = th.hom_value_table(tx, i_imgs)
                        if len(set(ivals)) != th.n:
                            continue
                        if all(ivals[mu] == jvals[nu] for mu, nu in zip(mu_img, nu_img)):
                            return True
    return False
