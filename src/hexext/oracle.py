"""Brute-force ground truth for tiny finite modules.

Everything here works on explicit element tables: elements are mixed-radix
codes, addition is digit arithmetic, subgroups are closures, quotients are
coset-representative maps.  No code is shared with the Smith-form /
resolution machinery -- that independence is the whole point, since these
enumerations exist to validate it.

Presented modules become tables by reducing coefficients modulo the ring
modulus (over Z, modulo an exponent multiple obtained by fraction-free
elimination; annihilation is implied by the relations, so nothing is lost)
and closing the relation columns under addition.

Budgets are enforced by explicit candidate counting; a wall-clock deadline
is available as a backstop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product as iproduct

from .errors import BudgetExceededError
from .modules import ModuleMorphism, PresentedModule, ShortExactSequence, hom, make_ses
from .rings import prime_factors


@dataclass(frozen=True)
class EnumerationBudget:
    max_order: int = 16
    max_candidates: int = 20_000_000
    deadline_seconds: float | None = None

    def __post_init__(self):
        if self.max_order < 1 or self.max_candidates < 1:
            raise ValueError("budget bounds must be positive")


class _Meter:
    def __init__(self, budget: EnumerationBudget):
        self.budget = budget
        self.count = 0
        self.t0 = time.monotonic()

    def tick(self, n: int = 1):
        self.count += n
        if self.count > self.budget.max_candidates:
            raise BudgetExceededError(f"candidate count exceeded {self.budget.max_candidates}")
        if self.budget.deadline_seconds is not None and (self.count & 0x3FF) == 0:
            if time.monotonic() - self.t0 > self.budget.deadline_seconds:
                raise BudgetExceededError("deadline exceeded")


def _bareiss_rank_pivots(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, |pivot product|) by fraction-free elimination.  For a relation
    matrix of full row rank the pivot product is the determinant of a square
    subsystem, and that determinant annihilates the cokernel."""
    m = [r[:] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    prod = 1
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
        prod = abs(prev)
        rank += 1
        if rank == nr:
            break
    return rank, prod


class Table:
    """A finite abelian group as an explicit element table.

    ``radix`` holds per-position moduli; elements are canonical codes in
    mixed radix.  With relation columns, codes are canonicalised to the
    minimum of their coset of the additive closure of the relations.
    """

    def __init__(self, radix: tuple[int, ...], relation_cols=None, meter: _Meter | None = None):
        self.radix = tuple(radix)
        self.k = len(self.radix)
        self._weights = []
        w = 1
        for o in self.radix:
            self._weights.append(w)
            w *= o
        self.ambient = w
        if meter is not None:
            meter.tick(self.ambient)
        self._digit_cache: dict[int, tuple[int, ...]] = {}
        if relation_cols:
            sub = self._closure([self._encode(tuple(int(c) % o for c, o in zip(col, self.radix)))
                                 for col in relation_cols])
            rep: dict[int, int] = {}
            elements = []
            for code in range(self.ambient):
                if code in rep:
                    continue
                elements.append(code)
                for s in sub:
                    rep[self._raw_add(code, s)] = code
            self.rep = rep
            self.elements = elements
        else:
            self.rep = None
            self.elements = list(range(self.ambient))
        self.n = len(self.elements)

    def digits(self, code: int) -> tuple[int, ...]:
        cached = self._digit_cache.get(code)
        if cached is not None:
            return cached
        out = []
        c = code
        for o in self.radix:
            out.append(c % o)
            c //= o
        t = tuple(out)
        if len(self._digit_cache) < 200_000:
            self._digit_cache[code] = t
        return t

    def _encode(self, digits) -> int:
        return sum(d * w for d, w in zip(digits, self._weights))

    def _raw_add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self._encode(tuple((x + y) % o for x, y, o in zip(da, db, self.radix)))

    def _closure(self, gens) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self._raw_add(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def canon(self, code: int) -> int:
        return self.rep[code] if self.rep is not None else code

    def add(self, a: int, b: int) -> int:
        return self.canon(self._raw_add(a, b))

    def smul(self, k: int, a: int) -> int:
        da = self.digits(a)
        return self.canon(self._encode(tuple((k * x) % o for x, o in zip(da, self.radix))))

    def gen_code(self, idx: int) -> int:
        return self.canon(self._encode(tuple(1 if t == idx else 0 for t in range(self.k))))

    def from_coeffs(self, col) -> int:
        return self.canon(self._encode(tuple(int(c) % o for c, o in zip(col, self.radix))))

    def subgroup(self, gens) -> frozenset[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.add(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def apply_images(self, target: "Table", images, code: int) -> int:
        """Value at ``code`` of the homomorphism with the given generator
        images (only meaningful once the hom conditions hold)."""
        acc = 0
        for d, img in zip(self.digits(code), images):
            if d:
                acc = target.add(acc, target.smul(d, img))
        return acc

    def hom_value_table(self, target: "Table", images) -> list[int]:
        """Values of the homomorphism at every ambient code, built
        incrementally (one addition per code).  Product tables only."""
        if self.rep is not None:
            raise ValueError("value tables are for product tables")
        vals = [0] * self.ambient
        add = target.add
        filled = 1
        for k in range(self.k):
            o, img = self.radix[k], images[k]
            acc = 0
            for d in range(1, o):
                acc = add(acc, img)
                base = d * filled
                for c in range(filled):
                    vals[base + c] = add(acc, vals[c])
            filled *= o
        return vals


def _module_table(m: PresentedModule, budget: EnumerationBudget, meter: _Meter) -> Table:
    g = m.generators
    if g == 0:
        return Table((), None, meter)
    if m.ring.is_modular:
        mod = m.ring.modulus
    else:
        rows = [[m.relations.data[i][j] for j in range(m.relations.cols)] for i in range(g)]
        rank, piv = _bareiss_rank_pivots(rows)
        if rank < g:
            raise BudgetExceededError("module is infinite; oracle tables need finite modules")
        mod = piv
    if mod ** g > budget.max_candidates:
        raise BudgetExceededError("ambient table too large for the budget")
    cols = [list(m.relations.col(j)) for j in range(m.relations.cols)]
    return Table((mod,) * g, cols, meter)


def _morphism_images(f: ModuleMorphism, tgt: Table) -> list[int]:
    return [tgt.from_coeffs(f.matrix.col(j)) for j in range(f.source.generators)]


def _hom_candidates(src: Table, tgt: Table, base: list[list[int]]) -> list[list[int]]:
    """Restrict per-generator candidate images by the generator's ambient
    order (implied by the relation conditions; filtering early is sound and
    cheap)."""
    out = []
    for idx in range(src.k):
        o = src.radix[idx]
        out.append([y for y in base[idx] if tgt.smul(o, y) == 0])
    return out


def _iter_homs(src: Table, tgt: Table, relation_cols, candidates, meter: _Meter):
    """Generator-image assignments that kill every relation column."""
    for images in iproduct(*candidates):
        meter.tick()
        ok = True
        for col in relation_cols:
            acc = 0
            for c, img in zip(col, images):
                if c:
                    acc = tgt.add(acc, tgt.smul(c, img))
            if acc != 0:
                ok = False
                break
        if ok:
            yield list(images)


def _relation_cols(m: PresentedModule):
    return [m.relations.col(j) for j in range(m.relations.cols)]


# ---------------------------------------------------------------------------
# Public oracle operations
# ---------------------------------------------------------------------------


def enumerate_morphisms(a: PresentedModule, b: PresentedModule,
                        budget: EnumerationBudget = EnumerationBudget()) -> list[ModuleMorphism]:
    """Every well-defined morphism ``a -> b``; complete and duplicate-free
    under morphism equality (images are canonical element codes)."""
    meter = _Meter(budget)
    ta = _module_table(a, budget, meter)
    tb = _module_table(b, budget, meter)
    cands = _hom_candidates(ta, tb, [tb.elements] * a.generators)
    space = 1
    for c in cands:
        space *= len(c)
    if space > budget.max_candidates:
        raise BudgetExceededError("morphism space too large")
    out = []
    for images in _iter_homs(ta, tb, _relation_cols(a), cands, meter):
        cols = [list(tb.digits(img)) for img in images]
        mat = [[cols[j][i] for j in range(a.generators)] for i in range(b.generators)]
        out.append(hom(a, b, mat))
    return out


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
    for y in tx2.elements:
        fibers.setdefault(tx2.apply_images(tq, p2, y), []).append(y)
    cand = []
    for gidx in range(tx1.k):
        gcode = tx1.gen_code(gidx)
        pool = fibers.get(tx1.apply_images(tq, p1, gcode), [])
        o = tx1.radix[gidx]
        pool = [y for y in pool if tx2.smul(o, y) == 0]
        if not pool:
            return False
        cand.append(pool)
    p_elems = tp.elements
    for images in iproduct(*cand):
        meter.tick()
        ok = True
        for col in rel1:
            acc = 0
            for c, img in zip(col, images):
                if c:
                    acc = tx2.add(acc, tx2.smul(c, img))
            if acc != 0:
                ok = False
                break
        if not ok:
            continue
        for pe in p_elems:
            x1 = tp.apply_images(tx1, i1, pe)
            if tx1.apply_images(tx2, list(images), x1) != tp.apply_images(tx2, i2, pe):
                ok = False
                break
        if ok:
            return True
    return False


def _coboundary_deltas(tp: Table, tq: Table, meter: _Meter) -> list[tuple]:
    """All coboundaries of maps Q -> P fixing 0, as flat tuples over the
    nonzero-pair grid.  Depends only on the end tables, so callers compute
    this once per (P, Q)."""
    q_elems = [v for v in tq.elements if v != 0]
    neg = {a: tp.smul(-1, a) for a in tp.elements}
    deltas = []
    meter.tick(tp.n ** len(q_elems))
    for g_vals in iproduct(tp.elements, repeat=len(q_elems)):
        g = dict(zip(q_elems, g_vals))
        g[0] = 0
        row = []
        for q1 in q_elems:
            gq1 = g[q1]
            for q2 in q_elems:
                row.append(tp.add(tp.add(gq1, g[q2]), neg[g[tq.add(q1, q2)]]))
        deltas.append(tuple(row))
    return deltas


def _canonical_factor_set(tp: Table, tq: Table, tx: Table,
                          i_imgs: list[int], p_vals: list[int],
                          deltas: list[tuple]) -> tuple:
    """Canonical invariant of the equivalence class of a short exact
    sequence: the factor set of a normalized section, minimised over the
    coboundary subgroup.

    Two sequences with the same P and Q are equivalent (middle isomorphism
    commuting with the end identities) iff their factor sets differ by the
    coboundary of some map Q -> P fixing 0; translating by all such
    coboundaries and taking the minimum is therefore a complete invariant.
    ``p_vals`` holds the projection's value at every middle code.
    """
    if tp.n == 1:
        return ()
    i_inv = {tp.apply_images(tx, i_imgs, pe): pe for pe in tp.elements}
    section: dict[int, int] = {}
    for x in tx.elements:
        v = p_vals[x]
        if v not in section or x < section[v]:
            section[v] = x
    # the zero code lies over 0 and is minimal, so s(0) = 0: normalised
    q_elems = [v for v in tq.elements if v != 0]
    xneg = {a: tx.smul(-1, a) for a in set(section.values())}
    base = []
    for q1 in q_elems:
        s1 = section[q1]
        for q2 in q_elems:
            diff = tx.add(tx.add(s1, section[q2]), xneg[section[tq.add(q1, q2)]])
            base.append(i_inv[diff])
    add = tp.add
    best = None
    for delta in deltas:
        if best is None:
            best = tuple(add(a, b) for a, b in zip(base, delta))
            continue
        # lazy lexicographic comparison against the current minimum
        decided = 0  # -1 smaller, +1 larger
        prefix = []
        for a, b, c in zip(base, delta, best):
            v = add(a, b)
            prefix.append(v)
            if v != c:
                decided = -1 if v < c else 1
                break
        if decided == -1:
            k = len(prefix)
            best = tuple(prefix) + tuple(add(a, b) for a, b in zip(base[k:], delta[k:]))
    return best


def brute_ext1(q: PresentedModule, p: PresentedModule,
               budget: EnumerationBudget = EnumerationBudget()) -> ExtCount:
    """Count equivalence classes of ``0 -> P -> X -> Q -> 0`` by enumerating
    every candidate middle of order ``|P| * |Q|``, every injection of P,
    every projection with matching kernel, and grouping by extension
    equivalence (middle isomorphism commuting with the end identities),
    decided through canonical factor sets."""
    meter = _Meter(budget)
    tp = _module_table(p, budget, meter)
    tq = _module_table(q, budget, meter)
    n = tp.n * tq.n
    if n > budget.max_order:
        raise BudgetExceededError(f"middle order {n} exceeds budget {budget.max_order}")

    p_rel = _relation_cols(p)
    p_elems = tp.elements
    deltas = _coboundary_deltas(tp, tq, meter)
    classes: dict[tuple, int] = {}
    reps: list[ShortExactSequence] = []

    for orders in _product_types(p.ring, n):
        tx = Table(orders, None, meter)
        inj_cands = _hom_candidates(tp, tx, [tx.elements] * p.generators)
        for i_imgs in _iter_homs(tp, tx, p_rel, inj_cands, meter):
            vals = [tp.apply_images(tx, i_imgs, pe) for pe in p_elems]
            if len(set(vals)) != tp.n:
                continue
            image = set(vals)
            pcand = [[y for y in tq.elements if tq.smul(o, y) == 0] for o in orders]
            for p_imgs in iproduct(*pcand):
                meter.tick()
                p_vals = tx.hom_value_table(tq, p_imgs)
                if len(set(p_vals)) != tq.n:
                    continue
                zeros = [x for x, v in enumerate(p_vals) if v == 0]
                if len(zeros) != tp.n or any(x not in image for x in zeros):
                    continue
                key = _canonical_factor_set(tp, tq, tx, i_imgs, p_vals, deltas)
                if key in classes:
                    continue
                classes[key] = len(reps)
                x_mod = PresentedModule.from_invariant_factors(p.ring, list(orders))
                imat = [[tx.digits(v)[r] for v in i_imgs] for r in range(tx.k)]
                pmat = [[tq.digits(v)[r] for v in p_imgs] for r in range(tq.k)]
                reps.append(make_ses(hom(p, x_mod, imat), hom(x_mod, q, pmat)))
    return ExtCount(len(reps), reps)


def brute_equivalent(s1: ShortExactSequence, s2: ShortExactSequence,
                     budget: EnumerationBudget = EnumerationBudget()) -> bool:
    """Is there a middle isomorphism commuting with the end identities?"""
    if s1.left != s2.left or s1.right != s2.right:
        return False
    meter = _Meter(budget)
    tp = _module_table(s1.left, budget, meter)
    tq = _module_table(s1.right, budget, meter)
    tx1 = _module_table(s1.middle, budget, meter)
    tx2 = _module_table(s2.middle, budget, meter)
    i1 = _morphism_images(s1.inject, tx1)
    i2 = _morphism_images(s2.inject, tx2)
    p1 = _morphism_images(s1.project, tq)
    p2 = _morphism_images(s2.project, tq)
    rel1 = _relation_cols(s1.middle)
    return _ladder_iso_exists(tp, tq, tx1, i1, p1, tx2, i2, p2, rel1, meter)


def brute_injective(p: PresentedModule, budget: EnumerationBudget = EnumerationBudget()) -> bool:
    """Baer's criterion by enumeration over the ideals of Z/m: a morphism
    ``(d) -> P`` is an element killed by ``m/d``, and it extends to the whole
    ring iff it is divisible by ``d`` inside P."""
    if not p.ring.is_modular:
        return p.is_zero_module()
    meter = _Meter(budget)
    tp = _module_table(p, budget, meter)
    m = p.ring.modulus
    dp_cache: dict[int, set[int]] = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        tors = [y for y in tp.elements if tp.smul(m // d, y) == 0]
        dp = dp_cache.setdefault(d, {tp.smul(d, z) for z in tp.elements})
        if any(y not in dp for y in tors):
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

    e_rel = _relation_cols(d.e)
    h_rel = _relation_cols(d.h)
    e_elems = te.elements
    h_elems = th.elements
    full_f = frozenset(tf.elements)
    full_g = frozenset(tg.elements)

    for orders in _product_types(d.p.ring, n):
        tx = Table(orders, None, meter)
        x_gens = [tx.gen_code(gi) for gi in range(tx.k)]
        mcand = [[y for y in tf.elements if tf.smul(o, y) == 0] for o in orders]
        for m_imgs in iproduct(*mcand):
            meter.tick()
            m_imgs = list(m_imgs)
            if tf.subgroup(m_imgs) != full_f:
                continue
            m_vals = tx.hom_value_table(tf, m_imgs)
            m_of = {x: m_vals[x] for x in tx.elements}
            ker_m = frozenset(x for x, v in m_of.items() if v == 0)
            if len(ker_m) != th.n:
                continue
            fiber_m: dict[int, list[int]] = {}
            for x, v in m_of.items():
                fiber_m.setdefault(v, []).append(x)
            ncand = []
            feasible = True
            for gi in range(tx.k):
                qv = tf.apply_images(tq, pfq_img, m_imgs[gi])
                opts = [y for y in tg.elements
                        if tg.smul(orders[gi], y) == 0 and tg.apply_images(tq, pgq_img, y) == qv]
                if not opts:
                    feasible = False
                    break
                ncand.append(opts)
            if not feasible:
                continue
            for n_imgs in iproduct(*ncand):
                meter.tick()
                n_imgs = list(n_imgs)
                if tg.subgroup(n_imgs) != full_g:
                    continue
                n_vals = tx.hom_value_table(tg, n_imgs)
                n_of = {x: n_vals[x] for x in tx.elements}
                ker_n = frozenset(x for x, v in n_of.items() if v == 0)
                if len(ker_n) != te.n:
                    continue
                fiber_n: dict[int, list[int]] = {}
                for x, v in n_of.items():
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
                for j_imgs in _iter_homs(te, tx, e_rel, jcand, meter):
                    jvals = [te.apply_images(tx, j_imgs, e) for e in e_elems]
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
                    for i_imgs in _iter_homs(th, tx, h_rel, icand, meter):
                        ivals = [th.apply_images(tx, i_imgs, h) for h in h_elems]
                        if len(set(ivals)) != th.n or set(ivals) != ker_m:
                            continue
                        ok = True
                        for pg in range(tp.k):
                            left = th.apply_images(tx, i_imgs, mu_img[pg])
                            right = te.apply_images(tx, j_imgs, nu_img[pg])
                            if left != right:
                                ok = False
                                break
                        if ok:
                            return True
    return False
