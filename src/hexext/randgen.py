"""Seeded random generators for modules, classes, diagrams and frames.

All randomness flows through a caller-supplied ``random.Random`` so that runs
are exactly reproducible from a 64-bit seed.  Generated diagrams are always
valid: rows and columns are realized from random extension classes, so
exactness and corner sharing hold by construction (and are re-checked by the
consumers).
"""

from __future__ import annotations

import random

from .diagram import Diagram3x3, DiagramExtension
from .ext import ext_module, ses_of_class
from .hexagon import HexagonFrame
from .modules import PresentedModule, direct_sum, hom, zero_morphism
from .rings import RingSpec


def _divisors_gt1(m: int, limit: int) -> list[int]:
    return [d for d in range(2, min(m, limit) + 1) if m % d == 0]


def random_module(rng: random.Random, ring: RingSpec, max_order: int,
                  allow_zero: bool = True, free_rank_chance: float = 0.0) -> PresentedModule:
    """A random finitely presented module of order at most ``max_order``,
    with an obfuscated (non-diagonal, redundant) presentation."""
    if ring.is_modular:
        pool = _divisors_gt1(ring.modulus, max_order)   # a larger factor never fits
    else:
        pool = [d for d in (2, 3, 4, 5, 8, 9) if d <= max_order]
    factors: list[int] = []
    order = 1
    while pool:
        opts = [d for d in pool if order * d <= max_order]
        if not opts:
            break
        if factors and rng.random() < 0.45:
            break
        if not factors and allow_zero and rng.random() < 0.08:
            break
        factors.append(rng.choice(opts))
        order *= factors[-1]
    free_rank = 1 if (not ring.is_modular and rng.random() < free_rank_chance) else 0
    m = PresentedModule.from_invariant_factors(ring, factors, free_rank)
    if m.generators == 0:
        return m
    # mix the presentation: column operations and redundant relation columns
    cols = [list(m.relations.col(j)) for j in range(m.relations.cols)]
    for _ in range(rng.randrange(0, 4)):
        if len(cols) >= 2:
            a, b = rng.randrange(len(cols)), rng.randrange(len(cols))
            if a != b:
                c = rng.choice((1, -1, 2))
                cols[a] = [x + c * y for x, y in zip(cols[a], cols[b])]
    if cols and rng.random() < 0.4:
        a, b = rng.randrange(len(cols)), rng.randrange(len(cols))
        cols.append([x + y for x, y in zip(cols[a], cols[b])])
    rng.shuffle(cols)
    return PresentedModule.make(ring, m.generators, cols)


def random_class(rng: random.Random, ext):
    coords = tuple(rng.randrange(0, 6) for _ in range(ext.presentation.generators))
    return ext.class_from_coords(coords)


def random_ses(rng: random.Random, left: PresentedModule, right: PresentedModule):
    return ses_of_class(random_class(rng, ext_module(1, right, left)))


def random_diagram(rng: random.Random, ring: RingSpec, max_order: int = 16) -> Diagram3x3:
    """A valid grid frame: random corners (orders multiplying within bounds)
    and rows/columns realized from random extension classes."""
    while True:
        p = random_module(rng, ring, max_order)
        r = random_module(rng, ring, max_order)
        s = random_module(rng, ring, max_order)
        q = random_module(rng, ring, max_order)
        sizes = [p.cardinality(), r.cardinality(), s.cardinality(), q.cardinality()]
        if None in sizes:
            continue
        if sizes[0] * sizes[1] <= max_order and sizes[0] * sizes[2] <= max_order \
                and sizes[1] * sizes[3] <= max_order and sizes[2] * sizes[3] <= max_order:
            break
    return Diagram3x3(
        row_top=random_ses(rng, p, r),
        row_bottom=random_ses(rng, s, q),
        col_left=random_ses(rng, p, s),
        col_right=random_ses(rng, r, q),
    )


def frame_from_diagram(dg: Diagram3x3, rng: random.Random | None = None) -> HexagonFrame:
    """The hexagon frame whose fold returns (a diagram canonically identified
    with) ``dg``.  Given an ``rng``, the outer corners gain random junk
    summands that folding must quotient away / cut down."""
    ring = dg.p.ring
    a1, alpha, beta = dg.p, dg.col_left.inject, dg.row_top.inject
    a4 = dg.q
    r_map, s_map = dg.row_bottom.project, dg.col_right.project
    if rng is not None:
        k = random_module(rng, ring, 4, allow_zero=False)
        ds = direct_sum(dg.p, k)
        a1 = ds.module
        alpha = dg.col_left.inject @ ds.project_left
        beta = dg.row_top.inject @ ds.project_left
        t = random_module(rng, ring, 4, allow_zero=False)
        dt = direct_sum(dg.q, t)
        a4 = dt.module
        r_map = dt.inject_left @ dg.row_bottom.project
        s_map = dt.inject_left @ dg.col_right.project
    top_b = dg.row_bottom.inject @ dg.col_left.project
    dmap = dg.col_right.inject @ dg.row_top.project
    return HexagonFrame(a1=a1, b1=dg.h, b2=dg.g, a4=a4, a2=dg.e, a3=dg.f,
                        alpha=alpha, beta=beta, top_b=top_b, d=dmap, r=r_map, s=s_map)


def random_frame(rng: random.Random, ring: RingSpec, max_order: int = 16) -> HexagonFrame:
    """A random diagram's frame, decorated with probability 1/2."""
    dg = random_diagram(rng, ring, max_order)
    return frame_from_diagram(dg, rng if rng.random() < 0.5 else None)


def random_hom(rng: random.Random, a: PresentedModule, b: PresentedModule):
    """A random morphism ``a -> b`` drawn from the computed Hom module."""
    h = ext_module(0, a, b)
    if h.presentation.generators == 0:
        return zero_morphism(a, b)
    cls = random_class(rng, h)
    return hom(a, b, cls.cocycle())


def perturb_extension(rng: random.Random, d: Diagram3x3, ext: DiagramExtension) -> DiagramExtension:
    """A different valid extension with the same middle object: shift i and j
    by corrections through P (the degrees of freedom the grid constraints
    leave open)."""
    iota = ext.i @ d.col_left.inject
    hbar = random_hom(rng, d.s, d.p)
    kbar = random_hom(rng, d.r, d.p)
    i2 = ext.i + (iota @ hbar @ d.col_left.project)
    j2 = ext.j + (iota @ kbar @ d.row_top.project)
    return DiagramExtension(ext.x, i2, j2, ext.m, ext.n)
