"""Second routes that the tests check the library against.

None of these is on the path of the pipeline or the command line.  Each one
recomputes something the library computes another way: transport of single
classes against :func:`hexext.ext.restriction`, sequence-level pullbacks
and pushouts against class-level transport, the explicit Baer sum against
coordinate addition, Yoneda products of classes, and the class of two
spliced sequences, against the chain-lift route, the Hom/Ext ladder of a short exact sequence against its
exactness, the class over Y solved in Ext^1(R, P) (+) Ext^1(S, P) against
its solve in cochains, tau's sequence, whose splice with the Y-sequence is
checked against the chain-lift connecting image, the grid maps i and j of a
realized diagram solved over all of Hom(H, X) against their construction,
a middle object's projection to Y factored through the pullback F x_Q G
against its solve over Y's embedding in F (+) G, a hexagon frame's
conditions read on the frame itself against its fold, and the general
snake lemma of a ladder, with its six-term sequence, against the
pipeline's check of its one ladder over Y.
Beside them live five helpers that only the tests call: the identity
morphism, the cokernel with its projection, injectivity over the base ring,
a middle object realized from a shifted cocycle representative, and the
direct sum of two grids; the census of every grid up to a size, listed
without the engine; and the oracle's homomorphism walk over the plain
product of its candidates, against the yields of its order-filtered walk.
Tests import them with ``from routes import ...``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, prod

from hexext.errors import ArgumentMismatchError, NonComposableError, NotExactError
from hexext.ext import (
    ExtClass,
    ExtModule,
    _free_map,
    _splice_cocycle,
    chain_map,
    class_of_ses,
    ext_module,
    restriction,
    ses_of_class,
)
from hexext.diagram import BuildY, Diagram3x3, DiagramExtension, _class_over_y, _realize
from hexext.hexagon import HexagonFrame
from hexext.linalg import ExactMatrix, block_diag, shrink_generators
from hexext.modules import (
    EXACT,
    ModuleMorphism,
    PresentedModule,
    ShortExactSequence,
    _first_outside,
    direct_sum,
    exactness_report,
    hom,
    lift,
    lift_through_inclusion,
    make_ses,
    morphism_kernel,
    preimage_kernel_columns,
    pullback,
    pullback_factor,
    simplify,
    solve_morphism,
    zero_morphism,
)
from hexext.oracle import brute_ext1
from hexext.rings import prime_factors
from tests.conftest import all_modules_over


# ---------------------------------------------------------------------------
# Helpers only the tests call
# ---------------------------------------------------------------------------


def identity_morphism(m: PresentedModule) -> ModuleMorphism:
    return ModuleMorphism(m, m, ExactMatrix.identity(m.ring, m.generators))


def morphism_cokernel(f: ModuleMorphism):
    """``(coker f, projection from the target)``, presented on the target
    generators, so the projection's matrix is the identity.  A surjective
    f, decided by the order count of :meth:`ModuleMorphism.is_surjective`,
    has the zero cokernel, presented with identity relations and not
    shrunk."""
    ring, g = f.target.ring, f.target.generators
    rels = (ExactMatrix.identity(ring, g) if f.is_surjective()
            else shrink_generators(f.target.relations.hstack(f.matrix)))
    coker = PresentedModule(rels)
    return coker, ModuleMorphism(f.target, coker, ExactMatrix.identity(ring, g))


def is_injective_module(p: PresentedModule) -> bool:
    """Injectivity over the base ring.

    Over Z no nonzero finitely generated module is injective.  Over Z/m a
    module is injective iff every primary component is a sum of cyclic
    modules of the maximal order dividing the modulus, i.e. every invariant
    factor carries the full power of each of its primes.
    """
    if not p.ring.is_modular:
        return p.cardinality() == 1
    m = p.ring.modulus
    mf = prime_factors(m)
    for f in p.invariant_factors():
        for prime, mult in prime_factors(f).items():
            if mf[prime] != mult:
                return False
    return True


def extend_with_variant_cocycle(rng: random.Random, d: Diagram3x3) -> DiagramExtension:
    """Run the extension pipeline but realize the class from a different
    cocycle representative (shifted by a random coboundary), yielding a
    differently presented middle object of the same class.  Raises
    :class:`NotExtendableError` with the obstruction report, as
    :func:`extend_diagram` does."""
    by, xi = _class_over_y(d)
    res = xi.parent.resolution
    psi = ExactMatrix.from_rows(
        d.p.ring,
        [[rng.randrange(0, 4) for _ in range(res.rank(0))] for _ in range(d.p.generators)],
        res.rank(0),
    )
    return _realize(d, by, xi.cocycle() + (psi @ res.d1))


def sum_diagram(d0: Diagram3x3, d1: Diagram3x3) -> Diagram3x3:
    """``d0 (+) d1``: each of the four sequences summed with its partner,
    every object and map block-diagonal with d0's block first, so the
    corners the summands share are shared by the sum."""
    ring = d0.p.ring

    def summed(a: PresentedModule, b: PresentedModule) -> PresentedModule:
        return PresentedModule(block_diag(ring, [a.relations, b.relations]))

    def morphism(f: ModuleMorphism, g: ModuleMorphism) -> ModuleMorphism:
        return ModuleMorphism(summed(f.source, g.source), summed(f.target, g.target),
                              block_diag(ring, [f.matrix, g.matrix]))

    return Diagram3x3(*(ShortExactSequence(morphism(s0.inject, s1.inject), morphism(s0.project, s1.project))
                        for s0, s1 in ((d0.row_top, d1.row_top), (d0.row_bottom, d1.row_bottom),
                                       (d0.col_left, d1.col_left), (d0.col_right, d1.col_right))))


# ---------------------------------------------------------------------------
# Pushouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pushout:
    module: PresentedModule
    from_left: ModuleMorphism   # A -> pushout
    from_right: ModuleMorphism  # B -> pushout


def pushout(f: ModuleMorphism, g: ModuleMorphism) -> Pushout:
    """``A (+) B`` modulo the skew columns ``(f(c), -g(c))`` for ``f : C -> A``
    and ``g : C -> B``."""
    if f.source != g.source:
        raise NonComposableError("pushout legs must share a source")
    ring = f.target.ring
    ga, gb = f.target.generators, g.target.generators
    skew_cols = [list(f.matrix.col(j)) + [-x for x in g.matrix.col(j)] for j in range(f.source.generators)]
    rels = block_diag(ring, [f.target.relations, g.target.relations])
    if skew_cols:
        rels = rels.hstack(ExactMatrix.from_cols(ring, skew_cols, ga + gb))
    po = PresentedModule(rels)
    ia = ExactMatrix.identity(ring, ga).vstack(ExactMatrix.zeros(ring, gb, ga))
    ib = ExactMatrix.zeros(ring, ga, gb).vstack(ExactMatrix.identity(ring, gb))
    return Pushout(po, ModuleMorphism(f.target, po, ia), ModuleMorphism(g.target, po, ib))


# ---------------------------------------------------------------------------
# Transport (functoriality in both arguments)
# ---------------------------------------------------------------------------


def transport_contravariant(c: ExtClass, f: ModuleMorphism) -> ExtClass:
    """Pull back along ``f : Q' -> Q`` (precomposition with a chain lift)."""
    e = c.parent
    if f.target != e.q:
        raise ArgumentMismatchError("contravariant transport needs a map into the class's Q")
    e2 = ext_module(e.degree, f.source, e.p)
    maps = chain_map(e2.resolution, e.resolution, f, e.degree)
    phi = c.cocycle() @ maps[e.degree]
    return e2.class_of_cocycle(phi)


def transport_covariant(c: ExtClass, g: ModuleMorphism) -> ExtClass:
    """Push forward along ``g : P -> P'`` (postcomposition on cocycles)."""
    e = c.parent
    if g.source != e.p:
        raise ArgumentMismatchError("covariant transport needs a map out of the class's P")
    e2 = ext_module(e.degree, e.q, g.target)
    return e2.class_of_cocycle(g.matrix @ c.cocycle())


def pullback_ses(s: ShortExactSequence, f: ModuleMorphism) -> ShortExactSequence:
    """Sequence-level pullback along ``f : Q' -> Q``; class equals the
    contravariant transport."""
    if f.target != s.right:
        raise ArgumentMismatchError("pullback map must land in the quotient")
    pb = pullback(s.project, f)
    inj = pullback_factor(pb, s.inject, zero_morphism(s.left, f.source))
    return make_ses(inj, pb.to_right)


def pushout_ses(s: ShortExactSequence, g: ModuleMorphism) -> ShortExactSequence:
    """Sequence-level pushout along ``g : P -> P'``; class equals the
    covariant transport."""
    if g.source != s.left:
        raise ArgumentMismatchError("pushout map must start at the subobject")
    po = pushout(s.inject, g)
    ring = s.left.ring
    proj_mat = s.project.matrix.hstack(ExactMatrix.zeros(ring, s.right.generators, g.target.generators))
    proj = ModuleMorphism(po.module, s.right, proj_mat)
    return make_ses(po.from_right, proj)


# ---------------------------------------------------------------------------
# Baer sum
# ---------------------------------------------------------------------------


def baer_sum_explicit(s1: ShortExactSequence, s2: ShortExactSequence) -> ShortExactSequence:
    """Pull back over Q, then quotient by the skew diagonal copy of P.

    The class of the result is the coordinate sum of the classes; tests pin
    that coherence down exhaustively on small rings.
    """
    if s1.left != s2.left or s1.right != s2.right:
        raise ArgumentMismatchError("Baer sum needs matching end objects")
    pb = pullback(s1.project, s2.project)
    skew = pullback_factor(pb, s1.inject, -s2.inject)
    quot = PresentedModule(shrink_generators(pb.module.relations.hstack(skew.matrix)))
    diag_p = pullback_factor(pb, s1.inject, zero_morphism(s2.left, s2.middle))
    inj = hom(s1.left, quot, diag_p.matrix)
    proj = hom(quot, s1.right, (s1.project @ pb.to_left).matrix)
    return make_ses(inj, proj)


# ---------------------------------------------------------------------------
# Yoneda products of classes
# ---------------------------------------------------------------------------


def yoneda_product_of_ses(s_left: ShortExactSequence, s_right: ShortExactSequence) -> ExtClass:
    """The Ext^2 class of ``0->P->A->S->0`` spliced with ``0->S->B->Q->0``
    through the shared S: the class of the library's spliced-product cocycle
    (``ext._splice_cocycle``), as an obstruction report builds it when read."""
    if s_left.right != s_right.left:
        raise ArgumentMismatchError("splice needs a shared end object")
    e = ext_module(2, s_right.right, s_left.left)
    return e.class_of_cocycle(_splice_cocycle(s_left, s_right, e.resolution))


def yoneda_product(e: ExtClass, g: ExtClass) -> ExtClass:
    """``Ext^1(S,P) x Ext^1(Q,S) -> Ext^2(Q,P)`` by splicing representing
    sequences."""
    if e.parent.degree != 1 or g.parent.degree != 1:
        raise ArgumentMismatchError("Yoneda product takes two degree-1 classes")
    if e.parent.q != g.parent.p:
        raise ArgumentMismatchError("middle objects do not match")
    return yoneda_product_of_ses(ses_of_class(e), ses_of_class(g))


def yoneda_product_via_chain_lift(e: ExtClass, g: ExtClass) -> ExtClass:
    """Independent route: lift g to a chain map between the resolutions of Q
    and S and compose with e's cocycle.  Must agree with the splice route."""
    if e.parent.q != g.parent.p:
        raise ArgumentMismatchError("middle objects do not match")
    # lift g's cocycle F1(Q) -> S through aug_S, the identity on generators
    gamma0 = lift(identity_morphism(e.parent.q), g.cocycle())  # F1(Q) -> F0(S)
    gamma2 = lift(_free_map(e.parent.resolution.d1), gamma0 @ g.parent.resolution.d2)  # F2(Q) -> F1(S)
    if gamma2 is None:
        raise NotExactError("chain lift failed at degree 2")
    return ext_module(2, g.parent.q, e.parent.p).class_of_cocycle(e.cocycle() @ gamma2)


# ---------------------------------------------------------------------------
# The Hom/Ext long exact sequence of a short exact sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomExtLadder:
    """``0 -> Hom(C,P) -> Hom(B,P) -> Hom(A,P) --alpha--> Ext^1(C,P)
    -> Ext^1(B,P) -> Ext^1(A,P) --delta1--> Ext^2(C,P)`` for
    ``0 -> A -> B -> C -> 0``."""

    ses: ShortExactSequence
    p: PresentedModule
    modules: tuple[ExtModule, ...]        # Hom(C), Hom(B), Hom(A), E1(C), E1(B), E1(A), E2(C)
    maps: tuple[ModuleMorphism, ...]      # the six maps in order
    alpha: ModuleMorphism
    delta1: ModuleMorphism


def _transport_matrix(src: ExtModule, dst: ExtModule, f) -> ExactMatrix:
    cols = []
    for t in range(src.presentation.generators):
        cls = ExtClass(src, tuple(1 if i == t else 0 for i in range(src.presentation.generators)))
        img = f(cls)
        cols.append(list(img.coords))
    return ExactMatrix.from_cols(src.p.ring, cols, dst.presentation.generators)


def connecting_alpha(cls: ExtClass, p: PresentedModule) -> ModuleMorphism:
    """``alpha : Hom(A, P) -> Ext^1(C, P)`` for the class ``cls`` of a
    sequence ``0 -> A -> B -> C -> 0``: push ``cls`` forward along each
    homomorphism ``A -> P``."""
    a_mod = cls.parent.p
    h_a = ext_module(0, a_mod, p)
    e1_c = ext_module(1, cls.parent.q, p)

    def alpha_on(cls0: ExtClass) -> ExtClass:
        return transport_covariant(cls, hom(a_mod, p, cls0.cocycle()))

    return hom(h_a.presentation, e1_c.presentation, _transport_matrix(h_a, e1_c, alpha_on))


def connecting_hom(s: ShortExactSequence, p: PresentedModule) -> HomExtLadder:
    """Apply Hom(-, P) to ``0 -> A -> B -> C -> 0`` and return the seven-term
    ladder; the connecting maps are pushforward along the classifying class
    (degree 0) and splice with it (degree 1)."""
    a_mod, b_mod, c_mod = s.left, s.middle, s.right
    h_c = ext_module(0, c_mod, p)
    h_b = ext_module(0, b_mod, p)
    h_a = ext_module(0, a_mod, p)
    e1_c = ext_module(1, c_mod, p)
    e1_b = ext_module(1, b_mod, p)
    e1_a = ext_module(1, a_mod, p)
    e2_c = ext_module(2, c_mod, p)

    cls = class_of_ses(s)  # in Ext^1(C, A)

    res0_cb = hom(h_c.presentation, h_b.presentation, restriction(h_c, s.project).matrix)
    res0_ba = hom(h_b.presentation, h_a.presentation, restriction(h_b, s.inject).matrix)

    alpha = connecting_alpha(cls, p)

    res1_cb = hom(e1_c.presentation, e1_b.presentation, restriction(e1_c, s.project).matrix)
    res1_ba = hom(e1_b.presentation, e1_a.presentation, restriction(e1_b, s.inject).matrix)

    delta1 = hom(e1_a.presentation, e2_c.presentation,
                 _transport_matrix(e1_a, e2_c, lambda x: yoneda_product(x, cls)))

    return HomExtLadder(
        s, p,
        (h_c, h_b, h_a, e1_c, e1_b, e1_a, e2_c),
        (res0_cb, res0_ba, alpha, res1_cb, res1_ba, delta1),
        alpha, delta1,
    )


# ---------------------------------------------------------------------------
# The class over Y, solved in Ext^1(R, P) (+) Ext^1(S, P)
# ---------------------------------------------------------------------------


def restriction_solve_over_ext(d: Diagram3x3, by: BuildY) -> ExtClass | None:
    """The canonical class xi in Ext^1(Y, P) restricting to tau, solved in
    coordinates: the restrictions along ``w_r`` and ``w_s`` stacked into
    Ext^1(R, P) (+) Ext^1(S, P), where tau's coordinates are those of
    [rowTop] followed by those of [colLeft].  The solution set, and so the
    canonical solution, does not depend on how the target is presented."""
    e_y = ext_module(1, by.y, d.p)
    on_r, on_s = restriction(e_y, by.w_r), restriction(e_y, by.w_s)
    target = direct_sum(on_r.target, on_s.target).module
    rho = ModuleMorphism(e_y.presentation, target, on_r.matrix.vstack(on_s.matrix))
    tau = class_of_ses(d.row_top).coords + class_of_ses(d.col_left).coords
    x = lift(rho, ExactMatrix.from_cols(d.p.ring, [tau], target.generators))
    if x is None:
        return None
    return e_y.class_from_coords(x.col(0))


# ---------------------------------------------------------------------------
# The sequence of tau, for the spliced connecting image
# ---------------------------------------------------------------------------


def tau_ses(d: Diagram3x3, by: BuildY) -> ShortExactSequence:
    """``0 -> P -> (E (+) H)/P -> R (+) S -> 0``, the Baer sum of the
    pullbacks of rowTop and colLeft along the projections of R (+) S, so its
    class is tau = pr_R^*[rowTop] + pr_S^*[colLeft].  P is divided out as
    (nu p, -mu p); the direct sum itself is never resolved."""
    eh = direct_sum(d.e, d.h)
    skew = ModuleMorphism(d.p, eh.module, d.row_top.inject.matrix.vstack(-d.col_left.inject.matrix))
    quot, to_quot = morphism_cokernel(skew)
    proj = block_diag(d.p.ring, [d.row_top.project.matrix, d.col_left.project.matrix])
    return make_ses(to_quot @ eh.inject_left @ d.row_top.inject, ModuleMorphism(quot, by.ses.left, proj))


# ---------------------------------------------------------------------------
# Grid maps of a realized diagram, solved over Hom(H, X)
# ---------------------------------------------------------------------------


def middle_maps(d: Diagram3x3, by: BuildY, x: PresentedModule) -> tuple[ModuleMorphism, ModuleMorphism]:
    """``iota_p : P -> X`` and ``pi_y : X -> Y`` for a middle object
    ``X = P (+) F0(Y)`` laid out as :func:`hexext.ext.ses_of_cocycle` lays it
    out: ``(I; 0)`` and ``(0 | I)``."""
    ring, gp, gy = d.p.ring, d.p.generators, by.y.generators
    return (ModuleMorphism(d.p, x, ExactMatrix.identity(ring, gp).vstack(ExactMatrix.zeros(ring, gy, gp))),
            ModuleMorphism(x, by.y, ExactMatrix.zeros(ring, gy, gp).hstack(ExactMatrix.identity(ring, gy))))


def grid_maps_over_x(d: Diagram3x3, by: BuildY, x: PresentedModule) -> tuple[ModuleMorphism, ModuleMorphism]:
    """``i : H -> X`` and ``j : E -> X``, each one constrained solve over all
    of Hom(-, X): ``i o mu = iota_p`` and ``pi_y o i = w_s o (H -> S)``, and
    the same for j with nu and w_r."""
    iota_p, pi_y = middle_maps(d, by, x)
    i = solve_morphism(d.h, x, pre=[(d.col_left.inject, iota_p)],
                       post=[(pi_y, by.w_s @ d.col_left.project)])
    j = solve_morphism(d.e, x, pre=[(d.row_top.inject, iota_p)],
                       post=[(pi_y, by.w_r @ d.row_top.project)])
    if i is None or j is None:
        raise AssertionError("grid maps are unsolvable over Hom(-, X)")
    return i, j


# ---------------------------------------------------------------------------
# The projection of a middle object to Y, through the pullback
# ---------------------------------------------------------------------------


def projection_to_y_through_pullback(d: Diagram3x3, ext: DiagramExtension) -> ModuleMorphism:
    """``X -> Y`` as the cone ``(m, n)`` factored through the pullback
    F x_Q G, carried onto Y by the simplification that builds Y from it."""
    pb = pullback(d.col_right.project, d.row_bottom.project)
    return simplify(pb.module).to_min @ pullback_factor(pb, ext.m, ext.n)


# ---------------------------------------------------------------------------
# The snake lemma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnakeResult:
    kernels: tuple[PresentedModule, PresentedModule, PresentedModule]
    kernel_inclusions: tuple[ModuleMorphism, ModuleMorphism, ModuleMorphism]
    cokernels: tuple[PresentedModule, PresentedModule, PresentedModule]
    cokernel_projections: tuple[ModuleMorphism, ModuleMorphism, ModuleMorphism]
    connecting: ModuleMorphism            # ker(right vertical) -> coker(left vertical)
    six_term: tuple[ModuleMorphism, ...]  # ka -> kb -> kc -> ca -> cb -> cc


def snake_connecting(top: ShortExactSequence, bottom: ShortExactSequence,
                     va: ModuleMorphism, vb: ModuleMorphism, vc: ModuleMorphism) -> SnakeResult:
    """Connecting morphism and six-term exact sequence of a commuting ladder
    of short exact sequences."""
    if va.source != top.left or vb.source != top.middle or vc.source != top.right:
        raise NonComposableError("vertical maps do not start on the top row")
    if va.target != bottom.left or vb.target != bottom.middle or vc.target != bottom.right:
        raise NonComposableError("vertical maps do not end on the bottom row")
    if not (vb @ top.inject).equals(bottom.inject @ va):
        raise NonComposableError("left square does not commute")
    if not (vc @ top.project).equals(bottom.project @ vb):
        raise NonComposableError("right square does not commute")

    ka, ka_in = morphism_kernel(va)
    kb, kb_in = morphism_kernel(vb)
    kc, kc_in = morphism_kernel(vc)
    ca, ca_pr = morphism_cokernel(va)
    cb, cb_pr = morphism_cokernel(vb)
    cc, cc_pr = morphism_cokernel(vc)

    ka_kb = lift_through_inclusion(kb_in, top.inject @ ka_in)
    kb_kc = lift_through_inclusion(kc_in, top.project @ kb_in)

    # staircase chase on the generators of ker(vc)
    b_lift = lift(top.project, kc_in.matrix)
    if b_lift is None:
        raise NotExactError("top projection is not surjective")
    a_lift = lift(bottom.inject, vb.matrix @ b_lift)
    if a_lift is None:
        raise NotExactError("chase left the image of the bottom injection")
    delta = hom(kc, ca, a_lift)

    ca_cb = ModuleMorphism(ca, cb, bottom.inject.matrix)    # well defined: the squares commute
    cb_cc = ModuleMorphism(cb, cc, bottom.project.matrix)

    return SnakeResult(
        (ka, kb, kc), (ka_in, kb_in, kc_in),
        (ca, cb, cc), (ca_pr, cb_pr, cc_pr),
        delta,
        (ka_kb, kb_kc, delta, ca_cb, cb_cc),
    )


# ---------------------------------------------------------------------------
# Hexagon frames, unfolded
# ---------------------------------------------------------------------------


def validate_frame_unfolded(f: HexagonFrame) -> list[str]:
    """A frame's violations read on the frame itself: the two kernels and
    the two images compared by span, and the two paths' interiors checked
    for exactness, without folding."""
    out = []
    wiring = [
        ("alpha", f.alpha, f.a1, f.b1), ("beta", f.beta, f.a1, f.a2),
        ("topB", f.top_b, f.b1, f.b2), ("d", f.d, f.a2, f.a3),
        ("r", f.r, f.b2, f.a4), ("s", f.s, f.a3, f.a4),
    ]
    for name, mor, src, tgt in wiring:
        if mor.source != src or mor.target != tgt:
            out.append(f"{name} does not connect the declared objects")
    if out:
        return out
    # two submodules agree when each one's generators lie in the other's span
    ka = preimage_kernel_columns(f.alpha)
    kb = preimage_kernel_columns(f.beta)
    rels = f.a1.relations
    if _first_outside(ka, kb.hstack(rels)) is not None or _first_outside(kb, ka.hstack(rels)) is not None:
        out.append("ker(alpha) != ker(beta) inside A1")
    for name, path in (("upper path", [f.alpha, f.top_b, f.r]), ("lower path", [f.beta, f.d, f.s])):
        out += [f"{name}/{pos}: {verdict}" for pos, verdict in exactness_report(path)[1:-1] if verdict != EXACT]
    rels = f.a4.relations
    if (_first_outside(f.r.matrix, f.s.matrix.hstack(rels)) is not None
            or _first_outside(f.s.matrix, f.r.matrix.hstack(rels)) is not None):
        out.append("im(r) != im(s) inside A4")
    return out


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


def census(ring, bound: int) -> list[Diagram3x3]:
    """Every grid over the ring with ``|X| = |P||R||S||Q| <= bound``, once per
    choice of finite corners up to isomorphism and of the classes of its four
    sequences.  The corners come from :func:`conftest.all_modules_over`, each
    order read off its diagonal presentation, and the sequences are
    :func:`brute_ext1`'s representatives, so the listing runs no elimination.

    The grid has no maps between its middles, so equivalences of its four
    sequences, which fix the corners, give an isomorphism of grids: the list
    holds every grid up to isomorphism, each one once."""
    mods = [(m, prod(gcd(row[i], ring.modulus or 0) for i, row in enumerate(m.relations.data)))
            for m in all_modules_over(ring, bound)]
    grids = []
    for (p, op), (r, o_r), (s, o_s), (q, oq) in itertools.product(mods, repeat=4):
        if op * o_r * o_s * oq > bound:
            continue
        for top, left, right, bottom in itertools.product(
                *(brute_ext1(b, a).representatives for b, a in ((r, p), (s, p), (q, r), (q, s)))):
            grids.append(Diagram3x3(row_top=top, row_bottom=bottom, col_left=left, col_right=right))
    return grids


# ---------------------------------------------------------------------------
# Oracle walks
# ---------------------------------------------------------------------------


def plain_hom_walk(tgt, relation_cols, candidates, meter):
    """The generator-image assignments in ``tgt`` that kill every relation
    column, over the plain product of ``candidates``: one tick per
    candidate, then every column tested whole.  The reference for the
    yields of :func:`hexext.oracle._iter_homs`."""
    for images in itertools.product(*candidates):
        meter.tick(1)
        if all(tgt.combination(col, images) == 0 for col in relation_cols):
            yield list(images)
