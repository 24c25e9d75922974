"""Free resolutions and Ext groups with explicit cocycle representatives.

Ext^i(Q, P) is computed from a free resolution of Q truncated at the depth
the degree needs, as the homology of the induced Hom complex.  Classes carry
representing cocycles (morphisms from a resolution term into P), which is
what makes sequences-from-classes and the downstream middle-object
construction possible; coordinates alone would not suffice.

Degree-1 classes convert to and from explicit short exact sequences; sums are
available both as cocycle-coordinate addition and as the explicit
pullback-then-quotient construction, and the two must agree (this doubles as
a deep self-test).  Degree-2 classes arise as products of degree-1 classes by
splicing through a shared end object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ArgumentMismatchError, NotExactError
from .linalg import CACHE_SIZE, ExactMatrix, kernel_columns, shrink_generators
from .modules import (
    ModuleMorphism,
    PresentedModule,
    ShortExactSequence,
    Simplified,
    hom,
    identity_morphism,
    lift,
    make_ses,
    preimage_kernel_columns,
    pullback,
    pullback_factor,
    pushout,
    simplify,
    submodule_generated,
    zero_morphism,
    _flatten,
    _hom_space,
    _induced_matrix,
    _unflatten,
)


@dataclass(frozen=True)
class FreeResolution:
    """``F2 --d2--> F1 --d1--> F0 --aug--> M`` with free F_i.

    ``aug`` is the identity on generators, ``d1`` spans the relation columns,
    ``d2`` spans the kernel of ``d1``.  Deeper syzygies are computed on
    demand (degree-2 cohomology needs the kernel of ``d2`` as well).
    """

    target: PresentedModule
    d1: ExactMatrix
    d2: ExactMatrix

    @property
    def f0(self) -> int:
        return self.target.generators

    @property
    def f1(self) -> int:
        return self.d1.cols

    @property
    def f2(self) -> int:
        return self.d2.cols

    def differential(self, i: int) -> ExactMatrix:
        if i == 1:
            return self.d1
        if i == 2:
            return self.d2
        if i == 3:
            return _shrunk_kernel(self.d2)
        raise ValueError(f"no differential at degree {i}")


@lru_cache(maxsize=CACHE_SIZE)
def free_resolution(m: PresentedModule) -> FreeResolution:
    d1 = shrink_generators(m.relations)
    return FreeResolution(m, d1, _shrunk_kernel(d1))


@lru_cache(maxsize=CACHE_SIZE)
def _shrunk_kernel(d: ExactMatrix) -> ExactMatrix:
    """The next differential below ``d`` in a resolution: the shrunk
    generators of its kernel.  Cached on the matrix, so resolutions whose
    differentials agree share one kernel: ``d2`` of modules with the same
    ``d1``, and the ``d3`` below a ``d2`` that is another module's ``d1``."""
    if not d.cols:
        return ExactMatrix.zeros(d.ring, 0, 0)
    return shrink_generators(kernel_columns(d))


@dataclass(frozen=True)
class ExtModule:
    """Ext^degree(Q, P) as a presented module with a cocycle basis.

    ``cocycles[t]`` is the morphism matrix ``F_degree -> P`` representing the
    t-th presentation generator.
    """

    degree: int
    q: PresentedModule
    p: PresentedModule
    presentation: PresentedModule
    cocycles: tuple[ExactMatrix, ...]
    resolution: FreeResolution
    _cycles: ModuleMorphism     # raw cycle module -> flat Hom space modulo the boundaries
    _to_min: ExactMatrix        # raw cycle coordinates -> presentation coordinates

    def rank_at_degree(self) -> int:
        return (self.resolution.f0, self.resolution.f1, self.resolution.f2)[self.degree]

    def class_of_cocycle(self, mat: ExactMatrix) -> "ExtClass":
        raw = lift(self._cycles, _flatten(mat))
        if raw is None:
            raise ArgumentMismatchError("matrix is not a cocycle for this Ext module")
        return ExtClass(self, self._to_min.apply(raw.col(0)))

    def zero_class(self) -> "ExtClass":
        return ExtClass(self, (0,) * self.presentation.generators)

    def class_from_coords(self, coords) -> "ExtClass":
        return ExtClass(self, tuple(coords))

    def all_classes(self):
        for vec in self.presentation.elements():
            yield ExtClass(self, vec)

    def cardinality(self) -> int | None:
        return self.presentation.cardinality()


@dataclass(frozen=True)
class ExtClass:
    """A class of ``parent``; the constructor reduces ``coords`` to their
    canonical representative, the only place where coordinates are reduced."""

    parent: ExtModule
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.parent.presentation.canonical_rep(self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __add__(self, other: "ExtClass") -> "ExtClass":
        if other.parent is not self.parent and other.parent != self.parent:
            raise ArgumentMismatchError("classes live in different Ext modules")
        red = self.parent.p.ring.reduce
        return ExtClass(self.parent, tuple(red(a + b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ExtClass":
        red = self.parent.p.ring.reduce
        return ExtClass(self.parent, tuple(red(-a) for a in self.coords))

    def __sub__(self, other: "ExtClass") -> "ExtClass":
        return self + (-other)

    def scale(self, c: int) -> "ExtClass":
        red = self.parent.p.ring.reduce
        return ExtClass(self.parent, tuple(red(c * a) for a in self.coords))

    def same_as(self, other: "ExtClass") -> bool:
        return self.parent == other.parent and self.coords == other.coords

    def cocycle(self) -> ExactMatrix:
        """A representing morphism matrix ``F_degree -> P``."""
        gp = self.parent.p.generators
        rank = self.parent.rank_at_degree()
        acc = ExactMatrix.zeros(self.parent.p.ring, gp, rank)
        for c, mat in zip(self.coords, self.parent.cocycles):
            if c:
                acc = acc + mat.scale(c)
        return acc


@lru_cache(maxsize=CACHE_SIZE)
def ext_module(degree: int, q: PresentedModule, p: PresentedModule) -> ExtModule:
    """Ext^degree(Q, P) for degree in {0, 1, 2}: homology of Hom(F., P)."""
    if degree not in (0, 1, 2):
        raise ValueError("only degrees 0, 1, 2 are computed")
    if q.ring != p.ring:
        raise ArgumentMismatchError("arguments over different rings")
    ring = p.ring
    res = free_resolution(q)
    gp = p.generators
    ranks = (res.f0, res.f1, res.f2)
    rank_i = ranks[degree]
    h_i = _hom_space(rank_i, p)

    # boundary out of degree: phi -> phi o d_{degree+1}
    d_out = res.differential(degree + 1)
    rank_next = d_out.cols
    out_mat = _induced_matrix(d_out, p, rank_i, rank_next)
    out_map = ModuleMorphism(h_i, _hom_space(rank_next, p), out_mat)
    kmat = preimage_kernel_columns(out_map)

    # boundary into degree: image columns of phi -> phi o d_degree
    if degree == 0:
        in_mat = ExactMatrix.zeros(ring, h_i.generators, 0)
    else:
        d_in = res.differential(degree)
        in_mat = _induced_matrix(d_in, p, ranks[degree - 1], rank_i)

    homology = PresentedModule(ring, h_i.generators, in_mat.hstack(h_i.relations))
    raw_pres, cycles = submodule_generated(homology, kmat)
    simp: Simplified = simplify(raw_pres)
    cocycles = []
    for t in range(simp.module.generators):
        raw = simp.from_min.matrix.col(t)
        flat = kmat.apply(raw)
        cocycles.append(_unflatten(flat, gp, rank_i, ring))
    return ExtModule(degree, q, p, simp.module, tuple(cocycles), res,
                     cycles, simp.to_min.matrix)


# ---------------------------------------------------------------------------
# Classes <-> short exact sequences (degree 1)
# ---------------------------------------------------------------------------


def _chase(maps: list[ModuleMorphism], failures: tuple[str, ...]) -> ExtClass:
    """The class in Ext^k(Q, P) of an exact ``0 -> P -> X_k -> ... -> X_1 ->
    Q -> 0`` given by its k + 1 maps, left to right: lift the resolution of Q
    through the maps from the right (staircase chase) and read off the
    degree-k cocycle.  ``failures[i]`` is the message raised when the chase
    leaves the image of ``maps[i]``."""
    e = ext_module(len(maps) - 1, maps[-1].target, maps[0].source)
    # F0 -> Q is the identity on generators
    step = ExactMatrix.identity(e.q.ring, e.q.generators)
    for i, (f, failure) in enumerate(zip(reversed(maps), reversed(failures))):
        if i:
            step = step @ e.resolution.differential(i)
        step = lift(f, step)
        if step is None:
            raise NotExactError(failure)
    return e.class_of_cocycle(step)


def class_of_ses(s: ShortExactSequence) -> ExtClass:
    """The class of ``0 -> P -> X -> Q -> 0`` in Ext^1(Q, P)."""
    return _chase([s.inject, s.project],
                  ("image of the injection does not absorb the chase", "projection is not surjective"))


def ses_of_class(c: ExtClass) -> ShortExactSequence:
    """Realize a degree-1 class as ``0 -> P -> X -> Q -> 0`` with the middle
    presented on ``P (+) F0`` with relations twisted by a representing
    cocycle."""
    if c.parent.degree != 1:
        raise ArgumentMismatchError("only degree-1 classes are realizable as short exact sequences")
    return ses_of_cocycle(c.parent, c.cocycle())


def ses_of_cocycle(e: ExtModule, phi: ExactMatrix) -> ShortExactSequence:
    """Realize an explicit degree-1 cocycle (any representative will do)."""
    p, q, res = e.p, e.q, e.resolution
    ring = p.ring
    gp, f0, f1 = p.generators, res.f0, res.f1
    cols = []
    for j in range(p.relations.cols):
        cols.append(list(p.relations.col(j)) + [0] * f0)
    for j in range(f1):
        cols.append([-x for x in phi.col(j)] + list(res.d1.col(j)))
    x = PresentedModule(ring, gp + f0, ExactMatrix.from_cols(ring, cols, gp + f0))
    inj = ModuleMorphism(p, x, ExactMatrix.identity(ring, gp).vstack(ExactMatrix.zeros(ring, f0, gp)))
    proj = ModuleMorphism(x, q, ExactMatrix.zeros(ring, q.generators, gp).hstack(ExactMatrix.identity(ring, f0)))
    return make_ses(inj, proj)


# ---------------------------------------------------------------------------
# Transport (functoriality in both arguments)
# ---------------------------------------------------------------------------


def _free_map(d: ExactMatrix) -> ModuleMorphism:
    """A differential of a resolution as a morphism between free modules."""
    return ModuleMorphism(PresentedModule.free(d.ring, d.cols), PresentedModule.free(d.ring, d.rows), d)


def chain_map(res_from: FreeResolution, res_to: FreeResolution, f: ModuleMorphism, depth: int):
    """Lift ``f : M -> N`` to a chain map between resolutions, up to the given
    depth.  ``maps[i] : F_i(M) -> F_i(N)`` with ``d o maps[i] = maps[i-1] o d``."""
    maps = [f.matrix]  # F0 = generators, aug = identity on both sides
    for i in range(1, depth + 1):
        step = lift(_free_map(res_to.differential(i)), maps[i - 1] @ res_from.differential(i))
        if step is None:
            raise ArgumentMismatchError("chain map lift failed; resolution invariant broken")
        maps.append(step)
    return maps


def transport_contravariant(c: ExtClass, f: ModuleMorphism) -> ExtClass:
    """Pull back along ``f : Q' -> Q`` (precomposition with a chain lift)."""
    e = c.parent
    if f.target != e.q:
        raise ArgumentMismatchError("contravariant transport needs a map into the class's Q")
    e2 = ext_module(e.degree, f.source, e.p)
    maps = chain_map(e2.resolution, e.resolution, f, e.degree)
    phi = c.cocycle() @ maps[e.degree]
    return e2.class_of_cocycle(phi)


def restriction(e: ExtModule, f: ModuleMorphism) -> ModuleMorphism:
    """``f^* : Ext^k(Q, P) -> Ext^k(Q', P)`` for ``f : Q' -> Q``: one chain
    lift of ``f``, composed with each generating cocycle of ``e``.  The map
    is well defined by construction, so it is not checked here."""
    if f.target != e.q:
        raise ArgumentMismatchError("restriction needs a map into the module's Q")
    e2 = ext_module(e.degree, f.source, e.p)
    lifted = chain_map(e2.resolution, e.resolution, f, e.degree)[e.degree]
    cols = [list(e2.class_of_cocycle(phi @ lifted).coords) for phi in e.cocycles]
    return ModuleMorphism(e.presentation, e2.presentation,
                          ExactMatrix.from_cols(e.p.ring, cols, e2.presentation.generators))


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
    ring = s1.left.ring
    pb = pullback(s1.project, s2.project)
    skew = pullback_factor(pb, s1.inject, -s2.inject)
    quot = PresentedModule(ring, pb.module.generators,
                           shrink_generators(pb.module.relations.hstack(skew.matrix)))
    diag_p = pullback_factor(pb, s1.inject, zero_morphism(s2.left, s2.middle))
    inj = hom(s1.left, quot, diag_p.matrix)
    proj = hom(quot, s1.right, (s1.project @ pb.to_left).matrix)
    return make_ses(inj, proj)


# ---------------------------------------------------------------------------
# Yoneda products into Ext^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YonedaTwoExtension:
    """``0 -> P -> X2 -> X1 -> Q -> 0`` exact."""

    p: PresentedModule
    x2: PresentedModule
    x1: PresentedModule
    q: PresentedModule
    inject: ModuleMorphism   # P -> X2
    mid: ModuleMorphism      # X2 -> X1
    project: ModuleMorphism  # X1 -> Q


def splice(s_left: ShortExactSequence, s_right: ShortExactSequence) -> YonedaTwoExtension:
    """Splice ``0->P->A->S->0`` with ``0->S->B->Q->0`` through the shared S.

    The four-term sequence is exact because both short ones are, so nothing
    is re-checked here."""
    if s_left.right != s_right.left:
        raise ArgumentMismatchError("splice needs a shared end object")
    mid = s_right.inject @ s_left.project
    return YonedaTwoExtension(s_left.left, s_left.middle, s_right.middle, s_right.right,
                              s_left.inject, mid, s_right.project)


def two_extension_class(y: YonedaTwoExtension) -> ExtClass:
    """The Ext^2 class of a two-step extension."""
    return _chase([y.inject, y.mid, y.project],
                  ("chase left the image of the injection", "chase left the image of the middle map",
                   "two-extension projection is not surjective"))


def yoneda_product_of_ses(s_left: ShortExactSequence, s_right: ShortExactSequence) -> ExtClass:
    return two_extension_class(splice(s_left, s_right))


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
