"""The three-by-three diagram extension problem.

A frame of four short exact sequences sharing corner objects

    rowTop:    0 -> P -> E -> R -> 0        colLeft:  0 -> P -> H -> S -> 0
    rowBottom: 0 -> S -> G -> Q -> 0        colRight: 0 -> R -> F -> Q -> 0

extends to a full commuting grid with exact middle row ``0 -> H -> X -> F -> 0``
and middle column ``0 -> E -> X -> G -> 0`` iff an obstruction class in
Ext^2(Q, P) vanishes: the sum of the spliced products of the two row/column
pairs.  The obstruction is computed twice by design -- once as that explicit
Baer sum of spliced products, once as the connecting image of the
restriction data through the auxiliary pullback object Y, by a chain lift --
and the pipeline fails loudly if the two routes ever disagree.  Both routes
are cocycles on Q's resolution, decided and compared modulo coboundaries;
Ext^2(Q, P) itself is built only when a report's classes are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ClassesDifferError,
    InvalidDiagramError,
    LambdaNotExtendableError,
    NonComposableError,
    NotExtendableError,
)
from .ext import (
    ExtClass,
    ExtModule,
    FreeResolution,
    _cochains,
    _free_map,
    _ses_cocycle,
    _splice_cocycle,
    chain_map,
    class_of_ses,
    ext_module,
    free_resolution,
    restriction,
    ses_of_cocycle,
)
from .linalg import ExactMatrix, block_diag
from .modules import (
    ModuleMorphism,
    PresentedModule,
    ShortExactSequence,
    exactness_violations,
    hom,
    lift,
    make_ses,
    morphism_image,
    morphism_kernel,
    pullback,
    pullback_factor,
    simplify,
    solve_morphism,
    zero_morphism,
    _first_outside,
    _flatten,
    _solve_matrix,
)


@dataclass(frozen=True)
class Diagram3x3:
    """Two exact rows and two exact columns sharing corners."""

    row_top: ShortExactSequence      # 0 -> P -> E -> R -> 0
    row_bottom: ShortExactSequence   # 0 -> S -> G -> Q -> 0
    col_left: ShortExactSequence     # 0 -> P -> H -> S -> 0
    col_right: ShortExactSequence    # 0 -> R -> F -> Q -> 0

    @property
    def p(self) -> PresentedModule:
        return self.row_top.left

    @property
    def e(self) -> PresentedModule:
        return self.row_top.middle

    @property
    def r(self) -> PresentedModule:
        return self.row_top.right

    @property
    def h(self) -> PresentedModule:
        return self.col_left.middle

    @property
    def f(self) -> PresentedModule:
        return self.col_right.middle

    @property
    def s(self) -> PresentedModule:
        return self.col_left.right

    @property
    def g(self) -> PresentedModule:
        return self.row_bottom.middle

    @property
    def q(self) -> PresentedModule:
        return self.row_bottom.right


def validate_diagram1(d: Diagram3x3) -> list[str]:
    """Empty list iff the four sequences are exact and share corners."""
    out = []
    for name, seq in (("rowTop", d.row_top), ("rowBottom", d.row_bottom),
                      ("colLeft", d.col_left), ("colRight", d.col_right)):
        try:
            out += exactness_violations(name, [seq.inject, seq.project])
        except NonComposableError as exc:  # stored sequences whose maps do not compose
            out.append(f"{name}: {exc}")
    if d.row_top.left != d.col_left.left:
        out.append("corner P differs between rowTop and colLeft")
    if d.row_top.right != d.col_right.left:
        out.append("corner R differs between rowTop and colRight")
    if d.col_left.right != d.row_bottom.left:
        out.append("corner S differs between colLeft and rowBottom")
    if d.col_right.right != d.row_bottom.right:
        out.append("corner Q differs between colRight and rowBottom")
    return out


# The last diagram analysed, under "diagram", and the facts known of it.
_last: dict = {"diagram": None}


def _known(d: Diagram3x3, fact: str, compute):
    """``compute(d)``, kept while ``d`` is the last diagram analysed.

    Callers ask ``obstruction``, ``extend_diagram`` and ``check_uniqueness``
    of one diagram in turn, so the validation verdict, the snake-checked Y
    core, the product obstruction and the route-checked class xi over Y are
    each computed once per diagram object.  The slot is keyed on identity,
    so nothing is hashed (hashing the nested frozen diagram cost most of
    what a value-keyed cache saved), and the next diagram replaces it, so
    one diagram is held at a time.  A fact is stored only once ``compute``
    returns, so one that raises is computed again on every call."""
    global _last
    memo = _last
    if memo["diagram"] is not d:
        memo = _last = {"diagram": d}
    if fact not in memo:
        memo[fact] = compute(d)
    return memo[fact]


def _require_valid(d: Diagram3x3) -> None:
    """The single validation boundary.  Only :func:`obstruction`,
    :func:`build_Y`, :func:`compatible_isomorphism` and
    :func:`hexagon.fold_frame` call it; every other public entry taking a
    diagram reaches it through one :func:`build_Y`, first.  The verdict is
    kept with the last diagram analysed, so a diagram is validated once per
    diagram object, and an invalid one raises on every call."""
    violations = _known(d, "violations", lambda dg: tuple(validate_diagram1(dg)))
    if violations:
        raise InvalidDiagramError(violations)


@dataclass(frozen=True)
class ObstructionReport:
    """The two spliced products as cocycles ``F2(Q) -> P`` on
    ``resolution``, Q's resolution, with ``coboundaries``, the degree-2
    coboundaries and P's relations (``ext._cochains``), built once.
    :attr:`is_zero` reads their sum against the coboundaries; their classes
    in Ext^2(Q, P) and the classes' sum are built from that module when one
    of them is first read."""

    resolution: FreeResolution
    p: PresentedModule
    ef: ExactMatrix   # [rowTop] spliced with [colRight]
    hg: ExactMatrix   # [colLeft] spliced with [rowBottom]
    coboundaries: ExactMatrix

    def is_coboundary(self, phi: ExactMatrix) -> bool:
        """Whether the cocycle ``phi : F2 -> P`` lies in ``coboundaries``,
        that is, whether its class in Ext^2 is zero."""
        return _first_outside(_flatten(phi), self.coboundaries) is None

    @cached_property
    def is_zero(self) -> bool:
        return self.is_coboundary(self.ef + self.hg)

    @cached_property
    def _ext2(self) -> ExtModule:
        return ext_module(2, self.resolution.target, self.p)

    @cached_property
    def yoneda_ef(self) -> ExtClass:
        return self._ext2.class_of_cocycle(self.ef)

    @cached_property
    def yoneda_hg(self) -> ExtClass:
        return self._ext2.class_of_cocycle(self.hg)

    @cached_property
    def baer_sum(self) -> ExtClass:
        return self.yoneda_ef + self.yoneda_hg


def obstruction(d: Diagram3x3) -> ObstructionReport:
    """The extendability obstruction: both spliced products and their sum."""
    _require_valid(d)
    return _known(d, "obstruction", _obstruction)


def _obstruction(d: Diagram3x3) -> ObstructionReport:
    """Both spliced products chased over Q's resolution, each checked
    against d3; no Ext module is built."""
    res = free_resolution(d.q)
    ef, hg = (_checked_cocycle(_splice_cocycle(left, right, res), res, 2, d.p)
              for left, right in ((d.row_top, d.col_right), (d.col_left, d.row_bottom)))
    return ObstructionReport(res, d.p, ef, hg, _cochains(2, res, d.p).relations)


@dataclass(frozen=True)
class BuildY:
    """The pullback object ``Y = F x_Q G`` with its exact sequence
    ``0 -> R (+) S -> Y -> Q -> 0`` and structural maps."""

    y: PresentedModule
    ses: ShortExactSequence           # 0 -> R(+)S -> Y -> Q -> 0
    w_r: ModuleMorphism               # R -> Y
    w_s: ModuleMorphism               # S -> Y
    p_f: ModuleMorphism               # Y -> F
    p_g: ModuleMorphism               # Y -> G


def build_Y(d: Diagram3x3) -> BuildY:
    """Validate the diagram, then construct Y with its sequence.  Y is kept
    only once the derived 3x3 grid has passed the snake-lemma cross-check."""
    _require_valid(d)
    return _known(d, "y", _y_core)


def _y_core(d: Diagram3x3) -> BuildY:
    pb = pullback(d.col_right.project, d.row_bottom.project)
    simp = simplify(pb.module)
    y = simp.module
    p_f = pb.to_left @ simp.from_min
    p_g = pb.to_right @ simp.from_min
    w_r = simp.to_min @ pullback_factor(pb, d.col_right.inject, zero_morphism(d.r, d.g))
    w_s = simp.to_min @ pullback_factor(pb, zero_morphism(d.s, d.f), d.row_bottom.inject)
    rs = PresentedModule(block_diag(d.p.ring, [d.r.relations, d.s.relations]))
    incl = ModuleMorphism(rs, y, w_r.matrix.hstack(w_s.matrix))
    proj = d.col_right.project @ p_f
    if not proj.equals(d.row_bottom.project @ p_g):
        raise AssertionError("pullback projections do not agree over Q")
    _require_exact("Y-sequence", incl, proj)
    by = BuildY(y, ShortExactSequence(incl, proj), w_r, w_s, p_f, p_g)
    _snake_cross_check(d, by)
    return by


def _require_exact(name: str, inject: ModuleMorphism, project: ModuleMorphism) -> None:
    """Raise an engine fault unless ``0 -> . -> . -> . -> 0`` on two maps
    the engine derived is exact."""
    bad = exactness_violations(name, [inject, project])
    if bad:
        raise AssertionError("derived sequence not exact: " + "; ".join(bad))


def _snake_cross_check(d: Diagram3x3, by: BuildY) -> None:
    """The snake lemma of the ladder ``0 -> R -> Y -> G -> 0`` over
    ``0 -> R -> F -> Q -> 0`` with verticals (id_R, p_f, G -> Q), whose
    right square :func:`_y_core` has checked.  ker(id_R), coker(id_R) and
    coker(G -> Q) are zero, so the six-term sequence is exact exactly when
    the top row is exact, the left square commutes, p_f is onto and p_g
    carries ker(p_f) isomorphically onto ker(G -> Q); that kernel must
    also be S."""
    _require_exact("snake top row", by.w_r, by.p_g)
    if not (by.p_f @ by.w_r).equals(d.col_right.inject):
        raise AssertionError("left square of the snake ladder does not commute")
    if not by.p_f.is_surjective():
        raise AssertionError("Y -> F is not onto in the derived grid")
    k_f, in_f = morphism_kernel(by.p_f)
    k_q, in_q = morphism_kernel(d.row_bottom.project)
    lifted = lift(in_q, (by.p_g @ in_f).matrix)
    if lifted is None:
        raise AssertionError("Y -> G does not carry the kernel of Y -> F into the kernel of G -> Q")
    if not hom(k_f, k_q, lifted).is_isomorphism():
        raise AssertionError("Y -> G does not carry the kernel of Y -> F isomorphically onto the kernel of G -> Q")
    if not k_q.is_isomorphic_to(d.s):
        raise AssertionError("kernel of G -> Q does not match S in the derived grid")


@dataclass(frozen=True)
class DiagramExtension:
    """A middle object with its four maps.  The middle row ``0 -> H -> X ->
    F -> 0`` and the middle column ``0 -> E -> X -> G -> 0`` they make are
    exact once :func:`validate_extension` accepts the extension."""

    x: PresentedModule
    i: ModuleMorphism        # H -> X
    j: ModuleMorphism        # E -> X
    m: ModuleMorphism        # X -> F
    n: ModuleMorphism        # X -> G


def validate_extension(d: Diagram3x3, ext: DiagramExtension) -> list[str]:
    """All exactness and commutation requirements of the full grid."""
    out = []
    if ext.i.source != d.h or ext.j.source != d.e:
        out.append("wrong sources for i or j")
    if ext.m.target != d.f or ext.n.target != d.g:
        out.append("wrong targets for m or n")
    if ext.i.target != ext.x or ext.j.target != ext.x or ext.m.source != ext.x or ext.n.source != ext.x:
        out.append("maps do not meet the middle object")
    if out:
        return out
    out += exactness_violations("rowMid", [ext.i, ext.m])
    out += exactness_violations("colMid", [ext.j, ext.n])
    if not (ext.j @ d.row_top.inject).equals(ext.i @ d.col_left.inject):
        out.append("square P: j o nu != i o mu")
    if not (ext.m @ ext.j).equals(d.col_right.inject @ d.row_top.project):
        out.append("square E-F: m o j != (R->F) o (E->R)")
    if not (ext.n @ ext.i).equals(d.row_bottom.inject @ d.col_left.project):
        out.append("square H-G: n o i != (S->G) o (H->S)")
    if not (d.col_right.project @ ext.m).equals(d.row_bottom.project @ ext.n):
        out.append("square Q: (F->Q) o m != (G->Q) o n")
    return out


def _tau(d: Diagram3x3) -> tuple[ExactMatrix, ExactMatrix]:
    """tau = pr_R^*[rowTop] + pr_S^*[colLeft] as its two cocycles ``F1(R) ->
    P`` and ``F1(S) -> P``: the staircase chases of rowTop and colLeft over
    the resolutions of R and S, each checked against d2.  Side by side they
    are one cocycle of tau on ``d1(R) (+) d1(S)``, which resolves R (+) S in
    degree 1, so the direct sum itself is never resolved."""
    out = []
    for side in (d.row_top, d.col_left):
        res = free_resolution(side.right)
        out.append(_checked_cocycle(_ses_cocycle(side, res), res, 1, d.p))
    return tuple(out)


def _connecting_image(d: Diagram3x3, by: BuildY, tau: tuple[ExactMatrix, ExactMatrix]) -> ExactMatrix:
    """Route 2 of the obstruction: a cocycle ``F2(Q) -> P`` of the image of
    tau, the pair ``(tau_R, tau_S)`` of :func:`_tau`, under the connecting
    map of the Y-sequence, the chain-lift Yoneda product of tau with the
    Y-sequence's class.  The chase of the Y-sequence over Q's resolution
    gives ``gamma : F1(Q) -> R (+) S``; ``gamma o d2(Q)`` is zero in R (+)
    S, so it lifts once through the free map ``d1(R) (+) d1(S)``, and
    ``[tau_R | tau_S]`` composed with that lift is the cocycle.  No sequence
    is spliced, so this route shares no Yoneda code with the product
    obstruction."""
    res = free_resolution(d.q)
    gamma = _ses_cocycle(by.ses, res)
    d1 = block_diag(d.p.ring, [free_resolution(d.r).d1, free_resolution(d.s).d1])
    lifted = lift(_free_map(d1), gamma @ res.d2)
    if lifted is None:
        raise AssertionError("the Y-sequence's cocycle does not lift through d1(R) (+) d1(S)")
    return tau[0].hstack(tau[1]) @ lifted


def _solve_restriction(d: Diagram3x3, by: BuildY, tau: tuple[ExactMatrix, ExactMatrix]) -> ExtClass | None:
    """The canonical class xi in Ext^1(Y, P) restricting to tau, the pair
    of cocycles of :func:`_tau`, when one exists (deterministically the
    smallest coordinate solution).

    The restriction of xi is compared with tau as cochains, not as classes:
    one depth-1 chain lift of ``w_r`` (``w_s``) carries each generating
    cocycle of Ext^1(Y, P) to a cocycle ``F1(R) -> P`` (``F1(S) -> P``),
    the cocycles tau also gives.  Both are flattened into the cochains of R
    and of S modulo coboundaries and P's relations (``ext._cochains``), and
    xi's coordinates are one lift into their sum.  A cocycle lies in those
    coboundaries exactly when its class is zero, so the coordinates solving
    this system, and those whose restriction is zero, are the ones the
    restriction into Ext^1(R, P) (+) Ext^1(S, P) would give; the canonical
    solution depends on nothing else, and neither Ext module is built.  Each
    cocycle is checked against d2 before it enters the system."""
    e_y = ext_module(1, by.y, d.p)
    ring = d.p.ring
    blocks, rhs, rels = [], [], []
    for w, tau_w in zip((by.w_r, by.w_s), tau):
        res = free_resolution(w.source)
        lifted = chain_map(res, e_y.resolution, w, 1)[1]
        cochains = _cochains(1, res, d.p)
        restricted = [_checked_cocycle(phi @ lifted, res, 1, d.p) for phi in e_y.cocycles]
        blocks.append(ExactMatrix.from_cols(ring, [_flatten(phi).col(0) for phi in restricted],
                                            cochains.generators))
        rhs.append(_flatten(tau_w).col(0))
        rels.append(cochains.relations)
    target = PresentedModule(block_diag(ring, rels))
    rho = ModuleMorphism(e_y.presentation, target, blocks[0].vstack(blocks[1]))
    x = lift(rho, ExactMatrix.from_cols(ring, [rhs[0] + rhs[1]], target.generators))
    if x is None:
        return None
    return e_y.class_from_coords(x.col(0))


def _checked_cocycle(phi: ExactMatrix, res: FreeResolution, degree: int, p: PresentedModule) -> ExactMatrix:
    """``phi : F_degree -> P`` on ``res``, once ``phi o d_(degree + 1)`` is
    zero in P; an engine fault naming the degree otherwise."""
    if _first_outside(phi @ res.differential(degree + 1), p.relations) is not None:
        raise AssertionError(f"a restricted or chased cochain F{degree} -> P is not a cocycle")
    return phi


def _realize(d: Diagram3x3, by: BuildY, cocycle: ExactMatrix) -> DiagramExtension:
    """Middle object from a degree-1 cocycle for Ext^1(Y, P), plus the four
    maps.  m and n are read off the projection to Y; i and j are built by
    :func:`_grid_map`, which fixes their part in Y and solves only their part
    in P."""
    e_y = ext_module(1, by.y, d.p)
    x_ses = ses_of_cocycle(e_y, cocycle)
    pi_y = x_ses.project
    m = by.p_f @ pi_y
    n = by.p_g @ pi_y
    d1 = e_y.resolution.d1
    i = _grid_map(x_ses.middle, d1, cocycle, d.col_left.inject, by.w_s @ d.col_left.project)
    j = _grid_map(x_ses.middle, d1, cocycle, d.row_top.inject, by.w_r @ d.row_top.project)
    if i is None or j is None:
        raise AssertionError("restriction classes matched but grid maps are unsolvable")
    ext = DiagramExtension(x_ses.middle, i, j, m, n)
    bad = validate_extension(d, ext)
    if bad:
        raise AssertionError("constructed extension failed validation: " + "; ".join(bad))
    return ext


def _grid_map(x: PresentedModule, d1: ExactMatrix, phi: ExactMatrix,
              inject: ModuleMorphism, w: ModuleMorphism) -> ModuleMorphism | None:
    """The map ``z : H -> X`` with ``z @ inject == iota_p`` and
    ``pi_y @ z == w``, for ``inject : P -> H`` and ``w : H -> Y``; ``None``
    when there is none.

    X is P (+) F0(Y) modulo ``[P.rels; 0]`` and ``[-phi; d1]``, so ``pi_y``
    reads the rows in Y and ``z = (C; W)`` with W the matrix of w meets the
    post-constraint exactly.  On the columns ``D = [H.rels | inject]`` the
    rows in Y give ``W D = d1 T``, one lift through the free map d1 (W D
    lies in span(d1), as w is well defined and kills P).  Then z is well
    defined with ``z @ inject == iota_p`` iff ``C D == [0 | I] - phi T`` in
    P, a system over Hom(H, P) instead of Hom(H, X); a solution of the full
    system shifted by relations ``(-phi u; d1 u)`` has part W in Y, so the
    two are solvable together.  Any T will do, since phi kills ker d1 in P."""
    h, p = inject.target, inject.source
    ring = p.ring
    cols = h.relations.hstack(inject.matrix)
    t = lift(_free_map(d1), w.matrix @ cols)
    if t is None:
        return None
    at_d = (ExactMatrix.zeros(ring, p.generators, h.relations.cols)
            .hstack(ExactMatrix.identity(ring, p.generators)) - phi @ t)
    on_d = _free_map(cols)
    c = _solve_matrix(on_d.target, p, pre=[(on_d, ModuleMorphism(on_d.source, p, at_d))])
    return None if c is None else hom(h, x, c.vstack(w.matrix))


def _class_over_y(d: Diagram3x3) -> tuple[BuildY, ExtClass]:
    """The pipeline every entry but :func:`obstruction` shares: Y, then the
    class xi over Y, each kept with its cross-check passed (:func:`_known`)."""
    by = build_Y(d)
    return by, _known(d, "xi", lambda dg: _xi(dg, by))


def _xi(d: Diagram3x3, by: BuildY) -> ExtClass:
    """The connecting image of tau (:func:`_connecting_image`), checked
    against the product obstruction, then xi solved in cochains
    (:func:`_solve_restriction`); both read tau's cocycles, computed once
    here.  The routes are compared as cocycles on Q's resolution: they agree
    exactly when their difference is a coboundary, so Ext^2(Q, P) is built
    only to name the classes of routes that disagree.  Raises
    :class:`NotExtendableError` with the obstruction report when the
    obstruction is nonzero."""
    ob = _known(d, "obstruction", _obstruction)
    tau = _tau(d)
    delta_tau = _connecting_image(d, by, tau)
    if not ob.is_coboundary(delta_tau - ob.ef - ob.hg):
        raise AssertionError(
            "obstruction routes disagree: connecting image "
            f"{ext_module(2, d.q, d.p).class_of_cocycle(delta_tau).coords} vs product sum {ob.baer_sum.coords}"
        )
    if not ob.is_zero:
        raise NotExtendableError(ob)
    xi = _solve_restriction(d, by, tau)
    if xi is None:
        raise AssertionError("obstruction vanished but the restriction map has no solution")
    return xi


def extend_diagram(d: Diagram3x3) -> DiagramExtension:
    """Construct a middle object, or raise :class:`NotExtendableError` with
    the obstruction report."""
    by, xi = _class_over_y(d)
    return _realize(d, by, xi.cocycle())


def _restriction_from_q(d: Diagram3x3, by: BuildY) -> ModuleMorphism:
    """``rho : Ext^1(Q, P) -> Ext^1(Y, P)``, pulling back along Y -> Q.

    In the long exact sequence of ``0 -> R (+) S -> Y -> Q -> 0`` it follows
    the connecting map alpha from Hom(R (+) S, P), so its image is the
    cokernel of alpha: the classes over Y that restrict to tau form the coset
    ``xi0 + im rho``.  Ext^1(Y, P) is the module the restriction step has
    already built, and Hom(R (+) S, P) is never formed."""
    rho = restriction(ext_module(1, d.q, d.p), by.ses.project)
    return hom(rho.source, rho.target, rho.matrix)


def enumerate_extensions(d: Diagram3x3) -> list[DiagramExtension]:
    """One extension per admissible class in Ext^1(Y, P); the set of classes
    is the coset of the image of Ext^1(Q, P), so the count is bounded by
    ``|Ext^1(Q, P)|``."""
    by, xi0 = _class_over_y(d)
    rho = _restriction_from_q(d, by)
    seen = set()
    out = []
    for c in ext_module(1, d.q, d.p).all_classes():
        shifted = xi0 + ExtClass(xi0.parent, rho.apply(c.coords))
        if shifted.coords in seen:
            continue
        seen.add(shifted.coords)
        out.append(_realize(d, by, shifted.cocycle()))
    return out


@dataclass(frozen=True)
class UniquenessReport:
    restriction: ModuleMorphism           # Ext^1(Q, P) -> Ext^1(Y, P)

    @property
    def unique(self) -> bool:
        return self.restriction.is_zero()

    @property
    def image(self) -> PresentedModule:
        """One element per admissible class over Y."""
        return morphism_image(self.restriction)[0]


def check_uniqueness(d: Diagram3x3) -> UniquenessReport:
    """The middle object's class over Y is unique iff the restriction
    ``Ext^1(Q, P) -> Ext^1(Y, P)`` is zero; the order of its image is the
    number of admissible classes.  It shares the cross-checks and the
    :class:`NotExtendableError` of :func:`extend_diagram`."""
    by, _ = _class_over_y(d)
    rho = _restriction_from_q(d, by)
    return UniquenessReport(rho)


def _projection_to_y(by: BuildY, ext: DiagramExtension) -> ModuleMorphism:
    # the one map over m and n, as (p_f, p_g) embeds Y in F (+) G
    return solve_morphism(ext.x, by.y, post=[(by.p_f, ext.m), (by.p_g, ext.n)])


def compatible_isomorphism(d: Diagram3x3, ext1: DiagramExtension, ext2: DiagramExtension) -> ModuleMorphism:
    """An isomorphism ``phi : X1 -> X2`` with ``phi o i1 = i2``,
    ``phi o j1 = j2``, ``m2 o phi = m1`` and ``n2 o phi = n1``.

    The four equations are linear in phi, so one constrained solve finds it,
    and the five lemma on the middle rows makes any solution an isomorphism.
    Only when there is none is Y built: the classes of ``0 -> P -> X -> Y ->
    0`` tell why.  They differ (:class:`ClassesDifferError`), or they agree
    and the correction on the image of E (+) H, which a map compatible with
    (m, n) leaves in P, does not extend to X1 (:class:`LambdaNotExtendableError`).
    """
    _require_valid(d)
    for k, ext in (("first", ext1), ("second", ext2)):
        bad = validate_extension(d, ext)
        if bad:
            raise InvalidDiagramError([f"{k} extension invalid: " + "; ".join(bad)])
    phi = solve_morphism(ext1.x, ext2.x,
                         pre=[(ext1.i, ext2.i), (ext1.j, ext2.j)],
                         post=[(ext2.m, ext1.m), (ext2.n, ext1.n)])
    if phi is None:
        by = build_Y(d)
        c1, c2 = (class_of_ses(make_ses(ext.i @ d.col_left.inject, _projection_to_y(by, ext)))
                  for ext in (ext1, ext2))
        if c1 != c2:
            raise ClassesDifferError("the two middle objects have different classes over Y")
        raise LambdaNotExtendableError("homomorphism does not extend to the ambient module")
    if not phi.is_isomorphism():
        raise AssertionError("compatible morphism is not an isomorphism")
    return phi
