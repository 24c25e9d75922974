"""Abstract hexagon diagrams and their reduction to the 3x3 grid problem.

A hexagon frame is the outer boundary of the familiar six-object diagram:
two four-term exact paths ``A1 -> B1 -> B2 -> A4`` (upper) and
``A1 -> A2 -> A3 -> A4`` (lower) that share their ends, with
``ker(alpha) = ker(beta)`` on the left and ``im(r) = im(s)`` on the right.
Solving the hexagon means producing a center object with maps ``i, j, c,
curv`` making the diagram commute with exact diagonals.

The frame folds into a 3x3 grid (quotient on the left, images on the right),
the grid is extended by the diagram machinery, and the middle object unfolds
into the center.  Objects here are abstract finitely presented modules: the
diagrammatic logic is verified on finite stand-ins rather than on cohomology
of actual spaces, whose groups are not finitely generated.

The upper-path composite ``B1 -> B2`` is stored as the single map ``top_b``;
if a caller's convention carries a minus sign on that edge, the sign lives in
the caller's construction of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Diagram3x3,
    DiagramExtension,
    compatible_isomorphism,
    extend_diagram,
)
from .errors import FrameInvalidError
from .modules import (
    ModuleMorphism,
    PresentedModule,
    exactness_violations,
    lift_through_inclusion,
    morphism_image,
    preimage_kernel_columns,
    _first_outside,
    _ses,
)


@dataclass(frozen=True)
class HexagonFrame:
    a1: PresentedModule   # upper-left outer
    b1: PresentedModule   # top-left
    b2: PresentedModule   # top-right
    a4: PresentedModule   # upper-right outer
    a2: PresentedModule   # bottom-left
    a3: PresentedModule   # bottom-right
    alpha: ModuleMorphism   # A1 -> B1
    beta: ModuleMorphism    # A1 -> A2
    top_b: ModuleMorphism   # B1 -> B2
    d: ModuleMorphism       # A2 -> A3
    r: ModuleMorphism       # B2 -> A4
    s: ModuleMorphism       # A3 -> A4


def validate_frame(f: HexagonFrame) -> list[str]:
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
    out += exactness_violations("upper path", [f.alpha, f.top_b, f.r], left_zero=False, right_zero=False)
    out += exactness_violations("lower path", [f.beta, f.d, f.s], left_zero=False, right_zero=False)
    rels = f.a4.relations
    if (_first_outside(f.r.matrix, f.s.matrix.hstack(rels)) is not None
            or _first_outside(f.s.matrix, f.r.matrix.hstack(rels)) is not None):
        out.append("im(r) != im(s) inside A4")
    return out


@dataclass(frozen=True)
class FoldResult:
    """The folded grid plus the identification maps the fold introduces."""

    diagram: Diagram3x3
    quotient: ModuleMorphism    # A1 -> P = A1 / ker(alpha)
    include_r: ModuleMorphism   # R = im(d) -> A3
    include_s: ModuleMorphism   # S = im(topB) -> B2
    include_q: ModuleMorphism   # Q = im(s) -> A4


def fold_frame(f: HexagonFrame) -> FoldResult:
    """Redraw the hexagon frame as a 3x3 grid: P = A1/ker(alpha), E = A2,
    R = im(d), H = B1, F = A3, S = im(topB), G = B2, Q = im(s)."""
    violations = validate_frame(f)
    if violations:
        raise FrameInvalidError(violations)
    p, mu, quotient = morphism_image(f.alpha)       # P = A1 / ker(alpha), mu : P -> H = B1
    nu = ModuleMorphism(p, f.a2, f.beta.matrix)     # P -> E = A2, well defined as ker(beta) = ker(alpha)
    _r, incl_r, pi_er = morphism_image(f.d)
    _s, incl_s, pi_hs = morphism_image(f.top_b)
    _q, incl_q, pi_fq = morphism_image(f.s)
    pi_gq = lift_through_inclusion(incl_q, f.r)     # B2 -> Q, corestriction of r

    # exact because the frame is valid; the diagram entry points re-check the
    # folded grid once anyway
    row_top = _ses(nu, pi_er)         # 0 -> P -> A2 -> im(d) -> 0
    col_left = _ses(mu, pi_hs)        # 0 -> P -> B1 -> im(topB) -> 0
    row_bottom = _ses(incl_s, pi_gq)  # 0 -> im(topB) -> B2 -> Q -> 0
    col_right = _ses(incl_r, pi_fq)   # 0 -> im(d) -> A3 -> Q -> 0
    diagram = Diagram3x3(row_top=row_top, row_bottom=row_bottom,
                         col_left=col_left, col_right=col_right)
    return FoldResult(diagram, quotient, incl_r, incl_s, incl_q)


@dataclass(frozen=True)
class SolvedHexagon:
    frame: HexagonFrame
    center: PresentedModule
    i: ModuleMorphism      # A2 -> center
    j: ModuleMorphism      # B1 -> center
    c: ModuleMorphism      # center -> B2
    curv: ModuleMorphism   # center -> A3


def solve_hexagon(f: HexagonFrame) -> SolvedHexagon:
    """Fold, extend the grid, unfold the middle object into the center.

    Raises :class:`NotExtendableError` with the obstruction when the grid
    does not extend; that cannot happen when the folded P is injective.
    """
    fold = fold_frame(f)
    ext = extend_diagram(fold.diagram)
    return SolvedHexagon(f, ext.x, i=ext.j, j=ext.i, c=ext.n, curv=ext.m)


def verify_hexagon(h: SolvedHexagon) -> list[str]:
    """Every solved-hexagon invariant: the two exact diagonals through the
    center and the four composite identities."""
    out = []
    f = h.frame
    try:
        out += exactness_violations("diagonal B1-center-A3", [h.j, h.curv])
        out += exactness_violations("diagonal A2-center-B2", [h.i, h.c])
    except Exception as exc:
        return [f"diagonals are not composable: {exc}"]
    if not (h.c @ h.j).equals(f.top_b):
        out.append("c o j != topB")
    if not (h.curv @ h.i).equals(f.d):
        out.append("curv o i != d")
    if not (h.i @ f.beta).equals(h.j @ f.alpha):
        out.append("i o beta != j o alpha")
    if not (f.s @ h.curv).equals(f.r @ h.c):
        out.append("s o curv != r o c")
    return out


def _as_extension(h: SolvedHexagon) -> DiagramExtension:
    """Unchecked: compatible_isomorphism validates the extension first."""
    return DiagramExtension(h.center, i=h.j, j=h.i, m=h.curv, n=h.c)


def hexagon_compatible_iso(h1: SolvedHexagon, h2: SolvedHexagon) -> ModuleMorphism:
    """An isomorphism ``phi : center1 -> center2`` with ``phi o i1 = i2``,
    ``phi o j1 = j2``, ``c2 o phi = c1`` and ``curv2 o phi = curv1``.

    Delegates to the grid-level compatible isomorphism on the folded
    diagram; the four equations are the same four, relabelled.
    """
    if h1.frame != h2.frame:
        raise FrameInvalidError(["solved hexagons come from different frames"])
    fold = fold_frame(h1.frame)
    e1 = _as_extension(h1)
    e2 = _as_extension(h2)
    return compatible_isomorphism(fold.diagram, e1, e2)
