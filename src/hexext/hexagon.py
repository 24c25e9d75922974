"""Abstract hexagon diagrams and their reduction to the 3x3 grid problem.

A hexagon frame is the outer boundary of the familiar six-object diagram:
two four-term exact paths ``A1 -> B1 -> B2 -> A4`` (upper) and
``A1 -> A2 -> A3 -> A4`` (lower) that share their ends, with
``ker(alpha) = ker(beta)`` on the left and ``im(r) = im(s)`` on the right.
Solving the hexagon means producing a center object with maps ``i, j, c,
curv`` making the diagram commute with exact diagonals.

The frame folds into a 3x3 grid (quotient on the left, images on the right,
each corner presented on its invariant-factor generators by
:func:`modules.simplify`), the grid is extended by the diagram machinery, and
the middle object unfolds into the center.  The fold is the frame's only
validation.  ``nu : P -> A2`` exists iff ker(alpha) lies in ker(beta), and r
corestricts to ``B2 -> Q`` iff im(r) lies in im(s); then each other frame
condition is one grid position: rowTop/left is ker(beta) in ker(alpha), the
colLeft and rowBottom interiors are the upper path exact at B1 and B2, the
rowTop and colRight interiors the lower path exact at A2 and A3, and
rowBottom/right is im(s) in im(r).  Every other position holds by
construction, so its failure is an engine fault.

Objects here are abstract finitely presented modules: the diagrammatic logic
is verified on finite stand-ins rather than on cohomology of actual spaces,
whose groups are not finitely generated.

The upper-path composite ``B1 -> B2`` is stored as the single map ``top_b``;
if a caller's convention carries a minus sign on that edge, the sign lives in
the caller's construction of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram3x3, DiagramExtension, _require_valid, compatible_isomorphism, extend_diagram
from .errors import FrameInvalidError, InvalidDiagramError, NonComposableError, WellDefinednessError
from .modules import (ModuleMorphism, PresentedModule, ShortExactSequence, exactness_violations, hom,
                      lift_through_inclusion, morphism_image, simplify)


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


def _miswired(wiring) -> list[str]:
    """A message for each ``(name, map, source, target)`` not wired so."""
    return [f"{name} does not connect the declared objects"
            for name, mor, src, tgt in wiring if mor.source != src or mor.target != tgt]


# The grid positions that frame conditions decide, in the order a frame lists
# its violations, each with its frame message ("{}" takes the grid's verdict).
_FRAME_CONDITIONS = {
    "rowTop/left": "ker(alpha) != ker(beta) inside A1",
    "colLeft/interior 0": "upper path/interior 0: {}",
    "rowBottom/interior 0": "upper path/interior 1: {}",
    "rowTop/interior 0": "lower path/interior 0: {}",
    "colRight/interior 0": "lower path/interior 1: {}",
    "rowBottom/right": "im(r) != im(s) inside A4",
}


def fold_frame(f: HexagonFrame) -> Diagram3x3:
    """Redraw the hexagon frame as a 3x3 grid: P = A1/ker(alpha), E = A2,
    R = im(d), H = B1, F = A3, S = im(topB), G = B2, Q = im(s).  Each corner
    is presented on its invariant-factor generators by :func:`simplify`, with
    its maps composed with the isomorphisms it returns; the middle objects
    are the frame's own.  Raises :class:`FrameInvalidError` with the frame
    conditions that fail; the grid's verdict is kept by the diagram layer, so
    extending it validates no more."""
    miswired = _miswired([
        ("alpha", f.alpha, f.a1, f.b1), ("beta", f.beta, f.a1, f.a2),
        ("topB", f.top_b, f.b1, f.b2), ("d", f.d, f.a2, f.a3),
        ("r", f.r, f.b2, f.a4), ("s", f.s, f.a3, f.a4),
    ])
    if miswired:
        raise FrameInvalidError(miswired)
    p, mu, _ = morphism_image(f.alpha)              # P = A1 / ker(alpha), mu : P -> H = B1
    try:
        nu = hom(p, f.a2, f.beta.matrix)            # P -> E = A2
    except WellDefinednessError:
        raise FrameInvalidError([_FRAME_CONDITIONS["rowTop/left"]]) from None
    r, incl_r, pi_er = morphism_image(f.d)
    s, incl_s, pi_hs = morphism_image(f.top_b)
    q, incl_q, pi_fq = morphism_image(f.s)
    try:
        pi_gq = lift_through_inclusion(incl_q, f.r)     # B2 -> Q, corestriction of r
    except NonComposableError:
        raise FrameInvalidError([_FRAME_CONDITIONS["rowBottom/right"]]) from None
    # each corner on its invariant-factor generators, carried by simplify's isomorphisms
    sp, sr, ss, sq = (simplify(corner) for corner in (p, r, s, q))
    nu, mu = nu @ sp.from_min, mu @ sp.from_min
    incl_r, pi_er = incl_r @ sr.from_min, sr.to_min @ pi_er
    incl_s, pi_hs = incl_s @ ss.from_min, ss.to_min @ pi_hs
    pi_fq, pi_gq = sq.to_min @ pi_fq, sq.to_min @ pi_gq
    diagram = Diagram3x3(row_top=ShortExactSequence(nu, pi_er),         # 0 -> P -> A2 -> im(d) -> 0
                         row_bottom=ShortExactSequence(incl_s, pi_gq),  # 0 -> im(topB) -> B2 -> Q -> 0
                         col_left=ShortExactSequence(mu, pi_hs),        # 0 -> P -> B1 -> im(topB) -> 0
                         col_right=ShortExactSequence(incl_r, pi_fq))   # 0 -> im(d) -> A3 -> Q -> 0
    try:
        _require_valid(diagram)
    except InvalidDiagramError as exc:
        verdicts = dict(v.partition(": ")[::2] for v in exc.violations)
        faults = sorted(verdicts.keys() - _FRAME_CONDITIONS.keys())
        if faults:
            raise AssertionError(f"the fold of a wired frame fails by construction at {faults}")
        raise FrameInvalidError([msg.format(verdicts[pos]) for pos, msg in _FRAME_CONDITIONS.items()
                                 if pos in verdicts]) from None
    return diagram


def validate_frame(f: HexagonFrame) -> list[str]:
    """The violations :func:`fold_frame` raises; empty iff it folds."""
    try:
        fold_frame(f)
    except FrameInvalidError as exc:
        return exc.violations
    return []


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
    ext = extend_diagram(fold_frame(f))
    return SolvedHexagon(f, ext.x, i=ext.j, j=ext.i, c=ext.n, curv=ext.m)


def verify_hexagon(h: SolvedHexagon) -> list[str]:
    """Every solved-hexagon invariant: the two exact diagonals through the
    center and the four composite identities."""
    f = h.frame
    out = _miswired([
        ("i", h.i, f.a2, h.center), ("j", h.j, f.b1, h.center),
        ("c", h.c, h.center, f.b2), ("curv", h.curv, h.center, f.a3),
    ])
    if out:
        return out
    out += exactness_violations("diagonal B1-center-A3", [h.j, h.curv])
    out += exactness_violations("diagonal A2-center-B2", [h.i, h.c])
    return out + [msg for lhs, rhs, msg in (
        (h.c @ h.j, f.top_b, "c o j != topB"), (h.curv @ h.i, f.d, "curv o i != d"),
        (h.i @ f.beta, h.j @ f.alpha, "i o beta != j o alpha"),
        (f.s @ h.curv, f.r @ h.c, "s o curv != r o c")) if not lhs.equals(rhs)]


def hexagon_compatible_iso(h1: SolvedHexagon, h2: SolvedHexagon) -> ModuleMorphism:
    """An isomorphism ``phi : center1 -> center2`` with ``phi o i1 = i2``,
    ``phi o j1 = j2``, ``c2 o phi = c1`` and ``curv2 o phi = curv1``.

    Delegates to the grid-level compatible isomorphism on the folded
    diagram; the four equations are the same four, relabelled.
    """
    if h1.frame != h2.frame:
        raise FrameInvalidError(["solved hexagons come from different frames"])
    # unchecked extensions: compatible_isomorphism validates them first
    e1, e2 = (DiagramExtension(h.center, i=h.j, j=h.i, m=h.curv, n=h.c) for h in (h1, h2))
    return compatible_isomorphism(fold_frame(h1.frame), e1, e2)
