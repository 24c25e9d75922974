"""Hexagon frames: folding, solving, verification, compatible isomorphisms."""

import random

import pytest

from hexext.diagram import Diagram3x3, validate_diagram1
from hexext.errors import FrameInvalidError, NotExtendableError
from hexext.ext import ext_module, ses_of_class
from hexext.hexagon import (
    HexagonFrame,
    SolvedHexagon,
    fold_frame,
    hexagon_compatible_iso,
    solve_hexagon,
    validate_frame,
    verify_hexagon,
)
from hexext.modules import PresentedModule, hom, identity_morphism, split_ses, zero_morphism
from hexext.randgen import frame_from_diagram, random_frame
from hexext.rings import ZZ, Zmod

R4 = Zmod(4)
Z2m = PresentedModule.cyclic(R4, 2)
Z4m = PresentedModule.free(R4, 1)


def split_diagram():
    sp = split_ses(Z2m, Z2m)
    return Diagram3x3(row_top=sp, row_bottom=sp, col_left=sp, col_right=sp)


def obstructed_diagram():
    ns = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    sp = split_ses(Z2m, Z2m)
    return Diagram3x3(row_top=ns, row_bottom=sp, col_left=sp, col_right=ns)


def injective_p_diagram():
    rt = ses_of_class(ext_module(1, Z2m, Z4m).zero_class())
    ns = ses_of_class(ext_module(1, Z2m, Z2m).class_from_coords((1,)))
    return Diagram3x3(row_top=rt, row_bottom=ns, col_left=rt, col_right=ns)


# -- folding ------------------------------------------------------------------


def test_zero_frame_folds_to_zero_diagram():
    z = PresentedModule.zero(R4)
    zz = zero_morphism(z, z)
    f = HexagonFrame(a1=z, b1=z, b2=z, a4=z, a2=z, a3=z,
                     alpha=zz, beta=zz, top_b=zz, d=zz, r=zz, s=zz)
    fold = fold_frame(f)
    assert validate_diagram1(fold.diagram) == []
    assert fold.diagram.p.is_zero_module()


def test_fold_split_frame_validates():
    fr = frame_from_diagram(split_diagram())
    fold = fold_frame(fr)
    assert validate_diagram1(fold.diagram) == []
    dg = fold.diagram
    assert dg.p.is_isomorphic_to(Z2m)
    assert dg.e == fr.a2 and dg.h == fr.b1 and dg.f == fr.a3 and dg.g == fr.b2


def test_fold_recovers_outer_maps():
    fr = frame_from_diagram(obstructed_diagram())
    fold = fold_frame(fr)
    dg = fold.diagram
    # the fold's identifications compose back to the frame maps
    assert (fold.include_r @ dg.row_top.project).matrix == fr.d.matrix
    assert (fold.include_s @ dg.col_left.project).matrix == fr.top_b.matrix
    assert (fold.include_q @ dg.col_right.project).equals(fr.s)
    assert (fold.include_q @ dg.row_bottom.project).equals(fr.r)
    assert (dg.row_top.inject @ fold.quotient).equals(fr.beta)
    assert (dg.col_left.inject @ fold.quotient).equals(fr.alpha)


def test_fold_with_decorated_corners():
    rng = random.Random(6)
    fr = frame_from_diagram(injective_p_diagram(), rng, decorate=True)
    assert validate_frame(fr) == []
    fold = fold_frame(fr)
    assert validate_diagram1(fold.diagram) == []
    # the junk summand in A1 is exactly ker(alpha), so P is the original corner
    assert fold.diagram.p.is_isomorphic_to(Z4m)


def test_frame_with_mismatched_kernels_rejected():
    bad = HexagonFrame(a1=Z2m, b1=Z2m, b2=Z2m, a4=PresentedModule.zero(R4),
                       a2=Z2m, a3=Z2m,
                       alpha=identity_morphism(Z2m), beta=zero_morphism(Z2m, Z2m),
                       top_b=zero_morphism(Z2m, Z2m), d=identity_morphism(Z2m),
                       r=zero_morphism(Z2m, PresentedModule.zero(R4)),
                       s=zero_morphism(Z2m, PresentedModule.zero(R4)))
    violations = validate_frame(bad)
    assert any("ker(alpha)" in v for v in violations)
    with pytest.raises(FrameInvalidError):
        fold_frame(bad)


def test_frame_with_mismatched_images_rejected():
    # both paths are exact and ker(alpha) = ker(beta) = 0, but one of r, s
    # reaches only 2*Z/4 inside A4 = Z/4 while the other is onto
    z = PresentedModule.zero(R4)
    doubling = hom(Z2m, Z4m, [[2]])
    for r, s in ((doubling, identity_morphism(Z4m)), (identity_morphism(Z4m), doubling)):
        bad = HexagonFrame(a1=z, b1=z, b2=r.source, a4=Z4m, a2=z, a3=s.source,
                           alpha=zero_morphism(z, z), beta=zero_morphism(z, z),
                           top_b=zero_morphism(z, r.source), d=zero_morphism(z, s.source),
                           r=r, s=s)
        assert validate_frame(bad) == ["im(r) != im(s) inside A4"]
        with pytest.raises(FrameInvalidError):
            fold_frame(bad)


# -- solving ------------------------------------------------------------------


def test_solve_split_frame():
    h = solve_hexagon(frame_from_diagram(split_diagram()))
    assert verify_hexagon(h) == []


def test_solve_injective_p_frame():
    h = solve_hexagon(frame_from_diagram(injective_p_diagram()))
    assert verify_hexagon(h) == []
    fr = h.frame
    assert (h.c @ h.j).equals(fr.top_b)
    assert (h.curv @ h.i).equals(fr.d)


def test_obstructed_frame_not_solvable():
    with pytest.raises(NotExtendableError) as exc:
        solve_hexagon(frame_from_diagram(obstructed_diagram()))
    assert exc.value.report is not None


def test_verify_flags_zeroed_curv():
    h = solve_hexagon(frame_from_diagram(split_diagram()))
    broken = SolvedHexagon(h.frame, h.center, h.i, h.j, h.c,
                           zero_morphism(h.center, h.frame.a3))
    assert verify_hexagon(broken) != []


def test_two_solutions_admit_compatible_iso():
    fr = frame_from_diagram(injective_p_diagram())
    h1 = solve_hexagon(fr)
    # an independently produced second solution: rerun (deterministic) and
    # perturb through the grid machinery
    from hexext.randgen import perturb_extension
    from hexext.hexagon import fold_frame as _fold

    fold = _fold(fr)
    from hexext.diagram import extend_diagram

    rng = random.Random(17)
    ext2 = perturb_extension(rng, fold.diagram, extend_diagram(fold.diagram))
    h2 = SolvedHexagon(fr, ext2.x, i=ext2.j, j=ext2.i, c=ext2.n, curv=ext2.m)
    assert verify_hexagon(h2) == []
    phi = hexagon_compatible_iso(h1, h2)
    assert (phi @ h1.i).equals(h2.i)
    assert (phi @ h1.j).equals(h2.j)
    assert (h2.c @ phi).equals(h1.c)
    assert (h2.curv @ phi).equals(h1.curv)


def test_random_frames_solve_and_verify():
    rng = random.Random(77)
    solved = 0
    for _ in range(12):
        fr = random_frame(rng, R4, 16)
        assert validate_frame(fr) == []
        try:
            h = solve_hexagon(fr)
        except NotExtendableError:
            continue
        assert verify_hexagon(h) == []
        solved += 1
    assert solved >= 6
