"""Hexagon frames: folding, solving, verification, compatible isomorphisms."""

import collections
import dataclasses
import os
import pathlib
import random
import subprocess
import sys

import pytest

import hexext.diagram as diagram_module
import hexext.hexagon as hexagon_module
from hexext.diagram import (Diagram3x3, check_uniqueness, enumerate_extensions, extend_diagram, obstruction,
                            validate_diagram1)
from hexext.errors import FrameInvalidError, InvalidDiagramError, NotExtendableError
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
from hexext.modules import PresentedModule, hom, morphism_image, simplify, split_ses, zero_morphism
from hexext.randgen import frame_from_diagram, random_diagram, random_frame, random_hom
from hexext.rings import ZZ, Zmod
from routes import identity_morphism, raw_fold, raw_solve, validate_frame_unfolded
from test_acceptance import obstructed_family

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
    dg = fold_frame(f)
    assert validate_diagram1(dg) == []
    assert dg.p.cardinality() == 1


def test_fold_split_frame_validates():
    fr = frame_from_diagram(split_diagram())
    dg = fold_frame(fr)
    assert validate_diagram1(dg) == []
    assert dg.p.is_isomorphic_to(Z2m)
    assert dg.e == fr.a2 and dg.h == fr.b1 and dg.f == fr.a3 and dg.g == fr.b2


def test_fold_recovers_outer_maps():
    fr = frame_from_diagram(obstructed_diagram())
    dg = fold_frame(fr)
    # P, R, S and Q are the images of alpha, d, topB and s, each presented on
    # its invariant-factor generators
    images = [morphism_image(f) for f in (fr.alpha, fr.d, fr.top_b, fr.s)]
    for corner, (image, _incl, _pi) in zip((dg.p, dg.r, dg.s, dg.q), images):
        assert corner.generators == len(corner.invariant_factors()) + corner.free_rank()
        assert corner.is_isomorphic_to(image)
    # the fold's identifications compose back to the frame maps: R and S
    # include through the grid's own injections, Q and the quotient onto P
    # are rebuilt here as the fold builds them
    (p, _mu, quotient), (q, include_q, _pi) = images[0], images[3]
    quotient = simplify(p).to_min @ quotient
    include_q = include_q @ simplify(q).from_min
    assert (dg.col_right.inject @ dg.row_top.project).equals(fr.d)
    assert (dg.row_bottom.inject @ dg.col_left.project).equals(fr.top_b)
    assert (include_q @ dg.col_right.project).equals(fr.s)
    assert (include_q @ dg.row_bottom.project).equals(fr.r)
    assert (dg.row_top.inject @ quotient).equals(fr.beta)
    assert (dg.col_left.inject @ quotient).equals(fr.alpha)


def test_fold_with_decorated_corners():
    rng = random.Random(6)
    fr = frame_from_diagram(injective_p_diagram(), rng)
    assert validate_frame(fr) == []
    dg = fold_frame(fr)
    assert validate_diagram1(dg) == []
    # the junk summand in A1 is exactly ker(alpha), so P is the original corner
    assert dg.p.is_isomorphic_to(Z4m)


def test_fold_onto_invariant_factors_keeps_every_invariant_answer():
    # the change-of-presentation law, carried to the fold: folded on the
    # ambient generators of its corners, a decorated frame must give the same
    # verdict, Ext orders, uniqueness and, on unique frames, center type
    counts = collections.Counter()   # (ring, outcome) -> frames
    smaller = 0   # frames whose corners lose generators in the fold
    for ring in (R4, Zmod(8), Zmod(9), Zmod(12), ZZ):
        rng = random.Random(f"fold presentation {ring}")
        for _ in range(40):
            fr = frame_from_diagram(random_diagram(rng, ring, 16), rng)
            raw, dg = raw_fold(fr), fold_frame(fr)
            assert validate_diagram1(raw) == []
            corners = [(g.p, g.r, g.s, g.q) for g in (raw, dg)]
            smaller += sum(m.generators for m in corners[1]) < sum(m.generators for m in corners[0])
            for k in (1, 2):
                assert ext_module(k, raw.q, raw.p).cardinality() == ext_module(k, dg.q, dg.p).cardinality()
            zero = obstruction(raw).is_zero
            try:
                h = solve_hexagon(fr)
            except NotExtendableError:
                assert not zero
                counts[str(ring), "obstructed"] += 1
                continue
            assert zero and verify_hexagon(h) == []
            unique = check_uniqueness(raw).unique
            assert check_uniqueness(dg).unique == unique
            if unique:
                x = extend_diagram(raw).x
                assert (h.center.invariant_factors(), h.center.free_rank()) == (x.invariant_factors(), x.free_rank())
            counts[str(ring), "unique" if unique else "not unique"] += 1
    assert sum(counts.values()) == 200 and smaller >= 190, (smaller, counts)
    assert sum(n for (_, outcome), n in counts.items() if outcome == "obstructed") >= 6, counts
    assert sum(n for (_, outcome), n in counts.items() if outcome == "not unique") >= 20, counts
    assert not counts[str(ZZ), "obstructed"], counts


def test_solve_on_invariant_factors_keeps_every_invariant_answer():
    # the change-of-presentation law, carried to the solve: against the solve
    # on the frame as given, a decorated frame must be refused alike, its
    # center must verify, keep its type on unique frames and be admissible
    # on the others
    counts = collections.Counter()   # (ring, outcome) -> frames
    for ring in (R4, Zmod(8), Zmod(9), Zmod(12), ZZ):
        rng = random.Random(f"solve presentation {ring}")
        for _ in range(40):
            fr = frame_from_diagram(random_diagram(rng, ring, 16), rng)
            try:
                raw = raw_solve(fr)
            except NotExtendableError:
                with pytest.raises(NotExtendableError):
                    solve_hexagon(fr)
                counts[str(ring), "obstructed"] += 1
                continue
            h = solve_hexagon(fr)
            assert verify_hexagon(raw) == [] and verify_hexagon(h) == []
            center = (h.center.invariant_factors(), h.center.free_rank())
            dg = fold_frame(fr)
            if check_uniqueness(dg).unique:
                assert center == (raw.center.invariant_factors(), raw.center.free_rank())
                counts[str(ring), "unique"] += 1
            else:
                assert center in {(e.x.invariant_factors(), e.x.free_rank()) for e in enumerate_extensions(dg)}
                counts[str(ring), "not unique"] += 1
    assert sum(counts.values()) == 200, counts
    assert sum(n for (_, outcome), n in counts.items() if outcome == "obstructed") >= 4, counts
    assert sum(n for (_, outcome), n in counts.items() if outcome == "not unique") >= 30, counts


def mismatched_kernels_frame():
    # ker(alpha) = 0 lies strictly inside ker(beta) = Z/2
    z = PresentedModule.zero(R4)
    return HexagonFrame(a1=Z2m, b1=Z2m, b2=Z2m, a4=z, a2=Z2m, a3=Z2m,
                        alpha=identity_morphism(Z2m), beta=zero_morphism(Z2m, Z2m),
                        top_b=zero_morphism(Z2m, Z2m), d=identity_morphism(Z2m),
                        r=zero_morphism(Z2m, z), s=zero_morphism(Z2m, z))


def mismatched_images_frames():
    # both paths are exact and ker(alpha) = ker(beta) = 0, but one of r, s
    # reaches only 2*Z/4 inside A4 = Z/4 while the other is onto
    z = PresentedModule.zero(R4)
    doubling = hom(Z2m, Z4m, [[2]])
    return [HexagonFrame(a1=z, b1=z, b2=r.source, a4=Z4m, a2=z, a3=s.source,
                         alpha=zero_morphism(z, z), beta=zero_morphism(z, z),
                         top_b=zero_morphism(z, r.source), d=zero_morphism(z, s.source),
                         r=r, s=s)
            for r, s in ((doubling, identity_morphism(Z4m)), (identity_morphism(Z4m), doubling))]


def test_frame_with_mismatched_kernels_rejected():
    bad = mismatched_kernels_frame()
    assert validate_frame(bad) == ["ker(alpha) != ker(beta) inside A1",
                                   "upper path/interior 1: image strictly smaller than kernel"]
    with pytest.raises(FrameInvalidError):
        fold_frame(bad)
    # the other way round, ker(alpha) is not inside ker(beta): no nu, so the
    # fold stops at that condition alone
    flipped = dataclasses.replace(bad, alpha=bad.beta, beta=bad.alpha, b1=bad.a2, a2=bad.b1)
    assert validate_frame(flipped) == ["ker(alpha) != ker(beta) inside A1"]


def test_frame_with_mismatched_images_rejected():
    for bad in mismatched_images_frames():
        assert validate_frame(bad) == ["im(r) != im(s) inside A4"]
        with pytest.raises(FrameInvalidError):
            fold_frame(bad)


def test_fold_reports_the_frame_conditions_in_the_unfolded_order():
    rng = random.Random(6)
    frames = [frame_from_diagram(dg, decorate)
              for dg in (split_diagram(), obstructed_diagram(), injective_p_diagram())
              for decorate in (None, rng)]
    frames += [mismatched_kernels_frame(), *mismatched_images_frames()]
    frames += [random_frame(rng, R4, 16) for _ in range(4)]
    for fr in frames:
        assert validate_frame(fr) == validate_frame_unfolded(fr)


def test_validate_frame_matches_the_unfolded_route():
    # seeded frames over five rings, one map swapped for a random one in six
    # of seven draws: the fold lists what the frame itself shows, except that
    # a frame whose fold does not exist gets only the condition that stops it
    rng = random.Random(5)
    equal = narrowed = 0
    blocking = ("ker(alpha) != ker(beta) inside A1", "im(r) != im(s) inside A4")
    for ring in (Zmod(4), Zmod(6), Zmod(8), Zmod(9), ZZ):
        for _ in range(60):
            fr = random_frame(rng, ring)
            if rng.randrange(7):
                name = rng.choice(["alpha", "beta", "top_b", "d", "r", "s"])
                old = getattr(fr, name)
                fr = dataclasses.replace(fr, **{name: random_hom(rng, old.source, old.target)})
            folded, unfolded = validate_frame(fr), validate_frame_unfolded(fr)
            if folded == unfolded:
                equal += 1
            else:
                assert len(folded) == 1 and folded[0] in blocking and folded[0] in unfolded
                narrowed += 1
    print(f"frame validation: {equal} frames equal to the unfolded route, {narrowed} narrowed")
    assert equal + narrowed == 300 and narrowed > 0


def test_a_constructed_grid_position_failing_is_an_engine_fault(monkeypatch):
    fr = frame_from_diagram(split_diagram())
    for fault in ("rowTop/right: image strictly smaller than kernel",
                  "corner Q differs between colRight and rowBottom"):
        def invalid(_d, fault=fault):
            raise InvalidDiagramError(["colLeft/interior 0: composite nonzero", fault])
        monkeypatch.setattr(hexagon_module, "_require_valid", invalid)
        with pytest.raises(AssertionError, match="by construction"):
            validate_frame(fr)


def test_the_engine_fault_survives_python_O():
    # python -O strips assert statements; the fold raises its fault itself
    src = pathlib.Path(hexagon_module.__file__).resolve().parents[1]
    script = (
        "import random\n"
        "import hexext.hexagon as hexagon\n"
        "from hexext.errors import InvalidDiagramError\n"
        "from hexext.randgen import random_frame\n"
        "from hexext.rings import Zmod\n"
        "def invalid(_d):\n"
        "    raise InvalidDiagramError(['colLeft/interior 0: composite nonzero', 'rowTop/right: x'])\n"
        "hexagon._require_valid = invalid\n"
        "try:\n"
        "    print(hexagon.validate_frame(random_frame(random.Random(1), Zmod(4))))\n"
        "except AssertionError as exc:\n"
        "    print('fault:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.startswith("fault: the fold of a wired frame fails by construction at ['rowTop/right']")


def test_solving_a_frame_validates_its_fold_once(monkeypatch):
    # validate_diagram1 is wrapped under every hexext name bound to it; the
    # fold's check is the frame's.  The center is verified once, inside
    # solve_hexagon, and the caller's verify_hexagon of that object reads the
    # kept verdict, so the two diagonals are checked once between them
    calls, paths = [], []
    real = validate_diagram1
    for mod in [m for name, m in sys.modules.items() if name.startswith("hexext.")]:
        if getattr(mod, "validate_diagram1", None) is real:
            monkeypatch.setattr(mod, "validate_diagram1", lambda d: calls.append(d) or real(d))
    real_paths = hexagon_module.exactness_violations
    monkeypatch.setattr(hexagon_module, "exactness_violations", lambda *a: paths.append(a[0]) or real_paths(*a))
    h = solve_hexagon(frame_from_diagram(injective_p_diagram()))
    assert verify_hexagon(h) == []
    assert len(calls) == 1
    assert paths == ["diagonal B1-center-A3", "diagonal A2-center-B2"]


def test_unverified_center_is_an_engine_fault(monkeypatch):
    # a center that fails verification never leaves the library
    monkeypatch.setattr(hexagon_module, "exactness_violations", lambda *a: ["forced"])
    with pytest.raises(AssertionError, match="^solved hexagon failed verification: forced; forced$"):
        solve_hexagon(frame_from_diagram(injective_p_diagram()))


def test_kept_center_verdict_is_keyed_on_identity(monkeypatch):
    f = frame_from_diagram(injective_p_diagram())
    h = solve_hexagon(f)
    paths = []
    real_paths = hexagon_module.exactness_violations
    monkeypatch.setattr(hexagon_module, "exactness_violations", lambda *a: paths.append(a[0]) or real_paths(*a))
    assert verify_hexagon(h) == [] and paths == []
    # an equal copy, and a copy with c zeroed, are checked in full
    assert verify_hexagon(dataclasses.replace(h)) == [] and len(paths) == 2
    broken = dataclasses.replace(h, c=zero_morphism(h.center, f.b2))
    assert verify_hexagon(broken) and len(paths) == 4
    # once another diagram is analysed, the same object is checked again
    extend_diagram(split_diagram())
    assert verify_hexagon(h) == [] and len(paths) == 6


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


def test_every_obstructed_family_frame_reports_its_fold_obstruction():
    # random frames almost never reach the obstructed path; each diagram of
    # the acceptance gate's obstructed family does, undecorated and decorated
    rng = random.Random(0x0B57)
    frames = 0
    for d in obstructed_family():
        for frame in (frame_from_diagram(d), frame_from_diagram(d, rng)):
            with pytest.raises(NotExtendableError) as exc:
                solve_hexagon(frame)
            # the report belongs to the fold of the frame the solve runs on,
            # its six objects on invariant-factor generators; the fold of the
            # frame as given has an Ext^2(Q, P) of the same order
            got = exc.value.report.baer_sum
            conjugated = hexagon_module._on_invariant_factors(frame)
            assert got == obstruction(fold_frame(conjugated)).baer_sum
            raw = obstruction(fold_frame(frame)).baer_sum
            assert not got.is_zero() and not raw.is_zero()
            assert got.parent.cardinality() == raw.parent.cardinality()
            frames += 1
    assert frames >= 40


def test_verify_flags_zeroed_curv():
    h = solve_hexagon(frame_from_diagram(split_diagram()))
    broken = SolvedHexagon(h.frame, h.center, h.i, h.j, h.c,
                           zero_morphism(h.center, h.frame.a3))
    assert verify_hexagon(broken) != []


def test_verify_reports_each_miswired_map():
    h = solve_hexagon(frame_from_diagram(split_diagram()))
    miswired = {"i": zero_morphism(Z4m, h.center), "j": zero_morphism(Z4m, h.center),
                "c": zero_morphism(h.center, Z4m), "curv": zero_morphism(h.center, Z4m)}
    for name, wrong in miswired.items():
        broken = dataclasses.replace(h, **{name: wrong})
        assert verify_hexagon(broken) == [f"{name} does not connect the declared objects"]


def test_fold_reports_each_miswired_map():
    # the zero map of Z/4, an object the split frame does not have
    fr = frame_from_diagram(split_diagram())
    wrong = zero_morphism(Z4m, Z4m)
    for name, attr in (("alpha", "alpha"), ("beta", "beta"), ("topB", "top_b"), ("d", "d"), ("r", "r"), ("s", "s")):
        broken = dataclasses.replace(fr, **{attr: wrong})
        with pytest.raises(FrameInvalidError) as exc:
            fold_frame(broken)
        assert exc.value.violations == [f"{name} does not connect the declared objects"]


def test_compatible_iso_refuses_solutions_of_two_frames():
    h1 = solve_hexagon(frame_from_diagram(split_diagram()))
    h2 = solve_hexagon(frame_from_diagram(injective_p_diagram()))
    with pytest.raises(FrameInvalidError) as exc:
        hexagon_compatible_iso(h1, h2)
    assert exc.value.violations == ["solved hexagons come from different frames"]


def test_two_solutions_admit_compatible_iso():
    fr = frame_from_diagram(injective_p_diagram())
    h1 = solve_hexagon(fr)
    # an independently produced second solution: rerun (deterministic) and
    # perturb through the grid machinery
    from hexext.randgen import perturb_extension
    from hexext.hexagon import fold_frame as _fold

    dg = _fold(fr)
    from hexext.diagram import extend_diagram

    rng = random.Random(17)
    ext2 = perturb_extension(rng, dg, extend_diagram(dg))
    h2 = SolvedHexagon(fr, ext2.x, i=ext2.j, j=ext2.i, c=ext2.n, curv=ext2.m)
    assert verify_hexagon(h2) == []
    phi = hexagon_compatible_iso(h1, h2)
    assert (phi @ h1.i).equals(h2.i)
    assert (phi @ h1.j).equals(h2.j)
    assert (h2.c @ phi).equals(h1.c)
    assert (h2.curv @ phi).equals(h1.curv)


def test_compatible_iso_of_a_solved_frame_builds_no_y(monkeypatch):
    # the frame is folded again, but a compatible isomorphism that is found
    # needs no Y, so no Y core is built for the fresh fold
    rng = random.Random(42)
    solved = []
    while len(solved) < 5:
        try:
            solved.append(solve_hexagon(random_frame(rng, R4)))
        except NotExtendableError:
            pass
    calls = []
    real = diagram_module._y_core
    monkeypatch.setattr(diagram_module, "_y_core", lambda *a, **k: calls.append(a) or real(*a, **k))
    for h in solved:
        assert hexagon_compatible_iso(h, h).is_isomorphism()
    assert calls == []


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
