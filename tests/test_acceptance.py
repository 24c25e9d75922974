"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  The random corpora are seeded, so every run checks the identical
instances.
"""

import itertools
import random
import time

import pytest

from hexext.cli import main as cli_main
from hexext.diagram import (
    Diagram3x3,
    check_uniqueness,
    compatible_isomorphism,
    enumerate_extensions,
    extend_diagram,
    obstruction,
    validate_extension,
)
from hexext.document import parse, serialize
from hexext.errors import NotExtendableError
from hexext.ext import class_of_ses, ext_module, ses_of_class
from hexext.modules import PresentedModule, split_ses
from hexext.oracle import EnumerationBudget, brute_ext1, brute_extension_exists
from hexext.randgen import (
    perturb_extension,
    random_class,
    random_diagram,
    random_module,
)
from hexext.rings import ZZ, Zmod
from routes import baer_sum_explicit, census, extend_with_variant_cocycle, is_injective_module
from tests.conftest import all_modules_over

R4, R8, R9 = Zmod(4), Zmod(8), Zmod(9)

pytestmark = pytest.mark.acceptance


def report(n: int, ok: bool, desc: str, t0: float, capsys=None):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n} [{status}] {desc} ({time.time() - t0:.1f}s)"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {n} failed: {desc}"


# -- shared corpora ----------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_corpus():
    """>= 1000 seeded random valid diagrams split across the three rings."""
    corpus = {}
    for ring, label, count in ((R4, "Zmod4", 340), (R8, "Zmod8", 340), (R9, "Zmod9", 340)):
        rng = random.Random(0xD1A6 + ring.modulus)
        corpus[label] = [random_diagram(rng, ring, 16) for _ in range(count)]
    return corpus


def obstructed_family():
    """At least twenty deliberately obstructed diagrams: every split/nonsplit
    corner combination with nonzero product sum over Z/4 (two presentations
    of the corner), mixed-corner Z/8 instances where the products survive,
    two-generator quotients over Z/4, and Z/9 instances."""
    out = []
    presentations = [
        PresentedModule.cyclic(R4, 2),
        # the same module on two generators with a redundant relation
        PresentedModule.make(R4, 2, [[2, 0], [1, 1], [3, 1]]),
    ]
    for z2 in presentations:
        e1 = ext_module(1, z2, z2)
        seqs = {0: ses_of_class(e1.zero_class()), 1: ses_of_class(e1.class_from_coords((1,)))}
        for top, right, left, bottom in itertools.product((0, 1), repeat=4):
            d = Diagram3x3(row_top=seqs[top], row_bottom=seqs[bottom],
                           col_left=seqs[left], col_right=seqs[right])
            if not obstruction(d).is_zero:
                out.append(d)

    # Z/8: the all-Z/2 products vanish, but P = Z/2 with R = Q = Z/4 survives
    from hexext.modules import hom, make_ses, zero_morphism

    z2 = PresentedModule.cyclic(R8, 2)
    z4 = PresentedModule.cyclic(R8, 4)
    zero = PresentedModule.zero(R8)
    rt = ses_of_class(ext_module(1, z4, z2).class_from_coords((1,)))
    cr = ses_of_class(ext_module(1, z4, z4).class_from_coords((1,)))
    cl0 = make_ses(hom(z2, z2, [[1]]), zero_morphism(z2, zero))
    rb0 = make_ses(zero_morphism(zero, z4), hom(z4, z4, [[1]]))
    out.append(Diagram3x3(row_top=rt, row_bottom=rb0, col_left=cl0, col_right=cr))
    out.append(Diagram3x3(row_top=rt, row_bottom=ses_of_class(ext_module(1, z4, z2).zero_class()),
                          col_left=split_ses(z2, z2), col_right=cr))
    # and its mirror through the other product: H-G nonsplit, E-F trivial
    rt0 = make_ses(hom(z2, z2, [[1]]), zero_morphism(z2, zero))
    cr0 = make_ses(zero_morphism(zero, z4), hom(z4, z4, [[1]]))
    out.append(Diagram3x3(row_top=rt0, row_bottom=cr, col_left=rt, col_right=cr0))

    # Z/4 with a two-generator quotient Q = Z/2 (+) Z/2
    z2a = PresentedModule.cyclic(R4, 2)
    q22 = PresentedModule.from_invariant_factors(R4, [2, 2])
    rt4 = ses_of_class(ext_module(1, z2a, z2a).class_from_coords((1,)))
    sp4 = split_ses(z2a, z2a)
    e_qr = ext_module(1, q22, z2a)
    rb4 = ses_of_class(e_qr.zero_class())
    for coords in ((1, 0), (0, 1), (1, 1)):
        cr4 = ses_of_class(e_qr.class_from_coords(coords))
        out.append(Diagram3x3(row_top=rt4, row_bottom=rb4, col_left=sp4, col_right=cr4))

    # Z/9
    z3 = PresentedModule.cyclic(R9, 3)
    e1 = ext_module(1, z3, z3)
    ns1 = ses_of_class(e1.class_from_coords((1,)))
    ns2 = ses_of_class(e1.class_from_coords((2,)))
    sp = ses_of_class(e1.zero_class())
    out += [
        Diagram3x3(row_top=ns1, row_bottom=sp, col_left=sp, col_right=ns1),
        Diagram3x3(row_top=sp, row_bottom=ns1, col_left=ns1, col_right=sp),
        Diagram3x3(row_top=ns1, row_bottom=ns1, col_left=ns1, col_right=ns1),
        Diagram3x3(row_top=ns1, row_bottom=ns2, col_left=ns2, col_right=ns2),
    ]
    out = [d for d in out if not obstruction(d).is_zero]
    return out


# -- criteria ----------------------------------------------------------------------


def test_criterion_1_oracle_agreement_ext1(capsys):
    t0 = time.time()
    budget = EnumerationBudget(max_order=16)
    checked = {}
    ok = True
    for ring, bound in ((R4, 16), (R8, 16), (R9, 9)):
        mods = all_modules_over(ring, bound)
        checked[ring] = 0
        for q in mods:
            for p in mods:
                if (q.cardinality() or 0) * (p.cardinality() or 0) > budget.max_order:
                    continue  # outside the oracle's stated precondition
                brute = brute_ext1(q, p, budget)
                computed = ext_module(1, q, p).cardinality()
                if brute.count != computed:
                    ok = False
                    print(f"  mismatch: Q={q} P={p}: brute {brute.count} vs {computed}")
                checked[ring] += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    per_ring = ", ".join(f"{n} over {ring}" for ring, n in checked.items())
    report(1, ok, f"brute-force vs computed Ext^1 class counts on {sum(checked.values())} pairs ({per_ring})",
           t0, capsys)


def test_criterion_2_existence_law(fuzz_corpus, capsys):
    t0 = time.time()
    total = failures = 0
    for label, diagrams in fuzz_corpus.items():
        for d in diagrams:
            total += 1
            zero = obstruction(d).is_zero
            try:
                ext = extend_diagram(d)
                extended = True
                if validate_extension(d, ext) != []:
                    failures += 1
                    continue
            except NotExtendableError:
                extended = False
            if extended != zero:
                failures += 1
    report(2, failures == 0 and total >= 1000,
           f"extension exists iff obstruction vanishes on {total} seeded diagrams", t0, capsys)


def test_criterion_3_nonextendability_ground_truth(capsys):
    t0 = time.time()
    family = obstructed_family()
    budget = EnumerationBudget(max_order=100, max_candidates=500_000_000)
    confirmed = 0
    ok = len(family) >= 20
    for d in family:
        if brute_extension_exists(d, budget):
            print("  exhaustive search found a grid for an obstructed diagram!")
            ok = False
        else:
            confirmed += 1
    report(3, ok, f"exhaustive middle search confirms {confirmed} obstructed diagrams", t0, capsys)


def test_criterion_4_global_dimension_one(capsys):
    t0 = time.time()
    rng = random.Random(0x51ED)
    failures = 0
    for _ in range(500):
        d = random_diagram(rng, ZZ, 16)
        if not obstruction(d).is_zero:
            failures += 1
            continue
        try:
            ext = extend_diagram(d)
        except NotExtendableError:
            failures += 1
            continue
        if validate_extension(d, ext) != []:
            failures += 1
    report(4, failures == 0, "500 random diagrams over Z all extend", t0, capsys)


def test_criterion_5_uniqueness_law(fuzz_corpus, capsys):
    t0 = time.time()
    checked = failures = 0
    for label, diagrams in fuzz_corpus.items():
        for d in diagrams:
            if not obstruction(d).is_zero:
                continue
            rep = check_uniqueness(d)
            if not rep.unique:
                continue
            checked += 1
            exts = enumerate_extensions(d)
            if len(exts) != 1:
                failures += 1  # unique class must deduplicate all lifts
                continue
            for e1 in exts:
                for e2 in exts:
                    phi = compatible_isomorphism(d, e1, e2)
                    eqs = [(phi @ e1.i).equals(e2.i), (phi @ e1.j).equals(e2.j),
                           (e2.m @ phi).equals(e1.m), (e2.n @ phi).equals(e1.n)]
                    if not all(eqs) or not phi.is_isomorphism():
                        failures += 1
    report(5, failures == 0 and checked > 0,
           f"unique-class diagrams ({checked}) have pairwise compatible lifts", t0, capsys)


def test_criterion_6_injective_p_law(capsys):
    t0 = time.time()
    checked = failures = 0
    for ring in (R4, R8):
        rng = random.Random(0x1239 + ring.modulus)
        produced = 0
        while produced < 40:
            d = random_diagram(rng, ring, 16)
            if not is_injective_module(d.p):
                continue
            produced += 1
            checked += 1
            try:
                base = extend_diagram(d)
            except NotExtendableError:
                failures += 1
                continue
            solutions = [base]
            try:
                solutions.append(extend_with_variant_cocycle(rng, d))
            except NotExtendableError:
                failures += 1
            solutions.append(perturb_extension(rng, d, base))
            bad = [s for s in solutions if validate_extension(d, s) != []]
            if bad:
                failures += 1
                continue
            for a in solutions:
                for b in solutions:
                    phi = compatible_isomorphism(d, a, b)
                    if not phi.is_isomorphism():
                        failures += 1
    report(6, failures == 0 and checked >= 80,
           f"injective-P diagrams ({checked}) always extend with compatible solutions", t0, capsys)


def test_criterion_7_baer_coherence(capsys):
    t0 = time.time()
    failures = 0
    # exhaustive over Z/4 and Z/8 for extensions of Z/2 by Z/2
    for ring in (R4, R8):
        z2 = PresentedModule.cyclic(ring, 2)
        e = ext_module(1, z2, z2)
        for c1 in e.all_classes():
            for c2 in e.all_classes():
                got = class_of_ses(baer_sum_explicit(ses_of_class(c1), ses_of_class(c2)))
                if got != c1 + c2:
                    failures += 1
    # 200 seeded random pairs over Z
    rng = random.Random(0xBAE2)
    pairs = 0
    while pairs < 200:
        q = random_module(rng, ZZ, 12, allow_zero=False)
        p = random_module(rng, ZZ, 12, allow_zero=False)
        e = ext_module(1, q, p)
        if e.presentation.cardinality() == 1:
            continue
        c1, c2 = random_class(rng, e), random_class(rng, e)
        got = class_of_ses(baer_sum_explicit(ses_of_class(c1), ses_of_class(c2)))
        if got != c1 + c2:
            failures += 1
        pairs += 1
    report(7, failures == 0,
           "explicit Baer sum equals cocycle addition (exhaustive mod 4/8 + 200 over Z)", t0, capsys)


def test_criterion_8_hexagon_pipeline(capsys):
    import pathlib

    from hexext.hexagon import hexagon_compatible_iso, solve_hexagon, verify_hexagon

    t0 = time.time()
    fixtures = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    ok = True

    model = parse((fixtures / "allsplit.json").read_text(encoding="utf-8"))
    h = solve_hexagon(model.hexagons["F"])
    ok &= verify_hexagon(h) == []
    ok &= (h.c @ h.j).equals(model.hexagons["F"].top_b)
    ok &= (h.curv @ h.i).equals(model.hexagons["F"].d)

    model = parse((fixtures / "obstructed.json").read_text(encoding="utf-8"))
    try:
        solve_hexagon(model.hexagons["F"])
        ok = False
    except NotExtendableError as exc:
        ok &= exc.report is not None and not exc.report.is_zero

    model = parse((fixtures / "injective.json").read_text(encoding="utf-8"))
    frame = model.hexagons["F"]
    h1 = solve_hexagon(frame)
    ok &= verify_hexagon(h1) == []
    from hexext.hexagon import SolvedHexagon, fold_frame

    rng = random.Random(88)
    dg = fold_frame(frame)
    ext2 = perturb_extension(rng, dg, extend_diagram(dg))
    h2 = SolvedHexagon(frame, ext2.x, i=ext2.j, j=ext2.i, c=ext2.n, curv=ext2.m)
    phi = hexagon_compatible_iso(h1, h2)
    ok &= phi.is_isomorphism()
    report(8, ok, "hexagon fixtures solve/verify, obstructed frame fails, solutions compatible", t0, capsys)


def test_criterion_9_determinism(capsys):
    import pathlib

    t0 = time.time()
    outs = []
    for _ in range(2):
        code = cli_main(["fuzz", "--ring", "Zmod4", "--seed", "20613", "--count", "25"])
        outs.append(capsys.readouterr().out)
        assert code == 0
    byte_identical = outs[0] == outs[1] and len(outs[0]) > 0

    fixtures = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    round_trips = True
    for f in sorted(fixtures.glob("*.json")):
        model = parse(f.read_text(encoding="utf-8"))
        round_trips &= parse(serialize(model)) == model
    report(9, byte_identical and round_trips,
           "fuzz output byte-identical; fixtures round-trip through parse/serialize", t0, capsys)


# the census's (grids, obstructed, non-unique over Y) per ring and bound on |X|
_CENSUS_PINS = {
    (R4, 16): (443, 32, 44),
    (R8, 16): (543, 6, 67),
    (R9, 9): (27, 0, 1),
    (Zmod(12), 12): (197, 2, 11),
    (ZZ, 16): (741, 0, 76),
}


def test_criterion_15_census(capsys):
    t0 = time.time()
    failures = 0
    counts = {}
    for (ring, bound), pinned in _CENSUS_PINS.items():
        grids = census(ring, bound)
        obstructed = non_unique = 0
        for d in grids:
            zero = obstruction(d).is_zero
            try:
                extend_diagram(d)
                extended = True
            except NotExtendableError:
                extended = False
            if not (zero == extended == brute_extension_exists(d)):
                failures += 1
            if not zero:
                obstructed += 1
            elif not check_uniqueness(d).unique:
                non_unique += 1
        counts[ring] = (len(grids), obstructed, non_unique)
        if counts[ring] != pinned:
            failures += 1
            print(f"  census over {ring} at |X| <= {bound}: {counts[ring]}, pinned {pinned}")
    total = sum(n for n, _, _ in counts.values())
    summary = ", ".join(f"{n}/{o}/{u} over {ring}" for ring, (n, o, u) in counts.items())
    report(15, failures == 0,
           f"obstruction, extend_diagram and exhaustive search agree on all {total} census grids "
           f"(grids/obstructed/non-unique over Y: {summary})", t0, capsys)
