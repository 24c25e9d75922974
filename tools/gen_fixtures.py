#!/usr/bin/env python3
"""Regenerate the JSON fixtures in fixtures/.

Run from the repository root:  python3 tools/gen_fixtures.py
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hexext.diagram import Diagram3x3, enumerate_extensions, extend_diagram
from hexext.document import DocumentModel, serialize
from hexext.ext import ext_module, ses_of_class
from hexext.modules import PresentedModule, split_ses
from hexext.randgen import frame_from_diagram, perturb_extension, random_diagram
from hexext.rings import ZZ, Zmod

OUT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def base_model(ring_name, ring):
    model = DocumentModel()
    model.rings[ring_name] = ring
    return model


def add_module(model, name, ring_name, module):
    model.modules[name] = module
    model.module_ring_names[name] = ring_name
    return module


def add_morphism(model, name, mor):
    model.morphisms[name] = mor
    return mor


def add_ses(model, prefix, ses):
    add_morphism(model, f"{prefix}_inj", ses.inject)
    add_morphism(model, f"{prefix}_proj", ses.project)
    return {"inject": f"{prefix}_inj", "project": f"{prefix}_proj"}


def add_extension(model, tag, ring_name, ext, diagram_name):
    add_module(model, f"mid_{tag}", ring_name, ext.x)
    for key in "ijmn":
        add_morphism(model, f"{tag}_{key}", getattr(ext, key))
    model.extensions[tag] = ext
    model.extension_diagram_names[tag] = diagram_name


def write(name, model):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(serialize(model), encoding="utf-8")
    print("wrote", OUT / name)


def zmod4_diagram_models():
    r4 = Zmod(4)
    z2 = PresentedModule.cyclic(r4, 2)
    e1 = ext_module(1, z2, z2)
    nonsplit = ses_of_class(e1.class_from_coords((1,)))
    splitseq = split_ses(z2, z2)

    # --- obstructed.json: nonsplit row and right column -------------------
    model = base_model("R4", r4)
    add_module(model, "Z2", "R4", z2)
    add_module(model, "Z4", "R4", nonsplit.middle)
    add_module(model, "Z2xZ2", "R4", splitseq.middle)
    add_ses(model, "top", nonsplit)
    add_ses(model, "right", nonsplit)
    add_ses(model, "left", splitseq)
    add_ses(model, "bottom", splitseq)
    dg = Diagram3x3(row_top=nonsplit, row_bottom=splitseq, col_left=splitseq, col_right=nonsplit)
    model.diagrams["D"] = dg
    frame = frame_from_diagram(dg)
    add_morphism(model, "alpha", frame.alpha)
    add_morphism(model, "beta", frame.beta)
    add_morphism(model, "topB", frame.top_b)
    add_morphism(model, "dmap", frame.d)
    add_morphism(model, "rmap", frame.r)
    add_morphism(model, "smap", frame.s)
    model.hexagons["F"] = frame
    write("obstructed.json", model)

    # --- allsplit.json: everything split, plus extensions ------------------
    model = base_model("R4", r4)
    add_module(model, "Z2", "R4", z2)
    add_module(model, "Z2xZ2", "R4", splitseq.middle)
    add_ses(model, "top", splitseq)
    add_ses(model, "right", splitseq)
    add_ses(model, "left", splitseq)
    add_ses(model, "bottom", splitseq)
    dg = Diagram3x3(row_top=splitseq, row_bottom=splitseq, col_left=splitseq, col_right=splitseq)
    model.diagrams["D"] = dg
    exts = enumerate_extensions(dg)
    rng = random.Random(2024)
    variant = perturb_extension(rng, dg, exts[0])
    for tag, ext in (("X1", exts[0]), ("X1b", variant), ("X2", exts[1])):
        add_extension(model, tag, "R4", ext, "D")
    frame = frame_from_diagram(dg)
    for nm, mor in (("alpha", frame.alpha), ("beta", frame.beta), ("topB", frame.top_b),
                    ("dmap", frame.d), ("rmap", frame.r), ("smap", frame.s)):
        add_morphism(model, nm, mor)
    model.hexagons["F"] = frame
    write("allsplit.json", model)

    # --- injective.json: P = Z/4 (injective over Z/4) ----------------------
    z4 = PresentedModule.free(r4, 1)
    model = base_model("R4", r4)
    add_module(model, "Z2", "R4", z2)
    add_module(model, "Z4", "R4", z4)
    rt = ses_of_class(ext_module(1, z2, z4).zero_class())
    rb = ses_of_class(e1.class_from_coords((1,)))
    add_module(model, "Z4xZ2", "R4", rt.middle)
    add_module(model, "Z4mid", "R4", rb.middle)
    add_ses(model, "top", rt)
    add_ses(model, "left", rt)
    add_ses(model, "bottom", rb)
    add_ses(model, "right", rb)
    dg = Diagram3x3(row_top=rt, row_bottom=rb, col_left=rt, col_right=rb)
    model.diagrams["D"] = dg
    frame = frame_from_diagram(dg)
    for nm, mor in (("alpha", frame.alpha), ("beta", frame.beta), ("topB", frame.top_b),
                    ("dmap", frame.d), ("rmap", frame.r), ("smap", frame.s)):
        add_morphism(model, nm, mor)
    model.hexagons["F"] = frame
    write("injective.json", model)


def lambda_model():
    """lambda.json: a seeded Z/8 diagram with one class over Y, and two
    solutions on one middle object that no compatible isomorphism relates
    (P = Z/2 is not injective, so the correction through P need not extend)."""
    r8 = Zmod(8)
    rng = random.Random(131)
    dg = random_diagram(rng, r8, 16)
    x1 = extend_diagram(dg)
    x1p = perturb_extension(rng, dg, x1)
    model = base_model("R8", r8)
    for corner in "PERHFSGQ":
        add_module(model, corner, "R8", getattr(dg, corner.lower()))
    add_ses(model, "top", dg.row_top)
    add_ses(model, "bottom", dg.row_bottom)
    add_ses(model, "left", dg.col_left)
    add_ses(model, "right", dg.col_right)
    model.diagrams["D"] = dg
    add_extension(model, "X1", "R8", x1, "D")
    add_extension(model, "X1p", "R8", x1p, "D")
    write("lambda.json", model)


def z_diagram_model():
    zf = PresentedModule.free(ZZ, 1)
    z2 = PresentedModule.cyclic(ZZ, 2)
    z3 = PresentedModule.cyclic(ZZ, 3)
    z6 = PresentedModule.cyclic(ZZ, 6)
    rt = ses_of_class(ext_module(1, z2, zf).class_from_coords((1,)))
    cl = ses_of_class(ext_module(1, z3, zf).class_from_coords((1,)))
    rb = ses_of_class(ext_module(1, z6, z3).class_from_coords((1,)))
    cr = ses_of_class(ext_module(1, z6, z2).class_from_coords((1,)))
    model = base_model("Z", ZZ)
    add_module(model, "Zfree", "Z", zf)
    add_module(model, "Z2", "Z", z2)
    add_module(model, "Z3", "Z", z3)
    add_module(model, "Z6", "Z", z6)
    add_module(model, "Etop", "Z", rt.middle)
    add_module(model, "Hleft", "Z", cl.middle)
    add_module(model, "Gbottom", "Z", rb.middle)
    add_module(model, "Fright", "Z", cr.middle)
    add_ses(model, "top", rt)
    add_ses(model, "left", cl)
    add_ses(model, "bottom", rb)
    add_ses(model, "right", cr)
    model.diagrams["D"] = Diagram3x3(row_top=rt, row_bottom=rb, col_left=cl, col_right=cr)
    write("zdiagram.json", model)


if __name__ == "__main__":
    zmod4_diagram_models()
    z_diagram_model()
    lambda_model()
