"""Write the frozen benchmark corpora.

    python3 perfbench/gen_corpus.py [--seed N] [--out DIR] [--workload NAME ...]

For each workload it builds the pool of inputs with ``hexext.randgen``,
writes every case as a hexext document (``hexext.document.serialize``), one
per line, and its expected answer on the same line of a second file.  The output
depends only on the seed and the library's code: rerunning on one commit
rewrites byte-identical files.  The runner never calls this; it reads the
committed files, so two commits under comparison read the same bytes even
if a later engine changes the presentations ``randgen`` produces.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cases  # noqa: E402
from hexext import randgen  # noqa: E402
from hexext.document import DocumentModel, serialize  # noqa: E402

DEFAULT_SEED = 20050205   # the seed of the committed corpora

_SEQUENCES = ("row_top", "row_bottom", "col_left", "col_right")
_HEX_OBJECTS = {"A1": "a1", "B1": "b1", "B2": "b2", "A4": "a4", "A2": "a2", "A3": "a3"}
_HEX_MAPS = {"alpha": "alpha", "beta": "beta", "topB": "top_b", "d": "d", "r": "r", "s": "s"}


def _model(ring) -> DocumentModel:
    m = DocumentModel()
    m.rings["R"] = ring
    return m


def diagram_model(d) -> DocumentModel:
    m = _model(d.p.ring)
    for key in "PERHFSGQ":
        m.modules[key] = getattr(d, key.lower())
    for seq in _SEQUENCES:
        m.morphisms[f"{seq}_inject"] = getattr(d, seq).inject
        m.morphisms[f"{seq}_project"] = getattr(d, seq).project
    m.diagrams["D"] = d
    return m


def hexagon_model(f) -> DocumentModel:
    m = _model(f.a1.ring)
    for key, attr in _HEX_OBJECTS.items():
        m.modules[key] = getattr(f, attr)
    for key, attr in _HEX_MAPS.items():
        m.morphisms[key] = getattr(f, attr)
    m.hexagons["F"] = f
    return m


def oracle_model(q, p) -> DocumentModel:
    m = _model(q.ring)
    m.modules["Q"], m.modules["P"] = q, p
    return m


def random_pair(rng: random.Random, ring, max_product: int):
    while True:
        q = randgen.random_module(rng, ring, max_product)
        p = randgen.random_module(rng, ring, max_product)
        if q.cardinality() * p.cardinality() <= max_product:
            return q, p


def build_model(w: cases.Workload, rng: random.Random, ring) -> DocumentModel:
    if w.kind == "diagram":
        return diagram_model(randgen.random_diagram(rng, ring, w.max_order))
    if w.kind == "hexagon":
        return hexagon_model(randgen.random_frame(rng, ring, w.max_order))
    return oracle_model(*random_pair(rng, ring, w.max_order))


def case_lines(w: cases.Workload, seed: int):
    """``(document line, expectation line)`` for each case of one workload.

    Rings take turns, each drawing from its own stream so that one ring's
    cases do not depend on the others.  The document is ``serialize``'s
    output re-encoded on one line.
    """
    rngs = {label: random.Random(f"{seed}:{w.name}:{label}") for label in w.rings}
    answer = cases.ANSWER[w.kind]
    for index in range(w.pool):
        label = w.rings[index % len(w.rings)]
        doc = json.dumps(json.loads(serialize(build_model(w, rngs[label], cases.ring_of(label)))),
                         sort_keys=True, separators=(",", ":"))
        # the expectation is computed from the document exactly as the runner reads it
        expect = answer(cases.document.parse(doc))
        yield doc + "\n", json.dumps({"case": index, "ring": label, "answer": expect},
                                      sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", type=Path, default=cases.CORPUS_DIR)
    ap.add_argument("--workload", action="append", choices=sorted(cases.WORKLOADS))
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(cases.WORKLOADS):
        w = cases.WORKLOADS[name]
        docs, expects = zip(*case_lines(w, args.seed))
        for path, lines in ((w.docs_path, docs), (w.expect_path, expects)):
            with open(args.out / path.name, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        print(f"{name}: {w.pool} cases -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
