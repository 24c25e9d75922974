"""Workloads shared by the corpus generator, the runner and the tests.

Each workload is a kind of case (a 3x3 diagram, a hexagon frame or an oracle
pair), the rings it draws from, the size of its frozen pool and the rate
that sets how many cases a run answers: at the benchmark's ``run_seconds``
of 15, the whole pool.  A case's answer is
presentation-independent: booleans, invariant factors and group orders,
never matrices, so a later engine that picks other presentations still
matches the frozen expectation.

The library is imported from ``src/`` next to this directory and from
nowhere else, so the benchmark measures the checkout it lives in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS_DIR = BENCH_DIR / "corpus"

if not (SRC / "hexext" / "__init__.py").is_file():
    raise ImportError(f"no hexext sources under {SRC}")
sys.path.insert(0, str(SRC))

import hexext  # noqa: E402
from hexext import diagram, document, ext, hexagon, oracle  # noqa: E402
from hexext.errors import NotExtendableError  # noqa: E402
from hexext.rings import ZZ, RingSpec, Zmod  # noqa: E402

if Path(hexext.__file__).resolve().parent != SRC / "hexext":
    raise ImportError(f"hexext was imported from {hexext.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "diagram", "hexagon" or "oracle"
    rings: tuple[str, ...]
    max_order: int
    pool: int            # cases in the frozen corpus
    rate: float          # cases a run answers per second of ``--seconds``

    @property
    def docs_path(self) -> Path:
        """One hexext document per line, one case per document."""
        return CORPUS_DIR / f"{self.name}.docs.jsonl"

    @property
    def expect_path(self) -> Path:
        """The expected answer of the document on the same line."""
        return CORPUS_DIR / f"{self.name}.expect.jsonl"


WORKLOADS = {w.name: w for w in (
    Workload("fuzz-zm", "diagram", ("Zmod4", "Zmod6", "Zmod8", "Zmod9"), 16, 600, 40.0),
    Workload("fuzz-z", "diagram", ("Z",), 64, 600, 40.0),
    Workload("hexagon-zm", "hexagon", ("Zmod4", "Zmod6", "Zmod8", "Zmod9"), 16, 300, 20.0),
    Workload("oracle-compare", "oracle", ("Zmod4", "Zmod6", "Zmod8", "Zmod9", "Zmod12"), 12,
             2400, 160.0),
)}


def ring_of(label: str) -> RingSpec:
    return ZZ if label == "Z" else Zmod(int(label[4:]))


def module_summary(m) -> dict:
    return {"factors": list(m.invariant_factors()), "free_rank": m.free_rank()}


# Library calls go through the module attributes (``diagram.obstruction``,
# not a name imported from it), so the traced run's wrappers see them.

def answer_diagram(model) -> dict:
    """``hexext fuzz`` on one diagram: obstruction, extension, validation,
    uniqueness, and the order of Ext^1(Q, P)."""
    d = model.diagrams["D"]
    out = {"obstruction_zero": diagram.obstruction(d).is_zero}
    try:
        e = diagram.extend_diagram(d)
    except NotExtendableError:
        out["extended"] = False
    else:
        out["extended"] = True
        out["extension_valid"] = diagram.validate_extension(d, e) == []
        out["X"] = module_summary(e.x)
        out["unique"] = diagram.check_uniqueness(d).unique
    out["ext1_order"] = ext.ext_module(1, d.q, d.p).cardinality()
    return out


def answer_hexagon(model) -> dict:
    """``hexext hexagon DOC solve F`` plus verification of the solution."""
    try:
        solved = hexagon.solve_hexagon(model.hexagons["F"])
    except NotExtendableError:
        return {"solved": False}
    return {"solved": True, "verified": hexagon.verify_hexagon(solved) == [],
            "center": module_summary(solved.center)}


def answer_oracle(model) -> dict:
    """``hexext oracle-compare DOC Q P``: brute-force and computed |Ext^1|."""
    q, p = model.modules["Q"], model.modules["P"]
    brute = oracle.brute_ext1(q, p, oracle.EnumerationBudget())
    return {"brute_ext1": brute.count, "ext1_order": ext.ext_module(1, q, p).cardinality()}


ANSWER = {"diagram": answer_diagram, "hexagon": answer_hexagon, "oracle": answer_oracle}
