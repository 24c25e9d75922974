"""Cross-version goldens for ``hexext fuzz`` and ``hexext hexagon``.

Two digests per ring, for ``hexext fuzz --ring R --seed 20613 --count 25``:

- ``raw``: sha256 of the report exactly as printed.  It may change only
  when presentations change on purpose, with a CHANGES.md entry saying why.
- ``invariants``: sha256 of the presentation-independent projection of each
  case (obstruction zero, extended, unique, invariant factors of X).  It
  must never change.

One raw digest of ``hexext hexagon fixtures/injective.json solve F``, and
one each of ``hexext extend DOC D``, ``hexext unique DOC D`` and ``hexext
obstruction DOC D`` for every fixture, with its exit code, under the same
rule as the fuzz ``raw`` digests; one more, with its exit code, of ``hexext
hexagon fixtures/obstructed.json solve F``.  Those pin the chosen class over
Y, the maps i, j, m and n, the restriction matrix, and the obstruction
classes in Ext^2(Q, P), which a report builds only when they are read.
"""

import hashlib
import json
import pathlib

import pytest

from hexext.cli import main

SEED, COUNT = 20613, 25

GOLDEN = {
    "Zmod4": ("4ac51430c03fedc3b60a5f7ec9d4d99108e575f1595ade38bed46f66d8cc7a1b",
              "d27d1158d3632ec8c3c6c14adb4905e9a19a20dc959e1555ede3adc1e919b2f0"),
    "Zmod6": ("270a0692f5eaeb505144ab50f505a0461dae5ac2f5eef7c10cf23e5fb4d257b8",
              "9b50319ad3e54e4383a3688d8c86b4445a4a571c6e8bb2f3b71268dda2c75a49"),
    "Zmod8": ("aa93e4973ec28cdd3520339692daee540411117796dc991a6cc06fd6a34c923d",
              "7213610a2b5e30c93facbe779c7fd0bdd5d9147cc8b6770d85578daee3f93d6e"),
    "Zmod9": ("613033a71919bf25be2946ed700ee9b4fbc091ae1fd164ac37df33e6775bec27",
              "63fe1b84fede7467c058d2be5c1645f3bd204a834e51da15e29e5674d00a0a0e"),
    "Z": ("6d2080b69d43923027c81fcafa1500d18dbc88290ff2bd91448cb1c106dd6c06",
          "b78d3908e3e7244a62d1020ac1352cbd8ba4920c6831fb38fe65a08a3241a92c"),
}
HEXAGON_RAW = "a1fd97b564dd2136d39cc07958b2a7168f77e0c85e3b87ac6cf22d0a31864c20"
HEXAGON_OBSTRUCTED_RAW = (1, "3307133fdcf54cac8ffe7007dc8274db206970e47ff6a0a9cf329f06a6eca7a6")
DIAGRAM_RAW = {
    ("extend", "allsplit"): (0, "057d03b5ce6d35060e6c317ee1de6c6a4219d69ebc84ab0ed67b744bd736a70b"),
    ("extend", "injective"): (0, "2c89ab857d8c15c648fb528b2a3cb667fa8bfa4ae9394101b726fdff049552d3"),
    ("extend", "lambda"): (0, "23d531877240e366734620472c8165cf94757b57a7ad00090e8c12dd60bcf83f"),
    ("extend", "obstructed"): (1, "c1e6b98c968d48867f2172158fd12f80316af0c8ef120217022b49803a81d5f6"),
    ("extend", "zdiagram"): (0, "a605f2fb3d6d25d4e03b18c9ba86aeb68713b90d25514ef08839c1d710d1ab25"),
    ("obstruction", "allsplit"): (0, "1c2d72edfe225e43837d38ae2cfbbe9386847ff0c8da21caef71546724a8a4e6"),
    ("obstruction", "injective"): (0, "ea45232c0b0b5c6400f5f3a75b045baaffab7216be3f6ec53c3e135aa839dbb9"),
    ("obstruction", "lambda"): (0, "1c2d72edfe225e43837d38ae2cfbbe9386847ff0c8da21caef71546724a8a4e6"),
    ("obstruction", "obstructed"): (1, "6779dc7bb17a7f3247ed9d7e9ae8487dfd80424cb0c61e81a73fa95bc65fe712"),
    ("obstruction", "zdiagram"): (0, "ea45232c0b0b5c6400f5f3a75b045baaffab7216be3f6ec53c3e135aa839dbb9"),
    ("unique", "allsplit"): (1, "80f360249e189c91a25f814d9c4042aefba18b06e35544417c9ca0249f3c8b6a"),
    ("unique", "injective"): (0, "441dc9e5fea04834c2aaed02a957179125453a1e056de6c1dcb373798f8fd551"),
    ("unique", "lambda"): (0, "9df964069fe64e50d5de8bad77aa4f37657db3ea27356b7dc98ac64b52c9cd91"),
    ("unique", "obstructed"): (1, "597ff3affcc85fe39428a519fe3c1e4f778236cf53a62548d269aa0f86f9a1fb"),
    ("unique", "zdiagram"): (1, "0edd1ba480d87595503b8166e846dc6aa353bff7d9d7f35e591488153366d022"),
}
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariants(report: dict) -> list[dict]:
    return [{"obstruction_zero": c["obstruction_zero"], "extended": c["extended"],
             "unique": c.get("unique"),
             "X": c["X"]["invariant_factors"] if c["extended"] else None}
            for c in report["cases"]]


@pytest.mark.parametrize("ring", sorted(GOLDEN))
def test_fuzz_golden(ring, capsys):
    code = main(["fuzz", "--ring", ring, "--seed", str(SEED), "--count", str(COUNT)])
    out = capsys.readouterr().out
    assert code == 0
    raw, inv = GOLDEN[ring]
    assert sha256(json.dumps(invariants(json.loads(out)), sort_keys=True)) == inv
    assert sha256(out) == raw


def test_hexagon_golden(capsys):
    code = main(["hexagon", str(FIXTURES / "injective.json"), "solve", "F"])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out) == HEXAGON_RAW


def test_hexagon_obstructed_golden(capsys):
    code = main(["hexagon", str(FIXTURES / "obstructed.json"), "solve", "F"])
    out = capsys.readouterr().out
    assert (code, sha256(out)) == HEXAGON_OBSTRUCTED_RAW


@pytest.mark.parametrize("command,fixture", sorted(DIAGRAM_RAW))
def test_diagram_golden(command, fixture, capsys):
    code = main([command, str(FIXTURES / f"{fixture}.json"), "D"])
    out = capsys.readouterr().out
    assert (code, sha256(out)) == DIAGRAM_RAW[command, fixture]
