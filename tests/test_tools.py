"""The fixture generator reproduces the committed fixtures byte for byte."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_gen_fixtures_matches_committed(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_fixtures", ROOT / "tools" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.zmod4_diagram_models()
    gen.z_diagram_model()
    gen.lambda_model()
    committed = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
