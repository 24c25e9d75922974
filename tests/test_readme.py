"""The README's Python example runs and does what its comments say."""

import pathlib
import re

import pytest

from hexext.errors import NotExtendableError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_taste_prints_false_and_its_last_line_raises(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    *body, last = blocks[0].rstrip("\n").split("\n")
    namespace = {}
    exec(compile("\n".join(body), "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "False\n"
    with pytest.raises(NotExtendableError):
        exec(compile(last, "README.md", "exec"), namespace)
