"""The README's examples run: every JSON block is a workspace, every Python block executes."""

import contextlib
import io
import json
import pathlib
import re

from dctkit import workspace

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_every_json_block_is_a_workspace():
    blocks = _blocks("json")
    assert blocks
    for text in blocks:
        workspace.parse(json.loads(text))


def test_every_python_block_runs():
    blocks = _blocks("python")
    assert blocks
    for text in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(text, "README.md", "exec"), {})
        # a print(...) line's trailing comment is its output, up to spaces
        expected = re.findall(r"^print\(.*#\s*(.*)$", text, flags=re.M)
        assert [re.sub(r"\s", "", line) for line in out.getvalue().splitlines()] == [
            re.sub(r"\s", "", line) for line in expected
        ]
