"""The README's quick-start examples print what the README says they print."""

import ast
import io
import re
import shlex
import sys
from pathlib import Path

from invsys import format_poly
from invsys.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after ``heading``."""
    return re.search(rf"^{re.escape(heading)}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)[1]


def _run(argv: list[str], stdin: str, capsys, monkeypatch) -> str:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert run(argv) == 0
    return capsys.readouterr().out


def test_cli_quick_start(capsys, monkeypatch):
    # a command line followed by a comment line that shows its whole output;
    # a pipe feeds each command's output to the next
    shown = re.findall(r"^(invsys .*)\n# (.*)$", _block("## CLI quick start", "sh"), re.M)
    shown = [(line, out) for line, out in shown if "..." not in out]
    assert len(shown) == 4
    for line, expected in shown:
        out = ""
        for command in line.split("|"):
            argv = shlex.split(command)
            assert argv[0] == "invsys"
            out = _run(argv[1:], out, capsys, monkeypatch)
        assert out == expected + "\n", line


def test_library_quick_start():
    namespace: dict = {}
    checked = 0
    for line in _block("## Library quick start", "python").splitlines():
        code, _, comment = line.partition("#")
        exec(code, namespace)
        if not comment:
            continue
        comment = comment.strip()
        if comment.startswith("generated by "):
            name = code.split("=")[0].strip()
            generators = [format_poly(g) for g in namespace[name].generators]
            assert generators == comment.removeprefix("generated by ").split(", "), line
        else:
            assert eval(code, namespace) == ast.literal_eval(comment), line
        checked += 1
    assert checked == 3
