"""Every ``$ so5cg ...`` example in README's text blocks prints what it
shows, and the Library use block runs."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from so5cg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, list[str]]]:
    """(command line, expected stdout lines) for each README example.

    A line ending in a backslash continues on the next one; the expected
    lines run up to the next command, without trailing blank lines.
    """
    found = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(),
                            re.M | re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ so5cg "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1].rstrip() + " " + lines[i].strip()
            i += 1
            expected = []
            while i < len(lines) and not lines[i].startswith("$ "):
                expected.append(lines[i])
                i += 1
            while expected and not expected[-1]:
                expected.pop()
            found.append((command, expected))
    return found


EXAMPLES = examples()


def test_readme_has_examples():
    # two eval, decompose, branch and two table examples at the time of writing
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command,expected", EXAMPLES,
                         ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SO5CG_CACHE", raising=False)
    argv = shlex.split(command)
    assert argv[0] == "so5cg"
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines() == expected


def test_readme_library_example_runs():
    # The ```python block runs as written and prints, last, the value its
    # comment shows.
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                          re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "1/7*sqrt(7) 0.3779644730092272"
