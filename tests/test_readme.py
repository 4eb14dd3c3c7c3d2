"""The README's command transcripts, run through the CLI.

Each ```text block of README.md that holds `$ chromarank ...` lines is one
test case, run in a fresh working directory.  The lines after a command, up
to the next command, are what it prints: a last line of `...` elides the
rest, and a payload that starts with `{` is compared as parsed JSON.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from chromarank.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ chromarank "


def _transcripts() -> list[list[tuple[str, list[str]]]]:
    """Per block, its (command line, expected stdout lines) pairs."""
    blocks = re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    transcripts = []
    for block in blocks:
        steps = []
        for line in block.splitlines():
            if line.startswith(PROMPT):
                steps.append((line[len(PROMPT):], []))
            elif steps:
                steps[-1][1].append(line)
        if steps:
            transcripts.append([(command, _trim(expected)) for command, expected in steps])
    return transcripts


def _trim(lines: list[str]) -> list[str]:
    while lines and not lines[-1].strip():
        lines = lines[:-1]
    return lines


TRANSCRIPTS = _transcripts()


def test_readme_has_transcripts():
    assert sum(len(steps) for steps in TRANSCRIPTS) >= 9


@pytest.mark.parametrize("steps", TRANSCRIPTS, ids=[steps[0][0] for steps in TRANSCRIPTS])
def test_readme_transcript(steps, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, expected in steps:
        assert run(shlex.split(command)) == 0, command
        out = capsys.readouterr().out.rstrip("\n").splitlines()
        if expected and expected[-1] == "...":
            assert out[: len(expected) - 1] == expected[:-1], command
        elif expected and expected[0].startswith("{"):
            assert json.loads("\n".join(out)) == json.loads("\n".join(expected)), command
        else:
            assert out == expected, command
