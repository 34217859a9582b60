"""ERRATA.md's table, regenerated from the commands it lists.

Every value in the table is checked at the two digits it is printed
with, and the verdict as the note states it.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from frackin.cli import main

ERRATA = Path(__file__).resolve().parents[1] / "ERRATA.md"


def _record():
    text = ERRATA.read_text(encoding="utf-8")
    table = [line for line in text.splitlines() if line.startswith("|")]
    # header, separator, then one row per family
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table[2:]]
    commands = [line for line in text.splitlines()
                if line.startswith("frackin verify")]
    verdict = re.search(r"the (\w+) convention passes in every family", text)
    return rows, commands, verdict.group(1)


def _summary(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)[1:]) == 0
    return json.loads(out.getvalue())["summary"]


def test_table_reproduces_from_its_commands():
    rows, commands, winner = _record()
    assert len(rows) == len(commands) == 3
    for row, command in zip(rows, commands):
        summary = _summary(command)
        scale = summary["scale"]
        stated, corrected = summary["stated"], summary["corrected"]
        got = [
            f"{stated['max_abs'] / scale:.1e}",
            f"{stated['max_abs_refined'] / scale:.1e}",
            f"{corrected['max_abs'] / scale:.1e}",
            f"{corrected['max_abs_refined'] / scale:.1e}",
            f"{corrected['max_abs'] / corrected['max_abs_refined']:.1f}x",
        ]
        assert got == row[1:], command
        assert summary["passing"] == [winner], command
