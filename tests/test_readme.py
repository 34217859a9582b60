"""README's command-line examples, run as written.

Every `frackin` line of the "Command line" block, with its `\\`
continuations joined, must exit 0 and print a table.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from frackin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [line.strip() for line in block.splitlines()
            if line.strip().startswith("frackin ")]


def test_block_lists_every_subcommand():
    used = {shlex.split(command)[1] for command in _commands()}
    assert used == {"eval-mlf", "eval-struve", "solve", "verify",
                    "corollary", "haubold"}


@pytest.mark.parametrize("command", _commands())
def test_command_runs(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)[1:]) == 0
    assert out.getvalue().strip()
