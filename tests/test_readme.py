"""The README's command-line example is the CLI's output, byte for byte."""

import re
import shlex
from pathlib import Path

from fracfreq.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_example() -> tuple[list[str], bytes]:
    """argv of the fenced `fracfreq ...` command and the fenced block after it."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    for command, output in zip(blocks, blocks[1:]):
        if command.startswith("fracfreq "):
            return shlex.split(command)[1:], output.encode("ascii")
    raise AssertionError("README has no fenced fracfreq command")


def test_cli_example_matches_output(capsysbinary):
    argv, expected = cli_example()
    assert main(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == expected
