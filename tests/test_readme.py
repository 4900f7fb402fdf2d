"""The README's command-line and library examples are the CLI's output, byte for byte,
its example table is what the library returns, and it names every public name."""

import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import fracfreq
import fracfreq.tf
from fracfreq.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks() -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def cli_example() -> tuple[list[str], bytes]:
    """argv of the fenced `fracfreq ...` command and the fenced block after it."""
    blocks = fenced_blocks()
    for command, output in zip(blocks, blocks[1:]):
        if command.startswith("fracfreq "):
            return shlex.split(command)[1:], output.encode("ascii")
    raise AssertionError("README has no fenced fracfreq command")


def inline_code(text: str | None = None) -> list[str]:
    """The text of every `...` span outside the fenced blocks of text, by default the README."""
    text = README.read_text() if text is None else text
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.MULTILINE | re.DOTALL)
    return re.findall(r"`([^`\n]+)`", prose)


def section(title: str) -> str:
    """The README's "## title" section, up to the next "## " heading."""
    (body,) = re.findall(rf"^## {title}\n(.*?)(?=^## |\Z)", README.read_text(), re.MULTILINE | re.DOTALL)
    return body


def example_rows() -> list[tuple[str, str]]:
    """(expression, result) of each row of the README's example table."""
    return re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", README.read_text(), re.MULTILINE)


def library_example() -> str:
    """The source of the README's one fenced python block."""
    (source,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    return source


def test_cli_example_matches_output(capsysbinary):
    argv, expected = cli_example()
    assert main(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == expected


def test_library_example_prints_the_cli_output(capsysbinary):
    assert main(["--tf", "(3*s^0.5+2)/(s^1.2+4*s^0.7+1)"]) == EXIT_OK
    expected = capsysbinary.readouterr().out
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsysbinary.readouterr().out == expected


def test_every_public_name_is_backticked():
    spans = inline_code()
    missing = [n for n in fracfreq.__all__ if not any(s == n or s.startswith(n + "(") for s in spans)]
    assert missing == []


def test_no_private_name_is_backticked():
    names = {n for s in inline_code() for n in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", s)}
    private = [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]
    assert private == []


def test_library_section_names_no_submodule_attribute():
    """The Library section promises the package's names, not a submodule's."""
    submodules = "|".join(m.name for m in pkgutil.iter_modules(fracfreq.__path__))
    spans = inline_code(section("Library"))
    assert spans
    assert [s for s in spans if re.search(rf"\b(?:{submodules})\.\w", s)] == []


def test_grammar_is_the_tf_docstring_grammar():
    (grammar,) = [b for b in fenced_blocks() if b.startswith("tf ")]
    block = [line.strip() for line in grammar.splitlines()]
    doc = [line.strip() for line in fracfreq.tf.__doc__.splitlines()]
    assert any(doc[i : i + len(block)] == block for i in range(len(doc)))


@pytest.mark.parametrize(("expression", "result"), example_rows())
def test_example_table_row(expression, result):
    namespace = {name: getattr(fracfreq, name) for name in fracfreq.__all__}
    try:
        got = repr(eval(expression, namespace))
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == result


def test_example_table_is_there():
    assert len(example_rows()) >= 10
