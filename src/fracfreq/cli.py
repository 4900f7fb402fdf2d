"""fracfreq command line: sweep a transfer function, emit Bode data.

Exit codes: 0 success, 2 expression parse error or usage error (an --out
or a standard output that cannot be written included), 3 evaluation error.

The running Python's argparse reads the options.  read_args reads the common
command line itself, so that a run imports no argparse, gettext or locale
(~3-6 ms), and hands any other to the parser; tests/test_cli.py's
test_reader_agrees_with_argparse pins that both read the same values.
"""

import contextlib
import errno
import functools
import io
import os
import sys

from .response import FORMATS, FrequencyGrid, emit
from .tf import EvaluationError, ParseError, parse_tf, rows

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3

# The options by full name and their conversions, and the six values' defaults.
_TYPES = {"--tf": str, "--wmin": float, "--wmax": float, "--ppd": int, "--format": str, "--out": str}
_GRID = FrequencyGrid()
_DEFAULTS = {"tf": None, "wmin": _GRID.omega_min, "wmax": _GRID.omega_max,
             "ppd": _GRID.points_per_decade, "format": "csv", "out": None}


@functools.cache
def _parser():
    """The argparse parser of the six options and -h, built on first use."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fracfreq",
        description="Evaluate a fractional-order transfer function over a "
        "logarithmic frequency grid and emit Bode data.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    parser.add_argument("--tf", required=True, metavar="EXPR",
                        help="transfer function, e.g. '10000/s^0.5' or '(3*s^0.5+2)/(s^1.2+1)'")
    parser.add_argument("--wmin", type=float, help="lowest angular frequency [rad/s]")
    parser.add_argument("--wmax", type=float, help="highest angular frequency [rad/s]")
    parser.add_argument("--ppd", type=int, help="points per decade")
    parser.add_argument("--format", choices=FORMATS, help="output format")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.set_defaults(**_DEFAULTS)
    return parser


class _Exit(Exception):
    """The parser's exit: its code (0 after help), and what it wrote to stdout and stderr."""


def _parse(argv: list[str]) -> dict:
    """vars(_parser().parse_args(argv)), or _Exit with what parse_args wrote.  An
    attached "--opt=--", which argparse 3.10-3.11 stores as [], is a usage error."""
    parser, out, err = _parser(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
            for name in ("tf", "format", "out"):
                if isinstance(args[name], list):
                    parser.error(f"argument --{name}: expected one argument")
        except SystemExit as exc:
            raise _Exit(exc.code, out.getvalue(), err.getvalue()) from None
    return args


def read_args(argv: list[str]) -> dict:
    """The six option values, by name without "--".

    The common command line is read here: each option by its full name,
    its value attached with "=" (verbatim) or the next word when that does
    not start with "-", each value converted, each format in FORMATS, and
    --tf given; a repeated option's last value wins, as argparse's does.
    Any other argv goes to the parser, whose help or usage error is an _Exit.
    """
    values = dict(_DEFAULTS)
    words = iter(argv)
    for word in words:
        name, eq, value = word.partition("=")
        if not eq:
            value = next(words, "-")  # none left: the parser's error
        if (name not in _TYPES or not eq and value.startswith("-")
                or name == "--format" and value not in FORMATS):
            break
        try:
            values[name[2:]] = _TYPES[name](value)
        except ValueError:
            break
    else:
        if values["tf"] is not None:
            return values
    return _parse(argv)


def _report(text: str) -> None:
    """Write text to standard error; one that cannot be written loses only the text."""
    try:
        sys.stderr.write(text)
    except (OSError, AttributeError):  # closed, or None: the exit code still tells
        pass


def main(argv: list[str] | None = None) -> int:
    try:
        args = read_args(sys.argv[1:] if argv is None else argv)
        tf = parse_tf(args["tf"])
        values = rows(tf, FrequencyGrid(args["wmin"], args["wmax"], args["ppd"]).points())
    except _Exit as exc:
        code, text, err = exc.args
        if code:  # a usage error, after the usage line
            _report(err)
            return code
        data, path = text.encode(), None  # help goes to standard output, whatever --out says
    except (ParseError, EvaluationError) as exc:
        _report(f"fracfreq: error: {exc}\n")
        return EXIT_EVAL_ERROR if isinstance(exc, EvaluationError) else EXIT_PARSE_ERROR
    except ValueError as exc:  # FrequencyGrid's; both errors above subclass it
        _report(f"{_parser().format_usage()}fracfreq: error: {exc}\n")
        return EXIT_PARSE_ERROR
    else:
        data, path = emit(values, args["format"]), args["out"]

    if path is None:
        try:
            if sys.stdout is None:  # the process started with standard output closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        except OSError as exc:
            with contextlib.suppress(OSError, AttributeError):  # None has no close()
                sys.stdout.close()  # so that it is not flushed again at exit
            _report(f"fracfreq: error: cannot write output: {exc}\n")
            return EXIT_PARSE_ERROR
    else:
        try:
            with open(path, "wb") as out:
                out.write(data)
        except OSError as exc:
            _report(f"{_parser().format_usage()}fracfreq: error: cannot write --out: {exc}\n")
            return EXIT_PARSE_ERROR
    return EXIT_OK
