"""fracfreq command line: sweep a transfer function, emit Bode data.

Exit codes: 0 success, 2 expression parse error or usage error (an --out
or a standard output that cannot be written included), 3 evaluation error.
"""

import argparse
import os
import sys

from .response import FORMATS, FrequencyGrid, emit_rows, rows
from .tf import EvaluationError, ParseError, parse_tf

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's print_usage falls back to stdout when sys.stderr is None.
        _report(message, self.format_usage())
        sys.exit(EXIT_PARSE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracfreq",
        description="Evaluate a fractional-order transfer function over a "
        "logarithmic frequency grid and emit Bode data.",
    )
    parser.add_argument(
        "--tf",
        required=True,
        metavar="EXPR",
        help="transfer function, e.g. '10000/s^0.5' or '(3*s^0.5+2)/(s^1.2+1)'",
    )
    parser.add_argument("--wmin", type=float, default=0.01, help="lowest angular frequency [rad/s]")
    parser.add_argument("--wmax", type=float, default=100.0, help="highest angular frequency [rad/s]")
    parser.add_argument("--ppd", type=int, default=20, help="points per decade")
    parser.add_argument("--format", choices=FORMATS, default="csv", help="output format")
    parser.add_argument("--out", metavar="PATH", default=None, help="output file (default: stdout)")
    return parser


def _report(message, usage: str = "") -> None:
    """Write the error line, after usage; a standard error that cannot be written loses only them."""
    try:
        sys.stderr.write(f"{usage}fracfreq: error: {message}\n")
    except (OSError, AttributeError):  # closed, or None: the exit code still tells
        pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("tf", "format", "out"):
        # argparse stores [] for an attached "--opt=--", and calls no type= on it.
        if not isinstance(getattr(args, name), (str, type(None))):
            parser.error(f"argument --{name}: expected one argument")

    try:
        tf = parse_tf(args.tf)
    except ParseError as exc:
        _report(exc)
        return EXIT_PARSE_ERROR

    try:
        grid = FrequencyGrid(args.wmin, args.wmax, args.ppd)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        values = rows(tf, grid.points())
    except EvaluationError as exc:
        _report(exc)
        return EXIT_EVAL_ERROR

    data = emit_rows(values, args.format)
    if args.out is None:
        try:
            if sys.stdout is None:  # the process started with standard output closed
                import errno
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        except OSError as exc:
            import contextlib
            with contextlib.suppress(OSError, AttributeError):  # None has no close()
                sys.stdout.close()  # so that it is not flushed again at exit
            _report(f"cannot write output: {exc}")
            return EXIT_PARSE_ERROR
    else:
        try:
            with open(args.out, "wb") as out:
                out.write(data)
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    return EXIT_OK
