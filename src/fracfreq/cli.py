"""fracfreq command line: sweep a transfer function, emit Bode data.

Exit codes: 0 success, 2 expression parse error or usage error (an --out
or a standard output that cannot be written included), 3 evaluation error.
"""

import argparse
import sys

from .response import FORMATS, FrequencyGrid, emit_rows, rows
from .tf import EvaluationError, ParseError, parse_tf

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        tf = parse_tf(args.tf)
    except ParseError as exc:
        print(f"fracfreq: error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    try:
        grid = FrequencyGrid(args.wmin, args.wmax, args.ppd)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        values = rows(tf, grid)
    except EvaluationError as exc:
        print(f"fracfreq: error: {exc}", file=sys.stderr)
        return EXIT_EVAL_ERROR

    data = emit_rows(values, args.format)
    if args.out is None:
        try:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        except OSError as exc:
            import contextlib
            with contextlib.suppress(OSError):  # a closed stdout is not flushed again at exit
                sys.stdout.close()
            print(f"fracfreq: error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    else:
        try:
            with open(args.out, "wb") as out:
                out.write(data)
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    return EXIT_OK
