"""fracfreq command line: sweep a transfer function, emit Bode data.

Exit codes: 0 success, 2 expression parse error or usage error (an --out
or a standard output that cannot be written included), 3 evaluation error.

read_args reads the six options by the README's rules, which are Python
3.11 argparse's, without importing argparse, gettext or locale (~7 ms of
every run).  Errors carry argparse's 3.11 wording after its 80-column
usage; tests/test_cli.py's test_reader_agrees_with_argparse pins that
parity against argparse itself.
"""

import os
import re
import sys

from .response import FORMATS, FrequencyGrid, emit
from .tf import EvaluationError, ParseError, parse_tf, rows

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3

USAGE = """\
usage: fracfreq [-h] --tf EXPR [--wmin WMIN] [--wmax WMAX] [--ppd PPD]
                [--format {csv,json}] [--out PATH]
"""
HELP = f"""{USAGE}
Evaluate a fractional-order transfer function over a logarithmic frequency
grid and emit Bode data.

options:
  -h, --help           show this help message and exit
  --tf EXPR            transfer function, e.g. '10000/s^0.5' or
                       '(3*s^0.5+2)/(s^1.2+1)'
  --wmin WMIN          lowest angular frequency [rad/s]
  --wmax WMAX          highest angular frequency [rad/s]
  --ppd PPD            points per decade
  --format {{csv,json}}  output format
  --out PATH           output file (default: stdout)
"""

# Each option's converter, or its choices; None for help.  The order is
# argparse's, which its "ambiguous option" message lists.
_OPTIONS = {"-h": None, "--help": None, "--tf": str, "--wmin": float, "--wmax": float,
            "--ppd": int, "--format": FORMATS, "--out": str}


def _option(word: str) -> tuple[str | None, str | None] | None:
    """(option, attached value or None) if argparse reads word as an option, else None.

    The option is None for an unknown one.  An abbreviation that fits more
    than one option is a ValueError.
    """
    if word in _OPTIONS:
        return word, None
    if not word.startswith("-") or word == "-":
        return None
    name, eq, value = word.partition("=")
    if eq and name in _OPTIONS:
        return name, value
    if word[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif word.startswith("-h"):  # -hVALUE, as short options take values
        return "-h", word[2:]
    if " " in word or re.match(r"^-\d+$|^-\d*\.\d+$", word):
        return None
    return None, None


def read_args(argv: list[str]) -> dict | None:
    """The six option values, by name without "--", or None for -h/--help.

    A usage error is a ValueError that carries argparse's message.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(word) for word in argv[:end]]  # an ambiguity is the first error
    grid = FrequencyGrid()
    values = {"tf": None, "wmin": grid.omega_min, "wmax": grid.omega_max,
              "ppd": grid.points_per_decade, "format": "csv", "out": None}
    extras = []
    i = 0
    while i < end:
        word, (name, value) = argv[i], options[i] or (None, None)
        i += 1
        if name is None:  # not an option's value, so unrecognized
            extras.append(word)
            continue
        convert = _OPTIONS[name]
        if convert is None:
            if value is not None:  # -hh is -h twice; any other attached value is an error
                rest = value.lstrip("h") if name == "-h" else value
                if rest or not value:
                    raise ValueError(f"argument -h/--help: ignored explicit argument {rest!r}")
            return None
        if value is None:
            if i == end or options[i] is not None:
                raise ValueError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        if convert is FORMATS:
            if value not in FORMATS:
                choices = ", ".join(map(repr, FORMATS))
                raise ValueError(
                    f"argument {name}: invalid choice: {value!r} (choose from {choices})"
                )
        else:
            try:
                value = convert(value)
            except ValueError:
                kind = convert.__name__
                raise ValueError(f"argument {name}: invalid {kind} value: {value!r}") from None
        values[name[2:]] = value
    if values["tf"] is None:
        raise ValueError("the following arguments are required: --tf")
    extras += argv[end:]
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return values


def _report(message, usage: str = "") -> None:
    """Write the error line, after usage; a standard error that cannot be written loses only them."""
    try:
        sys.stderr.write(f"{usage}fracfreq: error: {message}\n")
    except (OSError, AttributeError):  # closed, or None: the exit code still tells
        pass


def main(argv: list[str] | None = None) -> int:
    try:
        args = read_args(sys.argv[1:] if argv is None else argv)
        if args is not None:
            tf = parse_tf(args["tf"])
            values = rows(tf, FrequencyGrid(args["wmin"], args["wmax"], args["ppd"]).points())
    except ParseError as exc:
        _report(exc)
        return EXIT_PARSE_ERROR
    except EvaluationError as exc:
        _report(exc)
        return EXIT_EVAL_ERROR
    except ValueError as exc:  # read_args's or FrequencyGrid's; both errors above subclass it
        _report(exc, USAGE)
        return EXIT_PARSE_ERROR

    if args is None:  # -h/--help goes to standard output, whatever --out says
        data, path = HELP.encode(), None
    else:
        data, path = emit(values, args["format"]), args["out"]
    if path is None:
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
            with open(path, "wb") as out:
                out.write(data)
        except OSError as exc:
            _report(f"cannot write --out: {exc}", USAGE)
            return EXIT_PARSE_ERROR
    return EXIT_OK
