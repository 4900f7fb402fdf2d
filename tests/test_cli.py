import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracfreq import (
    CSV_HEADER,
    FORMATS,
    EvaluationError,
    FrequencyGrid,
    ParseError,
    emit,
    parse_tf,
    sweep,
)
from fracfreq.cli import EXIT_EVAL_ERROR, EXIT_OK, EXIT_PARSE_ERROR, _Exit, _parser, main, read_args
from helpers import child_env, close

NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
BAD_FD = f"[Errno {errno.EBADF}] {os.strerror(errno.EBADF)}"
# Usage and help are the running Python's argparse's, at 80 columns.
USAGE = _parser().format_usage()


def parse_with_argparse(argv):
    """What the command line's argparse parser does with argv.

    Returns its six values, or its exit code (0 for help, 2 for a usage
    error), with what it wrote to stdout and stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def run_main(argv, capsysbinary):
    code = main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err.decode()


class TestMain:
    def test_default_sweep(self, capsysbinary):
        code, out, err = run_main(["--tf", "s^0.5"], capsysbinary)
        assert code == EXIT_OK
        assert err == ""
        lines = out.decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 81

    def test_grid_flag_defaults_are_the_default_grid(self):
        args = read_args(["--tf", "s"])
        grid = FrequencyGrid()
        assert (args["wmin"], args["wmax"], args["ppd"]) == (
            grid.omega_min,
            grid.omega_max,
            grid.points_per_decade,
        )

    def test_grid_flags(self, capsysbinary):
        code, out, _ = run_main(
            ["--tf", "10000/s^0.5", "--wmin", "1", "--wmax", "100", "--ppd", "1"],
            capsysbinary,
        )
        assert code == EXIT_OK
        rows = out.decode().splitlines()[1:]
        assert len(rows) == 3
        assert float(rows[0].split(",")[0]) == 1.0
        assert float(rows[-1].split(",")[0]) == 100.0

    def test_json_format(self, capsysbinary):
        code, out, _ = run_main(["--tf", "s^0.5", "--format", "json"], capsysbinary)
        assert code == EXIT_OK
        loaded = json.loads(out)
        assert len(loaded) == 81
        assert all(list(obj) == CSV_HEADER.split(",") for obj in loaded)

    def test_out_file_matches_stdout(self, tmp_path, capsysbinary):
        target = tmp_path / "bode.csv"
        code, out, _ = run_main(["--tf", "s^0.5", "--out", str(target)], capsysbinary)
        assert code == EXIT_OK
        assert out == b""
        code, out, _ = run_main(["--tf", "s^0.5"], capsysbinary)
        assert target.read_bytes() == out

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, where, tmp_path, capsysbinary):
        target = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        assert main(["--tf", "s", "--out", str(target)]) == EXIT_PARSE_ERROR
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        err = captured.err.decode()
        assert str(target) in err
        assert ("No such file" if where == "missing_dir" else "Is a directory") in err

    # The default grid's CSV outgrows the write buffer, so write raises;
    # one point per decade fits in it, so only the flush raises.
    @pytest.mark.parametrize("argv", [["--tf", "s"], ["--tf", "s", "--ppd", "1"]])
    def test_failed_stdout_write_exits_2(self, argv, monkeypatch, capsysbinary):
        class FullDevice(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = io.TextIOWrapper(io.BufferedWriter(FullDevice()))
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == EXIT_PARSE_ERROR
        err = capsysbinary.readouterr().err.decode()
        assert err == f"fracfreq: error: cannot write output: {NO_SPACE}\n"
        # Closed, so the interpreter does not flush the unwritten bytes again at exit.
        assert stdout.closed

    # A standard error that cannot be written, or is None (Python started
    # without descriptor 2), loses the error line but not the exit code.
    @pytest.mark.parametrize("broken", ["raises", "none"])
    @pytest.mark.parametrize(
        "argv,code",
        [(["--tf", "(s"], 2), (["--tf", "1/(s^2+1)", "--wmin", "1", "--wmax", "10", "--ppd", "1"], 3)],
    )
    def test_unwritable_stderr_keeps_exit_code(self, argv, code, broken, monkeypatch):
        class ClosedDescriptor(io.TextIOBase):
            def write(self, text):
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))

        monkeypatch.setattr(sys, "stderr", ClosedDescriptor() if broken == "raises" else None)
        assert main(argv) == code

    # A term cut short, and a denominator that the parser finds to be zero.
    @pytest.mark.parametrize("text", ["s^", "1/(s-s)"])
    def test_parse_error_exit_and_offset(self, text, capsysbinary):
        code, out, err = run_main(["--tf", text], capsysbinary)
        assert code == EXIT_PARSE_ERROR
        assert out == b""
        assert "offset 2" in err

    def test_deep_nesting_exits_0(self, capsysbinary):
        code, out, err = run_main(["--tf=" + "(" * 5000 + "s+1" + ")" * 5000], capsysbinary)
        assert code == EXIT_OK
        assert out.startswith(CSV_HEADER.encode())

    def test_grid_above_sample_cap_exits_2(self, capsysbinary):
        assert main(["--tf", "s", "--ppd", "1000000000"]) == EXIT_PARSE_ERROR
        assert "more than 1000000 samples" in capsysbinary.readouterr().err.decode()

    def test_eval_error_exit_and_omega(self, capsysbinary):
        code, out, err = run_main(["--tf", "1/1e-310"], capsysbinary)
        assert code == EXIT_EVAL_ERROR
        assert out == b""
        assert "omega=0.01" in err

    def test_eval_error_at_quarter_turn_pole(self, capsysbinary):
        argv = ["--tf", "1/(s^2+1)", "--wmin", "0.1", "--wmax", "10", "--ppd", "1"]
        line = "fracfreq: error: denominator vanishes at omega=1.0\n"
        assert run_main(argv, capsysbinary) == (EXIT_EVAL_ERROR, b"", line)

    def test_eval_error_at_exponents_two_apart(self, capsysbinary):
        # j**1.5 = -j**3.5 exactly, so D(j) = 0.
        argv = ["--tf", "1/(s^1.5+s^3.5)", "--wmin", "0.5", "--wmax", "1", "--ppd", "1"]
        code, out, err = run_main(argv, capsysbinary)
        assert code == EXIT_EVAL_ERROR
        assert out == b""
        assert "omega=1.0" in err

    @pytest.mark.parametrize(
        "text,wmin,wmax,mag",
        [("1/s^170", "0.1", "1", 1e170), ("1/s^200", "10", "20", 1e-200)],
    )
    def test_extreme_exponent_evaluates(self, text, wmin, wmax, mag, capsysbinary):
        argv = ["--tf", text, "--wmin", wmin, "--wmax", wmax, "--ppd", "1"]
        code, out, err = run_main(argv, capsysbinary)
        assert code == EXIT_OK
        assert err == ""
        first = [float(v) for v in out.decode().splitlines()[1].split(",")]
        assert close(first[1], mag, abs_tol=0.0)

    def test_term_whose_real_product_overflows_evaluates(self, capsysbinary):
        # c * omega**0.5 = 1.5e308 * 2**0.5 is beyond a double at omega = 2,
        # but each part of the term omega**0.5 * (c * j**0.5), 1.5e308 * (1 + j),
        # is not.
        argv = ["--tf", "1.5e308*s^0.5/s", "--wmin", "1", "--wmax", "2", "--ppd", "1"]
        code, out, err = run_main(argv, capsysbinary)
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            b"omega,mag_linear,mag_db,phase_rad,phase_deg\n"
            b"1.0000000000000000e+00,1.5000000000000000e+308,6.1635218251811139e+03,"
            b"-7.8539816339744839e-01,-4.5000000000000007e+01\n"
            b"2.0000000000000000e+00,1.0606601717798214e+308,6.1605115252244741e+03,"
            b"-7.8539816339744839e-01,-4.5000000000000007e+01\n"
        )

    @pytest.mark.parametrize(
        "text,wmin,wmax,omega",
        [
            ("1/s^200", "10", "100", "omega=100.0"),
            ("s^2", "1e200", "1e201", "omega=1e+200"),
            ("1e300*s^2", "1e10", "1e11", "omega=10000000000.0"),
        ],
    )
    def test_overflow_exits_3(self, text, wmin, wmax, omega, capsysbinary):
        argv = ["--tf", text, "--wmin", wmin, "--wmax", wmax, "--ppd", "1"]
        code, out, err = run_main(argv, capsysbinary)
        assert code == EXIT_EVAL_ERROR
        assert out == b""
        assert f"a value overflows at {omega}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--tf", "s^0.5", "--format", "xml"],
            ["--tf", "s^0.5", "--wmin", "-1"],
            ["--tf", "s^0.5", "--wmin", "100", "--wmax", "1"],
            ["--tf", "s^0.5", "--ppd", "0"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsysbinary):
        code, out, err = run_main(argv, capsysbinary)
        assert (code, out) == (EXIT_PARSE_ERROR, b"")
        assert err.startswith(USAGE + "fracfreq: error: ")

    # The command line writes argparse's own usage error, whose wording
    # differs between versions; each line starts with what is given here.
    @pytest.mark.parametrize(
        "argv,line",
        [
            ([], "the following arguments are required: --tf"),
            (["--tf", "s", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
            (["--tf", "s", "--ppd", "x"], "argument --ppd: invalid int value: 'x'"),
            (["--tf", "s", "--wmin=1e"], "argument --wmin: invalid float value: '1e'"),
            (["--tf", "-s+1"], "argument --tf: expected one argument"),
            (["--tf", "s", "x", "--bogus"], "unrecognized arguments: x --bogus"),
            (["--tf", "s", "--w", "1"], "ambiguous option: --w could match --wmin, --wmax"),
            (["-hx"], "argument -h/--help: ignored explicit argument 'x'"),
            (["--tf", "s", "--wmin", "-1"], "omega_min must be finite and > 0, got -1.0"),
        ],
        ids=[
            "required", "choice", "int", "float", "expected-one",
            "unrecognized", "ambiguous", "help-value", "grid",
        ],
    )
    def test_usage_error_line(self, argv, line, capsysbinary):
        expected, out, err = parse_with_argparse(argv)
        if isinstance(expected, dict):  # FrequencyGrid's error, after the parser's usage
            expected, err = EXIT_PARSE_ERROR, f"{USAGE}fracfreq: error: {line}\n"
        assert run_main(argv, capsysbinary) == (expected, out.encode(), err)
        if argv != ["-hx"] or expected != EXIT_OK:  # Python 3.13 reads -hx as help
            assert expected == EXIT_PARSE_ERROR and err.startswith(f"{USAGE}fracfreq: error: {line}")

    # Help is argparse's: it goes to standard output, not to --out, and wins
    # over errors that argparse finds only after it: a missing --tf and
    # unrecognized words.
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"], ["-h"], ["--he"], ["-hh"],
            ["--tf", "s", "--out", "x.csv", "-h"], ["-h", "x"], ["-h", "--ppd", "x"],
        ],
    )
    def test_help(self, argv, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.chdir(tmp_path)
        help_text = _parser().format_help()
        assert parse_with_argparse(argv) == (EXIT_OK, help_text, "")
        assert run_main(argv, capsysbinary) == (EXIT_OK, help_text.encode(), "")
        assert list(tmp_path.iterdir()) == []
        assert help_text.startswith(USAGE)
        for line in [
            "Evaluate a fractional-order transfer function", "--tf EXPR", "'10000/s^0.5'",
            "--wmin WMIN", "--wmax WMAX", "--ppd PPD", "--format {csv,json}", "--out PATH",
        ]:
            assert line in help_text

    # "--" ends the options: it and every word after it are unrecognized, as
    # the CLI takes no positional arguments, and it is no option's value.
    # The command line writes argparse's own error; test_option_given_double_dash_exits_2
    # pins "--opt=--".
    @pytest.mark.parametrize(
        "argv,line",
        [
            (["--tf", "s", "--"], "unrecognized arguments: --"),
            (["--tf", "s", "x", "--", "--ppd", "1"], "unrecognized arguments: x -- --ppd 1"),
            (["--", "--tf", "s"], "the following arguments are required: --tf"),
            (["--tf", "--", "s"], "argument --tf: expected one argument"),
            (["--tf", "s", "--out", "--", "--format=json"], "argument --out: expected one argument"),
        ],
    )
    def test_double_dash(self, argv, line, capsysbinary):
        expected, out, err = parse_with_argparse(argv)
        assert (expected, out) == (EXIT_PARSE_ERROR, "")
        assert err.startswith(f"{USAGE}fracfreq: error: {line}")
        assert run_main(argv, capsysbinary) == (EXIT_PARSE_ERROR, b"", err)


# Literals include ones that overflow or underflow a double.
literals = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.sampled_from(["0", "1", "2.5", ".5", "1e308", "1e400", "1e-400", "9" * 400]),
)
factor_texts = st.one_of(literals, st.just("s"), literals.map("s^{}".format))
term_texts = st.lists(factor_texts, min_size=1, max_size=3).map("*".join)


@st.composite
def poly_texts(draw):
    text = draw(st.sampled_from(["", "+", "-"])) + draw(term_texts)
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from("+-")) + draw(term_texts)
    # 5000 is deeper than the recursion limit: nesting must not recurse.
    depth = draw(st.sampled_from([0, 1, 2, 5000]))
    return "(" * depth + text + ")" * depth


tf_texts = st.one_of(
    poly_texts(),
    st.builds("{}/{}".format, poly_texts(), poly_texts()),
    st.text(alphabet="0123456789.eE+-*/^()s ", max_size=20),
)
bounds = st.floats(min_value=1e-300, max_value=1e300)


def run_in_process(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout bytes, stderr text)."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue(), err.getvalue()


class TestExitContract:
    @settings(deadline=None)
    @given(tf_texts, bounds, bounds, st.integers(1, 3))
    @example("--", 1.0, 2.0, 1)
    def test_every_input_exits_0_2_or_3(self, text, w1, w2, ppd):
        if w1 == w2:
            return
        wmin, wmax = sorted((w1, w2))
        argv = [f"--tf={text}", f"--wmin={wmin!r}", f"--wmax={wmax!r}", f"--ppd={ppd}"]
        code, out, _ = run_in_process(argv)
        assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_EVAL_ERROR)
        assert (out != b"") == (code == EXIT_OK)


# Values that the option reader, the parser and the grid each treat specially.
EDGE_VALUES = [
    "--", "-", "", "-s+1", "-s + 1", "-1", "-.5", "1.7976931348623157e308", "-1.7976931348623157e308",
    "5e-324", "2.2250738585072014e-308", "1e309", "inf", "nan", "9" * 400, str(2**1024), "\udcff",
    "s\udc80",
]
# Ordinary values of each option, so that some command lines get to exit 0 or 3.
OPTION_VALUES = {
    "--tf": ["s", "1/(s^0.5+1)", "1e300*s^400", "s^2/(s^2+1)"],
    "--wmin": ["0.01", "1"],
    "--wmax": ["10", "1e10"],
    "--ppd": ["1", "3"],
    "--format": list(FORMATS),
    "--out": ["out.csv"],
}


# Abbreviations: two that name one option, and one that is ambiguous.
ABBREVIATIONS = {"--fo": "--format", "--pp": "--ppd", "--w": "--wmin"}


@st.composite
def argvs(draw):
    """Command lines of the six options, some abbreviated, and -h.

    Each value is attached with "=" or given separately.
    """
    argv = []
    for _ in range(draw(st.integers(0, 7))):
        option = draw(st.sampled_from([*OPTION_VALUES, *ABBREVIATIONS, "-h"]))
        if option == "-h":
            argv.append(option)
            continue
        values = OPTION_VALUES[ABBREVIATIONS.get(option, option)]
        value = draw(st.sampled_from(values) | st.sampled_from(EDGE_VALUES))
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return argv


def read_bode(data: bytes, fmt: str) -> list[list[float]]:
    """The rows of CSV or JSON Bode data; raises if data is not that."""
    if fmt == "json":
        records = json.loads(data)
        assert all(list(r) == CSV_HEADER.split(",") for r in records)
        return [list(r.values()) for r in records]
    header, *lines = data.decode("ascii").split("\n")
    assert header == CSV_HEADER and lines.pop() == ""
    return [[float(v) for v in line.split(",")] for line in lines]


class TestArgvFuzz:
    @settings(deadline=None)
    @given(argvs())
    @example(["--tf=--"])
    @example(["--tf", "s", "--out", "--", "--format=json"])
    @example(["--tf", "1/(s^0.5+1)", "--wmin=5e-324", "--wmax", "1.7976931348623157e308", "--ppd=1"])
    def test_every_command_line_exits_0_2_or_3(self, argv):
        with tempfile.TemporaryDirectory() as where:
            cwd = os.getcwd()
            os.chdir(where)  # --out writes relative paths here
            try:
                code, out, _ = run_in_process(argv)
                assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_EVAL_ERROR)
                if code != EXIT_OK:
                    assert out == b""
                    return
                try:
                    args = read_args(argv)
                except _Exit as exc:  # help, the one exit of the parser's with code 0
                    assert exc.args == (EXIT_OK, out.decode(), "")
                    return
                if args["out"] is not None:
                    assert out == b""
                    with open(args["out"], "rb") as written:
                        out = written.read()
            finally:
                os.chdir(cwd)
        rows = read_bode(out, args["format"])
        assert rows and [r[0] for r in rows] == sorted(r[0] for r in rows)

    # read_args reads the common command line itself and hands any other to
    # the parser: the values are the parser's wherever it returns some, and
    # elsewhere the command line's exit code and output are the parser's.
    @settings(deadline=None)
    @given(argvs())
    @example(["--fo", "json", "--tf=s", "--pp=3"])
    @example(["--tf", "s", "--w=1"])
    @example(["--tf", "-.5", "--wmin", "-1"])
    @example(["-h", "--tf"])
    @example(["--tf", "s", "--format", "xml", "--format", "csv"])
    @example(["--ppd", "x", "--tf=s", "--ppd=3", "--tf", ""])
    @example(["--tf", "s", "--out"])
    def test_reader_agrees_with_argparse(self, argv):
        # argparse 3.10-3.11 stores [] for an attached "--";
        # test_option_given_double_dash_exits_2 pins the command line's outcome.
        assume(not any(word.endswith("=--") for word in argv))
        expected, out, err = parse_with_argparse(argv)
        if isinstance(expected, dict):
            # by repr, so that a nan equals a nan and 1.0 differs from 1
            assert repr(sorted(read_args(argv).items())) == repr(sorted(expected.items()))
        else:
            assert run_in_process(argv) == (expected, out.encode(), err)


class TestRowPath:
    @settings(deadline=None)
    @given(tf_texts, bounds, bounds, st.integers(1, 3), st.sampled_from(FORMATS))
    @example("--", 1.0, 2.0, 1, "csv")
    @example("10000/s^0.5", 1.0, 100.0, 1, "json")
    @example("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)", 0.01, 100.0, 20, "json")
    @example("s^4-1", 1.0, 10.0, 1, "json")
    def test_main_equals_library_emit(self, text, w1, w2, ppd, fmt):
        # The CLI emits rows without building ResponsePoints; its bytes and
        # its failures must be the library's.
        if w1 == w2:
            return
        wmin, wmax = sorted((w1, w2))
        argv = [f"--tf={text}", f"--wmin={wmin!r}", f"--wmax={wmax!r}", f"--ppd={ppd}"]
        code, out, err = run_in_process(argv + [f"--format={fmt}"])
        try:
            expected = emit(sweep(parse_tf(text), FrequencyGrid(wmin, wmax, ppd)), fmt)
        except ParseError:
            assert (code, out) == (EXIT_PARSE_ERROR, b"")
        except EvaluationError as exc:
            assert (code, out) == (EXIT_EVAL_ERROR, b"")
            assert err == f"fracfreq: error: {exc}\n"
        else:
            assert (code, out, err) == (EXIT_OK, expected, "")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fracfreq", "--tf", "10000/s^0.5", "--ppd", "5"],
            capture_output=True,
            timeout=60,
            env=child_env(),
        )
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 21

    def test_import_loads_no_json(self):
        # CLI wall time is mostly interpreter start and import; none of these
        # may come back unnoticed.  Only modules the import adds count, since
        # site may already have loaded some of them.
        forbidden = {
            "argparse",
            "gettext",
            "locale",
            "json",
            "dataclasses",
            "inspect",
            "pathlib",
            "__future__",
            "array",
            "fracfreq.roots",
            "fracfreq.point",
            "fracfreq.closed_form",
        }
        code = (
            "import sys; before = set(sys.modules); import fracfreq.cli; "
            f"print(sorted((set(sys.modules) - before) & {forbidden!r}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "[]"

    def test_common_run_loads_no_argparse(self, tmp_path):
        # read_args reads the bench's command lines itself: argparse and the
        # gettext and locale it loads would add ~3-6 ms to every run.
        argvs = [
            ["--tf", "(3*s^0.5+2)/(s^1.2+1)", "--format", "json", "--out", str(tmp_path / "out.json")],
            ["--tf", "10000/s^0.5", "--format", "csv"],
        ]
        code = (
            "import sys; before = set(sys.modules); from fracfreq import cli; "
            f"codes = [cli.main(argv) for argv in {argvs!r}]; "
            "loaded = (set(sys.modules) - before) & {'argparse', 'gettext', 'locale'}; "
            "print(codes, sorted(loaded), file=sys.stderr)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.stderr.decode() == "[0, 0] []\n"
        assert result.stdout.startswith(CSV_HEADER.encode())
        assert (tmp_path / "out.json").read_bytes().startswith(b"[")

    def test_package_imports_only_the_standard_library(self):
        # No runtime dependency: every public name and the command line load
        # only the standard library and fracfreq, whatever else is installed.
        code = (
            "import sys; before = set(sys.modules); import fracfreq, fracfreq.cli; "
            "[getattr(fracfreq, name) for name in fracfreq.__all__]; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.returncode == 0, result.stderr.decode()
        assert set(result.stdout.decode().split()) - set(sys.stdlib_module_names) == {"fracfreq"}

    def test_run_keeps_no_column(self, tmp_path):
        # The command line evaluates once: N and D share a dict of the call's,
        # no grid is kept, and array is never loaded.
        argv = ["--tf", "(s^0.5+1)/(s^0.5+2)", "--out", str(tmp_path / "out.csv")]
        code = (
            "import sys; from fracfreq import cli, response; before = set(sys.modules); "
            f"status = cli.main({argv!r}); "
            "grids = response._kept_points.cache_info().currsize; "
            "store = response._kept_points(0.01, 100.0, 20)[1]; "
            "print(status, grids, dict(store), 'array' in set(sys.modules) - before)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().split() == ["0", "0", "{}", "False"]
        assert len((tmp_path / "out.csv").read_bytes().splitlines()) == 1 + 81

    def test_response_import_loads_no_records(self):
        # The grid-and-bytes layer needs no records, no dataclass and no parser.
        forbidden = {"dataclasses", "fracfreq.complexmath", "fracfreq.point", "fracfreq.tf"}
        code = (
            "import sys; before = set(sys.modules); import fracfreq.response; "
            f"print(sorted((set(sys.modules) - before) & {forbidden!r}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "[]"

    def test_emit_loads_no_records(self):
        # The library's emit is the command line's: it needs no record or dataclass.
        forbidden = {"dataclasses", "fracfreq.point"}
        code = (
            "import sys; before = set(sys.modules); import fracfreq; fracfreq.emit; "
            f"print(sorted((set(sys.modules) - before) & {forbidden!r}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "[]"

    # Help goes through the same writer as the Bode data.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", [["--tf", "s", "--ppd", "20"], ["--tf", "s", "--ppd", "1"], ["-h"]],
                             ids=["20", "1", "help"])
    def test_stdout_on_full_device_exits_2(self, argv):
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "fracfreq", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=60,
                env=child_env(),
            )
        assert result.returncode == 2
        # One line: no traceback, and no "Exception ignored" from the flush at exit.
        assert result.stderr.decode() == f"fracfreq: error: cannot write output: {NO_SPACE}\n"

    def test_closed_stdout_exits_2(self):
        # With file descriptor 1 closed the interpreter sets sys.stdout to None.
        # Help goes through the same writer as the Bode data.
        for args in ["--tf s", "-h"]:
            result = subprocess.run(
                ["sh", "-c", f'exec "$0" -m fracfreq {args} >&-', sys.executable],
                stderr=subprocess.PIPE,
                timeout=60,
                env=child_env(),
            )
            assert result.returncode == 2
            assert result.stderr.decode() == f"fracfreq: error: cannot write output: {BAD_FD}\n"

    # "--opt=--" exits the same way on every Python: an expression that does
    # not parse, a usage error for the format, or a file named "--".
    @pytest.mark.parametrize(
        "argv,name",
        [(["--tf=--"], "tf"), (["--tf", "s", "--format=--"], "format"), (["--tf", "s", "--out=--"], "out")],
        ids=["tf", "format", "out"],
    )
    def test_option_given_double_dash_exits_2(self, argv, name, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fracfreq", *argv],
            capture_output=True,
            timeout=60,
            env=child_env(),
            cwd=tmp_path,
        )
        if name == "out":  # the one that exits 0
            assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
            assert (tmp_path / "--").read_bytes() == emit(sweep(parse_tf("s"), FrequencyGrid()), "csv")
            return
        assert (result.returncode, result.stdout) == (2, b"")
        err = result.stderr.decode()
        if name == "tf":
            assert err == "fracfreq: error: expected number or 's', found '-' (offset 1)\n"
        else:  # argparse's one error line: "invalid choice", or "expected one argument" where it stores []
            assert err.startswith(f"{USAGE}fracfreq: error: argument --format: ")
            assert err.count("\n") == USAGE.count("\n") + 1
        assert list(tmp_path.iterdir()) == []

    # With file descriptor 2 closed, the error line is lost but not the exit code.
    @pytest.mark.parametrize(
        "args,code",
        [
            ('--tf "(s"', 2),
            ('--tf "1/(s^2+1)" --wmin 1 --wmax 10 --ppd 1', 3),
            ("--tf s --ppd 0", 2),
            ("--tf s --ppd x", 2),
            ("--ppd 5", 2),
        ],
        ids=["parse", "eval", "usage-grid", "usage-type", "usage-missing-tf"],
    )
    def test_closed_stderr_keeps_exit_code(self, args, code):
        result = subprocess.run(
            ["sh", "-c", f'exec "$0" -m fracfreq {args} 2>&-', sys.executable],
            stdout=subprocess.PIPE,
            timeout=60,
            env=child_env(),
        )
        assert (result.returncode, result.stdout) == (code, b"")

    def test_module_invocation_parse_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "fracfreq", "--tf", "(s"],
            capture_output=True,
            timeout=60,
            env=child_env(),
        )
        assert result.returncode == 2
        assert b"offset 2" in result.stderr
