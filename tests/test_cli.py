import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
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
from fracfreq.cli import EXIT_EVAL_ERROR, EXIT_OK, EXIT_PARSE_ERROR, build_parser, main
from helpers import child_env, close

NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
BAD_FD = f"[Errno {errno.EBADF}] {os.strerror(errno.EBADF)}"


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
        args = build_parser().parse_args(["--tf", "s"])
        grid = FrequencyGrid()
        assert (args.wmin, args.wmax, args.ppd) == (
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
        with pytest.raises(SystemExit) as excinfo:
            main(["--tf", "s", "--out", str(target)])
        assert excinfo.value.code == 2
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

    def test_parse_error_exit_and_offset(self, capsysbinary):
        code, out, err = run_main(["--tf", "s^"], capsysbinary)
        assert code == EXIT_PARSE_ERROR
        assert out == b""
        assert "offset 2" in err

    def test_deep_nesting_exits_0(self, capsysbinary):
        code, out, err = run_main(["--tf=" + "(" * 5000 + "s+1" + ")" * 5000], capsysbinary)
        assert code == EXIT_OK
        assert out.startswith(CSV_HEADER.encode())

    def test_grid_above_sample_cap_exits_2(self, capsysbinary):
        with pytest.raises(SystemExit) as excinfo:
            main(["--tf", "s", "--ppd", "1000000000"])
        assert excinfo.value.code == 2
        assert "more than 1000000 samples" in capsysbinary.readouterr().err.decode()

    def test_eval_error_exit_and_omega(self, capsysbinary):
        code, out, err = run_main(["--tf", "1/1e-310"], capsysbinary)
        assert code == EXIT_EVAL_ERROR
        assert out == b""
        assert "omega=0.01" in err

    def test_eval_error_at_quarter_turn_pole(self, capsysbinary):
        argv = ["--tf", "1/(s^2+1)", "--wmin", "0.1", "--wmax", "10", "--ppd", "1"]
        code, out, err = run_main(argv, capsysbinary)
        assert code == EXIT_EVAL_ERROR
        assert out == b""
        assert "omega=1.0" in err

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
        # but each part of the term, 1.5e308 * (1 + j), is not.
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
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


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
    """main(argv) with stdout and stderr captured: (exit code, stdout bytes, stderr text).

    In process, a usage error is SystemExit(2) from argparse, not a return
    value (``--tf=--`` is one); it counts as exit 2.
    """
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            if exc.code != EXIT_PARSE_ERROR:
                raise
            code = exc.code
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


# Values that argparse, the parser and the grid each treat specially.
EDGE_VALUES = [
    "--", "-", "", "-s+1", "1.7976931348623157e308", "-1.7976931348623157e308", "5e-324",
    "2.2250738585072014e-308", "1e309", "inf", "nan", "9" * 400, str(2**1024), "\udcff", "s\udc80",
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


@st.composite
def argvs(draw):
    """Command lines of the six options, each value attached with "=" or given separately."""
    argv = []
    for _ in range(draw(st.integers(0, 7))):
        option = draw(st.sampled_from(list(OPTION_VALUES)))
        value = draw(st.sampled_from(OPTION_VALUES[option]) | st.sampled_from(EDGE_VALUES))
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
                args = build_parser().parse_args(argv)
                if args.out is not None:
                    assert out == b""
                    with open(args.out, "rb") as written:
                        out = written.read()
            finally:
                os.chdir(cwd)
        rows = read_bode(out, args.format)
        assert rows and [r[0] for r in rows] == sorted(r[0] for r in rows)


class TestRowPath:
    @settings(deadline=None)
    @given(tf_texts, bounds, bounds, st.integers(1, 3), st.sampled_from(FORMATS))
    @example("--", 1.0, 2.0, 1, "csv")
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
            "json",
            "dataclasses",
            "inspect",
            "pathlib",
            "__future__",
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

    def test_response_import_loads_no_records(self):
        # The rows-and-bytes layer never needs the records or their dataclass.
        forbidden = {"dataclasses", "fracfreq.point"}
        code = (
            "import sys; before = set(sys.modules); import fracfreq.response; "
            f"print(sorted((set(sys.modules) - before) & {forbidden!r}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "[]"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("ppd", ["20", "1"])
    def test_stdout_on_full_device_exits_2(self, ppd):
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "fracfreq", "--tf", "s", "--ppd", ppd],
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
        result = subprocess.run(
            ["sh", "-c", 'exec "$0" -m fracfreq --tf s >&-', sys.executable],
            stderr=subprocess.PIPE,
            timeout=60,
            env=child_env(),
        )
        assert result.returncode == 2
        assert result.stderr.decode() == f"fracfreq: error: cannot write output: {BAD_FD}\n"

    # Python 3.11's argparse stores [] for an attached "--opt=--"; a later
    # one may store "--", which is then an expression, a format or a path.
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
        if type(getattr(build_parser().parse_args(argv), name)) is str:
            assert result.returncode == (0 if name == "out" else 2)
            return
        assert (result.returncode, result.stdout) == (2, b"")
        err = result.stderr.decode()
        assert err.endswith(f"fracfreq: error: argument --{name}: expected one argument\n")
        assert "Traceback" not in err
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
