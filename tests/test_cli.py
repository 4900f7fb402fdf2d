import contextlib
import errno
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
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
from fracfreq.cli import EXIT_EVAL_ERROR, EXIT_OK, EXIT_PARSE_ERROR, main
from helpers import child_env, close

NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


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


class TestExitContract:
    @settings(deadline=None)
    @given(tf_texts, bounds, bounds, st.integers(1, 3))
    def test_every_input_exits_0_2_or_3(self, text, w1, w2, ppd):
        if w1 == w2:
            return
        wmin, wmax = sorted((w1, w2))
        argv = [f"--tf={text}", f"--wmin={wmin!r}", f"--wmax={wmax!r}", f"--ppd={ppd}"]
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_EVAL_ERROR)
        assert (out.buffer.getvalue() != b"") == (code == EXIT_OK)


def run_in_process(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout bytes, stderr text)."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue(), err.getvalue()


class TestRowPath:
    @settings(deadline=None)
    @given(tf_texts, bounds, bounds, st.integers(1, 3), st.sampled_from(FORMATS))
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

    def test_module_invocation_parse_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "fracfreq", "--tf", "(s"],
            capture_output=True,
            timeout=60,
            env=child_env(),
        )
        assert result.returncode == 2
        assert b"offset 2" in result.stderr
