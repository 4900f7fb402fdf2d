import json
import subprocess
import sys

import pytest

from fracfreq import CSV_HEADER
from fracfreq.cli import EXIT_EVAL_ERROR, EXIT_OK, EXIT_PARSE_ERROR, main
from helpers import child_env


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

    def test_parse_error_exit_and_offset(self, capsysbinary):
        code, out, err = run_main(["--tf", "s^"], capsysbinary)
        assert code == EXIT_PARSE_ERROR
        assert out == b""
        assert "offset 2" in err

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

    def test_module_invocation_parse_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "fracfreq", "--tf", "(s"],
            capture_output=True,
            timeout=60,
            env=child_env(),
        )
        assert result.returncode == 2
        assert b"offset 2" in result.stderr
