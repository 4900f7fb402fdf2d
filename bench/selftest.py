"""Smoke test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload for one second, untraced and traced, and asserts
that each metric named in BENCHMARK.json, and each raw timing, is
printed with its unit.  It
also feeds the checker outputs that are wrong on purpose and asserts
that each is flagged.  Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ff = run.import_fracfreq()


def first_cases(workload: str, malformed: bool, n: int = 1):
    stream = workloads.cases(workload, 0)
    return list(itertools.islice((c for c in stream if (c.bad_offset is not None) == malformed), n))


class MetricsPrint(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
                    argv += ["--seed", "0", "--seconds", "1", "--trace", str(trace)]
                    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
                    lines = done.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    # The workload's row: "name=value unit" cells after a header cell.
                    header, *cells = lines[-2].split(" | ")
                    self.assertIn("failed_frac=0 ", header)
                    printed = dict(cell.split("=", 1) for cell in cells)
                    shown = {"op_ms_p50": "ms", "op_ms_p90": "ms", "points_per_s": "1/s"} if trace == 0 else {}
                    for name, unit in {**expected, **shown}.items():
                        value, printed_unit = printed[name].split(" ")
                        self.assertEqual(printed_unit, unit, name)
                        float(value)


class CheckerFlags(unittest.TestCase):
    def setUp(self):
        self.lib = run.Library(ff)

    def test_correct_outputs_pass(self):
        # dense generates no malformed inputs; many does.
        for case in first_cases("dense", False, 2) + first_cases("many", False, 2) + first_cases("many", True, 2):
            self.assertEqual(self.lib.check(case, self.lib.op(case)), [], case.text)

    def test_corrupted_point_is_flagged(self):
        for workload in ("dense", "many"):
            case = first_cases(workload, False)[0]
            out = self.lib.op(case)
            p = out.points[3]
            for change in ({"mag_linear": p.mag_linear * (1 + 1e-9)}, {"phase_rad": p.phase_rad + 1e-9}):
                points = list(out.points)
                points[3] = dataclasses.replace(p, **change)
                problems = check.check_output(case, points, ff.emit(points, case.fmt))
                self.assertTrue(problems, change)
            # One digit in the middle of the emitted bytes, changed.
            i = next(i for i in range(len(out.data) // 2, len(out.data)) if out.data[i : i + 1].isdigit())
            digit = b"%d" % ((out.data[i] - ord("0") + 1) % 10)
            self.assertTrue(check.check_output(case, out.points, out.data[:i] + digit + out.data[i + 1 :]))

    def test_wrong_parse_offset_is_flagged(self):
        case = first_cases("many", True)[0]
        out = self.lib.op(case)
        self.assertEqual(out.parse_pos, case.bad_offset)
        shifted = dataclasses.replace(case, bad_offset=case.bad_offset + 1)
        self.assertTrue(self.lib.check(shifted, out))
        self.assertTrue(check.check_parse_error(case, None))

    def test_undefined_point_is_flagged(self):
        # 1/(s^2+1) at omega = 1: the denominator is exactly zero there.
        ref = check.reference(((1.0, 0.0),), ((1.0, 2.0), (1.0, 0.0)), 1.0)
        self.assertTrue(check.check_row((1.0, 1e16, 320.0, 0.0, 0.0), ref))


if __name__ == "__main__":
    unittest.main()
