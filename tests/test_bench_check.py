"""The benchmark's own output checker, run on the library's sweep and emit.

A kernel change that the benchmark would count as a failed op fails
here in about a second.  bench/check.py and bench/workloads.py are
loaded read-only by path: no bytecode is written under bench/.
"""

import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from fracfreq import FrequencyGrid, emit, parse_tf, sweep

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves a class's module through sys.modules.
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


check, workloads = load("check"), load("workloads")


def valid_cases(workload: str, count: int) -> list:
    """The first count well-formed seed-0 cases of a workload's stream."""
    stream = (c for c in workloads.cases(workload, 0) if c.bad_offset is None)
    return list(itertools.islice(stream, count))


CASES = {f"dense-{i}": c for i, c in enumerate(valid_cases("dense", 2))}
CASES.update({f"many-{i}": c for i, c in enumerate(valid_cases("many", 20))})


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_library_output_passes_bench_check(case):
    points = sweep(parse_tf(case.text), FrequencyGrid(case.wmin, case.wmax, case.ppd))
    assert check.check_output(case, points, emit(points, case.fmt)) == []


@pytest.mark.parametrize("case", [CASES["dense-0"], CASES["many-0"]], ids=["dense-0", "many-0"])
def test_corrupted_point_is_flagged(case):
    # The benchmark self-test's corrupted point: dataclasses.replace goes
    # through ResponsePoint's checked __new__, and the checker must see the change.
    points = sweep(parse_tf(case.text), FrequencyGrid(case.wmin, case.wmax, case.ppd))
    p = points[3]
    for change in ({"mag_linear": p.mag_linear * (1 + 1e-9)}, {"phase_rad": p.phase_rad + 1e-9}):
        bad = points[:3] + [dataclasses.replace(p, **change)] + points[4:]
        assert check.check_output(case, bad, emit(bad, case.fmt)), change
