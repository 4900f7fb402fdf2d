#!/usr/bin/env python3
"""fracfreq benchmark: seeded workloads through the library and the CLI.

    python3 bench/run.py --workload cli|dense|many --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # one row per workload, no JSON

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One closed-loop client in one process sends the next op only
after the previous one completed and was checked.  An op is one
transfer function taken through parse, grid, sweep and emit, or, on
``cli``, one ``python -m fracfreq`` child process (never more than one
at a time).  Every op's output is checked (see check.py); an op whose
check fails counts as failed, and its time is not sampled.  Each op is
followed by a reference that does not use the package (a builtin-complex
evaluation of the same function, or on ``cli`` a bare interpreter
start); the gated timings are op time over reference time, which stays
put when the machine's speed drifts.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics,
and the spans go to ``bench/out/trace-<workload>-<seed>.json``.  See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7  # fresh processes, each timing its own set-up
REPEAT_EVERY = 16  # every 16th op is run again and must give identical bytes
CHILD_TIMEOUT_S = 60.0
CLI_PROBES = 5
PROBE_CASES = {"cli": 10, "dense": 1, "many": 40}
PROBE_REPEATS = {"cli": 3, "dense": 1, "many": 3}

ns = time.perf_counter_ns


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def require_package() -> None:
    if not (SRC / "fracfreq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fracfreq package under {SRC}")


def import_fracfreq():
    """Import the package from src/ next to the benchmark, never another copy."""
    require_package()
    sys.path.insert(0, str(SRC))
    ff = importlib.import_module("fracfreq")
    if Path(ff.__file__).resolve().parent != SRC / "fracfreq":
        raise SystemExit(f"bench: imported fracfreq from {ff.__file__}, not from {SRC}")
    return ff


@dataclass
class Outcome:
    """What one op produced; ``ns`` is its wall time."""

    ns: int
    points: list = field(default_factory=list)
    data: bytes | None = b""
    stdout: bytes = b""
    parse_pos: int | None = None
    rc: int = 0
    stderr: bytes = b""
    rss_kb: int = 0


class Library:
    """Ops that call the library in this process (workloads dense, many)."""

    def __init__(self, ff):
        self.ff = ff

    def op(self, case, spans=None, op_id=0) -> Outcome:
        ff = self.ff
        t0 = ns()
        try:
            tf = ff.parse_tf(case.text)
        except ff.ParseError as exc:
            t1 = ns()
            if spans is not None:
                spans += ((op_id, "op", t0, t1), (op_id, "tf.parse_tf", t0, t1))
            return Outcome(t1 - t0, parse_pos=exc.position)
        t1 = ns()
        points = ff.sweep(tf, ff.FrequencyGrid(case.wmin, case.wmax, case.ppd))
        t2 = ns()
        data = ff.emit(points, case.fmt)
        t3 = ns()
        if spans is not None:
            spans += (
                (op_id, "op", t0, t3),
                (op_id, "tf.parse_tf", t0, t1),
                (op_id, "response.sweep", t1, t2),
                (op_id, "response.emit", t2, t3),
            )
        return Outcome(t3 - t0, points, data)

    def timed(self, case, spans=None, op_id=0) -> tuple[Outcome, float, list | None]:
        """The op, the time of its reference, and the reference values.

        The reference is the builtin-complex evaluation of the same
        function at the same frequencies, timed right before and right
        after the op; the check reuses the values of the second.
        Malformed inputs have no reference.
        """
        if case.bad_offset is not None:
            return self.op(case, spans, op_id), 0.0, None
        t0 = ns()
        check.references(case, check.grid(case.wmin, case.wmax, case.ppd))
        t1 = ns()
        out = self.op(case, spans, op_id)
        if not out.points:
            return out, 0.0, None
        t2 = ns()
        refs = check.references(case, [p.omega for p in out.points])
        return out, (t1 - t0 + ns() - t2) / 2, refs

    def check(self, case, out: Outcome, refs=None, spans=None, op_id=0) -> list[str]:
        if case.bad_offset is not None:
            return check.check_parse_error(case, out.parse_pos)
        if out.parse_pos is not None:
            return [f"valid expression {case.text!r} rejected at offset {out.parse_pos}"]
        return check.check_output(case, out.points, out.data, refs)

    @staticmethod
    def same(a: Outcome, b: Outcome) -> bool:
        return (a.data, a.parse_pos) == (b.data, b.parse_pos)


class Cli(Library):
    """Ops that run ``python -m fracfreq`` as a child process (workload cli)."""

    def __init__(self, ff, workdir: Path):
        super().__init__(ff)
        self.workdir = workdir

    def op(self, case, spans=None, op_id=0) -> Outcome:
        argv = [sys.executable, "-m", "fracfreq", "--tf", case.text, "--format", case.fmt]
        target = self.workdir / "out.bin"
        if case.to_file:
            argv += ["--out", str(target)]
        with open(self.workdir / "stderr.bin", "w+b") as err:
            t0 = ns()
            rc, stdout, rss_kb = run_child(argv, err)
            t1 = ns()
            err.seek(0)
            stderr = err.read()
        if spans is not None:
            spans.append((op_id, "cli.subprocess", t0, t1))
        data = stdout
        if case.to_file:
            data = target.read_bytes() if target.exists() else None
            target.unlink(missing_ok=True)
        return Outcome(t1 - t0, data=data, stdout=stdout, rc=rc, stderr=stderr, rss_kb=rss_kb)

    def timed(self, case, spans=None, op_id=0) -> tuple[Outcome, float, None]:
        """The op, and the time of a bare interpreter start right after it."""
        out = self.op(case, spans, op_id)
        with open(self.workdir / "stderr.bin", "w+b") as err:
            t0 = ns()
            run_child([sys.executable, "-c", "pass"], err)
            return out, ns() - t0, None

    def check(self, case, out: Outcome, refs=None, spans=None, op_id=0) -> list[str]:
        if case.to_file and out.stdout:
            return ["--out also wrote to stdout"]
        if case.bad_offset is not None:
            problems = [] if out.rc == 2 else [f"exit {out.rc} on malformed input, expected 2"]
            if f"(offset {case.bad_offset})".encode() not in out.stderr:
                problems.append(f"stderr lacks offset {case.bad_offset}: {out.stderr[-200:]!r}")
            try:
                self.ff.parse_tf(case.text)
                position = None
            except self.ff.ParseError as exc:
                position = exc.position
            return problems + check.check_parse_error(case, position)
        if out.rc != 0 or out.stderr:
            return [f"exit {out.rc} on {case.text!r}: {out.stderr[-300:]!r}"]
        # The library's answer for the same input, emitted in this process.
        expected = super().op(case, spans, op_id)
        if out.data != expected.data:
            return [f"CLI output differs from the library's emit for {case.text!r}"]
        return check.check_output(case, expected.points, expected.data)

    @staticmethod
    def same(a: Outcome, b: Outcome) -> bool:
        return (a.data, a.stdout, a.rc, a.stderr) == (b.data, b.stdout, b.rc, b.stderr)


def run_child(argv: list[str], err) -> tuple[int, bytes, int]:
    """Run one child to completion: exit code, stdout and its own peak RSS.

    The child is reaped with wait4 so that its resource usage is its own,
    not the maximum over every child this process ever waited for.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env())
    chunks = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    fd = proc.stdout.fileno()
    try:
        while True:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise TimeoutError(f"child {argv[:4]} ran over {CHILD_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks), usage.ru_maxrss


def setup(workload: str, seed: int, workdir: Path):
    """Import fracfreq and finish one warm-up op; returns (runner, seconds)."""
    t0 = time.perf_counter()
    ff = import_fracfreq()
    runner = Cli(ff, workdir) if workload == "cli" else Library(ff)
    runner.op(next(workloads.cases(workload, seed)))
    return runner, time.perf_counter() - t0


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    argv += ["--workload", workload, "--seed", str(seed)]
    with open(workdir / "probe-stderr.bin", "w+b") as err:
        rc, stdout, _ = run_child(argv, err)
        if rc != 0:
            err.seek(0)
            raise RuntimeError(f"set-up probe failed: {err.read()[-500:]!r}")
    return float(stdout.decode().split()[-1])


@dataclass
class Loop:
    """Counts and samples of one timed phase."""

    latencies_ms: array = field(default_factory=lambda: array("d"))
    relative: array = field(default_factory=lambda: array("d"))  # op time / reference time
    op_ns: int = 0
    points: int = 0
    attempted: int = 0
    failed: int = 0
    peak_child_kb: int = 0
    problems: list = field(default_factory=list)

    @property
    def points_per_s(self) -> float:
        return self.points / (self.op_ns / 1e9)


def run_loop(runner, stream, seconds: float, loop: Loop, spans=None) -> Loop:
    """Closed loop for ``seconds`` of wall time, checks included."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        case = next(stream)
        op_id = loop.attempted
        loop.attempted += 1
        try:
            out, ref_ns, refs = runner.timed(case, spans, op_id)
            problems = runner.check(case, out, refs, spans, op_id)
            if not problems and op_id % REPEAT_EVERY == REPEAT_EVERY - 1:
                if not runner.same(out, runner.op(case)):
                    problems = [f"repeated op gave different output for {case.text!r}"]
        except Exception as exc:  # any escape from the program is a failed op
            problems = [f"{type(exc).__name__}: {exc} on {case.text!r}"]
        if problems:
            loop.failed += 1
            loop.problems += problems[: max(0, 10 - len(loop.problems))]
            continue
        loop.latencies_ms.append(out.ns / 1e6)
        if ref_ns:
            loop.relative.append(out.ns / ref_ns)
        loop.op_ns += out.ns
        loop.points += 0 if case.bad_offset is not None else check.grid_size(case)
        loop.peak_child_kb = max(loop.peak_child_kb, out.rss_kb)
    return loop


def _p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[8]


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    """The gated metrics, and the raw timings they are derived from."""
    runner, _ = setup(workload, seed, workdir)
    loop, stream, setups = Loop(), workloads.cases(workload, seed), []
    # Set-ups are spread over the run, so that their median, like the
    # timings, covers the whole run rather than its first seconds.
    for _ in range(SETUP_SAMPLES):
        setups.append(setup_probe(workload, seed, workdir))
        run_loop(runner, stream, seconds / SETUP_SAMPLES, loop)
    # On cli the work happens in the children; each was reaped on its own.
    peak_kb = loop.peak_child_kb if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_rel_p50": (statistics.median(loop.relative), "x"),
        "op_rel_p90": (_p90(loop.relative), "x"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    shown = {
        "op_ms_p50": (statistics.median(loop.latencies_ms), "ms"),
        "op_ms_p90": (_p90(loop.latencies_ms), "ms"),
        "points_per_s": (loop.points_per_s, "1/s"),
    }
    notes = f"op samples={len(loop.latencies_ms)}, relative samples={len(loop.relative)}, set-ups={len(setups)}"
    return loop, metrics, shown, notes


# --- traced run --------------------------------------------------------


def _total(spans, name: str) -> int:
    return sum(t1 - t0 for _, n, t0, t1 in spans if n == name)


def _probe_cases(workload: str, seed: int) -> list:
    stream = workloads.cases(workload, seed)
    picked = []
    while len(picked) < PROBE_CASES[workload]:
        case = next(stream)
        if case.bad_offset is None:
            picked.append(case)
    return picked


def layer_probe(ff, workload: str, seed: int, spans: list) -> dict:
    """Time each layer on a fixed, seeded set of valid inputs."""
    probe = _probe_cases(workload, seed)
    grids = [ff.FrequencyGrid(c.wmin, c.wmax, c.ppd) for c in probe]
    tfs = [ff.parse_tf(c.text) for c in probe]
    points = term_points = emitted = 0
    timed: list = []
    for rep in range(PROBE_REPEATS[workload]):
        for k, (case, grid, tf) in enumerate(zip(probe, grids, tfs)):
            op_id = f"probe{rep}.{k}"
            t0 = ns()
            omegas = grid.points()
            t1 = ns()
            for w in omegas:
                ff.eval_tf(tf, w)
            t2 = ns()
            swept = ff.sweep(tf, grid)
            t3 = ns()
            csv = ff.emit(swept, "csv")
            t4 = ns()
            js = ff.emit(swept, "json")
            t5 = ns()
            timed += (
                (op_id, "response.FrequencyGrid.points", t0, t1),
                (op_id, "tf.eval_tf", t1, t2),
                (op_id, "response.sweep", t2, t3),
                (op_id, "response.emit.csv", t3, t4),
                (op_id, "response.emit.json", t4, t5),
            )
            if rep == 0:
                points += len(omegas)
                term_points += case.terms * len(omegas)
                emitted += len(csv if case.fmt == "csv" else js)
    spans += timed
    reps = PROBE_REPEATS[workload]
    per_point = lambda name: _total(timed, name) / (points * reps)  # noqa: E731
    calls = call_counts(ff, tfs, grids)
    return {
        "tf.eval_ns_per_term_point": (_total(timed, "tf.eval_tf") / (term_points * reps), "ns"),
        "roots.principal_pow_per_term_point": (calls["principal_pow"] / term_points, "count"),
        "complexmath.complex_per_point": (calls["Complex"] / points, "count"),
        "response.grid_ns_per_point": (per_point("response.FrequencyGrid.points"), "ns"),
        "response.sweep_overhead_ns_per_point": (
            per_point("response.sweep") - per_point("tf.eval_tf"),
            "ns",
        ),
        "response.emit_csv_ns_per_point": (per_point("response.emit.csv"), "ns"),
        "response.emit_json_ns_per_point": (per_point("response.emit.json"), "ns"),
        "response.emit_bytes_per_point": (emitted / points, "B"),
    }


def call_counts(ff, tfs, grids) -> dict[str, int]:
    """Exact call counts of the per-term arithmetic over one sweep of each input.

    A function that no longer exists counts 0.
    """
    roots = sys.modules.get("fracfreq.roots")
    complexmath = sys.modules.get("fracfreq.complexmath")
    targets = {
        "principal_pow": getattr(getattr(roots, "principal_pow", None), "__code__", None),
        "Complex": getattr(getattr(getattr(complexmath, "Complex", None), "__init__", None), "__code__", None),
    }
    profiler = cProfile.Profile()
    profiler.enable()
    for tf, grid in zip(tfs, grids):
        ff.sweep(tf, grid)
    profiler.disable()
    by_code: dict = {}
    for entry in profiler.getstats():
        by_code[entry.code] = by_code.get(entry.code, 0) + entry.callcount
    return {name: by_code.get(code, 0) if code is not None else 0 for name, code in targets.items()}


def cli_probe(ff, spans: list, workdir: Path) -> dict:
    """Interpreter start, package import and in-process main, each timed alone."""
    python_c = [sys.executable, "-c"]
    text = workloads.README_CASES[1][0]
    interp, imports, mains = [], [], []
    with open(workdir / "probe-stderr.bin", "w+b") as err:
        for k in range(CLI_PROBES):
            t0 = ns()
            run_child(python_c + ["pass"], err)
            t1 = ns()
            spans.append((f"cli{k}", "cli.interpreter", t0, t1))
            interp.append((t1 - t0) / 1e6)
            code = "import time; t = time.perf_counter(); import fracfreq.cli; print(time.perf_counter() - t)"
            _, stdout, _ = run_child(python_c + [code], err)
            imports.append(float(stdout) * 1e3)
            t0 = ns()
            run_child([sys.executable, "-m", "fracfreq", "--tf", text], err)
            spans.append((f"cli{k}", "cli.subprocess", t0, ns()))
    cli = importlib.import_module("fracfreq.cli")
    stdout = sys.stdout
    for k in range(CLI_PROBES + 1):
        sys.stdout = io.TextIOWrapper(io.BytesIO())
        try:
            t0 = ns()
            cli.main(["--tf", text])
            t1 = ns()
        finally:
            sys.stdout = stdout
        if k:  # the first call warms up
            spans.append((f"cli{k}", "cli.main", t0, t1))
            mains.append((t1 - t0) / 1e6)
    subprocess_ms = [(t1 - t0) / 1e6 for _, n, t0, t1 in spans if n == "cli.subprocess"]
    interp_ms, import_ms = statistics.median(interp), statistics.median(imports)
    return {
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (statistics.median(mains), "ms"),
        "cli.startup_share": ((interp_ms + import_ms) / statistics.median(subprocess_ms), "share"),
    }


def per_layer(workload: str, seed: int, seconds: float, workdir: Path):
    """Half the run untraced, half with spans, then the layer and CLI probes."""
    runner, _ = setup(workload, seed, workdir)
    plain = run_loop(runner, workloads.cases(workload, seed), seconds / 2, Loop())
    spans: list = []
    traced = run_loop(runner, workloads.cases(workload, seed), seconds / 2, Loop(), spans)
    op_name = "cli.subprocess" if workload == "cli" else "op"
    op_ns = _total(spans, op_name)
    texts = [c.text for c, _ in zip(workloads.cases(workload, seed), range(traced.attempted))]
    parse_spans = [(op_id, t1 - t0) for op_id, n, t0, t1 in spans if n == "tf.parse_tf"]
    parses = sorted(d for _, d in parse_spans)
    chars = sum(len(texts[op_id]) for op_id, _ in parse_spans)
    metrics = {
        "tf.parse_us": (statistics.median(parses) / 1e3, "us"),
        "tf.parse_ns_per_char": (sum(parses) / chars, "ns"),
        "op.parse_share": (_total(spans, "tf.parse_tf") / op_ns, "share"),
        "op.sweep_share": (_total(spans, "response.sweep") / op_ns, "share"),
        "op.emit_share": (_total(spans, "response.emit") / op_ns, "share"),
        "trace.overhead_points_per_s": (traced.points_per_s - plain.points_per_s, "1/s"),
    }
    metrics.update(layer_probe(runner.ff, workload, seed, spans))
    metrics.update(cli_probe(runner.ff, spans, workdir))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-{seed}.json"
    with open(trace_file, "w") as f:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["op", "name", "start_ns", "end_ns"],
                "spans": spans,
            },
            f,
        )
    loop = Loop(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed)
    loop.problems = plain.problems + traced.problems
    return loop, metrics, {}, f"spans={len(spans)} written to {trace_file}"


# --- driver --------------------------------------------------------------


def report(workload: str, loop: Loop, metrics: dict, shown: dict, notes: str) -> dict:
    """Print one row for the workload and return the result object."""
    cells = [
        f"{workload}: attempted={loop.attempted} failed={loop.failed} "
        f"failed_frac={loop.failed / loop.attempted:.4g} ({notes})"
    ]
    cells += [f"{name}={value:.6g} {unit}" for name, (value, unit) in {**metrics, **shown}.items()]
    print(" | ".join(cells))
    for problem in loop.problems:
        print(f"bench: failed op: {problem}", file=sys.stderr)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_package()  # fail before any work when there is nothing to measure
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, workdir)[1])
            return 0
        measure = per_layer if args.trace else end_to_end
        chosen = workloads.WORKLOADS if args.workload == "all" else [args.workload]
        results = [report(w, *measure(w, args.seed, args.seconds, workdir)) for w in chosen]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
