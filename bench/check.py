"""Output checks for the benchmark, independent of the library's arithmetic.

The reference value of a transfer function comes from the builtin
``complex`` type: each term c * (j*omega)**e is evaluated with Python's
own complex power, from the term list the generator wrote down, not from
the library's parser or evaluator.  A sum's error is bounded by its
condition number sum(|terms|)/|sum| times a few ulps, so the tolerance is
1e-12 times the combined condition of numerator and denominator.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math

CSV_HEADER = "omega,mag_linear,mag_db,phase_rad,phase_deg"
FIELDS = tuple(CSV_HEADER.split(","))
REL_TOL = 1e-12


def _intervals(wmin: float, wmax: float, ppd: int) -> int:
    return max(1, round((math.log10(wmax) - math.log10(wmin)) * ppd))


def grid_size(case) -> int:
    """Number of points on a case's grid."""
    return _intervals(case.wmin, case.wmax, case.ppd) + 1


def grid(wmin: float, wmax: float, ppd: int) -> list[float]:
    """The documented log grid: endpoints exact, round(decades*ppd) intervals."""
    lg0, lg1 = math.log10(wmin), math.log10(wmax)
    n = _intervals(wmin, wmax, ppd)
    return [wmin] + [10.0 ** (lg0 + (lg1 - lg0) * i / n) for i in range(1, n)] + [wmax]


def _sum(terms, omega: float) -> tuple[complex, float]:
    """Value of sum(c * (j*omega)**e) and its absolute-value sum."""
    s = complex(0.0, omega)
    values = [c * s**e for c, e in terms]
    return sum(values), sum(abs(v) for v in values)


def reference(num, den, omega: float) -> tuple[complex, float] | None:
    """H(j*omega) from builtin complex arithmetic, and its tolerance.

    None where the denominator vanishes or overflows: there the transfer
    function has no value that any output could match.
    """
    n, n_abs = _sum(num, omega)
    d, d_abs = _sum(den, omega)
    if d == 0 or not math.isfinite(abs(d)):
        return None
    cond = (n_abs / abs(n) if n else 1.0) + d_abs / abs(d)
    return n / d, REL_TOL * cond


def references(case, omegas) -> list:
    """The reference value and tolerance at each frequency."""
    return [reference(case.num, case.den, w) for w in omegas]


def parse_rows(data: bytes, fmt: str) -> list[tuple[float, ...]]:
    """Read emitted CSV or JSON back into rows of floats."""
    if fmt == "csv":
        lines = data.decode("ascii").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            raise ValueError("CSV header or final line feed missing")
        return [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
    rows = []
    for obj in json.loads(data):
        if tuple(obj) != FIELDS:
            raise ValueError(f"JSON keys {tuple(obj)} differ from {FIELDS}")
        rows.append(tuple(float(obj[k]) for k in FIELDS))
    return rows


def _angle_diff(x: float, y: float, period: float) -> float:
    return abs(math.remainder(x - y, period))


def check_row(row: tuple[float, ...], ref: tuple[complex, float] | None) -> list[str]:
    """Compare one emitted point with the reference at its frequency."""
    w, mag, db, phase, deg = row
    if ref is None:
        return [f"output given at omega={w!r}, where the transfer function is undefined"]
    h, tol = ref
    if h == 0:
        ok = mag == 0.0 and db == -math.inf and phase == 0.0 and deg == 0.0
        return [] if ok else [f"zero response at omega={w!r} reported as {row}"]
    ref_mag, ref_phase = abs(h), math.atan2(h.imag, h.real)
    problems = []
    if not abs(mag - ref_mag) <= tol * ref_mag:
        problems.append(f"mag_linear {mag!r} != {ref_mag!r} at omega={w!r} (tol {tol:.1e})")
    if not abs(db - 20.0 * math.log10(ref_mag)) <= 20.0 / math.log(10.0) * tol:
        problems.append(f"mag_db {db!r} off at omega={w!r}")
    if not (-math.pi < phase <= math.pi and _angle_diff(phase, ref_phase, math.tau) <= tol):
        problems.append(f"phase_rad {phase!r} != {ref_phase!r} at omega={w!r}")
    if not _angle_diff(deg, math.degrees(ref_phase), 360.0) <= math.degrees(tol):
        problems.append(f"phase_deg {deg!r} off at omega={w!r}")
    return problems


def check_output(case, points, data: bytes, refs=None) -> list[str]:
    """All checks on one successful op's output.

    ``points`` are the library's ResponsePoint records and ``data`` the
    bytes it emitted for them.  The bytes must read back to exactly the
    same doubles, and each point must match the reference; ``refs``, if
    given, are ``references`` at the points' frequencies.
    """
    try:
        rows = parse_rows(data, case.fmt)
    except ValueError as exc:
        return [f"unreadable {case.fmt} output: {exc}"]
    expected = [tuple(getattr(p, k) for k in FIELDS) for p in points]
    if rows != expected:
        return ["emitted values do not read back to the computed doubles"]
    omegas = grid(case.wmin, case.wmax, case.ppd)
    if len(rows) != len(omegas):
        return [f"{len(rows)} points emitted, grid has {len(omegas)}"]
    if refs is None:
        refs = references(case, [row[0] for row in rows])
    problems = []
    for row, omega, ref in zip(rows, omegas, refs):
        if not math.isclose(row[0], omega, rel_tol=REL_TOL):
            problems.append(f"omega {row[0]!r} is not the grid value {omega!r}")
        problems += check_row(row, ref)
        if len(problems) > 3:
            break
    return problems


def check_parse_error(case, position: int | None) -> list[str]:
    """A malformed case must fail to parse at the offset the generator chose."""
    if position is None:
        return [f"malformed expression {case.text!r} was accepted"]
    if position != case.bad_offset:
        return [f"parse error at offset {position}, expected {case.bad_offset} in {case.text!r}"]
    return []
