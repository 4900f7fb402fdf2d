"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `[acceptance] <name>: PASS|FAIL` line (visible
under `pytest -s`) before asserting, so a suite run doubles as a
sign-off checklist.  Randomized checks use fixed seeds.
"""

import itertools
import math
import random
import shutil
import subprocess
import sys

from fracfreq import (
    CSV_HEADER,
    CaseIIParams,
    CaseIParams,
    Complex,
    FracPoly,
    FracTF,
    FracTerm,
    FrequencyGrid,
    ParseError,
    add,
    affine_arg,
    affine_mag,
    affine_mag_omega2_cross_term,
    argument,
    jomega_pow_arg,
    jomega_pow_mag,
    magnitude,
    mul,
    nth_roots,
    parse_tf,
    pretty_print,
    principal_pow,
    sweep,
)
from helpers import child_env, diff, power_by_mul

OMEGAS = [10.0 ** (-3.0 + 6.0 * i / 49.0) for i in range(50)]
ALPHAS = [0.1, 0.25, 0.5, 0.75, 0.9]
GAINS = [0.5, 1.0, 2.0, 10.0]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_single_power_closed_form_matches_oracle():
    worst_mag = 0.0
    worst_arg = 0.0
    for omega, alpha in itertools.product(OMEGAS, ALPHAS):
        p = CaseIParams(omega, alpha)
        oracle = principal_pow(Complex(0.0, omega), alpha)
        assert jomega_pow_mag(p) == omega**alpha
        assert jomega_pow_arg(p) == alpha * math.pi / 2.0
        worst_mag = max(worst_mag, abs(jomega_pow_mag(p) - magnitude(oracle)) / magnitude(oracle))
        worst_arg = max(worst_arg, abs(jomega_pow_arg(p) - argument(oracle)))
    ok = worst_mag <= 1e-12 and worst_arg <= 1e-12
    _report(
        "single-power closed form",
        ok,
        f"250 pairs, max rel mag dev {worst_mag:.2e}, max abs arg dev {worst_arg:.2e}",
    )


def test_affine_closed_form_matches_oracle():
    worst_mag = 0.0
    worst_arg = 0.0
    count = 0
    for a, b, omega, alpha in itertools.product(GAINS, GAINS, OMEGAS, ALPHAS):
        p = CaseIIParams(a, b, omega, alpha)
        oracle = add(mul(Complex(a), principal_pow(Complex(0.0, omega), alpha)), Complex(b))
        worst_mag = max(worst_mag, abs(affine_mag(p) - magnitude(oracle)) / magnitude(oracle))
        worst_arg = max(worst_arg, abs(affine_arg(p) - argument(oracle)))
        count += 1
    ok = worst_mag <= 1e-12 and worst_arg <= 1e-12
    _report(
        "affine closed form",
        ok,
        f"{count} combos, max rel mag dev {worst_mag:.2e}, max abs arg dev {worst_arg:.2e}",
    )


def test_cross_term_variant_disagrees_with_oracle():
    p = CaseIIParams(1.0, 1.0, 10.0, 0.5)
    oracle = magnitude(add(principal_pow(Complex(0.0, 10.0), 0.5), Complex(1.0)))
    implemented = affine_mag(p)
    variant = affine_mag_omega2_cross_term(p)
    deviation = abs(variant - oracle) / oracle
    ok = (
        math.isclose(oracle, 3.93, abs_tol=0.005)
        and math.isclose(variant, 12.35, abs_tol=0.005)
        and math.isclose(implemented, oracle, rel_tol=1e-12, abs_tol=0.0)
        and deviation > 1.0
    )
    _report(
        "squared-frequency cross-term witness",
        ok,
        f"oracle {oracle:.10f}, implemented {implemented:.10f}, "
        f"variant {variant:.10f}, rel deviation {deviation:.3f}",
    )


def test_nth_roots_round_trip():
    rng = random.Random(20260817)
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 7
        r = 10.0 ** rng.uniform(-3.0, 3.0)
        phi = rng.uniform(-math.pi, math.pi)
        s = Complex(r * math.cos(phi), r * math.sin(phi))
        roots = nth_roots(s, n)
        assert len(roots) == n
        separation = 1e-9 * r ** (1.0 / n)
        for u, v in itertools.combinations(roots, 2):
            assert magnitude(diff(u, v)) > separation
        for root in roots:
            worst = max(worst, magnitude(diff(power_by_mul(root, n), s)) / r)
    ok = worst <= 1e-10
    _report(
        "nth-roots round trip",
        ok,
        f"1000 samples, n in 2..8, exact root counts, max rel recombination dev {worst:.2e}",
    )


def test_fractional_capacitor_sweep():
    pts = sweep(parse_tf("10000/s^0.5"), FrequencyGrid(1.0, 100.0, 20))
    slopes = [pts[i + 20].mag_db - pts[i].mag_db for i in (0, 20)]
    worst_slope = max(abs(s + 10.0) for s in slopes)
    worst_phase = max(abs(p.phase_deg + 45.0) for p in pts)
    ok = worst_slope <= 1e-9 and worst_phase <= 1e-9
    _report(
        "fractional-capacitor sweep",
        ok,
        f"decade slope dev {worst_slope:.2e} dB, phase dev {worst_phase:.2e} deg",
    )


def _random_poly(rng: random.Random) -> FracPoly:
    while True:
        terms = []
        for _ in range(rng.randint(1, 6)):
            coeff = rng.uniform(-1e4, 1e4)
            if coeff == 0.0:
                continue
            exponent = float(rng.randint(0, 3)) if rng.random() < 0.3 else rng.uniform(0.0, 3.0)
            terms.append(FracTerm(coeff, exponent))
        poly = FracPoly.from_terms(terms)
        if not poly.is_zero():
            return poly


MALFORMED = [
    "",
    "   ",
    "s^",
    "3*",
    "2**s",
    "(s+1",
    "s)",
    "()",
    "q",
    "1$2",
    "1//s",
    "1/0",
    "1/(s-s)",
]


def test_expression_round_trip_and_rejection():
    rng = random.Random(987654321)
    for _ in range(1000):
        tf = FracTF(_random_poly(rng), _random_poly(rng))
        assert parse_tf(pretty_print(tf)) == tf
    rejected = 0
    for text in MALFORMED:
        try:
            parse_tf(text)
        except ParseError as exc:
            assert isinstance(exc.position, int) and exc.position >= 0
            assert "offset" in str(exc)
            rejected += 1
    ok = rejected == len(MALFORMED)
    _report(
        "expression round trip",
        ok,
        f"1000 round trips exact, {rejected}/{len(MALFORMED)} malformed inputs rejected with offsets",
    )


def test_cli_end_to_end():
    script = shutil.which("fracfreq")
    cmd = [script] if script else [sys.executable, "-m", "fracfreq"]
    runs = [
        subprocess.run(cmd + ["--tf", "s^0.5"], capture_output=True, timeout=120, env=child_env())
        for _ in range(2)
    ]
    lines = runs[0].stdout.decode().splitlines()
    ok = (
        all(r.returncode == 0 for r in runs)
        and runs[0].stdout == runs[1].stdout
        and lines[0] == CSV_HEADER
        and len(lines) == 1 + 81
    )
    _report(
        "cli end to end",
        ok,
        f"exit codes {[r.returncode for r in runs]}, {len(lines) - 1} rows, "
        f"byte-identical: {runs[0].stdout == runs[1].stdout}",
    )
