"""Shared tolerance helpers for the test suite.

Complex equality is always tolerance based (componentwise, absolute
1e-12 or relative 1e-12, whichever is looser), never bitwise.
"""

import math
import os
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import fracfreq
from fracfreq import Complex, FracPoly, FracTF, mul, parse_tf


def close(x: float, y: float, rel: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_tol)


def complex_close(a: Complex, b: Complex, rel: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    return close(a.re, b.re, rel, abs_tol) and close(a.im, b.im, rel, abs_tol)


def angles_close(x: float, y: float, tol: float = 1e-12) -> bool:
    """Angle equality modulo 2*pi."""
    return abs(math.remainder(x - y, math.tau)) <= tol


def as_builtin(c: Complex) -> complex:
    return complex(c.re, c.im)


def power_by_mul(c: Complex, n: int) -> Complex:
    """c**n by n-1 repeated multiplications."""
    acc = c
    for _ in range(n - 1):
        acc = mul(acc, c)
    return acc


def diff(a: Complex, b: Complex) -> Complex:
    return Complex(a.re - b.re, a.im - b.im)


def child_env() -> dict[str, str]:
    """Environment under which `python -m fracfreq` imports the package under test.

    pytest's `pythonpath` setting reaches only the test process, so a
    checkout without an install must hand the source root to children.
    """
    src = str(Path(fracfreq.__file__).resolve().parent.parent)
    parts = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(parts)}


# The exact reference: 60 significant digits, so its own rounding (~1e-58
# relative) never shows next to a double's unit roundoff 2**-53 ~ 1.1e-16.
REFERENCE = Context(prec=60)


def _decimal_pi() -> Decimal:
    """pi to the context's precision (the recipe in the ``decimal`` docs)."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return s


def _decimal_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos(x) and sin(x) by their Taylor series (the ``decimal`` docs' two recipes, in one loop)."""
    cos, sin, term, i = Decimal(0), Decimal(0), Decimal(1), 0
    while True:
        last = (cos, sin)
        cos += term
        term = term * x / (i + 1)
        sin += term
        term = -term * x / (i + 2)
        i += 2
        if (cos, sin) == last:
            return cos, sin


def decimal_poly(p: FracPoly, omega: float) -> tuple[Decimal, Decimal, Decimal]:
    """p at s = j*omega from the exact doubles of omega and p's terms.

    Returns (re, im, sum of |c * omega**e|) in the REFERENCE context:
    omega**e by ``Decimal.__pow__``, and j**e as cos + j*sin of the
    angle (e mod 4) * pi/2, with e mod 4 taken in decimal.
    """
    with localcontext(REFERENCE):
        half_pi = _decimal_pi() / 2
        w = Decimal(omega)
        re = im = total = Decimal(0)
        for t in p.terms:
            size = Decimal(t.coeff) * w ** Decimal(t.exponent)
            cos, sin = _decimal_cos_sin(Decimal(t.exponent) % 4 * half_pi)
            re += size * cos
            im += size * sin
            total += abs(size)
    return re, im, total


def fraction_poly(p: FracPoly, omega: float) -> tuple[Fraction, Fraction]:
    """p at s = j*omega, exactly, for integer exponents: (re, im) by Fraction
    from the exact doubles of omega and p's terms, j**e being 1, j, -1 or -j."""
    w, re, im = Fraction(omega), Fraction(0), Fraction(0)
    for t in p.terms:
        size = Fraction(t.coeff) * w ** int(t.exponent)
        quarter = int(t.exponent) % 4
        if quarter % 2:
            im += size if quarter == 1 else -size
        else:
            re += size if quarter == 0 else -size
    return re, im


def _nearest_root(c: float, d: int) -> float:
    """The double nearest c**(1/d), for c > 0: the one on the side of the midpoint
    between the two doubles around the root that the root is on (exact, by Fraction)."""
    x = c ** (1 / d)
    while Fraction(x) ** d > c:
        x = math.nextafter(x, 0.0)
    while Fraction(math.nextafter(x, math.inf)) ** d <= c:
        x = math.nextafter(x, math.inf)
    above = math.nextafter(x, math.inf)
    return above if ((Fraction(x) + Fraction(above)) / 2) ** d < c else x


def hard_points(seed: int, per_family: int) -> list[tuple[str, FracTF, float, bool]]:
    """(family, 1/D, omega, whether D(j*omega) is exactly 0) at the double
    nearest a zero of D on the j*omega-axis and at both its neighbours, for
    per_family seeded denominators of each family:

    - "s^2+b": zero at sqrt(b);
    - "s^k+-c*s^m": k - m = 2 or 4, the sign -(-1)**((k-m)/2) that makes
      D = (j*omega)**m * (c - omega**(k-m)) up to sign, zero at c**(1/(k-m));
    - "s^(a+2)+c*s^a": a in [0.05, 3] at step 0.01, zero at sqrt(c).

    b and c are log-uniform in [1e-3, 1e3] to 4 significant digits.  D is
    exactly 0 where omega**(k-m) equals c exactly.
    """
    rng = random.Random(seed)
    points = []
    for family in ("s^2+b", "s^k+-c*s^m", "s^(a+2)+c*s^a"):
        for _ in range(per_family):
            c = float(f"{10 ** rng.uniform(-3, 3):.4g}")
            if family == "s^2+b":
                text, d = f"1/(s^2+{c!r})", 2
            elif family == "s^k+-c*s^m":
                m, d = rng.randint(1, 4), rng.choice((2, 4))
                text = f"1/(s^{m + d}{'+' if d == 2 else '-'}{c!r}*s^{m})"
            else:
                e = rng.randint(205, 500) / 100  # a + 2, and a = e - 2 exactly
                text, d = f"1/(s^{e!r}+{c!r}*s^{e - 2!r})", 2
            zero = _nearest_root(c, d)
            for omega in (math.nextafter(zero, 0.0), zero, math.nextafter(zero, math.inf)):
                points.append((family, parse_tf(text), omega, Fraction(omega) ** d == c))
    return points
