"""Shared tolerance helpers for the test suite.

Complex equality is always tolerance based (componentwise, absolute
1e-12 or relative 1e-12, whichever is looser), never bitwise.
"""

import math
import os
from decimal import Context, Decimal, localcontext
from pathlib import Path

import fracfreq
from fracfreq import Complex, FracPoly, mul


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
