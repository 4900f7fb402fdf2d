"""Multi-branch roots and fractional powers of complex values.

An n-th root has exactly n distinct values, at angles (phi + 2*k*pi)/n
for k = 0..n-1.  ``nth_roots`` enumerates them all, ``pow_branch``
generalizes the branch index to exponents alpha in (0, 1], and
``principal_pow`` fixes k = 0 and extends the exponent to any
nonnegative real.  ``principal_pow`` doubles as the reference
evaluator that the closed-form module is tested against.
"""

import math
import sys

from ._value import TINY, Value, count, real
from .complexmath import Complex, argument, magnitude


class PolarForm(Value):
    """Modulus/angle pair with the angle already in (-pi, pi]."""

    __slots__ = ("r", "phi")

    def __init__(self, r: float, phi: float) -> None:
        r = real(r, "modulus must be finite and >= 0", 0.0)
        phi = real(phi, "angle must lie in (-pi, pi]", math.nextafter(-math.pi, 0.0), math.pi)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)


def to_polar(s: Complex) -> PolarForm:
    """Polar decomposition of a nonzero value."""
    return PolarForm(magnitude(s), argument(s))


def branch_count(alpha: float) -> int:
    """Number of distinct branches of s**alpha for alpha in (0, 1].

    n when alpha is the double nearest 1/n for the integer n nearest
    1/alpha, so alpha = 1/n recovers exactly n branches; ceil(1/alpha)
    otherwise.  Both are exact in integers: 1/alpha = q/p.
    """
    alpha = real(alpha, "exponent must lie in (0, 1]", TINY, 1.0)
    p, q = alpha.as_integer_ratio()
    n = (2 * q + p) // (2 * p)
    return n if 1 / n == alpha else -(-q // p)


def nth_roots(s: Complex, n: int) -> list[Complex]:
    """All n distinct n-th roots of a nonzero s, principal branch first.

    Index k holds r**(1/n) * [cos((phi + 2*k*pi)/n) + j*sin(...)].
    """
    # A list holds at most sys.maxsize values.
    n = count(n, "root order must be a positive integer", 1, sys.maxsize)
    if s.is_zero():
        raise ValueError("roots of zero are undefined (argument of zero)")
    p = to_polar(s)
    root_r = p.r ** (1.0 / n)
    out = []
    for k in range(n):
        angle = (p.phi + 2.0 * math.pi * k) / n
        out.append(Complex(root_r * math.cos(angle), root_r * math.sin(angle)))
    return out


def pow_branch(s: Complex, alpha: float, k: int) -> Complex:
    """Branch k of s**alpha for alpha in (0, 1].

    Returns |s|**alpha * [cos(alpha*(phi + 2*k*pi)) + j*sin(...)] with
    phi the principal argument of s.  Valid branch indices run from 0
    to branch_count(alpha) - 1; pow_branch(s, 1/n, k) equals
    nth_roots(s, n)[k].
    """
    last = branch_count(alpha) - 1
    # A bound beyond 64 bits is named, not written out in decimal.
    bound = last if last.bit_length() < 64 else "branch_count(alpha) - 1"
    k = count(k, f"branch index must be an integer in [0, {bound}]", 0, last)
    if s.is_zero():
        raise ValueError("fractional power of zero is undefined")
    p = to_polar(s)
    r_alpha = p.r**alpha
    angle = alpha * (p.phi + 2.0 * math.pi * k)
    return Complex(r_alpha * math.cos(angle), r_alpha * math.sin(angle))


def principal_pow(s: Complex, alpha: float) -> Complex:
    """Principal-branch power |s|**alpha * [cos(alpha*phi) + j*sin(alpha*phi)].

    Accepts any finite alpha >= 0 (alpha = 0 gives 1 for every nonzero
    s), which is what the transfer-function evaluator needs for terms
    like s**1.2.  Agrees with pow_branch(s, alpha, 0) on (0, 1].
    """
    alpha = real(alpha, "exponent must be finite and >= 0", 0.0)
    if s.is_zero():
        raise ValueError("fractional power of zero is undefined")
    p = to_polar(s)
    r_alpha = p.r**alpha
    angle = alpha * p.phi
    return Complex(r_alpha * math.cos(angle), r_alpha * math.sin(angle))
