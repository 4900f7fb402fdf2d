"""Multi-branch roots and fractional powers of complex values.

Branch k of s**alpha is |s|**alpha * [cos(alpha*(phi + 2*k*pi)) + j*sin(...)],
phi the principal argument of s; one body, ``_powers``, computes it.
``principal_pow`` is branch 0 for any alpha >= 0, ``pow_branch`` branch k
for alpha in (0, 1], and ``nth_roots`` all n branches of s**(1/n).
``principal_pow`` doubles as the closed-form module's reference evaluator.
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
        Value.__init__(self, r, phi)


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


def _powers(s: Complex, alpha: float, branches) -> list[Complex]:
    """Branch k of s**alpha for each k in branches; branch 0's angle is alpha*phi itself."""
    if s.is_zero():
        raise ValueError("fractional power of zero is undefined")
    p = to_polar(s)
    try:
        r_alpha = p.r**alpha
    except OverflowError:
        raise ValueError(f"|s|**alpha overflows a double, got {p.r!r}**{alpha!r}") from None
    angles = [alpha * (p.phi + 2.0 * math.pi * k) if k else alpha * p.phi for k in branches]
    return [Complex(r_alpha * math.cos(a), r_alpha * math.sin(a)) for a in angles]


def nth_roots(s: Complex, n: int) -> list[Complex]:
    """All n distinct n-th roots of a nonzero s, principal branch first.

    Index k is branch k of s**(1/n), pow_branch(s, 1/n, k) exactly.
    """
    # A list holds at most sys.maxsize values.
    n = count(n, "root order must be a positive integer", 1, sys.maxsize)
    return _powers(s, 1.0 / n, range(n))


def pow_branch(s: Complex, alpha: float, k: int) -> Complex:
    """Branch k of s**alpha for alpha in (0, 1].

    Valid branch indices run from 0 to branch_count(alpha) - 1.
    """
    last = branch_count(alpha) - 1
    # A bound beyond 64 bits is named, not written out in decimal.
    bound = last if last.bit_length() < 64 else "branch_count(alpha) - 1"
    k = count(k, f"branch index must be an integer in [0, {bound}]", 0, last)
    return _powers(s, alpha, (k,))[0]


def principal_pow(s: Complex, alpha: float) -> Complex:
    """Branch 0 of s**alpha, |s|**alpha * [cos(alpha*phi) + j*sin(alpha*phi)].

    Accepts any finite alpha >= 0 (alpha = 0 gives 1 for every nonzero
    s), which is what the transfer-function evaluator needs for terms
    like s**1.2.
    """
    alpha = real(alpha, "exponent must be finite and >= 0", 0.0)
    return _powers(s, alpha, (0,))[0]
