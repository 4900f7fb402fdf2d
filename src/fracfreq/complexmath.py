"""Strict complex arithmetic on explicit real/imaginary pairs.

The built-in ``complex`` type happily carries infinities and NaNs and
returns -pi for arguments on the lower edge of the branch cut.  This
module pins down the semantics the rest of the library depends on:
every value is finite by construction, and the principal argument lies
in the half-open interval (-pi, pi].  It also holds ``j_pow``, for the
evaluator and the closed forms: j**e as a builtin ``complex``, reduced to
the nearest quarter turn and kept per process for the 256 most recently used e.
"""

import functools
import math

from ._value import Value, real


class Complex(Value):
    """A complex value as an explicit (re, im) pair; both parts finite."""

    __slots__ = ()
    re: float
    im: float

    def __new__(cls, re: float, im: float = 0.0):
        re = real(re, "real part must be finite")
        return tuple.__new__(cls, (re, real(im, "imaginary part must be finite")))

    def is_zero(self) -> bool:
        return self.re == 0.0 and self.im == 0.0


def add(a: Complex, b: Complex) -> Complex:
    """Componentwise sum; overflow to non-finite parts is rejected."""
    return Complex(a.re + b.re, a.im + b.im)


def mul(a: Complex, b: Complex) -> Complex:
    """Product (re1*re2 - im1*im2) + j(re1*im2 + re2*im1)."""
    return Complex(a.re * b.re - a.im * b.im, a.re * b.im + b.re * a.im)


def div(a: Complex, b: Complex) -> Complex:
    """Quotient a/b by the builtin complex division.

    CPython divides by Smith's scaled method, which never forms
    |b|**2, so the quotient is right wherever it fits in a double.
    Raises ValueError when b is exactly zero or the quotient overflows.
    """
    if b.is_zero():
        raise ValueError("complex division by zero")
    q = complex(a.re, a.im) / complex(b.re, b.im)
    return Complex(q.real, q.imag)


def magnitude(s: Complex) -> float:
    """Length sqrt(re**2 + im**2); zero exactly when s is zero."""
    return math.hypot(s.re, s.im)


def argument(s: Complex) -> float:
    """Principal angle of s in (-pi, pi]; the positive real axis maps to 0.

    The negative real axis maps to +pi.  atan2 can return the double
    -pi both for a negative-zero imaginary part and for angles that
    round onto the cut; both are folded to +pi so the returned float
    always satisfies -pi < angle <= pi.
    """
    if s.is_zero():
        raise ValueError("argument of zero is undefined")
    phi = math.atan2(s.im, s.re)
    return math.pi if phi == -math.pi else phi


# j**k for k = 0..3, exact: cos(pi) is -1 and sin(pi) is 0, not 1.2e-16.
_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))
_J_POW_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_J_POW_CACHE_SIZE)
def j_pow(e: float) -> complex:
    """j**e = exp(j*e*pi/2) = cos(e*pi/2) + j*sin(e*pi/2), a pure function of
    e kept per process for the 256 most recently used e (_J_POW_CACHE_SIZE);
    keys that compare equal (0.0 and -0.0, 2 and 2.0) give the same bits.
    turns = fmod(e, 4), its nearest integer k and r = turns - k are exact
    (Sterbenz), so j**k * (cos(r*pi/2) + j*sin(r*pi/2)) rounds only the
    angle r*pi/2: an integer e gives the exact quarter turn, and two
    exponents exactly 2 apart give exact negatives."""
    turns = math.fmod(e, 4.0)
    k = round(turns)
    half = (turns - k) * math.pi / 2.0
    return _QUARTER_TURNS[k % 4] * complex(math.cos(half), math.sin(half))
