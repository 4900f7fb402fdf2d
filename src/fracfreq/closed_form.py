"""Closed-form frequency-domain values of (j*w)**a and a*(j*w)**a + b.

Two parameter regimes, both on the positive imaginary axis with a
strictly fractional exponent:

* single power   (j*w)**a           -> w**a * [cos(a*pi/2) + j*sin(a*pi/2)]
* affine power   a*(j*w)**a + b     -> (b + a*w**a*cos(a*pi/2)) + j*a*w**a*sin(a*pi/2)

Each function is a direct trigonometric formula.  jomega_pow_mag and
jomega_pow_arg are omega**alpha and alpha*pi/2 themselves; the others
take the unit value j**e = exp(j*e*pi/2) from ``complexmath.j_pow``,
which the transfer-function evaluator shares, so that loads without this
module.  The test suite keeps them honest against roots.principal_pow,
which computes the same quantities from the polar decomposition.
"""

import math

from ._value import OMEGA, TINY, Value, real
from .complexmath import Complex, j_pow

# alpha's rule and the closed bounds of the open interval 0 < alpha < 1.
_ALPHA = ("alpha must lie strictly in (0, 1)", TINY, math.nextafter(1.0, 0.0))


class CaseIParams(Value):
    """Single fractional power of j*omega: omega > 0, 0 < alpha < 1."""

    __slots__ = ()
    omega: float
    alpha: float

    def __new__(cls, omega: float, alpha: float):
        return tuple.__new__(cls, (real(omega, *OMEGA), real(alpha, *_ALPHA)))


class CaseIIParams(Value):
    """Affine fractional power a*(j*omega)**alpha + b with a, b > 0."""

    __slots__ = ()
    a: float
    b: float
    omega: float
    alpha: float

    def __new__(cls, a: float, b: float, omega: float, alpha: float):
        a = real(a, "gain a must be finite and > 0", TINY)
        b = real(b, "offset b must be finite and > 0", TINY)
        return tuple.__new__(cls, (a, b, real(omega, *OMEGA), real(alpha, *_ALPHA)))


def jomega_pow(p: CaseIParams) -> Complex:
    """(j*omega)**alpha as w**a * [cos(a*pi/2) + j*sin(a*pi/2)]."""
    z = p.omega**p.alpha * j_pow(p.alpha)
    return Complex(z.real, z.imag)


def jomega_pow_mag(p: CaseIParams) -> float:
    """|(j*omega)**alpha| = omega**alpha."""
    return p.omega**p.alpha


def jomega_pow_arg(p: CaseIParams) -> float:
    """arg (j*omega)**alpha = alpha*pi/2, independent of omega."""
    return p.alpha * math.pi / 2.0


def affine_jomega(p: CaseIIParams) -> Complex:
    """a*(j*omega)**alpha + b with real and imaginary parts clustered."""
    z = p.b + p.a * p.omega**p.alpha * j_pow(p.alpha)
    return Complex(z.real, z.imag)


def affine_mag(p: CaseIIParams) -> float:
    """|a*(j*omega)**alpha + b| = sqrt(b**2 + a**2*w**(2a) + 2*a*b*w**a*cos(a*pi/2)).

    The cross term carries omega**alpha: it is the 2*Re*Im-free expansion
    of affine_jomega's components, and only that exponent agrees with
    direct complex evaluation for omega != 1 (see
    affine_mag_omega2_cross_term for the wrong-exponent variant).
    b and t = a*w**a are first divided by a power of two near max(b, t),
    which is exact, so no square over- or underflows.  ValueError, as from
    affine_jomega, when t or the magnitude is beyond a double.
    """
    t = p.a * p.omega**p.alpha
    if t == math.inf:
        raise ValueError(f"a*omega**alpha must be finite, got {t!r}")
    k = math.frexp(max(p.b, t))[1]
    b, t = math.ldexp(p.b, -k), math.ldexp(t, -k)
    try:
        return math.ldexp(math.sqrt(b * b + t * t + 2.0 * b * t * j_pow(p.alpha).real), k)
    except OverflowError:
        raise ValueError("affine magnitude must be finite, got inf") from None


def affine_arg(p: CaseIIParams) -> float:
    """arg (a*(j*omega)**alpha + b), always in (0, pi/2) since a, b > 0."""
    z = affine_jomega(p)
    return math.atan(z.im / z.re)


def affine_mag_omega2_cross_term(p: CaseIIParams) -> float:
    """Known-inconsistent magnitude variant; regression witness only.

    Uses omega**2 in the cross term where the expansion of
    affine_jomega yields omega**alpha.  The two coincide at omega = 1;
    everywhere else this variant disagrees with direct complex
    evaluation, and the tests demonstrate that.  Do not use it for
    anything but that demonstration.
    """
    w_alpha = p.omega**p.alpha
    return math.sqrt(
        p.b * p.b
        + p.a * p.a * w_alpha * w_alpha
        + 2.0 * p.a * p.b * p.omega * p.omega * j_pow(p.alpha).real
    )
