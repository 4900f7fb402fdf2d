"""Parse, print, and evaluate fractional-order transfer functions.

A transfer function is a ratio N(s)/D(s) of polynomials whose terms are
c * s**e with real coefficients and nonnegative real exponents.  The
expression grammar (whitespace between lexemes ignored, 0-based error offsets)::

    tf      :=  poly [ "/" poly ]
    poly    :=  "(" poly ")"  |  [ "+" | "-" ] term { ("+"|"-") term }
    term    :=  factor { "*" factor }
    factor  :=  number  |  "s" [ "^" number ]
    number  :=  unsigned decimal literal, optional e/E exponent suffix

A bare polynomial P is read as P/1.  "/" binds last and may appear only
once, at the top level.  Polynomials are normalized at parse time:
terms sharing an exponent are merged, zero-coefficient terms dropped,
and the remainder sorted by strictly decreasing exponent, so two
structurally equal transfer functions compare equal with ``==``.  The
polynomial that cancels to nothing is kept as the single constant term
0; it is legal as a numerator but rejected as a denominator.  Each value is
a record, the tuple of its fields (_value.Value).  The parser checks each
number as it reads it and builds each record of checked numbers by one
unchecked tuple.__new__; FracTerm(...), FracPoly(...), FracTF(...),
from_terms, constant, copy and pickle check every argument.
"""

import math
import re

from ._value import DBL_MIN, OMEGA, Value, real
from .complexmath import Complex, j_pow


class ParseError(ValueError):
    """Malformed transfer-function text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvaluationError(ValueError):
    """No finite transfer-function value at ``omega`` (vanishing denominator or overflow)."""

    def __init__(self, message: str, omega: float):
        super().__init__(f"{message} at omega={omega!r}")
        self.omega = omega


class FracTerm(Value):
    """One term c * s**e: real coefficient, nonnegative real exponent."""

    __slots__ = ()
    coeff: float
    exponent: float

    def __new__(cls, coeff: float, exponent: float):
        coeff = real(coeff, "coefficient must be finite")
        return tuple.__new__(cls, (coeff, real(exponent, "exponent must be finite and >= 0", 0.0)))


_ZERO_TERM = FracTerm(0.0, 0.0)


class FracPoly(Value):
    """Sum of terms in the normal form that from_terms builds; never empty."""

    __slots__ = ()
    terms: tuple[FracTerm, ...]

    def __new__(cls, terms: tuple[FracTerm, ...]):
        terms = tuple(terms)
        if terms != cls.from_terms(terms).terms:
            raise ValueError(
                "terms must be one nonzero term per exponent, exponents strictly decreasing,"
                f" got {[(t.coeff, t.exponent) for t in terms]}"
            )
        return tuple.__new__(cls, (terms,))

    @classmethod
    def from_terms(cls, terms) -> "FracPoly":
        """Merge duplicate exponents, drop zero coefficients, sort descending."""
        merged: dict[float, float] = {}
        for t in terms:
            if type(t) is not FracTerm:
                raise ValueError(f"terms must be FracTerm, got {type(t).__name__}")
            merged[t.exponent] = merged.get(t.exponent, 0.0) + t.coeff
        return cls._of_merged(merged)

    @classmethod
    def _of_merged(cls, merged: dict[float, float]) -> "FracPoly":
        """from_terms's drop/sort tail on exponent -> sum; ValueError on a sum beyond a double.

        Built unchecked: the sums are of checked terms, so only a sum can
        overflow; what it builds is the normal form that __new__ checks for."""
        kept = []
        for e in sorted(merged, reverse=True):
            if c := merged[e]:
                if not math.isfinite(c):
                    raise ValueError(f"coefficient must be finite, got {c!r}")
                kept.append(tuple.__new__(FracTerm, (c, e)))
        return tuple.__new__(cls, (tuple(kept) or (_ZERO_TERM,),))

    @classmethod
    def constant(cls, value: float) -> "FracPoly":
        return cls.from_terms([FracTerm(value, 0.0)])

    def is_zero(self) -> bool:
        """Exact in O(1): a zero coefficient appears only in (_ZERO_TERM,)."""
        return self.terms[0].coeff == 0.0

    def is_one(self) -> bool:
        return self == _ONE

    def __str__(self) -> str:
        return format_poly(self)


_ONE = FracPoly.constant(1.0)


class FracTF(Value):
    """Numerator/denominator pair; the denominator is never the zero polynomial."""

    __slots__ = ()
    numerator: FracPoly
    denominator: FracPoly

    def __new__(cls, numerator: FracPoly, denominator: FracPoly):
        for name, poly in (("numerator", numerator), ("denominator", denominator)):
            if type(poly) is not FracPoly:
                raise ValueError(f"{name} must be a FracPoly, got {type(poly).__name__}")
        if denominator.is_zero():
            raise ValueError("denominator polynomial is zero")
        return tuple.__new__(cls, (numerator, denominator))

    def __str__(self) -> str:
        return pretty_print(self)


# --- lexer and parser ----------------------------------------------------

# split() on the one-group pattern puts the lexemes at odd indices, the text
# between them (blank when valid) at even ones, and parse_tf appends "" as the
# end of input.  parts[i]'s offset, len of parts[:i], is counted only on error.
_TOKEN_RE = re.compile(r"((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[-+*/^()s])")
# The lexemes that are not numbers, and "", the end of input.
_NOT_NUMBER = frozenset(("", "(", ")", "*", "+", "-", "/", "^", "s"))


def _error(message: str, parts: list[str], i: int) -> ParseError:
    return ParseError(message, len("".join(parts[:i])))


def _unexpected(what: str, parts: list[str], i: int) -> ParseError:
    found = f"'{parts[i]}'" if parts[i] else "end of input"
    return _error(f"expected {what}, found {found}", parts, i)


def _poly(parts: list[str], i: int) -> tuple[FracPoly, int]:
    """Read the polynomial at parts[i]; return it and the index after it.

    Parentheses only wrap a whole polynomial, so the leading "(" are
    counted and as many ")" consumed after the terms, without recursion.
    """
    opening = i
    while parts[i] == "(":
        i += 2
    start = i
    merged: dict[float, float] = {}
    # The first term's sign is optional, every later term needs one.
    while i == start or parts[i] in ("+", "-"):
        coeff, exponent = (-1.0 if parts[i] == "-" else 1.0), 0.0
        if parts[i] in ("+", "-"):
            i += 2
        term_start = i
        while True:
            text = parts[i]
            if text not in _NOT_NUMBER:
                coeff *= float(text)
            elif text != "s":
                raise _unexpected("number or 's'", parts, i)
            elif parts[i + 2] != "^":
                exponent += 1.0
            elif parts[i + 4] in _NOT_NUMBER:
                raise _unexpected("number after '^'", parts, i + 4)
            else:
                i += 4
                exponent += float(parts[i])
            i += 2
            if parts[i] != "*":
                break
            i += 2
        if not (math.isfinite(coeff) and math.isfinite(exponent)):
            raise _error("coefficient or exponent is not a finite double", parts, term_start)
        merged[exponent] = merged.get(exponent, 0.0) + coeff
    try:
        poly = FracPoly._of_merged(merged)
    except ValueError:  # merged coefficients overflowed
        raise _error("merged coefficient is not a finite double", parts, start) from None
    for _ in range(opening, start, 2):
        if parts[i] != ")":
            raise _unexpected("')'", parts, i)
        i += 2
    return poly, i


def parse_tf(text: str) -> FracTF:
    """Parse a transfer-function expression; a bare polynomial P becomes P/1.

    Raises ParseError (with a character offset) for malformed input, for
    a coefficient or exponent that is not a finite double, and for a
    denominator polynomial that normalizes to zero.
    """
    parts = _TOKEN_RE.split(text)
    if "".join(parts[::2]).strip():  # a character outside the grammar
        k = next(k for k in range(0, len(parts), 2) if parts[k].strip())
        position = len("".join(parts[:k])) + len(parts[k]) - len(parts[k].lstrip())
        raise ParseError(f"unexpected character {text[position]!r}", position)
    parts.append("")
    if not parts[1]:
        raise ParseError("empty input", 0)
    numerator, i = _poly(parts, 1)
    denominator = _ONE
    if parts[i]:
        if parts[i] != "/":
            raise _unexpected("'/' or end of input", parts, i)
        denominator, end = _poly(parts, i + 2)
        if denominator.is_zero():
            raise _error("denominator polynomial is zero", parts, i + 2)
        if parts[end]:
            raise _unexpected("end of input", parts, end)
    # Both sides are _poly's polynomials and the denominator is not zero.
    return tuple.__new__(FracTF, (numerator, denominator))


# --- printer -------------------------------------------------------------


def _format_number(x: float) -> str:
    return repr(x).removesuffix(".0")


def _format_term(t: FracTerm) -> str:
    size = abs(t.coeff)
    if t.exponent == 0.0:
        return _format_number(size)
    spart = f"s^{_format_number(t.exponent)}"
    return spart if size == 1.0 else f"{_format_number(size)}*{spart}"


def format_poly(p: FracPoly) -> str:
    first = p.terms[0]
    pieces = [("-" if first.coeff < 0 else "") + _format_term(first)]
    for t in p.terms[1:]:
        pieces.append(("-" if t.coeff < 0 else "+") + _format_term(t))
    return "".join(pieces)


def pretty_print(tf: FracTF) -> str:
    """Canonical expression string; parse_tf(pretty_print(t)) == t exactly."""
    numerator = format_poly(tf.numerator)
    if tf.denominator.is_one():
        return numerator
    return f"({numerator})/({format_poly(tf.denominator)})"


# --- evaluator -----------------------------------------------------------

_SQRT_DBL_MIN = 2.0**-511


def _poly_on(p: FracPoly, omegas: list[float], columns: dict) -> list[complex]:
    """p at s = j*omega for each omega, term-major: the column of sums
    gains x * (c * j**e), Table I's magnitude times the coefficient's
    rotated copy, term by term in order.  x = omega**e is read from columns[e],
    the store of omega**e columns over omegas, or computed and stored there;
    either way it is the same double.  Each part of c * j**e is at most |c|,
    so x * (c * j**e) overflows only where a part of the exact term does.  For |c| at
    least sqrt(DBL_MIN) = 2**-511 a nonzero part of c * j**e is a normal
    double unless e < 2**-511, and then x is exactly 1.0: the term's one
    rounding into the subnormal range is its last.  A smaller c * j**e can
    be subnormal, and x would round it a second time, so such a term is
    c * (x * j**e).  Two adjacent terms of the larger kind share one pass,
    a + x * cj + y * cj2, which Python evaluates as (a + x * cj) + y * cj2:
    the sums of two passes, bit for bit.  A smaller term, and a last odd
    term, take a pass of their own.  An omega**e that overflows stores no column,
    makes its omega's sum infinite and the column of sums is redone one
    omega at a time, so no other omega's value changes."""
    acc, terms, k = [0j] * len(omegas), p.terms, 0
    try:
        while k < len(terms):
            c, e = terms[k]
            xs = columns.get(e)
            if xs is None:
                xs = columns[e] = [w**e for w in omegas]
            k += 1
            if abs(c) < _SQRT_DBL_MIN:
                jj = j_pow(e)
                acc = [a + c * (x * jj) for a, x in zip(acc, xs)]
                continue
            cj = c * j_pow(e)
            if k == len(terms) or abs(terms[k].coeff) < _SQRT_DBL_MIN:
                acc = [a + x * cj for a, x in zip(acc, xs)]
                continue
            c, e = terms[k]
            ys = columns.get(e)
            if ys is None:
                ys = columns[e] = [w**e for w in omegas]
            k += 1
            cj2 = c * j_pow(e)
            acc = [a + x * cj + y * cj2 for a, x, y in zip(acc, xs, ys)]
    except OverflowError:
        if len(omegas) == 1:
            return [complex(math.inf)]
        return [z for w in omegas for z in _poly_on(p, [w], {})]
    return acc


def eval_poly(p: FracPoly, omega: float) -> Complex:
    """Value of the polynomial at s = j*omega: eval_tf of p/1, its value and EvaluationErrors."""
    if type(p) is not FracPoly:  # the only check: the pair is built unchecked
        raise ValueError(f"p must be a FracPoly, got {type(p).__name__}")
    return eval_tf(tuple.__new__(FracTF, (p, _ONE)), omega)


def _sums(tf: FracTF, omegas: list[float], columns: dict) -> tuple[list[complex], list[complex]]:
    """N(j*omega) and D(j*omega) for each omega, one store of omega**e columns
    over omegas read and filled by both (_poly_on).  ValueError when tf is not
    a FracTF.  Each omega must already be a positive finite float: callers
    convert it."""
    if type(tf) is not FracTF:
        raise ValueError(f"tf must be a FracTF, got {type(tf).__name__}")
    numerator, denominator = tf
    return _poly_on(numerator, omegas, columns), _poly_on(denominator, omegas, columns)


def _records(omegas: list[float], ns: list[complex], ds: list[complex], record: type) -> list:
    """tuple.__new__(record, (omega, |h|, its dB or -inf, principal phase in rad
    and deg)) for each omega and its sums n and d, h = n/d.

    CPython's complex division is Smith's scaled method and never forms
    |D|**2.  |h| is math.hypot's, not abs(h): they differ in the last bit
    on ~0.6% of values, and hypot's are the bytes of earlier versions.
    Raises EvaluationError at the first omega, in the order given, where
    |D| is below DBL_MIN, or where an omega**e, |D| or |N/D| is not finite.
    """
    out = []
    # Bound once, not looked up at every point.
    append, new, hypot, atan2, log10, degrees = (
        out.append, tuple.__new__, math.hypot, math.atan2, math.log10, math.degrees
    )
    inf, pi = math.inf, math.pi
    for omega, n, d in zip(omegas, ns, ds):
        d_mag = hypot(d.real, d.imag)
        if not d_mag < inf:  # inf or nan
            raise EvaluationError("a value overflows", omega)
        if d_mag < DBL_MIN:
            raise EvaluationError("denominator vanishes", omega)
        h = n / d
        h_re, h_im = h.real, h.imag
        mag = hypot(h_re, h_im)
        if not mag < inf:
            raise EvaluationError("a value overflows", omega)
        if mag == 0.0:
            append(new(record, (omega, mag, -inf, 0.0, 0.0)))
            continue
        # complexmath.argument's fold of -pi to pi, inline: no Python call per point.
        phase = atan2(h_im, h_re)
        # + 0.0 turns a -0.0 (an imaginary part of -0.0) into +0.0, and no other bit.
        phase = (pi if phase == -pi else phase) + 0.0
        append(new(record, (omega, mag, 20.0 * log10(mag), phase, degrees(phase))))
    return out


def rows(
    tf: FracTF, omegas: list[float], columns: dict | None = None, record: type = tuple
) -> list:
    """_records over _sums, with a new store of omega**e columns when columns is
    None; record is tuple, or the ResponsePoint that sweep and response_at ask for."""
    return _records(omegas, *_sums(tf, omegas, {} if columns is None else columns), record)


def eval_tf(tf: FracTF, omega: float) -> Complex:
    """N(j*omega)/D(j*omega), by the sweep's evaluator on one point.

    Raises EvaluationError (carrying omega) when the denominator's
    magnitude is zero or subnormal, or a value overflows.
    """
    omegas = [real(omega, *OMEGA)]
    ns, ds = _sums(tf, omegas, {})
    _records(omegas, ns, ds, tuple)
    h = ns[0] / ds[0]
    # _records refused a non-finite |h|, so both parts are finite.
    return tuple.__new__(Complex, (h.real, h.imag))
