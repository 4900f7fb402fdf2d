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
0; it is legal as a numerator but rejected as a denominator.  The parser
checks each number as it reads it and builds its values from those checked
numbers unchecked; FracTerm(...), FracPoly(...), FracTF(...), from_terms,
constant, copy and pickle check every argument.
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

    __slots__ = ("coeff", "exponent")

    def __init__(self, coeff: float, exponent: float) -> None:
        coeff = real(coeff, "coefficient must be finite")
        Value.__init__(self, coeff, real(exponent, "exponent must be finite and >= 0", 0.0))


_ZERO_TERM = FracTerm(0.0, 0.0)


class FracPoly(Value):
    """Sum of terms in the normal form that from_terms builds; never empty."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[FracTerm, ...]) -> None:
        terms = tuple(terms)
        if terms != self.from_terms(terms).terms:
            raise ValueError(
                "terms must be one nonzero term per exponent, exponents strictly decreasing,"
                f" got {[(t.coeff, t.exponent) for t in terms]}"
            )
        Value.__init__(self, terms)

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
        overflow; what it builds is the normal form that __init__ checks for."""
        kept = []
        for e in sorted(merged, reverse=True):
            if c := merged[e]:
                if not math.isfinite(c):
                    raise ValueError(f"coefficient must be finite, got {c!r}")
                t = object.__new__(FracTerm)
                object.__setattr__(t, "coeff", c)
                object.__setattr__(t, "exponent", e)
                kept.append(t)
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", tuple(kept) or (_ZERO_TERM,))
        return poly

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

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: FracPoly, denominator: FracPoly) -> None:
        for name, poly in (("numerator", numerator), ("denominator", denominator)):
            if type(poly) is not FracPoly:
                raise ValueError(f"{name} must be a FracPoly, got {type(poly).__name__}")
        if denominator.is_zero():
            raise ValueError("denominator polynomial is zero")
        Value.__init__(self, numerator, denominator)

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
    tf = object.__new__(FracTF)
    object.__setattr__(tf, "numerator", numerator)
    object.__setattr__(tf, "denominator", denominator)
    return tf


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


def _poly_on(p: FracPoly, omegas: list[float]) -> list[complex]:
    """p at s = j*omega for each omega, term-major: the column of sums
    gains (c * omega**e) * j**e, Table I's magnitude times phasor, one
    term at a time.  c * omega**e comes first, so a subnormal c is scaled
    to its term's size before j**e joins it.  For |c| > 1 the term is
    (c/2 * omega**e) * (2 * j**e): exact scalings, so c/2 * omega**e
    overflows only where the term does.  An omega**e that overflows makes
    its omega's sum infinite and the column is redone one omega at a
    time, so no other omega's value changes."""
    acc = [0j] * len(omegas)
    try:
        for t in p.terms:
            e, c, jj = t.exponent, t.coeff, j_pow(t.exponent)
            if abs(c) > 1.0:
                c, jj = c * 0.5, jj + jj
            acc = [a + c * w**e * jj for a, w in zip(acc, omegas)]
    except OverflowError:
        if len(omegas) == 1:
            return [complex(math.inf)]
        return [z for w in omegas for z in _poly_on(p, [w])]
    return acc


def eval_poly(p: FracPoly, omega: float) -> Complex:
    """Value of the polynomial at s = j*omega: eval_tf of p/1, its value and EvaluationErrors."""
    if type(p) is not FracPoly:  # FracTF's own check would name the numerator
        raise ValueError(f"p must be a FracPoly, got {type(p).__name__}")
    return eval_tf(FracTF(p, _ONE), omega)


def _h_on(tf: FracTF, omegas: list[float]) -> list[tuple[complex, float]]:
    """(h, |h|) for each omega, h = N(j*omega)/D(j*omega) as a builtin complex.

    CPython's complex division is Smith's scaled method and never forms
    |D|**2.  |h| is math.hypot's, not abs(h): they differ in the last bit
    on ~0.6% of values, and hypot's are the bytes of earlier versions.
    Raises EvaluationError at the first omega, in the order given, where
    |D| is below DBL_MIN, or where an omega**e, |D| or |N/D| is not
    finite.  Each omega must already be a positive finite float: callers
    convert it.
    """
    out = []
    columns = zip(omegas, _poly_on(tf.numerator, omegas), _poly_on(tf.denominator, omegas))
    for omega, n, d in columns:
        d_mag = math.hypot(d.real, d.imag)
        if not d_mag < math.inf:  # inf or nan
            raise EvaluationError("a value overflows", omega)
        if d_mag < DBL_MIN:
            raise EvaluationError("denominator vanishes", omega)
        h = n / d
        mag = math.hypot(h.real, h.imag)
        if not mag < math.inf:
            raise EvaluationError("a value overflows", omega)
        out.append((h, mag))
    return out


def eval_tf(tf: FracTF, omega: float) -> Complex:
    """N(j*omega)/D(j*omega), by the sweep's evaluator on one point.

    Raises EvaluationError (carrying omega) when the denominator's
    magnitude is zero or subnormal, or a value overflows.
    """
    ((h, _),) = _h_on(tf, [real(omega, *OMEGA)])
    return Complex(h.real, h.imag)
