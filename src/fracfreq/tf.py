"""Parse, print, and evaluate fractional-order transfer functions.

A transfer function is a ratio N(s)/D(s) of polynomials whose terms are
c * s**e with real coefficients and nonnegative real exponents.  The
expression grammar (whitespace-insensitive, 0-based error offsets)::

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
0; it is legal as a numerator but rejected as a denominator.
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
        exponent = real(exponent, "exponent must be finite and >= 0", 0.0)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exponent", exponent)


_ZERO_TERM = FracTerm(0.0, 0.0)


class FracPoly(Value):
    """Normalized sum of terms, exponents strictly decreasing, never empty."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[FracTerm, ...]) -> None:
        terms = tuple(terms)
        if not terms:
            raise ValueError("a polynomial needs at least one term")
        for prev, cur in zip(terms, terms[1:]):
            if not prev.exponent > cur.exponent:
                raise ValueError(
                    "term exponents must be strictly decreasing, got "
                    f"{prev.exponent!r} before {cur.exponent!r}"
                )
        if any(t.coeff == 0.0 for t in terms) and terms != (_ZERO_TERM,):
            raise ValueError("zero-coefficient terms must be dropped at normalization")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_terms(cls, terms) -> "FracPoly":
        """Merge duplicate exponents, drop zero coefficients, sort descending."""
        merged: dict[float, float] = {}
        for t in terms:
            merged[t.exponent] = merged.get(t.exponent, 0.0) + t.coeff
        kept = [FracTerm(c, e) for e, c in merged.items() if c != 0.0]
        if not kept:
            return cls((_ZERO_TERM,))
        kept.sort(key=lambda t: t.exponent, reverse=True)
        return cls(tuple(kept))

    @classmethod
    def constant(cls, value: float) -> "FracPoly":
        return cls.from_terms([FracTerm(value, 0.0)])

    def is_zero(self) -> bool:
        return self.terms == (_ZERO_TERM,)

    def is_one(self) -> bool:
        return self == _ONE

    def __str__(self) -> str:
        return format_poly(self)


_ONE = FracPoly.constant(1.0)


class FracTF(Value):
    """Numerator/denominator pair; the denominator is never the zero polynomial."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: FracPoly, denominator: FracPoly) -> None:
        if denominator.is_zero():
            raise ValueError("denominator polynomial is zero")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __str__(self) -> str:
        return pretty_print(self)


# --- lexer ---------------------------------------------------------------

# A token is (kind, offset, text): kind "number" or "char" for a lexeme,
# "end" with text "" for the end of input.  finditer skips whitespace.
_TOKEN_RE = re.compile(
    r"""(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<char>[-+*/^()s])
      | (?P<bad>\S)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, int, str]]:
    tokens = [(m.lastgroup, m.start(), m[0]) for m in _TOKEN_RE.finditer(text)]
    for kind, pos, lexeme in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", pos)
    return tokens + [("end", len(text), "")]


# --- parser --------------------------------------------------------------


def _unexpected(what: str, token: tuple[str, int, str]) -> ParseError:
    found = f"'{token[2]}'" if token[2] else "end of input"
    return ParseError(f"expected {what}, found {found}", token[1])


def _poly(tokens: list[tuple[str, int, str]], i: int) -> tuple[FracPoly, int]:
    """Read the polynomial at tokens[i]; return it and the index after it.

    Parentheses only wrap a whole polynomial, so the leading "(" are
    counted and as many ")" consumed after the terms, without recursion.
    """
    depth = 0
    while tokens[i][2] == "(":
        depth += 1
        i += 1
    start = tokens[i][1]
    terms = []
    # The first term's sign is optional, every later term needs one.
    while not terms or tokens[i][2] in ("+", "-"):
        coeff, exponent = (-1.0 if tokens[i][2] == "-" else 1.0), 0.0
        if tokens[i][2] in ("+", "-"):
            i += 1
        term_start = tokens[i][1]
        while True:
            kind, _, text = tokens[i]
            if kind == "number":
                coeff *= float(text)
            elif text != "s":
                raise _unexpected("number or 's'", tokens[i])
            elif tokens[i + 1][2] != "^":
                exponent += 1.0
            elif tokens[i + 2][0] != "number":
                raise _unexpected("number after '^'", tokens[i + 2])
            else:
                i += 2
                exponent += float(tokens[i][2])
            i += 1
            if tokens[i][2] != "*":
                break
            i += 1
        try:
            terms.append(FracTerm(coeff, exponent))
        except ValueError:  # coefficient or exponent overflowed
            raise ParseError("coefficient or exponent is not a finite double", term_start) from None
    try:
        poly = FracPoly.from_terms(terms)
    except ValueError:  # merged coefficients overflowed
        raise ParseError("merged coefficient is not a finite double", start) from None
    for _ in range(depth):
        if tokens[i][2] != ")":
            raise _unexpected("')'", tokens[i])
        i += 1
    return poly, i


def parse_tf(text: str) -> FracTF:
    """Parse a transfer-function expression; a bare polynomial P becomes P/1.

    Raises ParseError (with a character offset) for malformed input, for
    a coefficient or exponent that is not a finite double, and for a
    denominator polynomial that normalizes to zero.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty input", 0)
    numerator, i = _poly(tokens, 0)
    if tokens[i][0] == "end":
        return FracTF(numerator, _ONE)
    if tokens[i][2] != "/":
        raise _unexpected("'/' or end of input", tokens[i])
    den_start = tokens[i + 1][1]
    denominator, i = _poly(tokens, i + 1)
    if denominator.is_zero():
        raise ParseError("denominator polynomial is zero", den_start)
    if tokens[i][0] != "end":
        raise _unexpected("end of input", tokens[i])
    return FracTF(numerator, denominator)


# --- printer -------------------------------------------------------------


def _format_number(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


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
    gains c * (omega**e * j**e) for one term at a time, c last, so a
    subnormal c costs one rounding of the whole term.  j**e is computed
    once per term for the column, not stored on p.  An omega**e that
    overflows makes that omega's sum infinite; the column is then redone
    one omega at a time, so no other omega's value changes."""
    acc = [0j] * len(omegas)
    try:
        for t in p.terms:
            e, c, jj = t.exponent, t.coeff, j_pow(t.exponent)
            acc = [a + c * (w**e * jj) for a, w in zip(acc, omegas)]
    except OverflowError:
        if len(omegas) == 1:
            return [complex(math.inf)]
        return [z for w in omegas for z in _poly_on(p, [w])]
    return acc


def eval_poly(p: FracPoly, omega: float) -> Complex:
    """Value of the polynomial at s = j*omega; EvaluationError (carrying omega) on overflow."""
    omega = real(omega, *OMEGA)
    (z,) = _poly_on(p, [omega])
    if not math.hypot(z.real, z.imag) < math.inf:
        raise EvaluationError("a value overflows", omega)
    return Complex(z.real, z.imag)


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
