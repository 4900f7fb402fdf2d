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

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .closed_form import j_pow
from .complexmath import Complex

# |D(j*omega)| below this aborts evaluation rather than dividing.
DENOMINATOR_EPS = 1e-300


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


@dataclass(frozen=True)
class FracTerm:
    """One term c * s**e: real coefficient, nonnegative real exponent."""

    coeff: float
    exponent: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "exponent", float(self.exponent))
        if not math.isfinite(self.coeff):
            raise ValueError(f"coefficient must be finite, got {self.coeff!r}")
        if not (math.isfinite(self.exponent) and self.exponent >= 0.0):
            raise ValueError(f"exponent must be finite and >= 0, got {self.exponent!r}")


_ZERO_TERM = FracTerm(0.0, 0.0)


@dataclass(frozen=True)
class FracPoly:
    """Normalized sum of terms, exponents strictly decreasing, never empty."""

    terms: tuple[FracTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a polynomial needs at least one term")
        for prev, cur in zip(self.terms, self.terms[1:]):
            if not prev.exponent > cur.exponent:
                raise ValueError(
                    "term exponents must be strictly decreasing, got "
                    f"{prev.exponent!r} before {cur.exponent!r}"
                )
        if any(t.coeff == 0.0 for t in self.terms) and self.terms != (_ZERO_TERM,):
            raise ValueError("zero-coefficient terms must be dropped at normalization")

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

    @cached_property
    def jomega_terms(self) -> tuple[tuple[float, float, complex], ...]:
        """(e, c, j**e) per term, computed once: c*s**e at s = j*omega is
        c * (omega**e * j**e).
        """
        return tuple((t.exponent, t.coeff, j_pow(t.exponent)) for t in self.terms)

    def is_zero(self) -> bool:
        return self.terms == (_ZERO_TERM,)

    def is_one(self) -> bool:
        return self.terms == (FracTerm(1.0, 0.0),)

    def __str__(self) -> str:
        return format_poly(self)


@dataclass(frozen=True)
class FracTF:
    """Numerator/denominator pair; the denominator is never the zero polynomial."""

    numerator: FracPoly
    denominator: FracPoly

    def __post_init__(self) -> None:
        if self.denominator.is_zero():
            raise ValueError("denominator polynomial is zero")

    def __str__(self) -> str:
        return pretty_print(self)


# --- lexer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<s>s)
      | (?P<punct>[-+*/^()])
      | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_PUNCT_KIND = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "/": "slash",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int
    value: float = 0.0

    def describe(self) -> str:
        return "end of input" if self.kind == "eof" else f"'{self.text}'"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(_Token("number", m.group(), pos, float(m.group())))
        elif m.lastgroup == "s":
            tokens.append(_Token("s", "s", pos))
        elif m.lastgroup == "punct":
            tokens.append(_Token(_PUNCT_KIND[m.group()], m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# --- parser --------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.describe()}", tok.pos)
        return self._advance()

    def tf(self) -> FracTF:
        numerator = self.poly()
        denominator = FracPoly.constant(1.0)
        if self._peek().kind == "slash":
            self._advance()
            den_pos = self._peek().pos
            denominator = self.poly()
            if denominator.is_zero():
                raise ParseError("denominator polynomial is zero", den_pos)
            tok = self._peek()
            if tok.kind != "eof":
                raise ParseError(f"expected end of input, found {tok.describe()}", tok.pos)
        else:
            tok = self._peek()
            if tok.kind != "eof":
                raise ParseError(f"expected '/' or end of input, found {tok.describe()}", tok.pos)
        return FracTF(numerator, denominator)

    def poly(self) -> FracPoly:
        if self._peek().kind == "lparen":
            self._advance()
            inner = self.poly()
            self._expect("rparen", "')'")
            return inner
        start = self._peek().pos
        terms = [self.term(self._leading_sign())]
        while self._peek().kind in ("plus", "minus"):
            sign = 1.0 if self._advance().kind == "plus" else -1.0
            terms.append(self.term(sign))
        try:
            return FracPoly.from_terms(terms)
        except ValueError:  # merged coefficients overflowed
            raise ParseError("merged coefficient is not a finite double", start) from None

    def _leading_sign(self) -> float:
        kind = self._peek().kind
        if kind == "plus":
            self._advance()
            return 1.0
        if kind == "minus":
            self._advance()
            return -1.0
        return 1.0

    def term(self, sign: float) -> FracTerm:
        start = self._peek().pos
        coeff, exponent = self.factor(sign, 0.0)
        while self._peek().kind == "star":
            self._advance()
            coeff, exponent = self.factor(coeff, exponent)
        if not (math.isfinite(coeff) and math.isfinite(exponent)):
            raise ParseError("coefficient or exponent is not a finite double", start)
        return FracTerm(coeff, exponent)

    def factor(self, coeff: float, exponent: float) -> tuple[float, float]:
        tok = self._peek()
        if tok.kind == "number":
            self._advance()
            return coeff * tok.value, exponent
        if tok.kind == "s":
            self._advance()
            e = 1.0
            if self._peek().kind == "caret":
                self._advance()
                e = self._expect("number", "number after '^'").value
            return coeff, exponent + e
        raise ParseError(f"expected number or 's', found {tok.describe()}", tok.pos)


def parse_tf(text: str) -> FracTF:
    """Parse a transfer-function expression; a bare polynomial P becomes P/1.

    Raises ParseError (with a character offset) for malformed input, for
    a coefficient or exponent that is not a finite double, and for a
    denominator polynomial that normalizes to zero.
    """
    tokens = _tokenize(text)
    if tokens[0].kind == "eof":
        raise ParseError("empty input", 0)
    return _Parser(tokens).tf()


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


def _check_omega(omega: float) -> None:
    if not (isinstance(omega, (int, float)) and math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")


def _poly_at(p: FracPoly, omega: float) -> complex:
    """p at s = j*omega: the sum of c * (omega**e * j**e) over its terms,
    c last, so a subnormal c costs one rounding of the whole term."""
    acc = 0j
    for e, c, jj in p.jomega_terms:
        acc += c * (omega**e * jj)
    return acc


def eval_poly(p: FracPoly, omega: float) -> Complex:
    """Value of the polynomial at s = j*omega, accumulated term by term."""
    _check_omega(omega)
    z = _poly_at(p, omega)
    return Complex(z.real, z.imag)


def _h_at(tf: FracTF, omega: float) -> complex:
    """N(j*omega)/D(j*omega) as a builtin complex; the one per-point evaluator.

    CPython's complex division is Smith's scaled method and never forms
    |D|**2.  Raises EvaluationError (carrying omega) when |D| is below
    DENOMINATOR_EPS, or when an omega**e, |D| or the quotient is not finite.
    """
    _check_omega(omega)
    fault = "a value overflows"
    try:
        d = _poly_at(tf.denominator, omega)
        d_mag = math.hypot(d.real, d.imag)
        if d_mag < DENOMINATOR_EPS:
            fault = "denominator vanishes"
        elif d_mag < math.inf:
            h = _poly_at(tf.numerator, omega) / d
            if math.isfinite(h.real) and math.isfinite(h.imag):
                return h
    except OverflowError:
        pass
    raise EvaluationError(fault, omega)


def eval_tf(tf: FracTF, omega: float) -> Complex:
    """N(j*omega)/D(j*omega).

    Raises EvaluationError (carrying omega) when the denominator's
    magnitude falls below DENOMINATOR_EPS or a value overflows.
    """
    h = _h_at(tf, omega)
    return Complex(h.real, h.imag)
