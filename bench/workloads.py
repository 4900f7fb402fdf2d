"""Seeded input streams for the three benchmark workloads.

Every stream is an endless, deterministic sequence of ``Case`` records
drawn from a ``random.Random`` seeded with the workload name and seed.  The generator keeps each term's
coefficient and exponent as floats next to the expression text, so the
checker can evaluate the transfer function without going through the
library's parser.

Generated transfer functions have positive coefficients (three
significant digits, log-uniform in [0.1, 100]) and distinct exponents
from the 0.05 lattice in [0, 2): the passive fractional-order RC/RL
networks of the README.  On s = j*omega such terms all lie in the closed
upper half plane with at most one on the positive real axis, so no
denominator can cancel, and over the generated grids every term stays
well inside the double range.  The failure cases of the evaluator
(exponents of 2 and more, huge exponents, frequencies near the double
limits) are robustness inputs, not throughput inputs; should any
generated input still hit one, the checker records the op as failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("cli", "dense", "many")

# The README's two examples, with their terms spelled out for the oracle.
README_CASES = (
    ("10000/s^0.5", ((10000.0, 0.0),), ((1.0, 0.5),)),
    ("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)", ((3.0, 0.5), (2.0, 0.0)), ((1.0, 1.2), (4.0, 0.7), (1.0, 0.0))),
)

# The CLI's default grid: 0.01 .. 100 rad/s at 20 points per decade, 81 points.
CLI_GRID = (0.01, 100.0, 20)

# Characters outside the expression grammar; inserted at a token boundary
# they make the tokenizer fail at exactly the insertion offset.
BAD_CHARS = "#@?!$%&x"

MALFORMED_SHARE = 0.05
DENSE_TFS = 4
DENSE_POINTS = 1500  # intervals per grid; divisible by 4, 5 and 6


@dataclass(frozen=True)
class Case:
    """One op's input: expression, grid and format, plus what to expect."""

    text: str
    num: tuple[tuple[float, float], ...]
    den: tuple[tuple[float, float], ...]
    wmin: float
    wmax: float
    ppd: int
    fmt: str
    bad_offset: int | None = None
    to_file: bool = False

    @property
    def terms(self) -> int:
        return len(self.num) + len(self.den)


def _poly(rng: random.Random, lo: int, hi: int) -> tuple[tuple[float, float], ...]:
    exponents = rng.sample(range(40), rng.randint(lo, hi))
    return tuple((float(f"{10.0 ** rng.uniform(-1.0, 2.0):.3g}"), round(k * 0.05, 2)) for k in exponents)


def _term_tokens(c: float, e: float) -> list[str]:
    if e == 0.0:
        return [repr(c)]
    return [repr(c), "*", "s"] if e == 1.0 else [repr(c), "*", "s", "^", repr(e)]


def _poly_tokens(terms) -> list[str]:
    tokens: list[str] = []
    for c, e in terms:
        if tokens:
            tokens.append("+")
        tokens.extend(_term_tokens(c, e))
    return ["(", *tokens, ")"] if len(terms) > 1 else tokens


def _tf_tokens(num, den) -> list[str]:
    return [*_poly_tokens(num), "/", *_poly_tokens(den)]


def _random_case(rng: random.Random, lo: int, hi: int, grid, fmt: str, malformed: bool) -> Case:
    num, den = _poly(rng, lo, hi), _poly(rng, lo, hi)
    tokens = _tf_tokens(num, den)
    bad_offset = None
    if malformed:
        cut = rng.randint(0, len(tokens))
        bad_offset = len("".join(tokens[:cut]))
        tokens.insert(cut, rng.choice(BAD_CHARS))
    return Case("".join(tokens), num, den, *grid, fmt, bad_offset)


def _cli(rng: random.Random):
    i = 0
    while True:
        fmt = "csv" if i % 2 == 0 else "json"
        if i % 20 in (0, 11):
            text, num, den = README_CASES[i % 20 != 0]
            case = Case(text, num, den, *CLI_GRID, fmt)
        else:
            case = _random_case(rng, 1, 4, CLI_GRID, fmt, rng.random() < MALFORMED_SHARE)
        if i % 10 == 3:
            case = replace(case, to_file=True)
        yield case
        i += 1


def _dense(rng: random.Random):
    # Every transfer function has 20 terms, 8 to 12 on each side, and every
    # grid 1501 points over 4 to 6 decades, so that the work per op is the
    # same on every seed and only the values vary.
    cases = []
    for _ in range(DENSE_TFS):
        n = rng.randint(8, 12)
        num, den = _poly(rng, n, n), _poly(rng, 20 - n, 20 - n)
        lo, decades = rng.randint(-4, -2), rng.choice((4, 5, 6))
        text = "".join(_tf_tokens(num, den))
        cases.append(Case(text, num, den, 10.0**lo, 10.0 ** (lo + decades), DENSE_POINTS // decades, "csv"))
    while True:
        yield from cases


def _many(rng: random.Random):
    while True:
        lo = rng.randint(-3, -1)
        # Five decades at 2 points per decade: 11 points.
        grid = (10.0**lo, 10.0 ** (lo + 5), 2)
        yield _random_case(rng, 1, 4, grid, "json", rng.random() < MALFORMED_SHARE)


def cases(workload: str, seed: int):
    """Endless deterministic stream of cases for one workload."""
    make = {"cli": _cli, "dense": _dense, "many": _many}[workload]
    return make(random.Random(f"{workload}:{seed}"))
