"""Shared tolerance helpers for the test suite.

Complex equality is always tolerance based (componentwise, absolute
1e-12 or relative 1e-12, whichever is looser), never bitwise.
"""

import math
import os
from pathlib import Path

import fracfreq
from fracfreq import Complex, mul


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
