"""Frequency-response evaluation of fractional-order transfer functions.

Closed-form magnitude/phase for fractional powers of j*omega, checked
against a multi-branch complex-power evaluator, plus a small expression
language for transfer functions and a Bode-data sweep/emit pipeline.
"""

from .closed_form import (
    CaseIParams,
    CaseIIParams,
    affine_arg,
    affine_jomega,
    affine_mag,
    affine_mag_omega2_cross_term,
    jomega_pow,
    jomega_pow_arg,
    jomega_pow_mag,
)
from .complexmath import Complex, add, argument, div, magnitude, mul
from .response import CSV_HEADER, FORMATS, FrequencyGrid, emit, format_value, response_at, sweep
from .tf import (
    EvaluationError,
    FracPoly,
    FracTF,
    FracTerm,
    ParseError,
    eval_poly,
    eval_tf,
    format_poly,
    parse_tf,
    pretty_print,
)

# Loaded on first use (PEP 562): the command line needs neither.
_ROOTS_NAMES = ("PolarForm", "branch_count", "nth_roots", "pow_branch", "principal_pow", "to_polar")


def __getattr__(name: str):
    if name == "ResponsePoint":
        from .point import ResponsePoint as value
    elif name in _ROOTS_NAMES:
        from . import roots

        value = getattr(roots, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CaseIParams",
    "CaseIIParams",
    "Complex",
    "EvaluationError",
    "FORMATS",
    "FracPoly",
    "FracTF",
    "FracTerm",
    "FrequencyGrid",
    "ParseError",
    "PolarForm",
    "ResponsePoint",
    "add",
    "affine_arg",
    "affine_jomega",
    "affine_mag",
    "affine_mag_omega2_cross_term",
    "argument",
    "branch_count",
    "div",
    "emit",
    "eval_poly",
    "eval_tf",
    "format_poly",
    "format_value",
    "jomega_pow",
    "jomega_pow_arg",
    "jomega_pow_mag",
    "magnitude",
    "mul",
    "nth_roots",
    "parse_tf",
    "pow_branch",
    "pretty_print",
    "principal_pow",
    "response_at",
    "sweep",
    "to_polar",
    "__version__",
]
