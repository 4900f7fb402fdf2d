"""Frequency-response evaluation of fractional-order transfer functions.

Closed-form magnitude/phase for fractional powers of j*omega, checked
against a multi-branch complex-power evaluator, plus a small expression
language for transfer functions and a Bode-data sweep/emit pipeline.
"""

import importlib

__version__ = "0.1.0"

# Every public name, under the module that defines it.  A module loads on
# the first use of one of its names (PEP 562), so importing the package
# loads none of them and the command line loads only what it runs.
_MODULES = {
    "closed_form": (
        "CaseIParams", "CaseIIParams", "affine_arg", "affine_jomega", "affine_mag",
        "affine_mag_omega2_cross_term", "jomega_pow", "jomega_pow_arg", "jomega_pow_mag",
    ),
    "complexmath": ("Complex", "add", "argument", "div", "magnitude", "mul"),
    "point": ("ResponsePoint", "response_at", "sweep"),
    "response": ("CSV_HEADER", "FORMATS", "FrequencyGrid", "emit", "format_value"),
    "roots": ("PolarForm", "branch_count", "nth_roots", "pow_branch", "principal_pow", "to_polar"),
    "tf": (
        "EvaluationError", "FracPoly", "FracTF", "FracTerm", "ParseError",
        "eval_poly", "eval_tf", "format_poly", "parse_tf", "pretty_print",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value
