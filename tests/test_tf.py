import math
import pickle
import re
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fracfreq import (
    CaseIIParams,
    CaseIParams,
    Complex,
    EvaluationError,
    FracPoly,
    FracTF,
    FracTerm,
    FrequencyGrid,
    ParseError,
    affine_arg,
    affine_jomega,
    affine_mag,
    argument,
    eval_poly,
    eval_tf,
    jomega_pow,
    magnitude,
    mul,
    parse_tf,
    pretty_print,
    principal_pow,
    response_at,
    sweep,
)
from fracfreq.tf import rows
from helpers import REFERENCE, close, complex_close, decimal_poly, fraction_poly, hard_points


def tf_of(num_terms, den_terms) -> FracTF:
    return FracTF(
        FracPoly.from_terms([FracTerm(c, e) for c, e in num_terms]),
        FracPoly.from_terms([FracTerm(c, e) for c, e in den_terms]),
    )


class TestParse:
    def test_fractional_capacitor(self):
        tf = parse_tf("10000/s^0.5")
        assert tf == tf_of([(10000, 0)], [(1, 0.5)])

    def test_bare_s(self):
        assert parse_tf("s") == tf_of([(1, 1)], [(1, 0)])

    def test_full_ratio(self):
        tf = parse_tf("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)")
        assert tf.numerator.terms == (FracTerm(3, 0.5), FracTerm(2, 0))
        assert tf.denominator.terms == (FracTerm(1, 1.2), FracTerm(4, 0.7), FracTerm(1, 0))
        exps = [t.exponent for t in tf.denominator.terms]
        assert exps == sorted(exps, reverse=True)

    def test_whitespace_insensitive(self):
        assert parse_tf(" 10000 / s ^ 0.5 ") == parse_tf("10000/s^0.5")

    def test_leading_sign(self):
        assert parse_tf("-s+1") == tf_of([(-1, 1), (1, 0)], [(1, 0)])
        assert parse_tf("+2*s") == tf_of([(2, 1)], [(1, 0)])

    def test_scientific_notation(self):
        assert parse_tf("1e4/s^0.5") == parse_tf("10000/s^0.5")
        assert parse_tf("2.5e-3") == tf_of([(0.0025, 0)], [(1, 0)])

    def test_duplicate_exponents_merge(self):
        assert parse_tf("s^0.5+s^0.5") == tf_of([(2, 0.5)], [(1, 0)])

    def test_cancellation_yields_zero_polynomial(self):
        tf = parse_tf("s-s")
        assert tf.numerator.is_zero()
        assert pretty_print(tf) == "0"

    def test_constant_factors_multiply(self):
        assert parse_tf("2*3*s^0.5") == parse_tf("6*s^0.5")
        assert parse_tf("2*3") == tf_of([(6, 0)], [(1, 0)])

    def test_nested_group(self):
        assert parse_tf("((s+1))/( (2) )") == tf_of([(1, 1), (1, 0)], [(2, 0)])


MALFORMED = [
    ("", 0, "empty input"),
    ("   ", 0, "empty input"),
    ("s^", 2, "expected number after '^', found end of input"),
    ("s^-1", 2, "expected number after '^', found '-'"),
    ("s^(2)", 2, "expected number after '^', found '('"),
    ("3*", 2, "expected number or 's', found end of input"),
    ("s+", 2, "expected number or 's', found end of input"),
    ("2**s", 2, "expected number or 's', found '*'"),
    ("(s", 2, "expected ')', found end of input"),
    ("s)", 1, "expected '/' or end of input, found ')'"),
    ("(s+1", 4, "expected ')', found end of input"),
    ("()", 1, "expected number or 's', found ')'"),
    ("q", 0, "unexpected character 'q'"),
    ("1$2", 1, "unexpected character '$'"),
    ("1 2", 2, "expected '/' or end of input, found '2'"),
    ("/s", 0, "expected number or 's', found '/'"),
    ("1/", 2, "expected number or 's', found end of input"),
    ("1//s", 2, "expected number or 's', found '/'"),
    ("1/s/s", 3, "expected end of input, found '/'"),
    ("(s+1)+2", 5, "expected '/' or end of input, found '+'"),
    ("1/0", 2, "denominator polynomial is zero"),
    ("1/(s-s)", 2, "denominator polynomial is zero"),
    ("1/(0.5-0.5)", 2, "denominator polynomial is zero"),
    ("-(s+1)", 1, "expected number or 's', found '('"),
    ("1e400", 0, "coefficient or exponent is not a finite double"),
    ("s^1e400", 0, "coefficient or exponent is not a finite double"),
    ("1e200*1e200", 0, "coefficient or exponent is not a finite double"),
    ("s^1e308*s^1e308", 0, "coefficient or exponent is not a finite double"),
    ("s+2*1e400", 2, "coefficient or exponent is not a finite double"),
    ("1/(1e308*s+1e308*s)", 3, "merged coefficient is not a finite double"),
    # Offsets are counted from the text between the lexemes only on error:
    # one row per raise site, with whitespace before the offending place.
    ("s +  2*1e400", 5, "coefficient or exponent is not a finite double"),
    ("1 / ( s - s )", 4, "denominator polynomial is zero"),
    ("s ^  +1", 5, "expected number after '^', found '+'"),
    ("1 +  $", 5, "unexpected character '$'"),
    ("  1e+ 2", 3, "unexpected character 'e'"),
    ("(  s + 1  ", 10, "expected ')', found end of input"),
    ("1 / (s+1) )", 10, "expected end of input, found ')'"),
    ("1 / ( 1e308*s + 1e308*s )", 6, "merged coefficient is not a finite double"),
]

# Text over the grammar's characters, some whitespace and a few outside it.
_NEAR_GRAMMAR = st.text(alphabet="0123456789.eE+-*/^()s \t$q", max_size=24)


class TestParseErrors:
    # The message stays out of the test id.
    @pytest.mark.parametrize(
        "text,offset,message", MALFORMED, ids=[f"{t}-{o}" for t, o, _ in MALFORMED]
    )
    def test_rejected_with_offset(self, text, offset, message):
        with pytest.raises(ParseError) as excinfo:
            parse_tf(text)
        assert excinfo.value.position == offset
        assert str(excinfo.value) == f"{message} (offset {offset})"

    @given(_NEAR_GRAMMAR, st.integers(min_value=0, max_value=6))
    def test_leading_whitespace_shifts_only_the_offset(self, text, m):
        try:
            want = parse_tf(text)
        except ParseError as exc:
            message, position = str(exc).rsplit(" (offset ", 1)[0], exc.position
            with pytest.raises(ParseError) as excinfo:
                parse_tf(" " * m + text)
            shifted = 0 if message == "empty input" else position + m
            assert excinfo.value.position == shifted
            assert str(excinfo.value) == f"{message} (offset {shifted})"
        else:
            assert parse_tf(" " * m + text) == want

    def test_deep_nesting_parses(self):
        assert parse_tf("(" * 5000 + "s+1" + ")" * 5000) == parse_tf("s+1")

    def test_deep_nesting_unclosed(self):
        with pytest.raises(ParseError) as excinfo:
            parse_tf("(" * 5000 + "s")
        assert excinfo.value.position == 5001

    def test_zero_denominator_via_constructor(self):
        with pytest.raises(ValueError):
            FracTF(FracPoly.constant(1.0), FracPoly.from_terms([FracTerm(0, 0)]))


def not_normal(got: str) -> str:
    """The match pattern of FracPoly's one message for terms not in normal form."""
    rule = "terms must be one nonzero term per exponent, exponents strictly decreasing"
    return f"^{re.escape(f'{rule}, got {got}')}$"


# Terms from small pools, so that repeated exponents and zero coefficients
# are common, drawn in any order, sorted by decreasing exponent, or with
# nonzero coefficients and distinct exponents, sorted: the normal form.
COEFFS = [0.0, -0.0, 1.0, -2.5, 1e308]
EXPONENTS = [0.0, -0.0, 0.5, 1.2, 3.0]


def by_decreasing_exponent(terms):
    return sorted(terms, key=lambda t: -t.exponent)


pool_terms = st.lists(
    st.builds(FracTerm, st.sampled_from(COEFFS), st.sampled_from(EXPONENTS)), max_size=5
)
normal_terms = st.lists(
    st.builds(FracTerm, st.sampled_from([c for c in COEFFS if c]), st.sampled_from(EXPONENTS)),
    max_size=5,
    unique_by=lambda t: t.exponent,
).map(by_decreasing_exponent)
any_order_terms = st.one_of(pool_terms, pool_terms.map(by_decreasing_exponent), normal_terms)


class TestNormalizationInvariants:
    def test_rejects_unsorted_terms(self):
        with pytest.raises(ValueError, match=not_normal("[(1.0, 0.5), (1.0, 1.2)]")):
            FracPoly((FracTerm(1, 0.5), FracTerm(1, 1.2)))

    def test_rejects_duplicate_exponents(self):
        with pytest.raises(ValueError, match=not_normal("[(1.0, 0.5), (2.0, 0.5)]")):
            FracPoly((FracTerm(1, 0.5), FracTerm(2, 0.5)))

    def test_rejects_stray_zero_coefficient(self):
        with pytest.raises(ValueError, match=not_normal("[(1.0, 1.0), (0.0, 0.5)]")):
            FracPoly((FracTerm(1, 1.0), FracTerm(0, 0.5)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=not_normal("[]")):
            FracPoly(())

    @given(any_order_terms)
    def test_accepts_exactly_what_from_terms_builds(self, terms):
        try:
            normal = FracPoly.from_terms(terms).terms
        except ValueError:  # merged coefficients overflow
            normal = None
        if tuple(terms) == normal:
            poly = FracPoly(terms)
            assert len(poly.terms) == len(terms)
            assert all(a is b for a, b in zip(poly.terms, terms))
        else:
            with pytest.raises(ValueError):
                FracPoly(terms)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            FracTerm(1.0, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FracTerm(math.inf, 1.0)
        with pytest.raises(ValueError):
            FracTerm(1.0, math.nan)


class TestPrettyPrint:
    def test_fractional_capacitor_is_canonical(self):
        assert pretty_print(parse_tf("10000/s^0.5")) == "(10000)/(s^0.5)"

    def test_unit_denominator_elided(self):
        assert pretty_print(parse_tf("3*s^0.5+2")) == "3*s^0.5+2"
        assert pretty_print(parse_tf("(3*s^0.5+2)/1")) == "3*s^0.5+2"

    def test_unit_coefficient_elided(self):
        assert pretty_print(parse_tf("1*s^0.5")) == "s^0.5"
        assert pretty_print(parse_tf("-1*s^2")) == "-s^2"

    def test_explicit_exponent_one(self):
        assert pretty_print(parse_tf("s")) == "s^1"

    def test_str_delegates(self):
        tf = parse_tf("10000/s^0.5")
        assert str(tf) == pretty_print(tf)

    # A double that is an integer prints without ".0"; from 1e16 on, repr
    # switches to exponent form, and so does the printer.
    @pytest.mark.parametrize(
        "text,printed",
        [
            ("9999999999999998*s", "9999999999999998*s^1"),
            ("1e16*s", "1e+16*s^1"),
            ("s^1e16", "s^1e+16"),
            ("1e15*s^0.5", "1000000000000000*s^0.5"),
            ("5e-324", "5e-324"),
        ],
    )
    def test_number_boundaries(self, text, printed):
        tf = parse_tf(text)
        assert pretty_print(tf) == printed
        assert parse_tf(printed) == tf


coefficients = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False).filter(lambda c: c != 0.0)
exponents = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
terms = st.builds(FracTerm, coefficients, exponents)
polys = st.lists(terms, min_size=1, max_size=6).map(FracPoly.from_terms)
tfs = st.builds(FracTF, polys, polys.filter(lambda p: not p.is_zero()))


class TestRoundTrip:
    @given(tfs)
    def test_parse_of_pretty_print_is_identity(self, tf):
        assert parse_tf(pretty_print(tf)) == tf

    def test_zero_numerator_round_trips(self):
        tf = parse_tf("0/s^0.5")
        assert parse_tf(pretty_print(tf)) == tf


# Texts the grammar accepts, with repeated exponents that merge or cancel,
# literals whose products or sums leave the double range, and parentheses.
_literals = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5", "2.5", "1e308", "1e-320"]),
    st.floats(min_value=0.0, max_value=1e6).map(repr),
)
_factors = st.one_of(_literals, st.just("s"), _literals.map("s^{}".format))
_terms = st.lists(_factors, min_size=1, max_size=3).map("*".join)
_poly_texts = st.lists(st.tuples(st.sampled_from("+-"), _terms), min_size=1, max_size=5).map(
    lambda signed: "(" + "".join(sign + term for sign, term in signed) + ")"
)
_tf_texts = st.one_of(_poly_texts, st.builds("{} / {}".format, _poly_texts, _poly_texts))


def checked_copy(tf: FracTF) -> FracTF:
    """tf rebuilt field by field through every checked constructor."""

    def poly(p: FracPoly) -> FracPoly:
        return FracPoly(tuple(FracTerm(t.coeff, t.exponent) for t in p.terms))

    return FracTF(poly(tf.numerator), poly(tf.denominator))


class TestParseBuildsOnce:
    @given(_tf_texts)
    def test_parsed_values_equal_checked_ones(self, text):
        try:
            tf = parse_tf(text)
        except ParseError:
            assume(False)
        checked = checked_copy(tf)
        assert tf == checked
        assert repr(tf) == repr(checked)
        assert hash(tf) == hash(checked)
        assert pickle.dumps(tf) == pickle.dumps(checked)
        for t in tf.numerator.terms + tf.denominator.terms:
            assert (type(t.coeff), type(t.exponent)) == (float, float)

    def test_parse_calls_no_checked_new(self, monkeypatch):
        calls = []
        for cls in (FracTerm, FracPoly, FracTF):

            def counted_new(cls, *args, _checked=cls.__new__):
                calls.append((cls.__name__, args))
                return _checked(cls, *args)

            monkeypatch.setattr(cls, "__new__", counted_new)
        for text in ["s", "s-s", "(3*s^0.5+2)/(s^1.2+4*s^0.7+1)", "s^0.5+s^0.5-1", "0/(2*s+s)"]:
            parse_tf(text)
        assert calls == []
        # The counters see the checked paths, which still reject bad fields.
        checked_copy(parse_tf("s"))
        assert [name for name, _ in calls] == ["FracTerm", "FracPoly"] * 2 + ["FracTF"]
        calls.clear()
        with pytest.raises(ValueError, match="^exponent must be finite and >= 0, got -1.0$"):
            FracTerm(1.0, -1.0)
        assert calls == [("FracTerm", (1.0, -1.0))]

    @pytest.mark.parametrize("c", [1e308, -1e308])
    def test_from_terms_rejects_merged_overflow(self, c):
        for build in (FracPoly.from_terms, FracPoly):  # FracPoly checks by building
            with pytest.raises(ValueError, match=f"^coefficient must be finite, got {c * 2!r}$"):
                build([FracTerm(c, 1.0), FracTerm(c, 1.0)])


class TestEvalPoly:
    def test_constant(self):
        assert eval_poly(FracPoly.constant(1.0), 123.0) == Complex(1, 0)

    def test_half_power_at_unit_frequency(self):
        got = eval_poly(parse_tf("s^0.5").numerator, 1.0)
        assert complex_close(got, principal_pow(Complex(0, 1), 0.5))

    def test_affine_matches_closed_form(self):
        got = eval_poly(parse_tf("s^0.5+1").numerator, 1.0)
        assert complex_close(got, affine_jomega(CaseIIParams(1, 1, 1, 0.5)))

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_omega_domain(self, omega):
        with pytest.raises(ValueError):
            eval_poly(FracPoly.constant(1.0), omega)

    @pytest.mark.parametrize("text,omega", [("s^2", 1e200), ("1e300*s^2", 1e10)])
    def test_overflow_is_evaluation_error(self, text, omega):
        with pytest.raises(EvaluationError, match="^a value overflows at omega=") as excinfo:
            eval_poly(parse_tf(text).numerator, omega)
        assert excinfo.value.omega == omega

    @pytest.mark.parametrize("omega", [1e-3, 0.37, 1.0, 3.0, 1e3])
    @pytest.mark.parametrize(
        "exponent,unit", [(1, (0, 1)), (2, (-1, 0)), (3, (0, -1)), (4, (1, 0)), (5, (0, 1))]
    )
    def test_integer_power_is_exact_quarter_turn(self, exponent, unit, omega):
        got = eval_poly(parse_tf(f"s^{exponent}").numerator, omega)
        r = omega ** float(exponent)
        assert got == Complex(unit[0] * r, unit[1] * r)


wide_coefficients = st.builds(
    lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(min_value=-300, max_value=300)
)
wide_exponents = st.one_of(st.floats(min_value=0.0, max_value=40.0), st.integers(0, 40).map(float))
wide_polys = st.lists(st.builds(FracTerm, wide_coefficients, wide_exponents), min_size=1, max_size=4).map(
    FracPoly.from_terms
)


def _outcome(f, *args) -> str:
    try:
        return repr(f(*args))
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


class TestEvalPolyIsEvalTF:
    @given(wide_polys, st.floats(min_value=-12, max_value=12).map(lambda e: 10.0**e))
    def test_same_value_or_error(self, p, omega):
        over_one = FracTF(p, FracPoly.constant(1.0))
        assert _outcome(eval_poly, p, omega) == _outcome(eval_tf, over_one, omega)

    def test_not_a_polynomial_is_value_error(self):
        # The message names eval_poly's own argument, not FracTF's numerator.
        for p, kind in (("s", "str"), (1, "int")):
            with pytest.raises(ValueError, match=f"^p must be a FracPoly, got {kind}$"):
                eval_poly(p, 1.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: eval_tf("s", 1.0), "tf must be a FracTF, got str"),
            (lambda: response_at(None, 1.0), "tf must be a FracTF, got NoneType"),
            (lambda: sweep(parse_tf("s").numerator, FrequencyGrid()), "tf must be a FracTF, got FracPoly"),
            (lambda: rows(1, [1.0]), "tf must be a FracTF, got int"),
            (lambda: sweep(parse_tf("s"), (0.01, 100.0, 20)), "grid must be a FrequencyGrid, got tuple"),
            (lambda: sweep(parse_tf("s"), None), "grid must be a FrequencyGrid, got NoneType"),
        ],
        ids=["eval_tf", "response_at", "sweep_tf", "rows", "sweep_grid_tuple", "sweep_grid_none"],
    )
    def test_wrong_argument_type_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestEvalTF:
    def test_fractional_capacitor_at_unit_frequency(self):
        value = eval_tf(parse_tf("10000/s^0.5"), 1.0)
        assert close(magnitude(value), 10000.0)
        assert close(argument(value), -math.pi / 4)

    def test_half_power_at_omega_four(self):
        value = eval_tf(parse_tf("s^0.5"), 4.0)
        assert close(magnitude(value), 2.0)
        assert close(argument(value), math.pi / 4)

    def test_identity(self):
        assert eval_tf(parse_tf("1/1"), 0.37) == Complex(1, 0)

    def test_denominator_zero_at_quarter_turn(self):
        with pytest.raises(EvaluationError) as excinfo:
            eval_tf(parse_tf("1/(s^2+1)"), 1.0)
        assert excinfo.value.omega == 1.0

    @pytest.mark.parametrize("text", ["1e300*s^2", "1/(1e300*s^2)", "1e300/1e-10"])
    def test_non_finite_part_rejected(self, text):
        with pytest.raises(ValueError):
            eval_tf(parse_tf(text), 1e10)

    @pytest.mark.parametrize(
        "text,omega",
        [("s^2", 1e200), ("1/s^200", 100.0), ("1e300*s^2", 1e10), ("1/(1e300*s^2)", 1e10)],
    )
    def test_overflow_is_evaluation_error(self, text, omega):
        with pytest.raises(EvaluationError, match="^a value overflows at omega=") as excinfo:
            eval_tf(parse_tf(text), omega)
        assert excinfo.value.omega == omega

    def test_magnitude_beyond_double_is_evaluation_error(self):
        # Both parts are finite doubles, |H| is not.
        with pytest.raises(EvaluationError, match="^a value overflows at omega="):
            eval_tf(parse_tf("1.5e308+1.5e308*s"), 1.0)

    @pytest.mark.parametrize("text,omega", [("1/(s^2+1)", 1.0), ("1/1e-310", 2.5)])
    def test_pole_message_names_the_denominator(self, text, omega):
        with pytest.raises(EvaluationError, match="^denominator vanishes at omega="):
            eval_tf(parse_tf(text), omega)

    def test_vanishing_denominator(self):
        with pytest.raises(EvaluationError) as excinfo:
            eval_tf(parse_tf("1/1e-310"), 2.5)
        assert excinfo.value.omega == 2.5
        assert "2.5" in str(excinfo.value)

    @pytest.mark.parametrize("text", ["1/(s^1.5+s^3.5)", "1/(s^1.00000001+s^3.00000001)"])
    def test_exponents_two_apart_cancel_exactly(self, text):
        # j**e = -j**(e+2), so D(j) is exactly 0 for both.
        with pytest.raises(EvaluationError, match="^denominator vanishes at omega=1.0$"):
            eval_tf(parse_tf(text), 1.0)

    def test_near_quarter_turn_keeps_its_digits(self):
        # D(j) = 1 + j**2.00000001 ~ -1.57e-8j after the 1 cancels, so an
        # absolute error of ~2e-16 in the whole angle would cost 1e-8 here.
        mag = response_at(parse_tf("1/(s^2.00000001+1)"), 1.0).mag_linear
        assert close(mag, 63661977.623661956, rel=1e-15, abs_tol=0.0)

    @pytest.mark.parametrize(
        "text,omega,mag,phase",
        [
            ("1/s^1000", 0.5, 1.0715086071862673e301, 0.0),
            ("1/(s^2-1e-305)", 1e-160, 1e305, math.pi),
            ("1/2.2250738585072014e-308", 1.0, 4.4942328371557898e307, 0.0),
        ],
    )
    def test_normal_denominator_divides(self, text, omega, mag, phase):
        p = response_at(parse_tf(text), omega)
        assert close(p.mag_linear, mag, abs_tol=0.0)
        assert p.phase_rad == phase

    def test_subnormal_denominator_vanishes(self):
        # The largest subnormal, one ulp below the smallest normal double.
        with pytest.raises(EvaluationError, match="^denominator vanishes at omega="):
            eval_tf(parse_tf("1/2.2250738585072009e-308"), 1.0)

    @given(
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_single_term_matches_scaled_closed_form(self, c, omega, alpha):
        value = eval_tf(parse_tf(f"{c!r}*s^{alpha!r}"), omega)
        expected = mul(Complex(c, 0), jomega_pow(CaseIParams(omega, alpha)))
        assert complex_close(value, expected, rel=1e-12, abs_tol=0.0)

    @given(
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_affine_matches_closed_form_mag_and_arg(self, a, b, omega, alpha):
        value = eval_tf(parse_tf(f"{a!r}*s^{alpha!r}+{b!r}"), omega)
        p = CaseIIParams(a, b, omega, alpha)
        assert close(magnitude(value), affine_mag(p))
        assert close(argument(value), affine_arg(p), rel=0.0, abs_tol=1e-12)


def oracle_poly(p: FracPoly, omega: float) -> tuple[Complex, float]:
    """Sum of c*(j*omega)**e through the polar oracle, and the sum of |terms|."""
    total, scale = Complex(0.0, 0.0), 0.0
    for t in p.terms:
        term = mul(Complex(t.coeff), principal_pow(Complex(0.0, omega), t.exponent))
        total = Complex(total.re + term.re, total.im + term.im)
        scale += magnitude(term)
    return total, scale


kernel_exponents = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),
    st.integers(min_value=0, max_value=12).map(lambda k: k / 2.0),
    st.floats(min_value=0.0, max_value=6.0),
)
kernel_polys = st.lists(st.builds(FracTerm, coefficients, kernel_exponents), min_size=1, max_size=6).map(
    FracPoly.from_terms
)
kernel_omegas = st.floats(min_value=1e-3, max_value=1e3)


class TestKernelAgainstOracle:
    @given(kernel_polys, kernel_omegas)
    def test_eval_poly_matches_polar_oracle(self, p, omega):
        got = eval_poly(p, omega)
        want, scale = oracle_poly(p, omega)
        # 1e-12 relative to |sum|, scaled by the condition sum|terms| / |sum|.
        assert math.hypot(got.re - want.re, got.im - want.im) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "c,e,omega", [(5e-324, 5.5, 1e3), (2.2250738585e-313, 1.5, 3.0), (2.225073858507e-311, 0.5, 0.00390625)]
    )
    def test_subnormal_coefficient_matches_polar_oracle(self, c, e, omega):
        # c*j**e formed first would be subnormal with a few bits, and omega**e would scale the loss up.
        # c*omega**e formed first with omega**e < 1 would round into the subnormal range before j**e did.
        p = FracPoly.from_terms([FracTerm(c, e)])
        got = eval_poly(p, omega)
        want, scale = oracle_poly(p, omega)
        assert math.hypot(got.re - want.re, got.im - want.im) <= 1e-12 * scale

    @given(kernel_polys, kernel_polys.filter(lambda p: not p.is_zero()), kernel_omegas, st.integers(1, 4))
    def test_sweep_is_response_at_pointwise(self, num, den, wmin, ppd):
        tf = FracTF(num, den)
        grid = FrequencyGrid(wmin, wmin * 100.0, ppd)
        try:
            expected = [response_at(tf, omega) for omega in grid.points()]
        except EvaluationError as exc:
            with pytest.raises(EvaluationError) as excinfo:
                sweep(tf, grid)
            assert excinfo.value.omega == exc.omega
            return
        assert sweep(tf, grid) == expected


class TestKernelAgainstDecimalReference:
    @given(kernel_polys, kernel_polys.filter(lambda p: not p.is_zero()), kernel_omegas)
    # A subnormal coefficient: it joins omega**e * j**e last.
    @example(parse_tf("5e-324*s^0.5").numerator, FracPoly.constant(1.0), 1e300)
    def test_eval_tf_within_conditioned_bound(self, num, den, omega):
        # Each term omega**e * (c*j**e) carries 8 roundings u in norm
        # (omega**e 1, j**e 3, two products 2, sqrt(2) for a complex norm;
        # c * (omega**e * j**e) for |c| < 2**-511 is two products too),
        # a sum of m terms m - 1 more and Smith's division 4, so with
        # cond = sum|n_k w**e_k| / |N| + sum|d_k w**e_k| / |D| (Higham,
        # ch. 4), |H - ref| <= k*u*cond*|ref| for k = 12 + m_N + m_D,
        # one more than the first-order sum.
        # That is k*u*(sum_N + |ref|*sum_D) / |D|, which holds at N = 0 too.
        # A subnormal product or quotient loses up to ulp(0) absolute
        # instead: 2*ulp(0) per |c_k| + 1 in each sum, and for H.
        k = 12 + len(num.terms) + len(den.terms)
        with localcontext(REFERENCE):
            u, tiny = Decimal(2) ** -53, Decimal(math.ulp(0.0))
            n_re, n_im, n_sum = decimal_poly(num, omega)
            d_re, d_im, d_sum = decimal_poly(den, omega)
            d_mag = (d_re * d_re + d_im * d_im).sqrt()
            assume(d_mag != 0)
            h_re = (n_re * d_re + n_im * d_im) / d_mag**2
            h_im = (n_im * d_re - n_re * d_im) / d_mag**2
            h_mag = (h_re * h_re + h_im * h_im).sqrt()
            n_slack = k * u * n_sum + 2 * tiny * sum(abs(Decimal(t.coeff)) + 1 for t in num.terms)
            d_slack = k * u * d_sum + 2 * tiny * sum(abs(Decimal(t.coeff)) + 1 for t in den.terms)
            bound = (n_slack + h_mag * d_slack) / d_mag + 2 * tiny
            try:
                h = eval_tf(FracTF(num, den), omega)
            except EvaluationError as exc:
                # Only a |D| that rounding can take below DBL_MIN, or an |H| past DBL_MAX.
                if "vanishes" in str(exc):
                    assert d_mag <= Decimal(sys.float_info.min) + d_slack
                else:
                    assert h_mag + bound >= Decimal(sys.float_info.max)
                return
            err = ((Decimal(h.re) - h_re) ** 2 + (Decimal(h.im) - h_im) ** 2).sqrt()
            assert err <= bound


def _right(h: Complex, tf: FracTF, omega: float) -> bool:
    """Whether h is within 1e-12 of N/D at s = j*omega, relative in norm: by
    Fraction when every exponent is an integer, else by decimal_poly."""
    num, den = tf
    if all(t.exponent.is_integer() for t in num.terms + den.terms):
        (n_re, n_im), (d_re, d_im) = fraction_poly(num, omega), fraction_poly(den, omega)
        h_re, h_im, tol = Fraction(h.re), Fraction(h.im), Fraction(1, 10**24)
    else:
        (n_re, n_im, _), (d_re, d_im, _) = decimal_poly(num, omega), decimal_poly(den, omega)
        h_re, h_im, tol = Decimal(h.re), Decimal(h.im), Decimal("1e-24")
    with localcontext(REFERENCE):
        d_sq = d_re * d_re + d_im * d_im
        re, im = (n_re * d_re + n_im * d_im) / d_sq, (n_im * d_re - n_re * d_im) / d_sq
        return (h_re - re) ** 2 + (h_im - im) ** 2 <= tol * (re * re + im * im)


class TestHardInputCensus:
    """A ratchet on the outcomes next to a zero of D on the j*omega-axis,
    where D keeps few correct digits or none.

    Each of hard_points' families is counted: right (within 1e-12), silently
    wrong, refused although the true value is finite, and refused where D is
    exactly 0.  The pins are the counts of the evaluator as it stands: right
    may rise, and wrong and wrongly refused may fall, without a failure.
    """

    # family: (right, at least; wrong, at most; refused with a finite value, at most)
    PINS = {"s^2+b": (0, 247, 53), "s^k+-c*s^m": (0, 266, 34), "s^(a+2)+c*s^a": (0, 270, 30)}

    def test_outcomes_at_hard_points(self):
        counts = {family: Counter() for family in self.PINS}
        for family, tf, omega, at_zero in hard_points(2101, 100):
            try:
                h = eval_tf(tf, omega)
            except EvaluationError:
                counts[family]["refused correctly" if at_zero else "refused"] += 1
            else:
                counts[family]["right" if not at_zero and _right(h, tf, omega) else "wrong"] += 1
        for family, (right, wrong, refused) in self.PINS.items():
            got = counts[family]
            assert sum(got.values()) == 300
            assert got["right"] >= right and got["wrong"] <= wrong and got["refused"] <= refused, (
                family, dict(got)
            )


class TestScaledDivision:
    """|D| beyond ~1.3e154 or below ~1e-154 squares out of the double range."""

    def test_huge_denominator(self):
        p = response_at(parse_tf("1/s^20"), 1e8)
        assert close(p.mag_db, -3200.0)
        assert close(p.mag_linear, 1e-160)

    def test_huge_numerator_and_denominator(self):
        p = response_at(parse_tf("(s^20+1)/(s^20+2)"), 1e8)
        assert close(p.mag_linear, 1.0)
        assert close(p.phase_rad, 0.0, rel=0.0, abs_tol=1e-12)

    def test_tiny_denominator(self):
        assert complex_close(eval_tf(parse_tf("1/s^170"), 0.1), Complex(-1e170, 0.0))
