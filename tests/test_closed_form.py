import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracfreq import (
    CaseIIParams,
    CaseIParams,
    Complex,
    add,
    affine_arg,
    affine_jomega,
    affine_mag,
    affine_mag_omega2_cross_term,
    argument,
    jomega_pow,
    jomega_pow_arg,
    jomega_pow_mag,
    magnitude,
    mul,
    principal_pow,
)
from helpers import close, complex_close

omegas = st.floats(min_value=1e-3, max_value=1e3)
alphas = st.floats(min_value=0.01, max_value=0.99)
gains = st.floats(min_value=1e-2, max_value=1e2)


def oracle_jomega(omega: float, alpha: float) -> Complex:
    return principal_pow(Complex(0.0, omega), alpha)


def oracle_affine(a: float, b: float, omega: float, alpha: float) -> Complex:
    return add(mul(Complex(a, 0.0), oracle_jomega(omega, alpha)), Complex(b, 0.0))


class TestParamValidation:
    @pytest.mark.parametrize("omega,alpha", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, -0.2), (math.inf, 0.5), (1.0, math.nan)])
    def test_single_power_domain(self, omega, alpha):
        with pytest.raises(ValueError):
            CaseIParams(omega, alpha)

    @pytest.mark.parametrize(
        "a,b,omega,alpha",
        [(0.0, 1.0, 1.0, 0.5), (-1.0, 1.0, 1.0, 0.5), (1.0, 0.0, 1.0, 0.5), (1.0, -2.0, 1.0, 0.5), (1.0, 1.0, 0.0, 0.5), (1.0, 1.0, 1.0, 1.0)],
    )
    def test_affine_domain(self, a, b, omega, alpha):
        with pytest.raises(ValueError):
            CaseIIParams(a, b, omega, alpha)


class TestSinglePower:
    def test_value_at_unit_frequency(self):
        got = jomega_pow(CaseIParams(1.0, 0.5))
        assert complex_close(got, Complex(0.7071067811865476, 0.7071067811865476))
        assert complex_close(got, oracle_jomega(1.0, 0.5))

    def test_value_at_omega_four(self):
        got = jomega_pow(CaseIParams(4.0, 0.5))
        expected = Complex(2 * math.cos(math.pi / 4), 2 * math.sin(math.pi / 4))
        assert complex_close(got, expected)
        assert complex_close(got, oracle_jomega(4.0, 0.5))

    def test_alpha_near_one_approaches_j(self):
        got = jomega_pow(CaseIParams(1.0, 1.0 - 1e-12))
        assert complex_close(got, Complex(0.0, 1.0), abs_tol=1e-11)
        # the boundary itself is the oracle's domain, not this module's
        assert complex_close(principal_pow(Complex(0.0, 1.0), 1.0), Complex(0.0, 1.0))

    def test_magnitude_examples(self):
        assert jomega_pow_mag(CaseIParams(4.0, 0.5)) == 2.0
        assert jomega_pow_mag(CaseIParams(1.0, 0.123)) == 1.0
        assert close(jomega_pow_mag(CaseIParams(10.0, 0.3)), 1.9952623149688795)

    def test_argument_examples(self):
        assert close(jomega_pow_arg(CaseIParams(123.0, 0.5)), math.pi / 4)
        assert close(jomega_pow_arg(CaseIParams(100.0, 0.2)), 0.1 * math.pi)
        assert close(jomega_pow_arg(CaseIParams(7.0, 0.9)), 1.413716694115407)

    def test_argument_independent_of_omega(self):
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
            a = jomega_pow_arg(CaseIParams(1e-3, alpha))
            b = jomega_pow_arg(CaseIParams(1e3, alpha))
            assert a == b  # same computed expression, exactly

    def test_magnitude_strictly_increasing_in_omega(self):
        for alpha in (0.1, 0.5, 0.9):
            grid = [10.0**e for e in range(-3, 4)]
            mags = [jomega_pow_mag(CaseIParams(w, alpha)) for w in grid]
            assert all(x < y for x, y in zip(mags, mags[1:]))

    @given(omegas, alphas)
    def test_matches_oracle(self, omega, alpha):
        p = CaseIParams(omega, alpha)
        z = oracle_jomega(omega, alpha)
        assert complex_close(jomega_pow(p), z, rel=1e-12, abs_tol=0.0)
        assert close(jomega_pow_mag(p), magnitude(z), rel=1e-12, abs_tol=0.0)
        assert close(jomega_pow_arg(p), argument(z), rel=0.0, abs_tol=1e-12)


class TestAffine:
    def test_unit_values(self):
        got = affine_jomega(CaseIIParams(1.0, 1.0, 1.0, 0.5))
        half = math.sqrt(2) / 2
        assert complex_close(got, Complex(1 + half, half))
        assert complex_close(got, oracle_affine(1.0, 1.0, 1.0, 0.5))

    def test_gain_offset_values(self):
        got = affine_jomega(CaseIIParams(2.0, 3.0, 10.0, 0.5))
        expected = Complex(
            3 + 2 * math.sqrt(10) * math.cos(math.pi / 4),
            2 * math.sqrt(10) * math.sin(math.pi / 4),
        )
        assert complex_close(got, expected)
        assert complex_close(got, oracle_affine(2.0, 3.0, 10.0, 0.5))

    def test_small_offset_approaches_single_power(self):
        got = affine_jomega(CaseIIParams(1.0, 1e-12, 4.0, 0.5))
        assert complex_close(got, jomega_pow(CaseIParams(4.0, 0.5)), abs_tol=1e-11)

    def test_magnitude_at_unit_frequency(self):
        assert close(affine_mag(CaseIIParams(1.0, 1.0, 1.0, 0.5)), 1.8477590650225735)
        assert close(affine_mag(CaseIIParams(1.0, 1.0, 1.0, 0.5)), math.sqrt(2 + math.sqrt(2)))

    def test_magnitude_at_omega_ten(self):
        got = affine_mag(CaseIIParams(1.0, 1.0, 10.0, 0.5))
        assert close(got, 3.9334636079414262)
        assert close(got, magnitude(oracle_affine(1.0, 1.0, 10.0, 0.5)))

    def test_small_offset_magnitude_approaches_omega_alpha(self):
        got = affine_mag(CaseIIParams(1.0, 1e-12, 4.0, 0.5))
        assert close(got, 2.0, rel=1e-11, abs_tol=1e-11)

    def test_argument_half_angle(self):
        # arctan(sin t / (1 + cos t)) = t/2 at t = pi/4
        got = affine_arg(CaseIIParams(1.0, 1.0, 1.0, 0.5))
        assert close(got, math.pi / 8)
        assert close(got, 0.39269908169872414)

    def test_argument_small_offset_approaches_half_alpha_pi(self):
        got = affine_arg(CaseIIParams(1.0, 1e-12, 7.0, 0.3))
        assert close(got, 0.3 * math.pi / 2, abs_tol=1e-11)

    def test_argument_large_offset_approaches_zero(self):
        p = CaseIIParams(1.0, 1e6, 1.0, 0.5)
        got = affine_arg(p)
        assert close(got, argument(oracle_affine(1.0, 1e6, 1.0, 0.5)), abs_tol=1e-12)
        assert close(got, math.sin(math.pi / 4) / 1e6, rel=1e-4, abs_tol=0.0)
        assert 0.0 < got < 1e-6

    @given(gains, gains, omegas, alphas)
    # Squares of b and a*omega**alpha past the double range: scaled, they are exact.
    @example(1e160, 1.0, 1.0, 0.5)
    @example(1e-170, 1e-170, 1.0, 0.5)
    def test_matches_oracle(self, a, b, omega, alpha):
        p = CaseIIParams(a, b, omega, alpha)
        z = oracle_affine(a, b, omega, alpha)
        assert complex_close(affine_jomega(p), z, rel=1e-12, abs_tol=0.0)
        assert close(affine_mag(p), magnitude(z), rel=1e-12, abs_tol=0.0)
        assert close(affine_arg(p), argument(z), rel=0.0, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "a,b,omega,alpha",
        [(1e308, 1.0, 1e300, 0.5), (1.7e308, 1.7e308, 1.0, 0.01)],
        ids=["a*omega**alpha", "magnitude"],
    )
    @pytest.mark.parametrize("f", [affine_mag, affine_jomega], ids=["affine_mag", "affine_jomega"])
    def test_beyond_a_double_is_value_error(self, f, a, b, omega, alpha):
        with pytest.raises(ValueError, match="must be finite, got inf"):
            f(CaseIIParams(a, b, omega, alpha))

    @given(gains, gains, omegas, alphas)
    def test_pythagorean_consistency(self, a, b, omega, alpha):
        p = CaseIIParams(a, b, omega, alpha)
        z = affine_jomega(p)
        assert close(affine_mag(p) ** 2, z.re * z.re + z.im * z.im)

    @given(gains, gains, omegas, alphas)
    def test_argument_range(self, a, b, omega, alpha):
        assert 0.0 < affine_arg(CaseIIParams(a, b, omega, alpha)) < math.pi / 2


class TestWrongCrossTermVariant:
    def test_agrees_only_at_unit_frequency(self):
        at_one = CaseIIParams(1.0, 1.0, 1.0, 0.5)
        assert close(affine_mag_omega2_cross_term(at_one), affine_mag(at_one))

    def test_disagrees_with_direct_evaluation_elsewhere(self):
        p = CaseIIParams(1.0, 1.0, 10.0, 0.5)
        reference = magnitude(oracle_affine(1.0, 1.0, 10.0, 0.5))
        wrong = affine_mag_omega2_cross_term(p)
        assert close(affine_mag(p), reference)
        assert abs(wrong - reference) / reference > 1.0
