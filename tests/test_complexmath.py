import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracfreq import Complex, FracPoly, FracTerm, add, argument, div, magnitude, mul
from fracfreq import complexmath
from fracfreq.complexmath import j_pow
from helpers import angles_close, close, complex_close, decimal_poly

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
values = st.builds(Complex, finite, finite)
nonzero = values.filter(lambda s: magnitude(s) > 1e-9)


class TestConstruction:
    @pytest.mark.parametrize("re,im", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite(self, re, im):
        with pytest.raises(ValueError):
            Complex(re, im)

    def test_coerces_to_float(self):
        s = Complex(1, 2)
        assert isinstance(s.re, float) and isinstance(s.im, float)

    def test_default_imaginary_is_zero(self):
        assert Complex(3.0) == Complex(3.0, 0.0)


class TestAdd:
    def test_componentwise(self):
        assert add(Complex(1, 2), Complex(3, 4)) == Complex(4, 6)

    def test_additive_identity(self):
        s = Complex(-2.5, 7.0)
        assert add(s, Complex(0, 0)) == s

    def test_additive_inverse(self):
        assert add(Complex(1, -1), Complex(-1, 1)) == Complex(0, 0)

    def test_overflow_rejected(self):
        big = Complex(1.7e308, 0.0)
        with pytest.raises(ValueError):
            add(big, big)


class TestMul:
    def test_j_squared(self):
        assert mul(Complex(0, 1), Complex(0, 1)) == Complex(-1, 0)

    def test_multiplicative_identity(self):
        s = Complex(-2.5, 7.0)
        assert mul(Complex(1, 0), s) == s

    def test_product_expansion(self):
        assert mul(Complex(1, 2), Complex(3, 4)) == Complex(-5, 10)

    def test_overflow_rejected(self):
        big = Complex(1e200, 0.0)
        with pytest.raises(ValueError):
            mul(big, big)


class TestDiv:
    def test_inverts_mul(self):
        q = div(Complex(-5, 10), Complex(3, 4))
        assert complex_close(q, Complex(1, 2))

    def test_huge_divisor(self):
        q = div(Complex(1, 0), Complex(1e200, 1e200))
        assert complex_close(q, Complex(5e-201, -5e-201), abs_tol=0.0)

    def test_tiny_divisor(self):
        q = div(Complex(1, 0), Complex(1e-170, 0))
        assert complex_close(q, Complex(1e170, 0), abs_tol=0.0)

    def test_division_by_zero(self):
        with pytest.raises(ValueError):
            div(Complex(1, 0), Complex(0, 0))


class TestMagnitude:
    def test_pythagorean_triple(self):
        assert magnitude(Complex(3, 4)) == 5.0

    def test_zero(self):
        assert magnitude(Complex(0, 0)) == 0.0

    def test_unit_imaginary(self):
        assert magnitude(Complex(0, 1)) == 1.0


class TestArgument:
    def test_first_quadrant_diagonal(self):
        assert close(argument(Complex(1, 1)), math.pi / 4)

    def test_negative_real_axis(self):
        assert argument(Complex(-1, 0)) == math.pi

    def test_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            argument(Complex(0, 0))

    def test_positive_real_axis(self):
        assert argument(Complex(2.5, 0)) == 0.0

    def test_negative_zero_imaginary_folds_to_pi(self):
        # atan2 alone would answer -pi here, outside (-pi, pi]
        assert argument(Complex(-1.0, -0.0)) == math.pi

    def test_just_below_the_cut_folds_to_pi(self):
        assert argument(Complex(-1.0, -1e-300)) == math.pi

    def test_lower_half_plane(self):
        assert close(argument(Complex(0, -1)), -math.pi / 2)

    @given(nonzero)
    def test_range(self, s):
        phi = argument(s)
        assert -math.pi < phi <= math.pi

    @given(nonzero)
    def test_reconstructs_value(self, s):
        r, phi = magnitude(s), argument(s)
        rebuilt = Complex(r * math.cos(phi), r * math.sin(phi))
        scale = max(r, 1.0)
        assert complex_close(rebuilt, s, rel=1e-12, abs_tol=1e-12 * scale)


class TestAlgebraicLaws:
    @given(nonzero, nonzero)
    def test_magnitude_of_product(self, a, b):
        assert close(magnitude(mul(a, b)), magnitude(a) * magnitude(b))

    @given(nonzero, nonzero)
    def test_argument_of_product(self, a, b):
        assert angles_close(argument(mul(a, b)), argument(a) + argument(b))

    @given(values)
    def test_magnitude_squared(self, s):
        assert close(magnitude(s) ** 2, s.re * s.re + s.im * s.im)

    @given(values, values)
    def test_add_commutes(self, a, b):
        assert add(a, b) == add(b, a)

    @given(values, values)
    def test_mul_commutes(self, a, b):
        assert mul(a, b) == mul(b, a)

    @given(values, values, values)
    def test_mul_distributes_over_add(self, a, b, c):
        lhs = mul(a, add(b, c))
        rhs = add(mul(a, b), mul(a, c))
        scale = magnitude(a) * (magnitude(b) + magnitude(c)) + 1.0
        assert close(lhs.re, rhs.re, abs_tol=1e-12 * scale)
        assert close(lhs.im, rhs.im, abs_tol=1e-12 * scale)


class TestJPow:
    @pytest.mark.parametrize("k", range(41))
    def test_integer_exponent_is_exact_unit(self, k):
        assert j_pow(float(k)) == (1, 1j, -1, -1j)[k % 4]

    @given(st.floats(min_value=0.0, max_value=2.0**52).filter(lambda e: Fraction(e) + 2 == e + 2.0))
    def test_two_apart_are_exact_negatives(self, e):
        # Only the angle past the nearest quarter turn is rounded, and it is the same for both.
        assert j_pow(e + 2.0) == -j_pow(e)

    @example(2.00000001)
    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_each_part_within_4_ulp_of_decimal_reference(self, e):
        # r*pi/2 rounds twice and cos or sin once, and the quarter turn is
        # exact, so each part keeps its relative accuracy even near 0.  A
        # subnormal r*pi/2 loses up to ulp(0) absolute, and the reference
        # itself is off by ~1e-59 where a part is 0.
        want_re, want_im, _ = decimal_poly(FracPoly.from_terms([FracTerm(1.0, e)]), 1.0)
        z = j_pow(e)
        slack = Decimal(math.ulp(0.0)) + Decimal("1e-50")
        for got, want in ((z.real, want_re), (z.imag, want_im)):
            assert abs(Decimal(got) - want) <= 4 * Decimal(2) ** -53 * abs(want) + slack


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.fixture
def cold_j_pow():
    """j_pow with its cache emptied before and after the test, so no test sees another's entries."""
    j_pow.cache_clear()
    yield j_pow
    j_pow.cache_clear()


class TestJPowMemo:
    """j_pow keeps the phasor of each distinct exponent; a kept value must have
    the bits that computing it afresh gives."""

    @example(-0.0)
    @example(5e-324)
    @example(2)
    @example(2.0)
    @example(1e300)
    @example(math.nextafter(4.0, 0.0))
    @example(math.nextafter(4.0, 5.0))
    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_cached_equals_computed_bit_for_bit(self, e):
        # The cache is emptied in the body: a fixture runs once for all examples.
        want = bits(j_pow.__wrapped__(e))
        j_pow.cache_clear()
        assert bits(j_pow(e)) == want  # cold
        assert bits(j_pow(e)) == want  # warm

    @pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0), (2, 2.0), (2.0, 2)])
    def test_equal_keys_give_identical_bits_in_either_order(self, cold_j_pow, first, second):
        # -0.0 and 0.0 share one entry, so the second call returns what the first stored.
        a, b = cold_j_pow(first), cold_j_pow(second)
        assert bits(a) == bits(b) == bits(j_pow.__wrapped__(first)) == bits(j_pow.__wrapped__(second))

    def test_cache_is_bounded(self, cold_j_pow):
        size = complexmath._J_POW_CACHE_SIZE
        assert cold_j_pow.cache_info().maxsize == size
        for k in range(size + 100):
            cold_j_pow(k / 8.0)
        assert cold_j_pow.cache_info().currsize <= size
