import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracfreq import (
    Complex,
    argument,
    branch_count,
    magnitude,
    mul,
    nth_roots,
    pow_branch,
    principal_pow,
    to_polar,
)
from helpers import angles_close, as_builtin, close, complex_close, diff, power_by_mul

radii = st.floats(min_value=1e-3, max_value=1e3)
angles = st.floats(min_value=-3.14159, max_value=3.14159)


@st.composite
def nonzero_values(draw):
    r = draw(radii)
    phi = draw(angles)
    return Complex(r * math.cos(phi), r * math.sin(phi))


class TestPolarForm:
    def test_round_trip(self):
        p = to_polar(Complex(3, 4))
        assert p.r == 5.0 and close(p.phi, math.atan2(4, 3))

    def test_rejects_out_of_range_angle(self):
        import fracfreq

        with pytest.raises(ValueError):
            fracfreq.PolarForm(1.0, 4.0)

    def test_rejects_negative_modulus(self):
        import fracfreq

        with pytest.raises(ValueError):
            fracfreq.PolarForm(-1.0, 0.0)


class TestNthRoots:
    def test_square_roots_of_four(self):
        r0, r1 = nth_roots(Complex(4, 0), 2)
        assert complex_close(r0, Complex(2, 0))
        assert complex_close(r1, Complex(-2, 0))

    def test_square_roots_of_minus_one(self):
        r0, r1 = nth_roots(Complex(-1, 0), 2)
        assert complex_close(r0, Complex(0, 1))
        assert complex_close(r1, Complex(0, -1))

    def test_square_roots_of_j_square_back(self):
        j = Complex(0, 1)
        for root in nth_roots(j, 2):
            assert complex_close(mul(root, root), j)
        assert complex_close(
            nth_roots(j, 2)[0], Complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        )

    def test_first_root_is_principal(self):
        s = Complex(1.5, -2.0)
        for n in range(2, 6):
            assert complex_close(nth_roots(s, n)[0], principal_pow(s, 1.0 / n))

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_order(self, n):
        with pytest.raises(ValueError):
            nth_roots(Complex(1, 0), n)

    def test_non_integer_order(self):
        with pytest.raises(ValueError):
            nth_roots(Complex(1, 0), 2.0)

    def test_zero_base(self):
        with pytest.raises(ValueError):
            nth_roots(Complex(0, 0), 2)

    @given(nonzero_values(), st.integers(min_value=2, max_value=8))
    def test_round_trip_and_distinctness(self, s, n):
        roots = nth_roots(s, n)
        assert len(roots) == n
        tol = 1e-10 * magnitude(s)
        for root in roots:
            assert magnitude(diff(power_by_mul(root, n), s)) <= tol
        sep = 1e-9 * magnitude(s) ** (1.0 / n)
        for i in range(n):
            for k in range(i + 1, n):
                assert magnitude(diff(roots[i], roots[k])) > sep


class TestPowBranch:
    def test_principal_square_root_of_j(self):
        assert complex_close(pow_branch(Complex(0, 1), 0.5, 0), nth_roots(Complex(0, 1), 2)[0])

    def test_second_branch_of_sqrt_four(self):
        assert complex_close(pow_branch(Complex(4, 0), 0.5, 1), Complex(-2, 0))

    @given(nonzero_values())
    def test_alpha_one_is_identity(self, s):
        scale = max(magnitude(s), 1.0)
        assert complex_close(pow_branch(s, 1.0, 0), s, abs_tol=1e-12 * scale)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.inf])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            pow_branch(Complex(1, 1), alpha, 0)

    def test_branch_index_out_of_range(self):
        with pytest.raises(ValueError):
            pow_branch(Complex(1, 1), 0.5, 2)
        with pytest.raises(ValueError):
            pow_branch(Complex(1, 1), 0.5, -1)

    def test_branch_index_must_be_integer(self):
        with pytest.raises(ValueError):
            pow_branch(Complex(1, 1), 0.5, 0.0)

    def test_zero_base(self):
        with pytest.raises(ValueError):
            pow_branch(Complex(0, 0), 0.5, 0)

    def test_reciprocal_alpha_matches_nth_roots(self):
        s = Complex(-0.7, 2.2)
        for n in (2, 3, 5, 8):
            roots = nth_roots(s, n)
            for k in range(n):
                assert complex_close(pow_branch(s, 1.0 / n, k), roots[k])


class TestOnePolarPower:
    """nth_roots, pow_branch and principal_pow are one formula, so they agree bit for bit."""

    @given(nonzero_values(), st.integers(min_value=1, max_value=64))
    def test_nth_roots_are_pow_branch_exactly(self, s, n):
        expected = [repr(pow_branch(s, 1.0 / n, k)) for k in range(n)]
        assert [repr(z) for z in nth_roots(s, n)] == expected

    # Complex(r, -0.0) has the angle -0.0, which branch 0 keeps.
    @given(
        st.one_of(nonzero_values(), st.builds(Complex, radii, st.just(-0.0))),
        st.floats(min_value=math.ulp(0.0), max_value=1.0),
    )
    def test_pow_branch_zero_is_principal_pow(self, s, alpha):
        assert repr(pow_branch(s, alpha, 0)) == repr(principal_pow(s, alpha))

    @pytest.mark.parametrize(
        "call",
        [lambda s: nth_roots(s, 3), lambda s: pow_branch(s, 0.5, 1), lambda s: principal_pow(s, 2.5)],
        ids=["nth_roots", "pow_branch", "principal_pow"],
    )
    def test_zero_base_has_one_message(self, call):
        with pytest.raises(ValueError, match="^fractional power of zero is undefined$"):
            call(Complex(0.0, -0.0))

    @pytest.mark.parametrize("s,alpha", [(Complex(1e300, 0.0), 2.0), (Complex(0.0, -1e200), 1.6)])
    def test_principal_pow_overflow_is_value_error(self, s, alpha):
        with pytest.raises(ValueError, match=r"^\|s\|\*\*alpha overflows a double, got "):
            principal_pow(s, alpha)


class TestBranchCount:
    @pytest.mark.parametrize("n", list(range(1, 50)))
    def test_reciprocal_exponents(self, n):
        assert branch_count(1.0 / n) == n

    def test_general_exponent_rounds_up(self):
        assert branch_count(0.3) == 4
        assert branch_count(0.9) == 2

    @given(
        st.one_of(
            st.floats(min_value=math.ulp(0.0), max_value=1.0),
            st.integers(min_value=1, max_value=10**6).map(lambda n: 1.0 / n),
            st.integers(min_value=1, max_value=10**6).map(lambda n: math.nextafter(1.0 / n, 0.0)),
            st.integers(min_value=1, max_value=10**6).map(lambda n: math.nextafter(1.0 / n, 1.0)),
        )
    )
    def test_count_is_exact(self, alpha):
        # n when alpha is the double nearest 1/n for n the integer nearest
        # 1/alpha, ceil(1/alpha) otherwise, both in exact rationals.
        inverse = 1 / Fraction(alpha)
        n = round(inverse)
        expected = n if float(Fraction(1, n)) == alpha else math.ceil(inverse)
        assert branch_count(alpha) == expected

    @pytest.mark.parametrize(
        "alpha,expected",
        [
            # 1/alpha is beyond the double range; both are the double nearest 1/n.
            (5e-324, 2**1074),
            (1e-309, round(1 / Fraction(1e-309))),
            # Just below 1/2: three branches, the third one near the first.
            (0.4999999999, 3),
            (math.nextafter(0.5, 0.0), 3),
        ],
        ids=["5e-324", "1e-309", "0.4999999999", "below-0.5"],
    )
    def test_tiny_and_just_below_reciprocal_exponents(self, alpha, expected):
        assert branch_count(alpha) == expected

    def test_branches_of_tiny_and_just_below_reciprocal_exponents(self):
        s = Complex(1, 1)
        assert pow_branch(s, 1e-309, 0) == principal_pow(s, 1e-309)
        # Branch 2 turns by 4*pi*alpha, 1.3e-9 short of a full turn.
        third = pow_branch(s, 0.4999999999, 2)
        assert complex_close(third, principal_pow(s, 0.4999999999), rel=0.0, abs_tol=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0001])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            branch_count(alpha)


class TestPrincipalPow:
    def test_j_squared(self):
        assert complex_close(principal_pow(Complex(0, 1), 2.0), Complex(-1, 0))

    @given(nonzero_values())
    def test_zeroth_power(self, s):
        assert complex_close(principal_pow(s, 0.0), Complex(1, 0))

    def test_non_reciprocal_exponent_squares_consistently(self):
        # (j**0.6)**2 must equal j**1.2
        half = principal_pow(Complex(0, 1), 0.6)
        assert complex_close(mul(half, half), principal_pow(Complex(0, 1), 1.2))

    def test_zero_base(self):
        with pytest.raises(ValueError):
            principal_pow(Complex(0, 0), 0.5)

    @pytest.mark.parametrize("alpha", [-0.1, math.inf, math.nan])
    def test_bad_exponent(self, alpha):
        with pytest.raises(ValueError):
            principal_pow(Complex(1, 1), alpha)

    @given(nonzero_values(), st.floats(min_value=0.0, max_value=2.0))
    def test_modulus_law(self, s, alpha):
        assert close(magnitude(principal_pow(s, alpha)), magnitude(s) ** alpha)

    @given(nonzero_values(), st.floats(min_value=1e-3, max_value=1.0))
    def test_argument_law(self, s, alpha):
        assert angles_close(argument(principal_pow(s, alpha)), alpha * argument(s))

    @given(nonzero_values(), st.floats(min_value=0.0, max_value=2.0))
    def test_against_builtin_power(self, s, alpha):
        # stdlib complex pow is an independently implemented oracle
        expected = as_builtin(s) ** alpha
        got = principal_pow(s, alpha)
        scale = max(abs(expected), 1.0)
        assert close(got.re, expected.real, abs_tol=1e-12 * scale)
        assert close(got.im, expected.imag, abs_tol=1e-12 * scale)
