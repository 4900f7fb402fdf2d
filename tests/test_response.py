import copy
import dataclasses
import json
import math
import gc
import pickle
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracfreq import (
    CSV_HEADER,
    FORMATS,
    Complex,
    EvaluationError,
    FracPoly,
    FracTerm,
    FracTF,
    FrequencyGrid,
    ResponsePoint,
    eval_poly,
    eval_tf,
    format_value,
    parse_tf,
    response_at,
    sweep,
)
from fracfreq.complexmath import j_pow
from fracfreq import response
from fracfreq.response import MAX_GRID_POINTS, emit
from fracfreq import tf as tf_module
from fracfreq.tf import _poly_on, rows
from helpers import close

DBL_MAX = sys.float_info.max

DECADE_GRID = FrequencyGrid(1.0, 100.0, 1)


class TestFrequencyGrid:
    def test_one_point_per_decade(self):
        assert DECADE_GRID.points() == [1.0, 10.0, 100.0]

    def test_defaults(self):
        grid = FrequencyGrid()
        pts = grid.points()
        assert len(pts) == 81
        assert pts[0] == 0.01
        assert pts[-1] == 100.0

    @pytest.mark.parametrize("decades", [1, 2, 3, 4])
    @pytest.mark.parametrize("ppd", [1, 3, 10, 20, 30])
    def test_cardinality(self, decades, ppd):
        pts = FrequencyGrid(1.0, 10.0**decades, ppd).points()
        assert len(pts) == decades * ppd + 1

    def test_fractional_decade_rounds_interval_count(self):
        assert FrequencyGrid(1.0, 2.0, 3).points() == [1.0, 2.0]
        assert len(FrequencyGrid(1.0, 5.0, 4).points()) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_min": 0.0},
            {"omega_min": -1.0},
            {"omega_min": math.inf},
            {"omega_min": 100.0},
            {"omega_max": 0.005},
            {"omega_max": math.nan},
            {"points_per_decade": 0},
            {"points_per_decade": -3},
            {"points_per_decade": 2.5},
        ],
    )
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            FrequencyGrid(**kwargs)

    @pytest.mark.parametrize(
        "wmin,wmax,ppd",
        [(1.0, 10.0, 1_000_000), (1e-300, 1e300, 1667), (1.0, 10.0, 10**400)],
    )
    def test_rejects_more_than_max_grid_points(self, wmin, wmax, ppd):
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} samples"):
            FrequencyGrid(wmin, wmax, ppd)

    @pytest.mark.parametrize("wmin,wmax,ppd", [(1.0, 10.0, 999_999), (1.0, 1.0 + 1e-9, 10**9)])
    def test_accepts_up_to_max_grid_points(self, wmin, wmax, ppd):
        FrequencyGrid(wmin, wmax, ppd)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_int_and_float_bounds_emit_equal_bytes(self, fmt):
        tf = parse_tf("10000/s^0.5")
        as_int, as_float = FrequencyGrid(0.1, 10, 2), FrequencyGrid(0.1, 10.0, 2)
        assert as_int == as_float
        assert emit(sweep(tf, as_int), fmt) == emit(sweep(tf, as_float), fmt)

    def test_int_beyond_double_rejected(self):
        with pytest.raises(ValueError, match="omega_max must be finite"):
            FrequencyGrid(0.1, 10**400, 2)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(5.0, 5.0, 10)

    @given(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1.5, max_value=1e4),
        st.integers(min_value=1, max_value=40),
    )
    def test_ascending_with_exact_endpoints(self, wmin, ratio, ppd):
        pts = FrequencyGrid(wmin, wmin * ratio, ppd).points()
        assert pts[0] == wmin
        assert pts[-1] == wmin * ratio
        assert all(a < b for a, b in zip(pts, pts[1:]))

    @given(
        st.floats(min_value=5e-324, max_value=sys.float_info.max),
        st.floats(min_value=5e-324, max_value=sys.float_info.max),
        st.integers(min_value=1, max_value=10**9),
    )
    @example(5e-324, sys.float_info.max, 31)
    @example(5e-324, 1e-323, 10**9)
    @example(1e308, sys.float_info.max, 10**9)
    # The step in log10(omega) is near its ulp: an interior point rounded above hi.
    @example(6.8136334270859e-297, 6.813633427086373e-297, 53170108252615)
    def test_points_are_positive_finite_doubles(self, a, b, ppd):
        # The sweep kernel does not check omega; this is why it need not.
        lo, hi = min(a, b), max(a, b)
        assume(lo < hi)
        decades = math.log10(hi) - math.log10(lo)
        if decades > 0.0:
            ppd = min(ppd, max(1, int(20_000 / decades)))
        pts = FrequencyGrid(lo, hi, ppd).points()
        assert pts[0] == lo and pts[-1] == hi
        assert all(type(w) is float and lo <= w <= hi for w in pts)
        # Non-decreasing, not ascending: neighbouring subnormals can round equal,
        # and the reproducer above gives [lo, lo, hi, hi].
        assert all(a <= b for a, b in zip(pts, pts[1:]))


class TestSweep:
    def test_points_are_dataclasses(self):
        p = sweep(parse_tf("10000/s^0.5"), DECADE_GRID)[1]
        q = dataclasses.replace(p, mag_linear=2.0)
        assert type(q) is ResponsePoint
        assert (q.omega, q.mag_linear, q.phase_deg) == (p.omega, 2.0, p.phase_deg)
        assert [f.name for f in dataclasses.fields(p)] == CSV_HEADER.split(",")

    def test_fractional_capacitor_decades(self):
        pts = sweep(parse_tf("10000/s^0.5"), DECADE_GRID)
        assert [p.omega for p in pts] == [1.0, 10.0, 100.0]
        for p, expected_db in zip(pts, [80.0, 70.0, 60.0]):
            assert close(p.mag_db, expected_db, rel=0.0, abs_tol=1e-9)
            assert close(p.phase_deg, -45.0, rel=0.0, abs_tol=1e-9)

    def test_half_differentiator_decades(self):
        pts = sweep(parse_tf("s^0.5"), DECADE_GRID)
        for p, expected_db in zip(pts, [0.0, 10.0, 20.0]):
            assert close(p.mag_db, expected_db, rel=0.0, abs_tol=1e-9)
            assert close(p.phase_deg, 45.0, rel=0.0, abs_tol=1e-9)

    def test_identity_is_exact(self):
        for p in sweep(parse_tf("1/1"), FrequencyGrid()):
            assert p.mag_linear == 1.0
            assert p.mag_db == 0.0
            assert p.phase_rad == 0.0
            assert p.phase_deg == 0.0

    def test_zero_system(self):
        p = response_at(parse_tf("0/1"), 1.0)
        assert p.mag_linear == 0.0
        assert p.mag_db == -math.inf
        assert p.phase_rad == 0.0

    def test_exact_zero_at_quarter_turn(self):
        p = response_at(parse_tf("s^4-1"), 1.0)
        assert p.mag_linear == 0.0
        assert p.mag_db == -math.inf
        assert p.phase_rad == 0.0

    def test_int_omega_is_stored_as_double(self):
        tf = parse_tf("10000/s^0.5")
        assert response_at(tf, 2).omega == 2.0
        assert emit([response_at(tf, 2)], "json") == emit([response_at(tf, 2.0)], "json")

    @pytest.mark.parametrize("omega", [10**400, True], ids=["int_beyond_double", "bool"])
    def test_omega_not_a_double_rejected(self, omega):
        with pytest.raises(ValueError, match="omega must be finite"):
            response_at(parse_tf("10000/s^0.5"), omega)

    def test_abort_carries_first_bad_frequency(self):
        with pytest.raises(EvaluationError) as excinfo:
            sweep(parse_tf("1/1e-310"), DECADE_GRID)
        assert excinfo.value.omega == 1.0

    @given(
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_constant_phase_of_single_power(self, c, alpha):
        for p in sweep(parse_tf(f"{c!r}*s^{alpha!r}"), DECADE_GRID):
            assert close(p.phase_rad, alpha * math.pi / 2, rel=0.0, abs_tol=1e-12)

    @given(
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_slope_per_decade_of_single_power(self, c, alpha):
        grid = FrequencyGrid(0.01, 100.0, 1)
        pts = sweep(parse_tf(f"{c!r}*s^{alpha!r}"), grid)
        for lo, hi in zip(pts, pts[1:]):
            assert close(hi.mag_db - lo.mag_db, 20.0 * alpha, rel=0.0, abs_tol=1e-9)

    @pytest.mark.parametrize(
        "text",
        [
            # (-2/2 * w**2) * (2 * j**2) has imaginary part -0.0; the column's
            # 0j start makes it +0.0, so the phase is 0.0, not -0.0.
            "-2*s^2",
            "(3*s^0.5+2)/(s^1.2+4*s^0.7+1)",
            # N and D share the exponent 0.5, so D reuses N's phasor and omega**0.5 column.
            "(s^0.5+1)/(2*s^1.5+s^0.5+3)",
            # Exponents next to a quarter turn, where only r*pi/2 is rounded.
            "s^2.00000001/(s^3.999999999999999+1)",
        ],
    )
    def test_emit_bytes_equal_with_cold_and_warm_phasor_cache(self, text):
        # Cold is also without the grid's kept omega**e columns; warm reads them.
        tf, grid = parse_tf(text), FrequencyGrid(0.01, 100.0, 5)
        j_pow.cache_clear()
        response._kept_points.cache_clear()
        cold = [emit(sweep(tf, grid), f) for f in ("csv", "json")]
        assert set(grid._kept()[1]) == {t.exponent for poly in tf for t in poly.terms}
        warm = [emit(sweep(tf, grid), f) for f in ("csv", "json")]
        assert cold == warm


polys = st.lists(
    st.tuples(
        st.floats(min_value=-1e3, max_value=1e3),
        st.one_of(st.integers(0, 4).map(float), st.floats(min_value=0.0, max_value=4.0)),
    ),
    min_size=1,
    max_size=6,
).map(lambda terms: FracPoly.from_terms([FracTerm(c, e) for c, e in terms]))

small_grids = st.builds(
    lambda lo, ratio, ppd: FrequencyGrid(lo, lo * ratio, ppd),
    st.floats(min_value=1e-3, max_value=1e2),
    st.floats(min_value=1.5, max_value=1e4),
    st.integers(min_value=1, max_value=10),
)


# Integer exponents (exact quarter turns) up to 600, exponents one ulp or
# 1e-9 off an integer, and any exponent in range.
kernel_exponents = st.one_of(
    st.integers(0, 600).map(float),
    st.integers(0, 600).flatmap(
        lambda k: st.sampled_from([math.nextafter(k, 0.0), math.nextafter(k, math.inf), max(0.0, k - 1e-9), k + 1e-9])
    ),
    st.floats(min_value=0.0, max_value=600.0),
)


def kernel_polys_of(exponents):
    return st.lists(
        st.tuples(st.floats(min_value=-1e300, max_value=1e300).filter(bool), exponents),
        min_size=1,
        max_size=6,
    ).map(lambda terms: FracPoly.from_terms([FracTerm(c, e) for c, e in terms]))


@st.composite
def kernel_columns(draw, exponents=kernel_exponents):
    """A polynomial and a column of omegas; when the largest exponent
    e_max > 1.01, one omega, at a drawn place, has omega**e_max overflow."""
    p = draw(kernel_polys_of(exponents))
    omegas = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8))
    e_max = p.terms[0].exponent
    if e_max > 1.01:
        omegas.insert(draw(st.integers(0, len(omegas))), min(2.0 ** (1030.0 / e_max), 1e300))
    return p, omegas


def in_order_sum(p: FracPoly, omega: float) -> complex:
    """p at s = j*omega as the sum, in term order, of omega**e * (c * j**e),
    each part a product of floats, and of c * (omega**e * j**e) where
    |c| < 2**-511."""
    acc = 0j
    try:
        for t in p.terms:
            c, x, jj = t.coeff, omega**t.exponent, j_pow(t.exponent)
            if abs(c) < 2.0**-511:
                acc = acc + c * (x * jj)
                continue
            acc = complex(acc.real + x * (c * jj.real), acc.imag + x * (c * jj.imag))
    except OverflowError:
        return complex(math.inf)
    return acc


def phasor_first_sum(p: FracPoly, omega: float) -> complex:
    """The same sum with each term formed as c * (omega**e * j**e): two complex multiplies."""
    acc = 0j
    try:
        for t in p.terms:
            acc = acc + t.coeff * (omega**t.exponent * j_pow(t.exponent))
    except OverflowError:
        return complex(math.inf)
    return acc


@st.composite
def big_terms(draw):
    """c with |c| > 1, an exponent e and an omega with omega**e anywhere in the double range."""
    c = draw(st.floats(min_value=1.0, max_value=sys.float_info.max, exclude_min=True))
    e = draw(st.integers(1, 600).map(float) | st.floats(min_value=0.01, max_value=600.0))
    log2_power = draw(st.floats(min_value=-1074.0, max_value=1023.0))
    return draw(st.sampled_from([c, -c])), e, 2.0 ** max(-1074.0, min(log2_power / e, 1023.0))


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def first_eval_error(tf, omegas) -> EvaluationError | None:
    """The error of the first omega, in the order given, that eval_tf refuses."""
    for omega in omegas:
        try:
            eval_tf(tf, omega)
        except EvaluationError as exc:
            return exc
    return None


class TestColumnEvaluation:
    """A sweep evaluates the grid term by term; each point must come out as
    evaluating it alone does, to the bit, and so must each failure."""

    @settings(deadline=None)
    @given(polys, polys, small_grids)
    def test_rows_equal_single_points_bit_for_bit(self, num, den, grid):
        assume(not den.is_zero())
        tf, omegas = FracTF(num, den), grid.points()
        try:
            got = rows(tf, omegas)
        except EvaluationError as exc:
            first = first_eval_error(tf, omegas)
            assert (str(first), first.omega) == (str(exc), exc.omega)
            return
        assert first_eval_error(tf, omegas) is None
        # repr tells -0.0 from 0.0 and shows every bit of a double.
        for row, omega in zip(got, omegas, strict=True):
            assert repr(row) == repr(dataclasses.astuple(response_at(tf, omega)))
            ((n,), (d,)) = (_poly_on(side, [omega], {}) for side in tf)
            h, point = n / d, eval_tf(tf, omega)
            assert repr(complex(point.re, point.im)) == repr(h)
            assert repr(row[1]) == repr(math.hypot(h.real, h.imag))

    @pytest.mark.parametrize(
        "text, grid, message, omega",
        [
            # D's omega**400 overflows at the 19th of 31 points, mid-column.
            ("1/(s^400+1)", (0.1, 100.0, 10), "a value overflows", 6.309573444801933),
            # Only N overflows.
            ("s^400/(s+1)", (0.1, 100.0, 10), "a value overflows", 6.309573444801933),
            # D is exactly 0 at omega = 1, before N overflows at 10.
            ("s^400/(s^1.5+s^3.5)", (0.1, 100.0, 1), "denominator vanishes", 1.0),
            # omega**1000 underflows to 0 at the first point.
            ("1/s^1000", (0.4, 10.0, 1), "denominator vanishes", 0.4),
        ],
    )
    def test_sweep_fails_where_first_eval_tf_fails(self, text, grid, message, omega):
        tf, grid = parse_tf(text), FrequencyGrid(*grid)
        first = first_eval_error(tf, grid.points())
        with pytest.raises(EvaluationError) as swept:
            sweep(tf, grid)
        with pytest.raises(EvaluationError) as rowed:
            rows(tf, grid.points())
        for exc in (first, swept.value, rowed.value):
            assert (str(exc), exc.omega) == (f"{message} at omega={omega!r}", omega)

    @settings(deadline=None)
    @given(kernel_columns())
    @example((parse_tf("s^400+3*s^2.5").numerator, [0.1, 6.309573444801933, 2.0]))
    # c * omega**e = 1.5e308 * 2**0.5 overflows; each part of the term, 1.5e308 * (1 + j), does not.
    @example((parse_tf("1.5e308*s^0.5").numerator, [1.0, 2.0]))
    # c * j**e first would round into the subnormal range before omega**e did.
    @example((FracPoly.from_terms([FracTerm(2.225073858507e-311, 0.5)]), [0.00390625, 1.0]))
    # Two terms per pass: a pair whose second term has |c| < 2**-511 takes two
    # passes of one term, and so does a tiny term between two normal ones.  The
    # real parts are whole numbers, so each imaginary part is the tiny term's,
    # whose bits differ where it is x * (c * j**e).
    @example((parse_tf("s^2+2.225073858507e-311*s^1.5").numerator, [0.5, 2.0, 3.0]))
    @example((parse_tf("s^2+2.225073858507e-311*s^1.5+4").numerator, [0.5, 2.0, 3.0]))
    # 1, 2, 3 and 5 terms: no pair, one pair, a pair and a last odd term, two pairs and one.
    @example((parse_tf("-2.5*s^0.3").numerator, [0.01, 1.0, 7.5]))
    @example((parse_tf("-2.5*s^0.3+1.25").numerator, [0.01, 1.0, 7.5]))
    @example((parse_tf("s^2.7-2.5*s^0.3+1.25").numerator, [0.01, 1.0, 7.5]))
    @example((parse_tf("0.1*s^4.5+3*s^3+s^2.7-2.5*s^0.3+1.25").numerator, [0.01, 1.0, 7.5]))
    def test_column_is_the_in_order_sum_bit_for_bit(self, column):
        p, omegas = column
        got = _poly_on(p, omegas, {})
        assert len(got) == len(omegas)
        for z, omega in zip(got, omegas):
            assert bits(z) == bits(in_order_sum(p, omega)), omega

    @settings(deadline=None)
    @given(kernel_columns(st.integers(0, 600).map(float)))
    @example((parse_tf("-3*s^2+1e300*s^101+s").numerator, [0.5, 1e3, 1.0]))
    @example((parse_tf("1.25*s").numerator, [5e-324, 1.0]))
    def test_integer_exponents_keep_the_phasor_first_bits(self, column):
        # j**e is an exact quarter turn, so c * j**e is exact and both orders
        # round only c * omega**e, once.  Where the phasor-first sum overflows,
        # the kernel's may be nan instead of inf.
        p, omegas = column
        for z, omega in zip(_poly_on(p, omegas, {}), omegas):
            want = phasor_first_sum(p, omega)
            if not (math.isfinite(want.real) and math.isfinite(want.imag)):
                continue
            assert bits(z) == bits(want), omega

    @given(big_terms())
    # c * omega**e overflows, the parts 1.5e308 * (1 + j) do not.
    @example((1.5e308, 0.5, 2.0))
    def test_term_overflows_only_where_a_part_does(self, term):
        # The kernel rounds each exact part of c * omega**e * j**e, with omega**e
        # and j**e the doubles it reads, twice: by less than 2**-51 relative, so
        # a term whose parts are 2**-50 below DBL_MAX stays finite, and one with
        # a part 2**-50 above it does not.
        c, e, omega = term
        (z,) = _poly_on(FracPoly((FracTerm(c, e),)), [omega], {})
        x, jj = Fraction(omega**e), j_pow(e)
        parts = [abs(Fraction(c) * x * Fraction(part)) for part in (jj.real, jj.imag)]
        if max(parts) <= DBL_MAX * (1 - Fraction(1, 2**50)):
            assert math.isfinite(z.real) and math.isfinite(z.imag)
        if max(parts) > DBL_MAX * (1 + Fraction(1, 2**50)):
            assert not (math.isfinite(z.real) and math.isfinite(z.imag))

    def test_overflow_makes_only_its_own_omega_infinite(self):
        den = parse_tf("1/(s^400+1)").denominator
        omegas = FrequencyGrid(0.1, 100.0, 10).points()
        column = _poly_on(den, omegas, {})
        assert [z == complex(math.inf) for z in column] == [False] * 18 + [True] * 13
        for omega, z in zip(omegas[:18], column):
            assert repr(eval_poly(den, omega)) == repr(Complex(z.real, z.imag))


def hexes(point: ResponsePoint) -> list[str]:
    """Each field's float.hex, so -0.0 differs from 0.0 and every bit counts."""
    return [float.hex(v) for v in tuple(point)]


def tf_grid(text: str, *grid) -> tuple[FracPoly, FracPoly, FrequencyGrid]:
    tf = parse_tf(text)
    return tf.numerator, tf.denominator, FrequencyGrid(*grid)


class TestRecordBuilder:
    """sweep and response_at build their records without ResponsePoint's
    check; each must be the record the checked constructor makes of its row."""

    @settings(deadline=None)
    @given(polys, polys, small_grids)
    # atan2 gives -0.0 at omega = 10; both paths must turn it into +0.0.
    @example(*tf_grid("(s^2+1)/(s^2+2)", 0.1, 10.0, 1))
    # Zero responses: at omega = 1 only, and everywhere.
    @example(*tf_grid("s^4-1", 0.1, 10.0, 1))
    @example(*tf_grid("s^2-s^2", 0.1, 10.0, 1))
    # A pair of terms on each side, and a tiny term between two normal ones.
    @example(*tf_grid("(3*s^1.5+1e-160*s^0.5+2)/(s^1.2+4*s^0.7)", 0.1, 10.0, 3))
    def test_sweep_records_equal_checked_records(self, num, den, grid):
        assume(not den.is_zero())
        tf = FracTF(num, den)
        try:
            expected = rows(tf, grid.points())
        except EvaluationError:
            assume(False)
        got = sweep(tf, grid)
        assert len(got) == len(expected)
        for record, row in zip(got, expected):
            checked = ResponsePoint(*row)
            assert type(row) is tuple
            assert type(record) is ResponsePoint
            single = response_at(tf, row[0])
            assert type(single) is ResponsePoint and hexes(single) == hexes(checked)
            assert hexes(record) == hexes(checked) == [float.hex(v) for v in row]
            assert [f.name for f in dataclasses.fields(record)] == CSV_HEADER.split(",")
            assert tuple(record) == tuple(checked) == row
            assert record == checked
            assert hash(record) == hash(checked)
            assert repr(record) == repr(checked)
            unpickled = pickle.loads(pickle.dumps(record))
            assert unpickled == record
            assert (type(unpickled), hexes(unpickled)) == (ResponsePoint, hexes(record))
            with pytest.raises(ValueError, match="^mag_linear must be finite, got nan$"):
                dataclasses.replace(record, mag_linear=math.nan)
        assert hexes(response_at(tf, grid.omega_max)) == hexes(got[-1])

    def test_sweep_of_1501_points_calls_no_checked_new(self, monkeypatch):
        calls = []
        checked_new = ResponsePoint.__new__

        def counted_new(cls, *args):
            calls.append(args)
            return checked_new(cls, *args)

        monkeypatch.setattr(ResponsePoint, "__new__", counted_new)
        tf = parse_tf("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)")
        points = sweep(tf, FrequencyGrid(1e-2, 1e3, 300))
        assert len(points) == 1501
        response_at(tf, 1.0)
        assert calls == []
        # The counter sees the checked path, which still rejects a bool.
        with pytest.raises(ValueError, match="^mag_linear must be finite, got bool$"):
            ResponsePoint(1.0, True, 0.0, 0.0, 0.0)
        assert calls == [(1.0, True, 0.0, 0.0, 0.0)]


IDENTITY_POINT = ResponsePoint(1.0, 1.0, 0.0, 0.0, 0.0)

# Every record ResponsePoint accepts: finite doubles, -0.0 and subnormals
# included, and mag_db also -inf.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POINTS = st.builds(ResponsePoint, FINITE, FINITE, FINITE | st.just(-math.inf), FINITE, FINITE)


# Each way of making a record from another; all go through the checked __new__.
REBUILDS = {
    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}
if sys.version_info >= (3, 13):
    REBUILDS["copy.replace"] = copy.replace


class TestRecord:
    """The record users see: a frozen dataclass that is also its row."""

    @given(POINTS)
    def test_record_is_its_row_but_equals_only_a_record(self, p):
        row = tuple(getattr(p, name) for name in CSV_HEADER.split(","))
        assert tuple(p) == row and p[2] == p.mag_db and len(p) == 5
        assert p != row and row != p and not p == row and not row == p
        assert p == ResponsePoint(*row) and not p != ResponsePoint(*row)
        assert hash(p) == hash(dataclasses.astuple(p)) == hash(row)
        # Other objects still decide equality, as with any dataclass.
        assert p == mock.ANY and not p != mock.ANY
        assert not hasattr(p, "__dict__")

    def test_fields_have_no_default(self):
        for f in dataclasses.fields(ResponsePoint):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name
        assert type(vars(ResponsePoint)["omega"]) is property
        assert response_at(parse_tf("s"), 2.0).omega == 2.0

    def test_assignment_raises_frozen_instance_error(self):
        for name in ("omega", "phase_deg", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(IDENTITY_POINT, name, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del IDENTITY_POINT.omega
        assert tuple(IDENTITY_POINT) == (1.0, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("rebuild", REBUILDS.values(), ids=list(REBUILDS))
    def test_rebuilds_check_each_field(self, rebuild):
        p = response_at(parse_tf("(s^0.5+1)/(2*s^1.5+3)"), 2.0)
        q = rebuild(p)
        assert type(q) is ResponsePoint
        assert hexes(q) == hexes(p)
        # A record holding NaN can only be made unchecked, as here.
        bad = tuple.__new__(ResponsePoint, (1.0, math.nan, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="^mag_linear must be finite, got nan$"):
            rebuild(bad)


def oracle(points, fmt: str) -> bytes:
    """emit's bytes by another route: format_value per CSV cell, json.dumps for JSON."""
    points = [tuple(p) for p in points]
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(map(format_value, p)) for p in points]
        return "".join(line + "\n" for line in lines).encode("ascii")
    objs = [dict(zip(CSV_HEADER.split(","), p)) for p in points]
    return (json.dumps(objs, indent=2) + "\n").encode("ascii")


@pytest.fixture
def cold():
    """Empty grid caches before and after the test."""
    response._kept_points.cache_clear()
    response._kept_texts.cache_clear()
    yield
    response._kept_points.cache_clear()
    response._kept_texts.cache_clear()


def grid_of(points: int, k: int = 0) -> FrequencyGrid:
    """A one-decade grid of `points` points, starting k thousandths above 1."""
    lo = 1.0 + k / 1000
    grid = FrequencyGrid(lo, lo * 10.0, points - 1)
    assert len(grid.points()) == points
    return grid


class TestEmit:
    def test_empty_csv_is_header_only(self):
        assert emit([]) == (CSV_HEADER + "\n").encode()

    def test_empty_json(self):
        assert emit([], format="json") == b"[]\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_iterators_emit_as_lists(self, cold, fmt):
        pts = sweep(parse_tf("10000/s^0.5"), DECADE_GRID)
        # The first emit keeps the grid's omega texts, the second reads them.
        assert emit(iter(pts), fmt) == emit(iter(pts), fmt) == emit(pts, fmt) == oracle(pts, fmt)
        assert emit(iter(()), fmt) == emit([], fmt)

    def test_empty_iterator_of_rows_is_empty_json(self):
        assert emit(iter([]), "json") == b"[]\n"

    def test_identity_row(self):
        body = emit([IDENTITY_POINT]).decode()
        lines = body.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == ",".join([format_value(1.0)] * 2 + [format_value(0.0)] * 3)
        assert lines[1].startswith("1.0000000000000000e+00,1.0000000000000000e+00,")

    def test_csv_round_trips_exactly(self):
        pts = sweep(parse_tf("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)"), FrequencyGrid())
        rows = emit(pts).decode().splitlines()[1:]
        assert len(rows) == len(pts)
        for row, p in zip(rows, pts):
            got = [float(cell) for cell in row.split(",")]
            assert got == [p.omega, p.mag_linear, p.mag_db, p.phase_rad, p.phase_deg]

    def test_json_round_trips_exactly(self):
        pts = sweep(parse_tf("10000/s^0.5"), DECADE_GRID)
        loaded = json.loads(emit(pts, format="json"))
        assert len(loaded) == len(pts)
        names = CSV_HEADER.split(",")
        for obj, p in zip(loaded, pts):
            assert list(obj) == names
            assert obj["omega"] == p.omega
            assert obj["mag_db"] == p.mag_db
            assert obj["phase_rad"] == p.phase_rad

    @given(st.lists(POINTS, max_size=4))
    @example([ResponsePoint(1.0, 0.0, -math.inf, 0.0, 0.0)])
    def test_json_bytes_equal_json_dumps(self, pts):
        # The example is a zero response, so -Infinity is always written.
        names = CSV_HEADER.split(",")
        objs = [
            dict(zip(names, (p.omega, p.mag_linear, p.mag_db, p.phase_rad, p.phase_deg)))
            for p in pts
        ]
        assert emit(pts, format="json") == (json.dumps(objs, indent=2) + "\n").encode("ascii")

    def test_byte_determinism(self):
        tf = parse_tf("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)")
        grid = FrequencyGrid()
        first = emit(sweep(tf, grid))
        second = emit(sweep(tf, grid))
        assert first == second
        assert emit(sweep(tf, grid), format="json") == emit(sweep(tf, grid), format="json")

    def test_zero_system_serializes_in_both_formats(self):
        pts = [response_at(parse_tf("0/1"), 1.0)]
        row = emit(pts).decode().splitlines()[1]
        assert float(row.split(",")[2]) == -math.inf
        loaded = json.loads(emit(pts, format="json"))
        assert loaded[0]["mag_db"] == -math.inf

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit([IDENTITY_POINT], format="xml")

    def test_unhashable_format_rejected(self):
        with pytest.raises(ValueError, match="unknown output format"):
            emit([IDENTITY_POINT], format=["csv"])

    # CSV %-formats the rest of each row and JSON unpacks it, so each
    # format refuses a row of other than five values in its own way.
    @pytest.mark.parametrize("width", [4, 6])
    @pytest.mark.parametrize("fmt, error", [("csv", TypeError), ("json", ValueError)])
    def test_row_of_other_than_five_values_is_refused(self, fmt, error, width):
        with pytest.raises(error):
            emit([IDENTITY_POINT, (1.0,) * width], fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_list_of_five_floats_is_refused(self, fmt):
        with pytest.raises(TypeError):
            emit([1.0, 2.0, 3.0, 4.0, 5.0], fmt)

    def test_row_as_a_list_is_written_in_json_only(self):
        row = [2.0, 1.0, 0.0, 0.5, 28.64788975654116]
        with pytest.raises(TypeError):
            emit([row])
        assert emit([row], "json") == emit([tuple(row)], "json")

    def test_precision_of_formatted_values(self):
        # .16e keeps 17 significant digits, enough to reconstruct the double
        v = math.pi * 1e-3
        assert float(format_value(v)) == v
        assert len(format_value(v).split("e")[0].replace("-", "").replace(".", "")) == 17


class TestGridCaches:
    """A grid's points and omega texts are kept per process; no byte may depend on it."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_same_grid_twice_gives_the_oracle_bytes(self, cold, fmt):
        tf, grid = parse_tf("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)"), FrequencyGrid()
        first = emit(sweep(tf, grid), fmt)
        second = emit(sweep(tf, grid), fmt)
        assert first == second == oracle(sweep(tf, grid), fmt)
        assert response._kept_texts.cache_info().hits >= 1

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_columns_equal_but_not_alike_are_not_confused(self, cold, fmt):
        rest = (1.0, 0.0, 0.0, 0.0)
        for omegas in [(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0, -0.0)]:
            pts = [ResponsePoint(w, *rest) for w in omegas]
            assert emit(pts, fmt) == oracle(pts, fmt)
        # A raw row's int prints as an int under %s; 1 == 1.0 must not share texts.
        emit([(1.0, *rest)], fmt)
        assert emit([(1, *rest)], fmt) == oracle([(1, *rest)], fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_column_longer_than_the_cached_is_not_kept(self, cold, fmt):
        grid = grid_of(response._CACHED_GRID_POINTS + 1)
        with mock.patch.object(tf_module, "_poly_on", wraps=_poly_on) as spy:
            pts = sweep(parse_tf("1/(s+1)"), grid)
        assert emit(pts, fmt) == emit(pts, fmt) == oracle(pts, fmt)
        assert response._kept_points.cache_info().currsize == 0
        assert response._kept_texts.cache_info().currsize == 0
        # N and D share one plain dict of the call's, which no grid keeps.
        stores = [call.args[2] for call in spy.call_args_list]
        assert len(stores) == 2 and stores[0] is stores[1] and type(stores[0]) is dict
        assert grid._kept() == (grid.points(), {})
        assert response._kept_points.cache_info().currsize == 0

    def test_points_keep_nothing_and_a_sweep_keeps_the_grid(self, cold):
        grid = FrequencyGrid()
        assert grid.points() == grid.points()
        assert response._kept_points.cache_info().currsize == 0
        sweep(parse_tf("1/(s^0.5+1)"), grid)
        assert response._kept_points.cache_info().currsize == 1
        assert grid._kept()[0] == grid.points()

    def test_kept_grid_gives_the_identical_pair(self, cold):
        grid = grid_of(response._CACHED_GRID_POINTS)
        first, second = grid._kept(), grid._kept()
        assert first[0] is second[0] and first[1] is second[1]
        assert first[0] == grid.points()

    @settings(deadline=None)
    @given(small_grids)
    @example(grid_of(response._CACHED_GRID_POINTS - 1))
    @example(grid_of(response._CACHED_GRID_POINTS))
    @example(grid_of(response._CACHED_GRID_POINTS + 1))
    def test_kept_points_are_the_points(self, grid):
        response._kept_points.cache_clear()
        omegas, store = grid._kept()
        fresh = grid.points()
        assert [w.hex() for w in omegas] == [w.hex() for w in fresh]
        assert omegas is not fresh
        fresh.append(-1.0)
        assert grid._kept()[0] == grid.points() != fresh
        kept = len(omegas) <= response._CACHED_GRID_POINTS
        assert response._kept_points.cache_info().currsize == int(kept)
        again = grid._kept()
        assert (again[0] is omegas and again[1] is store) == kept
        assert type(store) is (response._Columns if kept else dict)

    def test_int_and_float_bounds_share_one_kept_pair(self, cold):
        ints, floats = FrequencyGrid(1, 100, 2)._kept(), FrequencyGrid(1.0, 100.0, 2)._kept()
        assert ints[0] is floats[0] and ints[1] is floats[1]
        assert ints[0] == FrequencyGrid(1, 100, 2).points() == [1.0, 10**0.5, 10.0, 10**1.5, 100.0]
        assert response._kept_points.cache_info().currsize == 1

    def test_larger_grid_gets_a_fresh_pair_each_call(self, cold):
        grid = grid_of(response._CACHED_GRID_POINTS + 1)
        first, second = grid._kept(), grid._kept()
        for omegas, store in (first, second):
            assert omegas == grid.points() and type(store) is dict and store == {}
        assert first[0] is not second[0] and first[1] is not second[1]
        assert response._kept_points.cache_info().currsize == 0

    def test_mutating_points_reaches_no_later_call(self, cold):
        tf, grid = parse_tf("1/(s+1)"), FrequencyGrid(0.1, 10.0, 2)
        expected = grid.points()
        before = emit(sweep(tf, grid))
        mutated = grid.points()
        mutated[0] = 5.0
        mutated.append(7.0)
        mutated.sort()
        assert grid.points() == expected == [0.1, 10**-0.5, 1.0, 10**0.5, 10.0]
        assert emit(sweep(tf, grid)) == before

    def test_retained_memory_is_bounded(self, cold):
        # The bounds stated in response.py's comment on _CACHED_GRIDS, met by
        # their worst case: JSON columns whose doubles no kept grid holds.  One grid
        # more than the caches keep makes each of them evict.
        bound, columns_bound = 5.5e6, 2.2e6
        rest = (1.0, 0.0, 0.0, 0.0)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for k in range(response._CACHED_GRIDS + 1):
                omegas = grid_of(response._CACHED_GRID_POINTS, k).points()
                emit([(w * 3.0, *rest) for w in omegas], "json")
            del omegas
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - base < bound
            # The same grids swept, each by a function with more columns than a
            # store takes, so every kept grid's store is full.
            size = response._CACHED_GRID_POINTS
            fit = response._COLUMN_DOUBLES // size
            tf = parse_tf("+".join(f"s^{k / 8!r}" for k in range(fit + 1)))
            for k in range(response._CACHED_GRIDS + 1):
                sweep(tf, grid_of(size, k))
            kept = [grid_of(size, k)._kept()[1] for k in range(1, response._CACHED_GRIDS + 1)]
            assert all(len(store) == fit for store in kept)
            del tf, kept
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - base < bound + columns_bound
            # A sweep just larger than the cached leaves nothing behind; with
            # the caches empty, a column kept would evict none.
            response._kept_points.cache_clear()
            response._kept_texts.cache_clear()
            base = tracemalloc.get_traced_memory()[0]
            pts = sweep(parse_tf("s"), grid_of(response._CACHED_GRID_POINTS + 1))
            emit(pts)
            del pts
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - base < 50_000
        finally:
            tracemalloc.stop()


# Exponents that two functions can share: quarter turns, exponents next to
# them, and 60, whose omega**60 overflows above omega = 1e5.14.
SHARED_EXPONENTS = st.sampled_from([0.0, 0.5, 0.7, 1.0, 1.2, 2.00000001, 3.999999999999999, 60.0])
shared_polys = st.lists(
    st.tuples(st.floats(min_value=-1e3, max_value=1e3), SHARED_EXPONENTS), min_size=1, max_size=5
).map(lambda terms: FracPoly.from_terms([FracTerm(c, e) for c, e in terms]))
shared_tfs = st.tuples(shared_polys, shared_polys.filter(lambda p: not p.is_zero())).map(
    lambda nd: FracTF(*nd)
)


def outcome(tf: FracTF, grid: FrequencyGrid, fmt: str) -> bytes | tuple[str, float]:
    """emit's bytes of the sweep, or its EvaluationError's message and omega."""
    try:
        return emit(sweep(tf, grid), fmt)
    except EvaluationError as exc:
        return str(exc), exc.omega


def cold_outcome(tf: FracTF, grid: FrequencyGrid, fmt: str) -> bytes | tuple[str, float]:
    """outcome in a process that keeps nothing yet: no grid, column, text or phasor."""
    response._kept_points.cache_clear()
    response._kept_texts.cache_clear()
    j_pow.cache_clear()
    return outcome(tf, grid, fmt)


class TestKeptColumns:
    """A kept grid keeps the omega**e columns its sweeps compute; no byte may depend on it."""

    @settings(deadline=None)
    @given(shared_tfs, shared_tfs, small_grids, st.sampled_from(FORMATS))
    @example(
        parse_tf("(3*s^0.5+2)/(s^1.2+4*s^0.7+1)"),
        parse_tf("(s^0.5+1)/(2*s^1.2+s^0.7+3)"),
        FrequencyGrid(),
        "csv",
    )
    def test_functions_sharing_exponents_alternately_give_cold_bytes(self, a, b, grid, fmt):
        cold = [cold_outcome(tf, grid, fmt) for tf in (a, b)]
        response._kept_points.cache_clear()
        response._kept_texts.cache_clear()
        for _ in range(2):
            assert [outcome(tf, grid, fmt) for tf in (a, b)] == cold
        # The command line's path keeps no column and agrees.
        for tf, want in zip((a, b), cold):
            try:
                got = emit(rows(tf, grid.points()), fmt)
            except EvaluationError as exc:
                got = str(exc), exc.omega
            assert got == want

    def test_shared_exponents_are_computed_once(self, cold):
        a, b = parse_tf("s^0.5/(s^1.2+1)"), parse_tf("(s^0.5+s^0.7)/s^1.2")
        grid = FrequencyGrid()
        sweep(a, grid)
        omegas, store = grid._kept()
        first = {e: store[e] for e in store}
        sweep(b, grid)
        assert list(store) == [0.5, 1.2, 0.0, 0.7]
        assert all(store[e] is column for e, column in first.items())
        for e, column in store.items():
            assert column.typecode == "d"
            assert [x.hex() for x in column] == [(w**e).hex() for w in omegas]

    def test_overflowing_exponent_keeps_no_column(self, cold):
        grid = FrequencyGrid(1.0, 100.0, 10)
        for text in ("s^200/s^200", "s^0.5/s^200"):
            tf = parse_tf(text)
            first = first_eval_error(tf, grid.points())
            for _ in range(2):
                with pytest.raises(EvaluationError) as caught:
                    sweep(tf, grid)
                assert (str(caught.value), caught.value.omega) == (str(first), first.omega)
                assert 200.0 not in grid._kept()[1]
            assert first.omega == 10**1.6
        assert list(grid._kept()[1]) == [0.5]

    def test_store_stops_at_its_budget(self, cold):
        size = response._CACHED_GRID_POINTS
        fit = response._COLUMN_DOUBLES // size
        exponents = [k / 8 for k in range(fit + 2)]
        tf, grid = parse_tf("+".join(f"s^{e!r}" for e in exponents)), grid_of(size)
        want = emit(rows(tf, grid.points()))
        assert emit(sweep(tf, grid)) == emit(sweep(tf, grid)) == want
        _, store = grid._kept()
        assert list(store) == sorted(exponents, reverse=True)[:fit]
        assert len(store) * size <= response._COLUMN_DOUBLES < (len(store) + 1) * size

    def test_threads_sweeping_one_grid_keep_its_budget(self, cold, monkeypatch):
        # Room for 4 columns and 13 exponents on offer: a store that two
        # threads both fill past its last room holds 5.
        grid = FrequencyGrid(0.1, 1000.0, 2)
        size = len(grid.points())
        monkeypatch.setattr(response, "_COLUMN_DOUBLES", 4 * size)
        tfs = [parse_tf(f"(s^{k}.25+s^{k}.5)/(s^{k}.75+1)") for k in range(4)]
        want = [emit(rows(tf, grid.points())) for tf in tfs]
        got, rounds = [], 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                response._kept_points.cache_clear()
                barrier = threading.Barrier(len(tfs))

                def run(tf):
                    barrier.wait(timeout=10)
                    got.append((tf, emit(sweep(tf, grid))))

                threads = [threading.Thread(target=run, args=(tf,)) for tf in tfs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(grid._kept()[1]) == 4
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 4 * rounds > 0
        assert all(data == want[tfs.index(tf)] for tf, data in got)


class TestSignedZeroPhase:
    @pytest.mark.parametrize(
        "text,wmin,wmax", [("s^2/s^2", 1.0, 10.0), ("(s^2+1)/(s^2+2)", 0.1, 10.0)]
    )
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_emitted_phase_is_negative_zero(self, text, wmin, wmax, fmt):
        data = emit(sweep(parse_tf(text), FrequencyGrid(wmin, wmax, 1)), fmt)
        if fmt == "csv":
            phases = [float(v) for line in data.splitlines()[1:] for v in line.split(b",")[3:]]
        else:
            phases = [o[k] for o in json.loads(data) for k in ("phase_rad", "phase_deg")]
        assert 0.0 in phases
        assert all(math.copysign(1.0, v) == 1.0 for v in phases if v == 0.0)
        assert b"-0.0" not in data
