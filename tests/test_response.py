import dataclasses
import json
import math
import pickle
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracfreq import (
    CSV_HEADER,
    Complex,
    EvaluationError,
    FracPoly,
    FracTerm,
    FracTF,
    FrequencyGrid,
    ResponsePoint,
    emit,
    eval_poly,
    eval_tf,
    format_value,
    parse_tf,
    response_at,
    sweep,
)
from fracfreq.complexmath import j_pow
from fracfreq.response import MAX_GRID_POINTS, rows
from fracfreq.tf import _h_on, _poly_on
from helpers import close

DBL_MIN = sys.float_info.min

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
    """p at s = j*omega as the sum, in term order, of (c * omega**e) * j**e,
    with c halved and j**e doubled where |c| > 1."""
    acc = 0j
    try:
        for t in p.terms:
            c, jj = t.coeff, j_pow(t.exponent)
            if abs(c) > 1.0:
                c, jj = c * 0.5, complex(2.0 * jj.real, 2.0 * jj.imag)
            acc = acc + c * omega**t.exponent * jj
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
        for row, (h, mag), omega in zip(got, _h_on(tf, omegas), omegas, strict=True):
            assert repr(row) == repr(dataclasses.astuple(response_at(tf, omega)))
            point = eval_tf(tf, omega)
            assert repr(complex(point.re, point.im)) == repr(h)
            assert row[1] == mag

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
    # 1.5e308 * 2**0.5 overflows unless c is halved first.
    @example((parse_tf("1.5e308*s^0.5").numerator, [1.0, 2.0]))
    def test_column_is_the_in_order_sum_bit_for_bit(self, column):
        p, omegas = column
        got = _poly_on(p, omegas)
        assert len(got) == len(omegas)
        for z, omega in zip(got, omegas):
            assert bits(z) == bits(in_order_sum(p, omega)), omega

    @settings(deadline=None)
    @given(kernel_columns(st.integers(0, 600).map(float)))
    @example((parse_tf("-3*s^2+1e300*s^101+s").numerator, [0.5, 1e3, 1.0]))
    @example((parse_tf("1.25*s").numerator, [5e-324, 1.0]))
    def test_integer_exponents_keep_the_phasor_first_bits(self, column):
        # j**e is an exact quarter turn, so both orders round only c * omega**e,
        # once.  Where the phasor-first sum overflows, the kernel's may be nan
        # instead of inf; where c/2 * omega**e is subnormal, the halving can
        # lose its last bit (1.25*s at omega = 5e-324 gives 1e-323j, not 5e-324j).
        p, omegas = column
        for z, omega in zip(_poly_on(p, omegas), omegas):
            want = phasor_first_sum(p, omega)
            if not (math.isfinite(want.real) and math.isfinite(want.imag)):
                continue
            sizes = [abs(t.coeff) * omega**t.exponent for t in p.terms]
            if any(abs(t.coeff) > 1.0 and 0.0 < size < 2.0 * DBL_MIN for t, size in zip(p.terms, sizes)):
                # One ulp(0) in that term, and then at most one ulp of a partial sum per addition.
                assert abs(z - want) <= 2 * len(sizes) * math.ulp(sum(sizes)), omega
                continue
            assert bits(z) == bits(want), omega

    @given(big_terms())
    def test_halved_term_equals_unhalved_bit_for_bit(self, term):
        # (c/2 * w) * (2 * j**e) rounds the same reals as (c * w) * j**e, so
        # the two agree to the bit unless c/2 * w is subnormal or c * w overflows.
        c, e, omega = term
        whole = c * omega**e
        assume(math.isfinite(whole) and abs(whole) * 0.5 >= DBL_MIN)
        (z,) = _poly_on(FracPoly((FracTerm(c, e),)), [omega])
        assert bits(z) == bits(0j + whole * j_pow(e))

    def test_overflow_makes_only_its_own_omega_infinite(self):
        den = parse_tf("1/(s^400+1)").denominator
        omegas = FrequencyGrid(0.1, 100.0, 10).points()
        column = _poly_on(den, omegas)
        assert [z == complex(math.inf) for z in column] == [False] * 18 + [True] * 13
        for omega, z in zip(omegas[:18], column):
            assert repr(eval_poly(den, omega)) == repr(Complex(z.real, z.imag))


def hexes(point: ResponsePoint) -> list[str]:
    """Each field's float.hex, so -0.0 differs from 0.0 and every bit counts."""
    return [float.hex(v) for v in vars(point).values()]


def tf_grid(text: str, *grid) -> tuple[FracPoly, FracPoly, FrequencyGrid]:
    tf = parse_tf(text)
    return tf.numerator, tf.denominator, FrequencyGrid(*grid)


class TestRecordBuilder:
    """sweep and response_at build their records without ResponsePoint's
    check; each must be the record the checked constructor makes of its row."""

    @settings(deadline=None)
    @given(polys, polys, small_grids)
    # Phase -0.0 at omega = 10.
    @example(*tf_grid("(s^2+1)/(s^2+2)", 0.1, 10.0, 1))
    # Zero responses: at omega = 1 only, and everywhere.
    @example(*tf_grid("s^4-1", 0.1, 10.0, 1))
    @example(*tf_grid("s^2-s^2", 0.1, 10.0, 1))
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
            assert type(record) is ResponsePoint
            assert hexes(record) == hexes(checked) == [float.hex(v) for v in row]
            assert list(vars(record)) == list(vars(checked)) == CSV_HEADER.split(",")
            assert record == checked
            assert hash(record) == hash(checked)
            assert repr(record) == repr(checked)
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record
            assert (hexes(copy), list(vars(copy))) == (hexes(record), list(vars(record)))
            with pytest.raises(ValueError, match="^mag_linear must be finite, got nan$"):
                dataclasses.replace(record, mag_linear=math.nan)
        assert hexes(response_at(tf, grid.omega_max)) == hexes(got[-1])

    def test_sweep_of_1501_points_calls_no_init(self, monkeypatch):
        calls = []
        checked_init = ResponsePoint.__init__

        def counted_init(self, *args):
            calls.append(args)
            checked_init(self, *args)

        monkeypatch.setattr(ResponsePoint, "__init__", counted_init)
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


class TestEmit:
    def test_empty_csv_is_header_only(self):
        assert emit([]) == (CSV_HEADER + "\n").encode()

    def test_empty_json(self):
        assert emit([], format="json") == b"[]\n"

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

    def test_precision_of_formatted_values(self):
        # .16e keeps 17 significant digits, enough to reconstruct the double
        v = math.pi * 1e-3
        assert float(format_value(v)) == v
        assert len(format_value(v).split("e")[0].replace("-", "").replace(".", "")) == 17
