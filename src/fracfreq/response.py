"""Logarithmic frequency grids and the bytes (CSV / JSON) of Bode-data rows.

The grid is exactly log-spaced with both endpoints pinned to the
configured values.  Output is deterministic: identical inputs produce
byte-identical CSV and JSON.
"""

import functools
import math
from _collections_abc import Iterable  # collections.abc's source, loaded even under -S
from _thread import allocate_lock
from operator import add, itemgetter

from ._value import TINY, Value, count, real

CSV_HEADER = "omega,mag_linear,mag_db,phase_rad,phase_deg"

FORMATS = ("csv", "json")

# Largest grid FrequencyGrid accepts; points() builds the whole list.
MAX_GRID_POINTS = 1_000_000

# One CSV row as its omega field and the rest, which starts at the comma
# after it; "%.16e" gives the same bytes as format_value.
_CSV_ROW = "%.16e", ",%.16e,%.16e,%.16e,%.16e\n"

# The omega field of one JSON array element in json.dumps(indent=2)'s layout;
# emit writes the rest.  %s writes a double as json.dumps does, but -inf as
# "-inf"; no key contains that.
_JSON_OMEGA = '  {\n    "omega": %s'

_OMEGA = itemgetter(0)
_REST = itemgetter(slice(1, None))

# A process keeps the points of its last _CACHED_GRIDS swept grids of at most
# _CACHED_GRID_POINTS points (_kept_points), and the texts of its last
# _CACHED_GRIDS such omega columns, CSV's and JSON's together (_kept_texts):
# under 5.5 MB as tracemalloc counts it.  The worst case is 8 lists of 4096
# doubles (1.05 MB) and 8 columns of 4096 JSON omega texts of up to 41
# characters, each keyed by doubles of its own (4.2 MB).  A kept grid also keeps
# the omega**e columns its sweeps compute, up to _COLUMN_DOUBLES doubles: under
# 2.2 MB more, as 8 grids of 8 array('d') columns of 4096 doubles are 2 MiB.
_CACHED_GRIDS = 8
_CACHED_GRID_POINTS = 4096
_COLUMN_DOUBLES = 2**15
_STORE_LOCK = allocate_lock()


def _log_span(lo: float, hi: float, ppd: int) -> tuple[float, float, int]:
    """log10 of both endpoints and the interval count between them, ppd per decade."""
    lg0 = math.log10(lo)
    lg1 = math.log10(hi)
    return lg0, lg1, max(1, round((lg1 - lg0) * ppd))


class FrequencyGrid(Value):
    """Log-spaced angular-frequency samples over [omega_min, omega_max]."""

    __slots__ = ()
    omega_min: float
    omega_max: float
    points_per_decade: int

    def __new__(
        cls, omega_min: float = 0.01, omega_max: float = 100.0, points_per_decade: int = 20
    ):
        lo = real(omega_min, "omega_min must be finite and > 0", TINY)
        above_lo = math.nextafter(lo, math.inf)
        hi = real(omega_max, "omega_max must be finite and > omega_min", above_lo)
        ppd = count(points_per_decade, "points_per_decade must be a positive integer", 1, math.inf)
        try:
            samples = _log_span(lo, hi, ppd)[2] + 1
        except OverflowError:  # points_per_decade * decades is beyond a double
            samples = math.inf
        if samples > MAX_GRID_POINTS:
            raise ValueError(f"grid would have more than {MAX_GRID_POINTS} samples")
        # Stored as floats, so that equal grids give equal points and equal bytes.
        return tuple.__new__(cls, (lo, hi, ppd))

    def points(self) -> list[float]:
        """round(d*p) + 1 (at least 2) log-spaced samples over d decades at p per decade,
        endpoints exact, non-decreasing: on a grid narrower than the rounding of log10
        omega they may repeat, and an interior one that rounds past an endpoint is clamped.

        The one computation of them, a new list on every call; a sweep takes _kept()'s."""
        lo, hi, ppd = self
        lg0, lg1, intervals = _log_span(lo, hi, ppd)
        span, out = lg1 - lg0, [lo]
        for i in range(1, intervals):
            w = 10.0 ** (lg0 + span * i / intervals)
            out.append(w if lo <= w <= hi else lo if w < lo else hi)
        out.append(hi)
        return out

    def _kept(self) -> tuple[list[float], dict]:
        """The points, never handed out, and omega**e column store for a sweep: the
        process's kept pair up to _CACHED_GRID_POINTS points, else points() and a new dict."""
        if _log_span(*self)[2] + 1 <= _CACHED_GRID_POINTS:
            return _kept_points(*self)
        return self.points(), {}


class _Columns(dict):
    """A kept grid's omega**e columns by e, as array('d'): a column that
    would take the store past _COLUMN_DOUBLES doubles is not kept."""

    __slots__ = ()

    def __setitem__(self, e: float, column: list[float]) -> None:
        from array import array  # here, as the command line stores no column

        with _STORE_LOCK:  # so that threads sweeping one grid keep to the budget
            if (len(self) + 1) * len(column) <= _COLUMN_DOUBLES:
                super().__setitem__(e, array("d", column))


@functools.lru_cache(maxsize=_CACHED_GRIDS)
def _kept_points(lo: float, hi: float, ppd: int) -> tuple[list[float], _Columns]:
    """points() of the grid with checked fields (lo, hi, ppd), and an empty store."""
    return tuple.__new__(FrequencyGrid, (lo, hi, ppd)).points(), _Columns()


def emit(values: Iterable[tuple], format: str = "csv") -> bytes:
    """Serialize an iterable of rows like tf.rows's doubles, or of the ResponsePoints
    that are such rows; format is "csv" or "json".

    CSV is the header line and one line per row, every value with 17
    significant digits, each line feed terminated.  JSON is json.dumps(...,
    indent=2) and a line feed: an array of objects keyed like the CSV columns,
    each number the shortest repr that reads back to it, -inf as -Infinity,
    but a raw row's +inf or NaN as bare inf or nan (ROADMAP item 7).

    Each line is its omega's text and then the other four values.  The
    omega texts of a column of at most _CACHED_GRID_POINTS doubles, all > 0
    (a grid's), are kept for the last _CACHED_GRIDS columns, so a repeated
    grid formats four numbers per row.  A CSV line adds the rest of the row
    template, %-formatted over the row's other values in a C-level map: its
    five %.16e are nearly all of its cost, and an f-string with :.16e
    measured 10% slower.  A JSON object is one f-string over the unpacked
    row, whose !s is the str() that %s makes: % re-read the ~120-character
    rest of the template on every row, and the f-string writes an object
    10-12% faster.  So a row of other than five values raises TypeError in
    CSV and ValueError in JSON, and a row given as a list is written in JSON
    only.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown output format {format!r}, expected one of {FORMATS}")
    values = list(values)
    column = tuple(map(_OMEGA, values))
    if format == "csv":
        head, rest = _CSV_ROW
        lines = map(add, _omega_texts(column, head), map(rest.__mod__, map(_REST, values)))
        return (CSV_HEADER + "\n" + "".join(lines)).encode("ascii")
    objects = ",\n".join(
        [
            f'{t},\n    "mag_linear": {m!s},\n    "mag_db": {db!s},\n'
            f'    "phase_rad": {p!s},\n    "phase_deg": {d!s}\n  }}'
            for t, (_, m, db, p, d) in zip(_omega_texts(column, _JSON_OMEGA), values)
        ]
    ).replace("-inf", "-Infinity")
    return (f"[\n{objects}\n]\n" if objects else "[]\n").encode("ascii")


@functools.lru_cache(maxsize=_CACHED_GRIDS)
def _kept_texts(column: tuple, template: str) -> tuple[str, ...]:
    """template applied to each value of column."""
    return tuple(map(template.__mod__, column))


def _omega_texts(column: tuple, template: str) -> Iterable[str]:
    """template applied to each value of column: kept when the column holds
    1 to _CACHED_GRID_POINTS floats, all > 0, else made one at a time.

    The column's tuple is the key, and equal tuples print differently where
    their values are equal but not alike: -0.0 and 0.0, or 1 and 1.0 under %s.
    """
    if (
        0 < len(column) <= _CACHED_GRID_POINTS
        and set(map(type, column)) == {float}
        and min(column) > 0.0
    ):
        return _kept_texts(column, template)
    return map(template.__mod__, column)


def format_value(v: float) -> str:
    return format(v, ".16e")
