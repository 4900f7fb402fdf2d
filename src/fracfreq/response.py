"""Logarithmic frequency grids, Bode-data rows and their bytes (CSV / JSON).

The grid is exactly log-spaced with both endpoints pinned to the
configured values.  Output is deterministic: identical inputs produce
byte-identical CSV and JSON.
"""

import math

from ._value import TINY, Value, count, real
from .tf import FracTF, _h_on

CSV_HEADER = "omega,mag_linear,mag_db,phase_rad,phase_deg"

FORMATS = ("csv", "json")

# Largest grid FrequencyGrid accepts; points() builds the whole list.
MAX_GRID_POINTS = 1_000_000

# One CSV row; "%.16e" gives the same bytes as format_value.
_CSV_ROW = "%.16e,%.16e,%.16e,%.16e,%.16e\n"

# One JSON array element in json.dumps(indent=2)'s layout.  %s writes a
# double as json.dumps does, but -inf as "-inf"; no key contains that.
_JSON_OBJECT = "  {\n%s\n  }" % ",\n".join(f'    "{n}": %s' for n in CSV_HEADER.split(","))


def _log_span(lo: float, hi: float, ppd: int) -> tuple[float, float, int]:
    """log10 of both endpoints and the interval count between them, ppd per decade."""
    lg0 = math.log10(lo)
    lg1 = math.log10(hi)
    return lg0, lg1, max(1, round((lg1 - lg0) * ppd))


class FrequencyGrid(Value):
    """Log-spaced angular-frequency samples over [omega_min, omega_max]."""

    __slots__ = ("omega_min", "omega_max", "points_per_decade")

    def __init__(
        self, omega_min: float = 0.01, omega_max: float = 100.0, points_per_decade: int = 20
    ) -> None:
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
        Value.__init__(self, lo, hi, ppd)

    def points(self) -> list[float]:
        """round(d*p) + 1 (at least 2) log-spaced samples over d decades at p per decade,
        endpoints exact, non-decreasing: on a grid narrower than the rounding of log10
        omega they may repeat, and an interior one that rounds past an endpoint is clamped."""
        lo, hi = self.omega_min, self.omega_max
        lg0, lg1, intervals = _log_span(lo, hi, self.points_per_decade)
        span, out = lg1 - lg0, [lo]
        for i in range(1, intervals):
            w = 10.0 ** (lg0 + span * i / intervals)
            out.append(w if lo <= w <= hi else lo if w < lo else hi)
        out.append(hi)
        return out


def rows(tf: FracTF, omegas: list[float]) -> list[tuple[float, float, float, float, float]]:
    """(omega, |h|, its dB or -inf, principal phase in rad and deg) for each omega,
    each already a positive finite float; tf.EvaluationError at the first bad omega."""
    out = []
    for omega, (h, mag) in zip(omegas, _h_on(tf, omegas)):
        if mag == 0.0:
            out.append((omega, mag, -math.inf, 0.0, 0.0))
            continue
        # complexmath.argument's fold of -pi to pi, inline: no Python call per point.
        phase = math.atan2(h.imag, h.real)
        phase = math.pi if phase == -math.pi else phase
        out.append((omega, mag, 20.0 * math.log10(mag), phase, math.degrees(phase)))
    return out


def emit_rows(values: list[tuple], format: str = "csv") -> bytes:
    """Serialize an iterable of rows like rows's doubles; format is "csv" or "json".

    CSV is the header line and one line per row, every value with 17
    significant digits, each line feed terminated.  JSON is an array of
    objects keyed like the CSV columns, each number unquoted and the shortest
    repr that reads back to the same double, the -inf dB of a zero response
    as -Infinity: the bytes of json.dumps(..., indent=2) plus a line feed.
    """
    if format == "csv":
        return (CSV_HEADER + "\n" + "".join(map(_CSV_ROW.__mod__, values))).encode("ascii")
    if format == "json":
        objects = ",\n".join(map(_JSON_OBJECT.__mod__, values)).replace("-inf", "-Infinity")
        return (f"[\n{objects}\n]\n" if objects else "[]\n").encode("ascii")
    raise ValueError(f"unknown output format {format!r}, expected one of {FORMATS}")


def format_value(v: float) -> str:
    return format(v, ".16e")
