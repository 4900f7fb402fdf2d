"""Logarithmic frequency sweeps and Bode-data emission (CSV / JSON).

The grid is exactly log-spaced with both endpoints pinned to the
configured values.  Output is deterministic: identical inputs produce
byte-identical CSV and JSON.
"""

import math

from ._value import OMEGA, TINY, Value, count, real
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


class FrequencyGrid(Value):
    """Log-spaced angular-frequency samples over [omega_min, omega_max]."""

    __slots__ = _fields = ("omega_min", "omega_max", "points_per_decade")

    def __init__(
        self, omega_min: float = 0.01, omega_max: float = 100.0, points_per_decade: int = 20
    ) -> None:
        lo = real(omega_min, "omega_min must be finite and > 0", TINY)
        above_lo = math.nextafter(lo, math.inf)
        hi = real(omega_max, "omega_max must be finite and > omega_min", above_lo)
        ppd = count(points_per_decade, "points_per_decade must be a positive integer", 1, math.inf)
        # Stored as floats, so that equal grids give equal points and equal bytes.
        object.__setattr__(self, "omega_min", lo)
        object.__setattr__(self, "omega_max", hi)
        object.__setattr__(self, "points_per_decade", ppd)
        try:
            samples = self._log_span()[2] + 1
        except OverflowError:  # points_per_decade * decades is beyond a double
            samples = math.inf
        if samples > MAX_GRID_POINTS:
            raise ValueError(f"grid would have more than {MAX_GRID_POINTS} samples")

    def _log_span(self) -> tuple[float, float, int]:
        """log10 of both endpoints and the interval count between them."""
        lg0 = math.log10(self.omega_min)
        lg1 = math.log10(self.omega_max)
        return lg0, lg1, max(1, round((lg1 - lg0) * self.points_per_decade))

    def points(self) -> list[float]:
        """Ascending samples, endpoints exact; d decades at p points per
        decade yield d*p + 1 samples (interval count rounds to nearest
        when d*p is not integral)."""
        lg0, lg1, intervals = self._log_span()
        out = [self.omega_min]
        for i in range(1, intervals):
            out.append(10.0 ** (lg0 + (lg1 - lg0) * i / intervals))
        out.append(self.omega_max)
        return out


def _rows_on(tf: FracTF, omegas: list[float]) -> list[tuple[float, float, float, float, float]]:
    """The fields of response_at(tf, omega) as a plain tuple, for each omega."""
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


def rows(tf: FracTF, grid: FrequencyGrid) -> list[tuple[float, float, float, float, float]]:
    """The fields of each sweep point as a plain tuple; EvaluationError as sweep."""
    return _rows_on(tf, grid.points())


def response_at(tf: FracTF, omega: float) -> "ResponsePoint":
    """The ResponsePoint of tf at one frequency; EvaluationError as sweep."""
    from .point import ResponsePoint

    return ResponsePoint._of_rows(_rows_on(tf, [real(omega, *OMEGA)]))[0]


def sweep(tf: FracTF, grid: FrequencyGrid) -> "list[ResponsePoint]":
    """One ResponsePoint per grid frequency, ascending omega.

    Any evaluation fault (vanishing denominator or overflow) raises
    tf.EvaluationError with the offending frequency; no point is
    silently skipped.
    """
    from .point import ResponsePoint

    return ResponsePoint._of_rows(rows(tf, grid))


def emit(points: "list[ResponsePoint]", format: str = "csv") -> bytes:
    """Serialize sweep points; format is "csv" or "json".

    CSV carries the header line and one row per point, every value with
    17 significant digits, each line feed terminated.  JSON is an array
    of objects keyed like the CSV columns, numbers unquoted, each the
    shortest repr that reads back to the same double.  A ResponsePoint
    holds only doubles, finite but for the -inf dB of a zero response,
    which JSON writes as -Infinity.  The JSON bytes are those of
    json.dumps(..., indent=2) plus a line feed.
    """
    return emit_rows(
        [(p.omega, p.mag_linear, p.mag_db, p.phase_rad, p.phase_deg) for p in points], format
    )


def emit_rows(values: list[tuple], format: str = "csv") -> bytes:
    """emit for rows of (omega, mag_linear, mag_db, phase_rad, phase_deg)."""
    if format == "csv":
        return (CSV_HEADER + "\n" + "".join(map(_CSV_ROW.__mod__, values))).encode("ascii")
    if format == "json":
        objects = ",\n".join(map(_JSON_OBJECT.__mod__, values)).replace("-inf", "-Infinity")
        return (f"[\n{objects}\n]\n" if values else "[]\n").encode("ascii")
    raise ValueError(f"unknown output format {format!r}, expected one of {FORMATS}")


def format_value(v: float) -> str:
    return format(v, ".16e")
