"""Logarithmic frequency sweeps and Bode-data emission (CSV / JSON).

The grid is exactly log-spaced with both endpoints pinned to the
configured values.  Output is deterministic: identical inputs produce
byte-identical CSV and JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexmath import principal_angle
from .tf import FracTF, _h_at

CSV_HEADER = "omega,mag_linear,mag_db,phase_rad,phase_deg"

FORMATS = ("csv", "json")

# Largest grid FrequencyGrid accepts; points() builds the whole list.
MAX_GRID_POINTS = 1_000_000

# One JSON array element in json.dumps(indent=2)'s layout.  %s, not %r:
# json.dumps writes float.__repr__, which str() of a float subclass such
# as numpy.float64 keeps and its repr() does not.
_JSON_OBJECT = (
    "  {\n" + ",\n".join(f'    "{name}": %s' for name in CSV_HEADER.split(",")) + "\n  }"
)

# json.dumps's spellings of the infinities; NaN never equals a key.
_JSON_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced angular-frequency samples over [omega_min, omega_max]."""

    omega_min: float = 0.01
    omega_max: float = 100.0
    points_per_decade: int = 20

    def __post_init__(self) -> None:
        lo, hi = _as_double(self.omega_min), _as_double(self.omega_max)
        if not (math.isfinite(lo) and lo > 0.0):
            raise ValueError(f"omega_min must be finite and > 0, got {self.omega_min!r}")
        if not (math.isfinite(hi) and hi > lo):
            raise ValueError(
                f"omega_max must be finite and > omega_min, got {self.omega_max!r}"
            )
        # Stored as floats, as FracTerm stores its fields, so that equal
        # grids give equal points and equal bytes.
        object.__setattr__(self, "omega_min", lo)
        object.__setattr__(self, "omega_max", hi)
        if not (isinstance(self.points_per_decade, int) and self.points_per_decade >= 1):
            raise ValueError(
                f"points_per_decade must be a positive integer, got {self.points_per_decade!r}"
            )
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


def _as_double(x) -> float:
    """float(x), or nan for an int beyond the double range, which no range check accepts."""
    try:
        return float(x)
    except OverflowError:
        return math.nan


@dataclass(frozen=True)
class ResponsePoint:
    """One frequency sample of H(j*omega) in every customary unit.

    mag_db is 20*log10(mag_linear) (amplitude convention) and phase_deg
    is phase_rad in degrees, phase_rad principal in (-pi, pi].  A
    response of exactly zero is reported as mag_db = -inf, phase 0.
    """

    omega: float
    mag_linear: float
    mag_db: float
    phase_rad: float
    phase_deg: float


def response_at(tf: FracTF, omega: float) -> ResponsePoint:
    h = _h_at(tf, omega)
    # hypot, not abs(h): abs raises OverflowError where hypot gives inf.
    mag = math.hypot(h.real, h.imag)
    if mag == 0.0:
        return ResponsePoint(omega, mag, -math.inf, 0.0, 0.0)
    phase = principal_angle(h.real, h.imag)
    return ResponsePoint(omega, mag, 20.0 * math.log10(mag), phase, math.degrees(phase))


def sweep(tf: FracTF, grid: FrequencyGrid) -> list[ResponsePoint]:
    """One ResponsePoint per grid frequency, ascending omega.

    Any evaluation fault (vanishing denominator or overflow) raises
    tf.EvaluationError with the offending frequency; no point is
    silently skipped.
    """
    return [response_at(tf, omega) for omega in grid.points()]


def _fields(p: ResponsePoint) -> tuple[float, float, float, float, float]:
    return (p.omega, p.mag_linear, p.mag_db, p.phase_rad, p.phase_deg)


def _json_values(fields: tuple) -> tuple:
    """fields as json.dumps writes them: NaN, Infinity, -Infinity or the number."""
    try:
        if math.isfinite(sum(fields)):
            return fields
    except OverflowError:  # an int beyond the double range
        pass
    return tuple("NaN" if v != v else _JSON_INFINITIES.get(v, v) for v in fields)


def emit(points: list[ResponsePoint], format: str = "csv") -> bytes:
    """Serialize sweep points; format is "csv" or "json".

    CSV carries the header line and one row per point, every value with
    17 significant digits, each line feed terminated.  JSON is an array
    of objects keyed like the CSV columns, numbers unquoted, each the
    shortest repr that reads back to the same double; the dB of a zero
    response is -Infinity.  The JSON bytes are those of
    json.dumps(..., indent=2) plus a line feed.
    """
    if format == "csv":
        # One %-format per row; "%.16e" gives the same bytes as format_value.
        rows = ["%.16e,%.16e,%.16e,%.16e,%.16e\n" % _fields(p) for p in points]
        return (CSV_HEADER + "\n" + "".join(rows)).encode("ascii")
    if format == "json":
        if not points:
            return b"[]\n"
        rows = [_JSON_OBJECT % _json_values(_fields(p)) for p in points]
        return ("[\n" + ",\n".join(rows) + "\n]\n").encode("ascii")
    raise ValueError(f"unknown output format {format!r}, expected one of {FORMATS}")


def format_value(v: float) -> str:
    return format(v, ".16e")
