"""Logarithmic frequency sweeps and Bode-data emission (CSV / JSON).

The grid is exactly log-spaced with both endpoints pinned to the
configured values.  Output is deterministic: identical inputs produce
byte-identical CSV and JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .complexmath import principal_angle
from .tf import FracTF, _h_at

CSV_HEADER = "omega,mag_linear,mag_db,phase_rad,phase_deg"

FORMATS = ("csv", "json")

# Largest grid FrequencyGrid accepts; points() builds the whole list.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced angular-frequency samples over [omega_min, omega_max]."""

    omega_min: float = 0.01
    omega_max: float = 100.0
    points_per_decade: int = 20

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega_min) and self.omega_min > 0.0):
            raise ValueError(f"omega_min must be finite and > 0, got {self.omega_min!r}")
        if not (math.isfinite(self.omega_max) and self.omega_max > self.omega_min):
            raise ValueError(
                f"omega_max must be finite and > omega_min, got {self.omega_max!r}"
            )
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


def emit(points: list[ResponsePoint], format: str = "csv") -> bytes:
    """Serialize sweep points; format is "csv" or "json".

    CSV carries the header line and one row per point, every value with
    17 significant digits, each line feed terminated.  JSON is an array
    of objects keyed like the CSV columns, numbers unquoted.
    """
    if format == "csv":
        # One %-format per row; "%.16e" gives the same bytes as format_value.
        rows = ["%.16e,%.16e,%.16e,%.16e,%.16e\n" % _fields(p) for p in points]
        return (CSV_HEADER + "\n" + "".join(rows)).encode("ascii")
    if format == "json":
        names = CSV_HEADER.split(",")
        objs = [dict(zip(names, _fields(p))) for p in points]
        return (json.dumps(objs, indent=2) + "\n").encode("ascii")
    raise ValueError(f"unknown output format {format!r}, expected one of {FORMATS}")


def format_value(v: float) -> str:
    return format(v, ".16e")
