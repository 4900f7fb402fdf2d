"""ResponsePoint, the library's record of one frequency sample, and sweep,
response_at and emit, which turn response.py's rows into records and back.

ResponsePoint(...) and dataclasses.replace check each field with _value.real;
sweep and response_at build records unchecked (_of_rows) from rows's doubles:
a grid or checked omega, a finite |h|, its dB or -inf, atan2 of finite parts.
The command line uses rows alone, so it imports no dataclasses.
"""

import math
from dataclasses import dataclass

from ._value import OMEGA, real
from .response import FrequencyGrid, emit_rows, rows
from .tf import FracTF


@dataclass(frozen=True, init=False)
class ResponsePoint:
    """One frequency sample of H(j*omega) in every customary unit.

    mag_db is 20*log10(mag_linear) (amplitude convention) and phase_deg
    is phase_rad in degrees, phase_rad principal in (-pi, pi].  Every
    field is a finite double but for the response of exactly zero,
    reported as mag_db = -inf, phase 0.
    """

    omega: float
    mag_linear: float
    mag_db: float
    phase_rad: float
    phase_deg: float

    def __init__(self, omega, mag_linear, mag_db, phase_rad, phase_deg) -> None:
        self.__dict__.update(
            omega=real(omega, "omega must be finite"),
            mag_linear=real(mag_linear, "mag_linear must be finite"),
            mag_db=real(mag_db, "mag_db must be finite or -inf", -math.inf),
            phase_rad=real(phase_rad, "phase_rad must be finite"),
            phase_deg=real(phase_deg, "phase_deg must be finite"),
        )

    @classmethod
    def _of_rows(cls, rows) -> "list[ResponsePoint]":
        """One record per row of doubles, with __init__'s instance dict but unchecked."""
        points = [object.__new__(cls) for _ in rows]
        for p, (w, mag, db, rad, deg) in zip(points, rows):
            p.__dict__.update(omega=w, mag_linear=mag, mag_db=db, phase_rad=rad, phase_deg=deg)
        return points


def response_at(tf: FracTF, omega: float) -> ResponsePoint:
    """The ResponsePoint of tf at one frequency; EvaluationError as sweep."""
    return ResponsePoint._of_rows(rows(tf, [real(omega, *OMEGA)]))[0]


def sweep(tf: FracTF, grid: FrequencyGrid) -> list[ResponsePoint]:
    """One ResponsePoint per grid frequency, ascending omega.

    Any evaluation fault (vanishing denominator or overflow) raises
    tf.EvaluationError with the offending frequency; no point is
    silently skipped.
    """
    return ResponsePoint._of_rows(rows(tf, grid.points()))


def emit(points: list[ResponsePoint], format: str = "csv") -> bytes:
    """response.emit_rows of the points' fields: its docstring gives the bytes."""
    return emit_rows(
        [(p.omega, p.mag_linear, p.mag_db, p.phase_rad, p.phase_deg) for p in points], format
    )
