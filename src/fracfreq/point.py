"""ResponsePoint, the library's record of one frequency sample, and sweep
and response_at, which have tf.py's rows build ResponsePoints, not tuples.

A ResponsePoint is its row: a record (_value.Value) and a frozen dataclass.
ResponsePoint(...), dataclasses.replace, copy and pickle check each field
with _value.real; rows builds it by one tuple.__new__ per point, trusting
its own doubles (a grid or checked omega, a finite |h|, its dB or -inf,
atan2 of finite parts), so no row is copied.  The command line uses rows of
plain tuples: it imports no dataclasses.
"""

import math
from dataclasses import MISSING, dataclass, fields

from ._value import OMEGA, Value, real
from .response import FrequencyGrid
from .tf import FracTF, rows


@dataclass(frozen=True, init=False, eq=False)
class ResponsePoint(Value):
    """One frequency sample of H(j*omega) in every customary unit.

    mag_db is 20*log10(mag_linear) (amplitude convention) and phase_deg
    is phase_rad in degrees, phase_rad principal in (-pi, pi].  Every
    field is a finite double but for the response of exactly zero,
    reported as mag_db = -inf, phase 0.
    """

    __slots__ = ()

    omega: float
    mag_linear: float
    mag_db: float
    phase_rad: float
    phase_deg: float

    def __new__(cls, omega, mag_linear, mag_db, phase_rad, phase_deg):
        row = (
            real(omega, "omega must be finite"),
            real(mag_linear, "mag_linear must be finite"),
            real(mag_db, "mag_db must be finite or -inf", -math.inf),
            real(phase_rad, "phase_rad must be finite"),
            real(phase_deg, "phase_deg must be finite"),
        )
        return tuple.__new__(cls, row)


# @dataclass read each field's property, which Value had set, as its default.
for _field in fields(ResponsePoint):
    _field.default = MISSING
del _field


def response_at(tf: FracTF, omega: float) -> ResponsePoint:
    """The ResponsePoint of tf at one frequency; EvaluationError as sweep."""
    return rows(tf, [real(omega, *OMEGA)], None, ResponsePoint)[0]


def sweep(tf: FracTF, grid: FrequencyGrid) -> list[ResponsePoint]:
    """One ResponsePoint per grid frequency, ascending omega; tf.EvaluationError
    with the first bad frequency, so no point is silently skipped.  A kept grid's
    omega**e columns are read, and filled, in place of computing them again."""
    if type(grid) is not FrequencyGrid:
        raise ValueError(f"grid must be a FrequencyGrid, got {type(grid).__name__}")
    return rows(tf, *grid._kept(), ResponsePoint)
