"""ResponsePoint, the library's record of one frequency sample.

A dataclass, so dataclasses.fields and dataclasses.replace apply to it;
its __init__ checks each field with _value.real, as every record does.
It lives apart from response.py so that the command line, which emits
rows without building records, does not import dataclasses.
"""

import math
from dataclasses import dataclass

from ._value import real


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
        # One dict update: ~150 ns less than five object.__setattr__ calls.
        self.__dict__.update(
            omega=real(omega, "omega must be finite"),
            mag_linear=real(mag_linear, "mag_linear must be finite"),
            mag_db=real(mag_db, "mag_db must be finite or -inf", -math.inf),
            phase_rad=real(phase_rad, "phase_rad must be finite"),
            phase_deg=real(phase_deg, "phase_deg must be finite"),
        )
