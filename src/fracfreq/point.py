"""ResponsePoint, the library's record of one frequency sample.

A dataclass, so dataclasses.fields and dataclasses.replace apply to it.
It lives apart from response.py so that the command line, which emits
rows without building records, does not import dataclasses.
"""

from dataclasses import dataclass


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
