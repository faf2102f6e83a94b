"""Central tolerance settings.

Every module validates against the same record so that a tolerance change
propagates consistently.  The defaults are tuned for double precision and
matrices up to roughly 100x100.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10   # max |A - A^dag| entry admitted as Hermitian
    trace: float = 1e-10         # |Tr(rho) - 1| admitted for states
    psd: float = 1e-10           # eigenvalues >= -psd count as positive
    unit_norm: float = 1e-10     # | ||v|| - 1 | admitted for state vectors


TOLS = Tolerances()
