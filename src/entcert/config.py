"""Central tolerance settings.

Every tolerance check but one goes through ``linalg.require``, and most
read their tolerance from this record, so that a tolerance change
propagates consistently.  The defaults are tuned for double precision and
matrices up to roughly 100x100.  Seven checks keep a literal at their
single call site, because no field here has that value: tracelessness of
generators (1e-12), unbiasedness of bases and the imaginary part of
Tr(W rho) (1e-9), the relative slack on a radius override (1e-12), the
positivity (1e-15) and order (1e-12) of Schmidt coefficients, and the
rank of a state for ``entcert pure`` (1e-8).  A field for each would add
options that nothing sets.  The one other check, ``normalize_witness``'s
identity test, compares a ratio (1e-13) and raises directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10   # max |A - A^dag| entry admitted as Hermitian
    trace: float = 1e-10         # |Tr(rho) - 1| admitted for states
    psd: float = 1e-10           # eigenvalues >= -psd count as positive
    unit_norm: float = 1e-10     # | ||v|| - 1 | for state vectors, Gram defects of bases


TOLS = Tolerances()
