"""entcert: certified lower bounds on bipartite entanglement measures.

Witness expectation values are turned into Frobenius-distance bounds to
the separable set and from there into lower bounds on concurrence,
entanglement of formation and geometric entanglement, with an
independent brute-force oracle for bracketing every certificate.
"""

from .errors import DimensionMismatch, InvariantViolation, NumericalError
from .generators import (
    GeneratorSet,
    IdentityReport,
    collective,
    gellmann,
    swap_operator,
    verify_generator_identities,
)
from .io import fixture, load_state, load_witness, save_state, save_witness
from .linalg import (
    frobenius_inner,
    frobenius_norm,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    svd,
)
from .measures import (
    MeasureBounds,
    bounds_from_dsep,
    closest_separable_pure,
    concurrence_pure,
    diagonal_twirl,
    diagonal_twirl_matrix,
    dsep_pure,
    eof_pure,
    geometric_pure,
)
from .oracle import OracleConfig, OracleResult, dsep_upper, ppt_check
from .states import (
    DensityMatrix,
    PureState,
    SchmidtVector,
    bell_state,
    schmidt,
    singlet_state,
)
from .witnesses import (
    BoundCertificate,
    MubFamily,
    RotationSet,
    Witness,
    WitnessNormalization,
    generic_bound,
    mub_bound,
    mub_family,
    mub_witness,
    normalize_witness,
    spin_bound,
    spin_radius_bound,
    spin_witness,
)

__version__ = "0.1.0"
