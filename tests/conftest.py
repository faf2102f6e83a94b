import gc
import subprocess
import sys
import warnings

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors():
    """A numpy invalid-value, divide-by-zero or overflow warning fails the test.

    A ``DeprecationWarning`` fails it too, through ``filterwarnings`` in
    pyproject.toml: a test's ``filterwarnings`` mark can still ignore one there,
    while this fixture's filter would override the mark.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """A test that leaves the cyclic garbage collector disabled fails.

    ``cli.main`` pauses the collector for each call; a pause that leaks
    past its call fails whichever test it leaks from.  The collector is
    enabled again first, so that the tests after it run as usual.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def run_cli(*args):
    """``python -m entcert`` with ``args`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "entcert", *args], capture_output=True, encoding="utf-8", timeout=300)


def counting_constructions(monkeypatch, cls):
    """Patch ``cls.__post_init__`` with a wrapper that counts its calls; returns the list it appends to."""
    calls, check = [], cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda obj: calls.append(cls.__name__) or check(obj))
    return calls


# the fields of a certificate, in the order `entcert bound` prints them
CERTIFICATE_KEYS = [
    "witness_value", "b_used", "dsep_lower", "certified", "concurrence_lower", "eof_lower", "geometric_lower"
]


def haar_vector(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    """Full-rank Wishart state on C^d."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def product_columns(a, b):
    """Columnwise Kronecker products of two stacks of local vectors."""
    da, m = a.shape
    db = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(da * db, m)


def random_product_batch(rng, da, db, n):
    """n Haar product vectors |a>|b| as columns of a (da*db, n) array."""
    a = rng.standard_normal((da, n)) + 1j * rng.standard_normal((da, n))
    b = rng.standard_normal((db, n)) + 1j * rng.standard_normal((db, n))
    a /= np.linalg.norm(a, axis=0, keepdims=True)
    b /= np.linalg.norm(b, axis=0, keepdims=True)
    return product_columns(a, b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def symmetric_4x4(diag, off=()):
    """The real 4x4 matrix with ``diag`` on its diagonal and each ``(i, j, x)`` of ``off`` at (i, j) and (j, i)."""
    mat = np.diag(np.asarray(diag, dtype=float)).astype(complex)
    for i, j, x in off:
        mat[i, j] = mat[j, i] = x
    return mat


def mub_witness_reference(mubs, rotations):
    """The basis witness matrix built one basis at a time, as a reference independent of ``mub_witness``.

    Column (l, k) of each basis's matrix is conj(b_l) (x) b_k, so the basis's
    term is cols diag(O^T) cols^dag: a dense d^2 x d^2 product per basis.
    """
    d, count = mubs.d, len(mubs.bases)
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for basis, rot in zip(mubs.bases, rotations.mats):
        cols = np.einsum("il,jk->ijlk", basis.conj(), basis).reshape(d * d, d * d)
        acc += (cols * rot.T.reshape(-1)) @ cols.conj().T
    return ((d - 1 + count) / d) * np.eye(d * d) - acc


def two_qubit_exact(rho):
    """Wootters' concurrence C, the entanglement of formation (bits) and the geometric entanglement E_G
    of a two-qubit density matrix.

    The lambda_i are the singular values of sqrt(rho) (sy (x) sy) conj(sqrt(rho)),
    which are the square roots of the eigenvalues of rho (sy (x) sy) conj(rho) (sy (x) sy)
    without forming that non-Hermitian product (Wootters, PRL 80, 2245, 1998);
    E_G = (1 - sqrt(1 - C^2))/2 (Wei & Goldbart, PRA 68, 042307, 2003).
    Both are functions of x = (1 + sqrt(1 - C^2))/2.  On rank-1 input x is
    the largest eigenvalue of rho_A, since there sqrt(1 - C^2) = |l1 - l2|
    for the eigenvalues l of rho_A: near C = 1, where sqrt(1 - C^2) has
    infinite slope, that loses no digits.
    """
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    sy = np.array([[0, -1j], [1j, 0]])
    lam = np.linalg.svd(root @ np.kron(sy, sy) @ root.conj(), compute_uv=False)
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    if w[-2] <= 1e-12:
        x = np.linalg.eigvalsh(np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3))[-1]
    else:
        x = (1 + np.sqrt(max(0.0, 1 - c * c))) / 2
    eof = 0.0 if x >= 1 else float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))
    return float(c), eof, float(1 - x)


# the paper's four-basis witness on 3x3 as the numerators n of its exact entries n/3: a reference
# independent of the constructors that build fixture("paper_mub_witness")
PAPER_MUB_WITNESS_THIRDS = np.array([
    [4, 0, 0, 0, -1, 0, 0, 0, -1],
    [0, 1, 0, 0, 0, 2, 2, 0, 0],
    [0, 0, 1, 2, 0, 0, 0, 2, 0],
    [0, 0, 2, 1, 0, 0, 0, 2, 0],
    [-1, 0, 0, 0, 4, 0, 0, 0, -1],
    [0, 2, 0, 0, 0, 1, 2, 0, 0],
    [0, 2, 0, 0, 0, 2, 1, 0, 0],
    [0, 0, 2, 2, 0, 0, 0, 1, 0],
    [-1, 0, 0, 0, -1, 0, 0, 0, 4],
])

# the paper's 3x3 PPT entangled state as the numerators n of its exact entries n/15: a reference
# independent of the Bell-diagonal construction that builds fixture("paper_ppt_state")
PAPER_PPT_STATE_FIFTEENTHS = np.array([
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 2, 0, 0, 0, -1, -1, 0, 0],
    [0, 0, 2, -1, 0, 0, 0, -1, 0],
    [0, 0, -1, 2, 0, 0, 0, -1, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, -1, 0, 0, 0, 2, -1, 0, 0],
    [0, -1, 0, 0, 0, -1, 2, 0, 0],
    [0, 0, -1, -1, 0, 0, 0, 2, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
])

# Hermitian and unit-trace, with finite entries, but (A + A^dag)/2 overflows
HUGE_COHERENCE_STATE = symmetric_4x4([0.25] * 4, [(0, 1, 1.7e308)])



def skew_coherence_4x4(upper, lower):
    """The 4x4 matrix with diagonal 1/4, ``upper`` at (0, 1) and ``lower`` at (1, 0)."""
    mat = symmetric_4x4([0.25] * 4)
    mat[0, 1], mat[1, 0] = upper, lower
    return mat


# states whose checks would overflow on their entries taken unscaled, each with the invariant that refuses it
OVERFLOWING_STATES = {
    # the huge coherence with (1, 0) negated: A - A^dag would overflow, and the defect reads inf
    "skew-huge-coherence": (skew_coherence_4x4(1.7e308, -1.7e308), "hermiticity"),
    # a complex coherence whose halved defect 1.7e308 (1 + i) is finite but whose modulus is not
    "complex-skew-huge-coherence": (
        skew_coherence_4x4(complex(1.7e308, 1.7e308), complex(-1.7e308, 1.7e308)), "hermiticity"
    ),
    # 1 - 1.7e308 rounds to -1.7e308, so the trace is 0 and |Tr - 1| = 1; an unscaled sum reads nan
    "trace-cancels-huge": (symmetric_4x4([1.7e308, 1.7e308, -1.7e308, 1 - 1.7e308]), "trace"),
    # the trace 4e308 lies beyond the float range, and |Tr - 1| reads inf
    "trace-beyond-range": (symmetric_4x4([1e308] * 4), "trace"),
}

# witnesses on 2x2 whose textbook radius overflows or underflows: each with the invariant
# that refuses it on bell(2), or with None and its radius where the certificate is finite
EXTREME_WITNESSES = {
    # the identity to 1 part in 1e160
    "near-identity": (symmetric_4x4([1e160] * 4, [(0, 1, 1.0)]), "direction", None),
    "radius-1e200": (symmetric_4x4([1e200, -1e200, 3.0, 1.0]), None, 2**0.5 * 1e200),
    # sqrt(8/3) * 1.7e308 lies beyond the float range
    "radius-overflows": (symmetric_4x4([1.7e308, 0.0, 0.0, 1.7e308], [(0, 3, 1.7e308)]), "radius", None),
    "subnormal": (symmetric_4x4([1e-320, -1e-320, -1e-320, 1e-320]), None, 2e-320),
}
