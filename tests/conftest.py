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
