"""JSON file I/O and the named fixtures.

States and witnesses share one file schema::

    {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}

``matrix`` is row-major with dA*dB rows of dA*dB ``[re, im]`` pairs.
Witness files carry an extra ``"kind": "witness"`` and are validated for
Hermiticity only; states must additionally have unit trace and be
positive semidefinite within tolerance.  Past the ``[re, im]`` axis the
matrix is checked as every API array is, under the same invariant names.
``payload`` is the only writer of the schema: the save functions, the CLI
and the oracle's ``sigma`` all go through it.  Payloads are written with
``json.dumps``, whose shortest round-trip float repr keeps every value, the
sign of zero included, bit-exact through a save and load.  Neither of the
paper's fixtures is stored: its Bell-diagonal PPT state is built from
``bell_state(3)`` and two Weyl operators, its witness by the MUB
constructors, and one rule rounds each to its exact entries n/15 and n/3.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import InvariantViolation
from .linalg import as_array
from .states import DensityMatrix, bell_state, singlet_state
from .witnesses import RotationSet, Witness, mub_family, mub_witness


def complex_pairs(arr: np.ndarray) -> list:
    """``[re, im]`` pairs of the entries of a complex array, nested as the array is."""
    return np.stack([arr.real, arr.imag], -1).tolist()


def payload(obj: DensityMatrix | Witness) -> dict:
    """The file schema of a state or witness as a plain dict; a witness gets its ``kind``."""
    out: dict = {"dims": list(obj.dims)}
    if isinstance(obj, Witness):
        out["kind"] = "witness"
    out["matrix"] = complex_pairs(obj.mat)
    return out


def read_matrix_payload(path) -> tuple[object, np.ndarray, str | None]:
    """Parse the shared schema; returns (dims, matrix, kind).

    The matrix goes through ``as_array``; ``dims``, the shape against it,
    Hermiticity and the state invariants are left to the ``DensityMatrix``
    and ``Witness`` constructors, so a fault gets the API's name for it.
    """
    try:
        doc = json.loads(Path(path).read_text())
    # ValueError covers JSON and UTF-8 decode errors, RecursionError too deep a nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise InvariantViolation(f"parse: cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise InvariantViolation("parse: payload must be an object with 'dims' and 'matrix'")
    pairs = as_array(doc["matrix"], 3, "matrix", float)
    if pairs.shape[-1] != 2:
        raise InvariantViolation(f"shape: matrix entries must be [re, im] pairs, got shape {pairs.shape}")
    # viewing (re, im) float pairs as complex keeps the sign of zero, a + 1j*b does not
    return doc["dims"], pairs.view(np.complex128)[..., 0], doc.get("kind")


def _save(obj: DensityMatrix | Witness, path) -> None:
    Path(path).write_text(json.dumps(payload(obj), allow_nan=False) + "\n")


def save_state(rho: DensityMatrix, path) -> None:
    _save(rho, path)


def load_state(path) -> DensityMatrix:
    """Load and validate a density matrix; load(save(rho)) is bit-exact."""
    dims, mat, kind = read_matrix_payload(path)
    if kind == "witness":
        raise InvariantViolation("kind: file holds a witness, not a state")
    return DensityMatrix(dims=dims, mat=mat)


def save_witness(w: Witness, path) -> None:
    _save(w, path)


def load_witness(path) -> Witness:
    dims, mat, kind = read_matrix_payload(path)
    if kind != "witness":
        raise InvariantViolation(
            f"kind: expected a witness file (kind='witness'), got {kind!r}"
        )
    return Witness(dims=dims, mat=mat)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def _rounded(m: np.ndarray, n: int) -> np.ndarray:
    """The real part of ``m`` rounded to multiples of 1/n; + 0.0 turns the -0.0 that rounding leaves into 0.0."""
    return np.round(n * m.real) / n + 0.0


FIXTURE_NAMES = ("paper_ppt_state", "paper_mub_witness", "bell(d)", "singlet")


def fixture(name: str) -> DensityMatrix | Witness:
    """Built-in reference objects addressed by name.

    The paper's two objects are built by the library's constructors and
    rounded to their exact entries.  ``paper_ppt_state`` is the
    Bell-diagonal mixture ``(1/5)(|Phi00><Phi00| + sum_{k,l=1,2} |Phikl><Phikl|)``
    of ``|Phikl> = (Z^k (x) X^l) bell_state(3)``, with ``Z = diag(omega^j)``,
    ``omega = exp(2 pi i/3)`` and ``X|j> = |j+1 mod 3>``; its entries are n/15.
    ``paper_mub_witness`` is ``mub_witness(mub_family(3, 4), RotationSet([R, R, I, I]))``,
    with ``R = (2/3) ones((3, 3)) - I`` the reflection through the uniform
    axis; its entries are n/3.  ``bell(d)`` and ``singlet`` are the standard
    maximally entangled projectors.
    """
    if name == "paper_ppt_state":
        # z is the diagonal of Z and the columns of p are the five |Phikl>; p p^dag / 5 lands within 6e-17 of n/15
        z, phi = np.exp(2j * np.pi / 3 * np.arange(3)), bell_state(3).vec
        pairs = [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
        p = np.stack([np.kron(np.diag(z**k), np.roll(np.eye(3), l, 0)) @ phi for k, l in pairs], 1)
        return DensityMatrix(dims=(3, 3), mat=_rounded(p @ p.conj().T / 5, 15))
    if name == "paper_mub_witness":
        eye = np.eye(3)
        reflection = 2 / 3 - eye
        w = mub_witness(mub_family(3, 4), RotationSet([reflection, reflection, eye, eye]))
        # the constructors land within 5e-16 of n/3
        return Witness(dims=(3, 3), mat=_rounded(w.mat, 3))
    if name == "singlet":
        return singlet_state().projector()
    m = re.fullmatch(r"bell\((\d+)\)", name)
    if m:
        return bell_state(int(m.group(1))).projector()
    raise InvariantViolation(
        f"name: unknown fixture {name!r}; valid names: {', '.join(FIXTURE_NAMES)}"
    )
