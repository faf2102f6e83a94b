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
sign of zero included, bit-exact through a save and load.  The paper's
witness fixture is not stored: the MUB constructors build it, then it is
rounded to its exact entries n/3.
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

# 3x3 PPT entangled state, exact entries n/15.
_PPT_STATE_NUM = [
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 2, 0, 0, 0, -1, -1, 0, 0],
    [0, 0, 2, -1, 0, 0, 0, -1, 0],
    [0, 0, -1, 2, 0, 0, 0, -1, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, -1, 0, 0, 0, 2, -1, 0, 0],
    [0, -1, 0, 0, 0, -1, 2, 0, 0],
    [0, 0, -1, -1, 0, 0, 0, 2, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
]
_PPT_STATE_DEN = 15

FIXTURE_NAMES = ("paper_ppt_state", "paper_mub_witness", "bell(d)", "singlet")


def fixture(name: str) -> DensityMatrix | Witness:
    """Built-in reference objects addressed by name.

    ``paper_ppt_state`` and ``paper_mub_witness`` carry exact rational
    entries; ``bell(d)`` and ``singlet`` are the standard maximally
    entangled projectors.  The witness is not stored: it is built by
    ``mub_witness(mub_family(3, 4), RotationSet([R, R, I, I]))``, with
    ``R = (2/3) ones((3, 3)) - I`` the reflection through the uniform
    axis, and then rounded to its exact entries n/3.
    """
    if name == "paper_ppt_state":
        mat = np.array(_PPT_STATE_NUM, dtype=np.complex128) / _PPT_STATE_DEN
        return DensityMatrix(dims=(3, 3), mat=mat)
    if name == "paper_mub_witness":
        eye = np.eye(3)
        reflection = 2 / 3 - eye
        w = mub_witness(mub_family(3, 4), RotationSet([reflection, reflection, eye, eye]))
        # the constructors land within 5e-16 of n/3; + 0.0 turns the -0.0 that rounding leaves into 0.0
        return Witness(dims=(3, 3), mat=np.round(3 * w.mat.real) / 3 + 0.0)
    if name == "singlet":
        return singlet_state().projector()
    m = re.fullmatch(r"bell\((\d+)\)", name)
    if m:
        return bell_state(int(m.group(1))).projector()
    raise InvariantViolation(
        f"name: unknown fixture {name!r}; valid names: {', '.join(FIXTURE_NAMES)}"
    )
