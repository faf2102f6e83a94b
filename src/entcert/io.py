"""JSON file I/O and the named fixtures.

States and witnesses share one file schema::

    {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}

``matrix`` is row-major with dA*dB rows of dA*dB ``[re, im]`` pairs.
Witness files carry an extra ``"kind": "witness"`` and are validated for
Hermiticity only; states must additionally have unit trace and be
positive semidefinite within tolerance.  ``payload`` is the only writer
of the schema: the save functions, the CLI and the oracle's ``sigma`` all
go through it.  Payloads are written with ``json.dumps``, whose shortest
round-trip float repr keeps every value, the sign of zero included,
bit-exact through a save and load.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import InvariantViolation
from .linalg import bipartite_dims
from .states import DensityMatrix, bell_state, singlet_state
from .witnesses import Witness


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


def read_matrix_payload(path) -> tuple[tuple[int, int], np.ndarray, str | None]:
    """Parse the shared schema; returns (dims, matrix, kind).

    Finiteness, Hermiticity and the state invariants are left to the
    ``DensityMatrix`` and ``Witness`` constructors.
    """
    try:
        text = Path(path).read_text()
        doc = json.loads(text)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decode errors
        raise InvariantViolation(f"parse: cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise InvariantViolation("parse: payload must be an object with 'dims' and 'matrix'")
    dims = bipartite_dims(doc["dims"])
    d = dims[0] * dims[1]
    expected = f"shape: matrix must be {d} rows of {d} numeric [re, im] pairs"
    try:
        pairs = np.array(doc["matrix"])
    except ValueError as exc:  # ragged nesting
        raise InvariantViolation(expected) from exc
    if pairs.shape != (d, d, 2) or pairs.dtype.kind not in "iuf":
        raise InvariantViolation(f"{expected}, got shape {pairs.shape} of {pairs.dtype}")
    # beside a number np.array reads true as 1.0, so the entries are checked in a text with a "u" or an
    # "l": every true and false has one, and no number or key of the schema does (a cheap memchr)
    if ("u" in text or "l" in text) and any(
        isinstance(x, bool) for row in doc["matrix"] for pair in row for x in pair
    ):
        raise InvariantViolation(f"{expected}, got a boolean entry")
    # viewing (re, im) float pairs as complex keeps the sign of zero, a + 1j*b does not
    mat = np.ascontiguousarray(pairs, dtype=float).view(np.complex128)[..., 0]
    return dims, mat, doc.get("kind")


def save_state(rho: DensityMatrix, path) -> None:
    Path(path).write_text(json.dumps(payload(rho)) + "\n")


def load_state(path) -> DensityMatrix:
    """Load and validate a density matrix; load(save(rho)) is bit-exact."""
    dims, mat, kind = read_matrix_payload(path)
    if kind == "witness":
        raise InvariantViolation("kind: file holds a witness, not a state")
    return DensityMatrix(dims=dims, mat=mat)


def save_witness(w: Witness, path) -> None:
    Path(path).write_text(json.dumps(payload(w)) + "\n")


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

# Witness from four mutually unbiased bases that detects the state above,
# exact entries n/3.
_MUB_WITNESS_NUM = [
    [4, 0, 0, 0, -1, 0, 0, 0, -1],
    [0, 1, 0, 0, 0, 2, 2, 0, 0],
    [0, 0, 1, 2, 0, 0, 0, 2, 0],
    [0, 0, 2, 1, 0, 0, 0, 2, 0],
    [-1, 0, 0, 0, 4, 0, 0, 0, -1],
    [0, 2, 0, 0, 0, 1, 2, 0, 0],
    [0, 2, 0, 0, 0, 2, 1, 0, 0],
    [0, 0, 2, 2, 0, 0, 0, 1, 0],
    [-1, 0, 0, 0, -1, 0, 0, 0, 4],
]
_MUB_WITNESS_DEN = 3

FIXTURE_NAMES = ("paper_ppt_state", "paper_mub_witness", "bell(d)", "singlet")


def fixture(name: str) -> DensityMatrix | Witness:
    """Built-in reference objects addressed by name.

    ``paper_ppt_state`` and ``paper_mub_witness`` carry exact rational
    entries; ``bell(d)`` and ``singlet`` are the standard maximally
    entangled projectors.  The witness is the one
    ``mub_witness(mub_family(3, 4), RotationSet([R, R, I, I]))`` builds,
    with ``R = (2/3) ones((3, 3)) - I`` the reflection through the uniform
    axis, stored as its exact n/3 table.
    """
    if name == "paper_ppt_state":
        mat = np.array(_PPT_STATE_NUM, dtype=np.complex128) / _PPT_STATE_DEN
        return DensityMatrix(dims=(3, 3), mat=mat)
    if name == "paper_mub_witness":
        mat = np.array(_MUB_WITNESS_NUM, dtype=np.complex128) / _MUB_WITNESS_DEN
        return Witness(dims=(3, 3), mat=mat)
    if name == "singlet":
        return singlet_state().projector()
    m = re.fullmatch(r"bell\((\d+)\)", name)
    if m:
        return bell_state(int(m.group(1))).projector()
    raise InvariantViolation(
        f"name: unknown fixture {name!r}; valid names: {', '.join(FIXTURE_NAMES)}"
    )
