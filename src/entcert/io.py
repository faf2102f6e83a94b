"""JSON file I/O and the named fixtures.

States and witnesses share one file schema::

    {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}

``matrix`` is row-major with dA*dB rows of dA*dB ``[re, im]`` pairs.
Witness files carry an extra ``"kind": "witness"`` and are validated for
Hermiticity only; states must additionally have unit trace and be
positive semidefinite within tolerance.  Past the ``[re, im]`` axis the
matrix is checked as every API array is, under the same invariant names.
Files are read and written as UTF-8, whatever the locale.  A text is
decoded by ``orjson`` when a screen shows that ``json.loads`` would give
the same tree, and by ``json.loads`` otherwise, so a file loads to the
same bytes and is refused with the same message either way; orjson takes
about a quarter of ``json.loads``'s time on a 7x7 state.
Both loaders read the file on every call.  A state's text is parsed and
validated on every call too; a witness's text is parsed and validated once
per process, as one witness is measured on many states, and up to 16 texts
are kept with their witnesses (about 155 KB an entry at d = 7).  The
loaders and the savers pause the cyclic garbage collector while a JSON
tree is alive, as ``entcert.cli.main`` does for a whole command: the tree
holds no cycles and is freed before the pause ends, so its thousands of
lists (about 2,450 for a 7x7 matrix) start no collection.
``payload`` is the only writer of the schema: the save functions, the CLI
and the oracle's ``sigma`` all go through it.  Payloads are written with
``json.dumps``, whose shortest round-trip float repr keeps every value, the
sign of zero included, bit-exact through a save and load.  Neither of the
paper's fixtures is stored: its Bell-diagonal PPT state is built from
``bell_state(3)`` and two Weyl operators, its witness by the MUB
constructors, and one rule rounds each to its exact entries n/15 and n/3.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import re
from pathlib import Path

import numpy as np
import orjson

from .errors import InvariantViolation
from .linalg import _walked_array, as_array
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


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block, as ``timeit`` does.

    A block entered with the collector already off changes nothing, so a
    caller that disabled it keeps it disabled.  The switch is process-wide:
    another thread's allocations go uncollected meanwhile, and a
    ``gc.disable()`` made in another thread inside the block is undone when
    the block ends.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Undecodable(Exception):
    """``json.loads`` refused a text; its cause is the decoder's error, and the loader names the file."""


# the top-level keys a file must hold, and those it may hold, for orjson's tree to be kept
_REQUIRED_KEYS, _SCHEMA_KEYS = frozenset(("dims", "matrix")), frozenset(("dims", "matrix", "kind"))


def _orjson_payload(text: str) -> tuple[object, np.ndarray, str | None] | None:
    """(dims, walked matrix, kind) from ``orjson.loads(text)`` when ``json.loads`` returns the same tree, else None.

    orjson's floats are bit-identical to json's; its trees differ in three
    ways, each screened out here.  It accepts nesting of any depth, which
    json refuses with ``RecursionError``: only the schema's keys may appear,
    ``dims`` must hold ints, ``kind`` must be a str or null, and the matrix
    must walk exactly 3 deep.  It turns an integer beyond 64 bits into a float: an entry of
    magnitude at least 2^63 sends the text to json.  It refuses NaN,
    Infinity, overflowing floats and lone surrogates, which json accepts.
    """
    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    if type(doc) is not dict or not _REQUIRED_KEYS <= doc.keys() <= _SCHEMA_KEYS:
        return None
    dims, kind = doc["dims"], doc.get("kind")
    if type(dims) is not list or any(type(n) is not int for n in dims):
        return None
    if kind is not None and type(kind) is not str:
        return None
    pairs = _walked_array(doc["matrix"], 3)
    if pairs is None or pairs.dtype.kind not in "iuf":
        return None
    if pairs.dtype.kind == "f" and not np.abs(pairs).max() < 2.0**63:
        return None
    return dims, pairs, kind


def parse_matrix_payload(text: str) -> tuple[object, np.ndarray, str | None]:
    """Parse the shared schema from a file's text; returns (dims, matrix, kind).

    The text is decoded by ``orjson`` when it screens as a tree that
    ``json.loads`` would return unchanged, and by ``json.loads`` otherwise,
    so both give the same result and the same refusal.  The matrix goes
    through ``as_array``; ``dims``, the shape against it, Hermiticity and
    the state invariants are left to the ``DensityMatrix`` and ``Witness``
    constructors, so a fault gets the API's name for it.
    """
    decoded = _orjson_payload(text)
    if decoded is None:
        try:
            doc = json.loads(text)
        # ValueError covers JSON errors and integers too long to convert, RecursionError too deep a nesting
        except (ValueError, RecursionError) as exc:
            raise _Undecodable from exc
        if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
            raise InvariantViolation("parse: payload must be an object with 'dims' and 'matrix'")
        decoded = doc["dims"], doc["matrix"], doc.get("kind")
    dims, entries, kind = decoded
    # an array from orjson's tree is the walk's array, which as_array takes as it is
    pairs = as_array(entries, 3, "matrix", float)
    if pairs.shape[-1] != 2:
        raise InvariantViolation(f"shape: matrix entries must be [re, im] pairs, got shape {pairs.shape}")
    # viewing (re, im) float pairs as complex keeps the sign of zero, a + 1j*b does not
    return dims, pairs.view(np.complex128)[..., 0], kind


def _load(path, build):
    """``build`` of the text of ``path``; a file that cannot be read or decoded is refused under ``parse:``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    # ValueError covers UTF-8 decode errors
    except (OSError, ValueError) as exc:
        raise InvariantViolation(f"parse: cannot read {path}: {exc}") from exc
    # the decoded tree is acyclic and freed before the pause ends, so it starts
    # no collection and is never promoted to an older generation
    try:
        with _collector_paused():
            return build(text)
    except _Undecodable as exc:
        raise InvariantViolation(f"parse: cannot read {path}: {exc.__cause__}") from exc.__cause__


def _save(obj: DensityMatrix | Witness, path) -> None:
    with _collector_paused():
        Path(path).write_text(json.dumps(payload(obj), allow_nan=False) + "\n", encoding="utf-8")


def save_state(rho: DensityMatrix, path) -> None:
    _save(rho, path)


def _state_from_text(text: str) -> DensityMatrix:
    dims, mat, kind = parse_matrix_payload(text)
    if kind == "witness":
        raise InvariantViolation("kind: file holds a witness, not a state")
    return DensityMatrix(dims=dims, mat=mat)


def load_state(path) -> DensityMatrix:
    """Load and validate a density matrix; load(save(rho)) is bit-exact.

    The file is read, parsed and validated on every call.
    """
    return _load(path, _state_from_text)


def save_witness(w: Witness, path) -> None:
    _save(w, path)


# Keyed by the text, not the path, so a rewritten file is parsed afresh; it
# returns a frozen object with read-only arrays, so callers share it; an
# exception is not cached.
@functools.lru_cache(maxsize=16)
def _witness_from_text(text: str) -> Witness:
    dims, mat, kind = parse_matrix_payload(text)
    if kind != "witness":
        raise InvariantViolation(
            f"kind: expected a witness file (kind='witness'), got {kind!r}"
        )
    return Witness(dims=dims, mat=mat)


def load_witness(path) -> Witness:
    """Load and validate a witness; load(save(w)) is bit-exact.

    The file is read on every call, but each distinct text is parsed and
    validated once per process: the last 16 texts are kept (least recently
    used first out), each with its ``Witness``, so a text read again returns
    the same frozen object.  An entry holds the text and the matrix, about
    65 bytes per matrix entry: 155 KB at d = 7 and 1.9 MB at d = 13.  The
    bound counts texts, not bytes, so 16 large witnesses stay alive
    together: about 840 MB for sixteen 900x900 ones.
    """
    return _load(path, _witness_from_text)


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
