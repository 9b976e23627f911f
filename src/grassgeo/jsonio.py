"""JSON matrix documents and deterministic serialization for the CLI.

Floats are emitted with 17 significant digits so every value round-trips
bit-exactly and repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import operator
from typing import Any

import numpy as np

from .errors import PreconditionError
from .linalg import ENTRY_LIMIT, as_matrix


def matrix_to_doc(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in M.ravel()],
    }


def doc_to_matrix(doc: Any, name: str = "matrix") -> np.ndarray:
    """The rows x cols matrix of a document {"rows", "cols", "data"}: rows and cols are
    read with operator.index, so a float, a string or a bool is refused, not truncated,
    and data lists rows * cols [re, im] pairs of JSON numbers (not bool), row-major."""
    if not isinstance(doc, dict):
        raise PreconditionError(f"{name} document must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise PreconditionError(f"{name} document needs rows, cols, data") from exc
    try:
        rows, cols = _integer(rows), _integer(cols)
    except TypeError:
        raise PreconditionError(f"{name} document rows and cols must be integers") from None
    try:
        flat = np.array([complex(_number(re), _number(im)) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"{name} document data must be [re, im] pairs of numbers") from exc
    except OverflowError:  # an integer too large for a float
        raise PreconditionError(f"{name} has an entry above {ENTRY_LIMIT:g} in modulus") from None
    if rows < 1 or cols < 1 or flat.size != rows * cols:
        raise PreconditionError(
            f"{name} document has {flat.size} entries, expected {rows} x {cols}"
        )
    return as_matrix(flat.reshape(rows, cols), name)


def _integer(x: Any) -> int:
    if isinstance(x, bool):
        raise TypeError("bool is not an integer here")
    return operator.index(x)


def _number(x: Any) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{type(x).__name__} is not a number")
    return x


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise PreconditionError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys, of the types
    the CLI emits: bool, int, float, str, complex as [re, im], dict, and list, tuple or
    ndarray as a list.  Anything else, None included, raises PreconditionError."""
    return _dump(obj)


def _dump(obj: Any) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):  # np.float64 too, a float subclass
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return _dump([obj.real, obj.imag])
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{_dump(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _dump(obj.tolist())
    raise PreconditionError(f"cannot serialize value of type {type(obj).__name__}")
