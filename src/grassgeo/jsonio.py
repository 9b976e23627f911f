"""JSON matrix documents and deterministic serialization for the CLI.

Floats are emitted with 17 significant digits so every value round-trips
bit-exactly and repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import PreconditionError
from .linalg import as_matrix


def matrix_to_doc(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in M.ravel()],
    }


def doc_to_matrix(doc: Any, name: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise PreconditionError(f"{name} document must be a JSON object")
    try:
        rows, cols, data = int(doc["rows"]), int(doc["cols"]), doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"{name} document needs rows, cols, data") from exc
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"{name} document data must be [re, im] pairs") from exc
    if rows < 1 or cols < 1 or flat.size != rows * cols:
        raise PreconditionError(
            f"{name} document has {flat.size} entries, expected {rows} x {cols}"
        )
    return as_matrix(flat.reshape(rows, cols), name)


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise PreconditionError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys."""
    return _dump(obj)


def _dump(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
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
