"""Complex dense linear algebra kernel.

All matrix functions of a rectangular matrix B are evaluated through one SVD
of B, never by forming B*B, which would square the condition number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailure, PreconditionError, SingularityError

DEFAULT_RANK_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise PreconditionError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise PreconditionError(f"{name} must have positive dimensions, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD M = u @ diag(s) @ vh with s nonincreasing and nonnegative."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vh


def svd(M) -> SvdResult:
    """Thin SVD of a complex matrix.

    Raises NumericalFailure (naming the dimensions) if LAPACK does not
    converge.
    """
    M = as_matrix(M)
    try:
        u, s, vh = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"SVD did not converge for a {M.shape[0]}x{M.shape[1]} matrix"
        ) from exc
    return SvdResult(u, s, vh)


def apply_spectral(B, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate B -> u @ f(sigma) @ vh through the thin SVD of B.

    For B = u @ diag(s) @ vh this equals B @ f(sqrt(B*B)) / sqrt(B*B), the
    stable form of all co/si/ta expressions.  f is applied elementwise to the
    singular values; for sigma = 0 the value f(0) is used, so odd functions
    with f(0) = 0 get the correct limit.
    """
    r = svd(B)
    fs = np.asarray(f(r.s), dtype=float)
    if not np.all(np.isfinite(fs)):
        bad = r.s[~np.isfinite(fs)][0]
        raise SingularityError(
            f"scalar function undefined at singular value {bad!r}"
        )
    return (r.u * fs) @ r.vh


def check_positive_finite(x: float, name: str) -> None:
    """Raise unless 0 < x < inf; written so that NaN fails too."""
    if not 0 < x < np.inf:
        raise PreconditionError(f"{name} must be positive and finite")


def rank_tol(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values exceeding tol * max(1, largest singular value)."""
    check_positive_finite(tol, "rank tolerance")
    s = svd(M).s
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def check_orthonormal(F, tol: float = ORTHONORMALITY_TOL, name: str = "frame") -> np.ndarray:
    F = as_matrix(F, name)
    gram = F.conj().T @ F
    dev = np.max(np.abs(gram - np.eye(F.shape[1])))
    if dev > tol:
        raise PreconditionError(
            f"{name} columns are not orthonormal (Gram deviation {dev:.3e})"
        )
    return F


def principal_angles(F1, F2) -> np.ndarray:
    """Jordan's stationary angles between the column spans of F1 and F2.

    Both inputs must have orthonormal columns and the same column count.
    Returns a nondecreasing array of angles in [0, pi/2]; the arccos argument
    is clipped to [-1, 1] since rounding can exceed 1 by ~1e-16.  Angles
    below pi/4 are recomputed from the sine (residual SVD), which keeps
    nearly-aligned planes accurate to machine precision where arccos alone
    loses half the digits.
    """
    F1 = check_orthonormal(F1, name="first frame")
    F2 = check_orthonormal(F2, name="second frame")
    if F1.shape != F2.shape:
        raise PreconditionError(
            f"frames must have equal shapes, got {F1.shape} and {F2.shape}"
        )
    cross = F1.conj().T @ F2
    theta = np.arccos(np.clip(svd(cross).s, -1.0, 1.0))
    small = theta < np.pi / 4
    if np.any(small):
        residual = F2 - F1 @ cross
        sines = np.sort(np.clip(svd(residual).s, -1.0, 1.0))
        theta_sin = np.arcsin(sines)
        theta = np.where(small, theta_sin, theta)
    return theta


def inv_sqrt_hermitian(G) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite matrix."""
    w, V = np.linalg.eigh(np.asarray(G, dtype=complex))
    if w[0] <= 0:
        raise PreconditionError("matrix is not positive definite")
    return (V / np.sqrt(w)) @ V.conj().T
