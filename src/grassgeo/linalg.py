"""Complex dense linear algebra kernel.

All matrix functions of a rectangular matrix B are evaluated through one SVD
of B, never by forming B*B, which would square the condition number.
Shared constants, such as the identities from _eye, are read-only, and public
functions never return them.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable

import numpy as np

from .errors import Frozen, NumericalFailure, PreconditionError, SingularityError

DEFAULT_RANK_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-8
# bound on every matrix entry and scalar factor: a product of two bounded
# numbers, or a sum of squares over fewer than 1e8 of them, stays finite
ENTRY_LIMIT = 1e150


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array whose entries are at most ENTRY_LIMIT in
    modulus; NaN and Inf fail the same comparison."""
    M = _numbers(a, name)
    if M.ndim != 2:
        raise PreconditionError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise PreconditionError(f"{name} must have positive dimensions, got {M.shape}")
    if not np.abs(M).max() <= ENTRY_LIMIT:
        if not np.isfinite(M).all():
            raise PreconditionError(f"{name} contains non-finite entries")
        raise PreconditionError(f"{name} has an entry above {ENTRY_LIMIT:g} in modulus")
    return M


def _numbers(a, name: str, real: bool = False) -> np.ndarray:
    """np.asarray(a, dtype=complex), or its real part if real; strings, ragged rows and, if
    real, an imaginary part raise PreconditionError rather than being cast or dropped."""
    try:
        z = np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or real and z.imag.any():
        raise PreconditionError(f"{name} must be an array of {'real ' * real}numbers")
    return z.real.copy() if real else z


@functools.lru_cache(maxsize=16)
def _eye(n: int, dtype=float) -> np.ndarray:
    """The n x n identity of the given dtype, built once and read-only since
    shared, for an identity that only enters arithmetic; the 16 most recent
    (n, dtype) are kept, so a large identity does not stay for good."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


class SvdResult(Frozen):
    """Thin SVD M = u @ diag(s) @ vh with s nonincreasing and nonnegative."""

    __slots__ = ("u", "s", "vh")

    def __init__(self, u: np.ndarray, s: np.ndarray, vh: np.ndarray):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "vh", vh)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vh


def svd(M) -> SvdResult:
    """Thin SVD of a complex matrix.

    Raises NumericalFailure (naming the dimensions) if LAPACK does not
    converge.
    """
    return SvdResult(*_svd(as_matrix(M)))


def _svd(M: np.ndarray, compute_uv: bool = True, full_matrices: bool = False):
    """SVD (u, s, vh), thin unless full_matrices, or s alone if not compute_uv, of a
    matrix or a stack (..., p, q) that the package built or already checked, so its
    entries are not checked again; a LAPACK failure raises NumericalFailure."""
    try:
        return np.linalg.svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"SVD did not converge for a {M.shape[-2]}x{M.shape[-1]} matrix"
        ) from exc


def _svdvals(M: np.ndarray) -> np.ndarray:
    """The singular values, nonincreasing, of what _svd takes, for callers
    that read no singular vector: LAPACK then forms neither u nor vh."""
    return _svd(M, compute_uv=False)


def _det(M: np.ndarray, failure: str) -> np.ndarray:
    """det of a matrix or stack that the package built or checked; numpy's complex det
    turns a subnormal pivot into NaN, so a det that is not finite raises NumericalFailure."""
    with np.errstate(all="ignore"):
        d = np.linalg.det(M)
    if not np.isfinite(d).all():
        raise NumericalFailure(f"{failure}: numpy's complex det fails on a subnormal pivot")
    return d


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
        raise SingularityError(f"scalar function undefined at singular value {float(bad)!r}")
    return (r.u * fs) @ r.vh


def check_positive_finite(x: float, name: str) -> None:
    """Raise unless 0 < x <= the largest float; NaN, None, a string or a larger int fail too."""
    try:
        ok = 0 < x <= sys.float_info.max
    except TypeError:
        ok = False
    if not ok:
        raise PreconditionError(f"{name} must be positive and finite")


def check_bounded(x: float, name: str) -> None:
    """Raise unless |x| <= ENTRY_LIMIT; written so that NaN fails too, and None or a string."""
    try:
        ok = abs(x) <= ENTRY_LIMIT
    except TypeError:
        ok = False
    if not ok:
        raise PreconditionError(
            f"{name} must be finite and at most {ENTRY_LIMIT:g} in modulus, got {x!r}"
        )


def check_rank_tol(tol: float) -> None:
    """Raise unless 0 < tol < 1: from tol = 1 on, the rank rule of rank_tol counts no
    singular value at all; NaN, None, a string or a huge int fail too."""
    try:
        ok = 0 < tol < 1
    except TypeError:
        ok = False
    if not ok:
        raise PreconditionError("rank tolerance must be positive and finite, and below 1")


def rank_tol(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values exceeding tol * max(1, largest singular value)."""
    check_rank_tol(tol)
    return _rank(_svdvals(as_matrix(M)), tol)


def _rank(s: np.ndarray, tol: float) -> int:
    """The rank rule of rank_tol on singular values s, nonincreasing, and a tol already checked."""
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def check_gram(F: np.ndarray, eps: int, tol: float, name: str = "frame") -> None:
    """Raise unless the Gram F^dagger J F, with J = diag(I_n, eps I_{N-n}), of
    the frame F (N, n) is I_n to within tol; a NaN deviation fails too."""
    N, n = F.shape
    Fh = F.conj().T
    if eps < 0:
        Fh = Fh * np.concatenate([np.ones(n), -np.ones(N - n)])  # F^dagger J
    dev = np.abs(Fh @ F - _eye(n)).max()
    if not dev <= tol:
        kind = "orthonormality" if eps > 0 else "J-orthonormality"
        raise PreconditionError(f"{name} {kind} deviation {dev:.3e} exceeds {tol:g}")


def principal_angles(F1, F2) -> np.ndarray:
    """Jordan's stationary angles between the column spans of F1 and F2.

    Both inputs must have orthonormal columns and the same column count.
    Returns a nondecreasing array of angles in [0, pi/2], from _angles: the
    sines are the singular values of the residual F2 - F1 F1^dagger F2, the
    cosines those of F1^dagger F2, so nearly-aligned planes keep machine
    precision where arccos alone loses half the digits.
    """
    F1, F2 = as_matrix(F1, "first frame"), as_matrix(F2, "second frame")
    check_gram(F1, 1, ORTHONORMALITY_TOL, "first frame")
    check_gram(F2, 1, ORTHONORMALITY_TOL, "second frame")
    if F1.shape != F2.shape:
        raise PreconditionError(
            f"frames must have equal shapes, got {F1.shape} and {F2.shape}"
        )
    return _principal_angles(F1, F2)


def _principal_angles(F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """principal_angles of two frames already checked, such as two Frame.F of one space."""
    cross = F1.conj().T @ F2
    return _angles(_svdvals(F2 - F1 @ cross), _svdvals(cross))[::-1]


def _angles(sines: np.ndarray, cosines: np.ndarray) -> np.ndarray:
    """Principal angles, in the order of the sines, from their sines and cosines, both
    nonincreasing as _svdvals gives them: arcsin of a sine below sqrt(1/2), where it is the
    better conditioned, else arccos of the cosine (Bjorck & Golub 1973), each clipped at 1."""
    s = np.minimum(sines, 1.0)
    return np.where(s < np.sqrt(0.5), np.arcsin(s), np.arccos(np.minimum(cosines[::-1], 1.0)))
