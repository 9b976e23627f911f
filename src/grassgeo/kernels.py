"""Coherent-state overlaps, diastasis, Plucker embedding and the energy function.

The reproducing kernel is the fundamental determinant kernel (Plucker weight
one): K = det(I + Z1 Z2^dagger) compact, K = det(I - Z1 Z2^dagger)^{-1}
noncompact.  Higher weights would raise these kernels to the k-th power; only
weight one is used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    DiastasisUndefinedError,
    PreconditionError,
    UnsupportedSpaceError,
)
from .geometry import raw_frame
from .spaces import ChartPoint, Frame, GrassmannSpace

ZERO_OVERLAP_TOL = 1e-15
CRITICAL_GRAD_TOL = 1e-8


@dataclass(frozen=True)
class OverlapValue:
    """Kernel value and its normalization to modulus <= 1."""

    raw: complex
    normalized: complex

    @property
    def modulus(self) -> float:
        return abs(self.normalized)


@dataclass(frozen=True)
class EnergySpec:
    """Diagonal Hamiltonian weights, one real coefficient per ambient axis."""

    eps: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eps, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise PreconditionError("eps must be a 1-D array of length n+m")
        if not np.all(np.isfinite(e)):
            raise PreconditionError("eps contains non-finite entries")
        object.__setattr__(self, "eps", e)

    def require_distinct(self, rel_gap: float = 1e-6) -> None:
        e = np.sort(self.eps)
        scale = max(1.0, float(np.max(np.abs(e))))
        if np.min(np.diff(e)) < rel_gap * scale:
            raise DegenerateSpectrumError(
                "Hamiltonian coefficients must be pairwise distinct "
                f"(relative gap >= {rel_gap:g})"
            )


@dataclass(frozen=True)
class PluckerVector:
    """Minors of a frame, indexed by size-n row subsets in lexicographic order."""

    n: int
    N: int
    components: np.ndarray

    def subsets(self):
        return list(combinations(range(self.N), self.n))


def _check_same_space(space: GrassmannSpace, *points: ChartPoint) -> None:
    for p in points:
        if p.space != space:
            raise PreconditionError("chart point belongs to a different space")


def kernel(space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint) -> complex:
    """Reproducing kernel; holomorphic in Z1 entries, antiholomorphic in Z2."""
    _check_same_space(space, Z1, Z2)
    G = np.eye(space.n) + space.epsilon * (Z1.Z @ Z2.Z.conj().T)
    det = complex(np.linalg.det(G))
    return det if space.compact else 1.0 / det


def normalized_overlap(
    space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint
) -> OverlapValue:
    raw = kernel(space, Z1, Z2)
    d1 = kernel(space, Z1, Z1).real
    d2 = kernel(space, Z2, Z2).real
    return OverlapValue(raw, raw / np.sqrt(d1 * d2))


def cayley_distance(space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint) -> float:
    """Elliptic Cayley distance arccos|normalized overlap|, compact only."""
    if not space.compact:
        raise UnsupportedSpaceError(
            "Cayley distance is defined on the compact space; "
            "use the noncompact angle identity instead"
        )
    ov = normalized_overlap(space, Z1, Z2)
    return float(np.arccos(np.clip(ov.modulus, -1.0, 1.0)))


def diastasis(space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint) -> float:
    """Calabi diastasis D = -2 log |normalized overlap|, symmetric and >= 0.

    Undefined exactly where the overlap vanishes, i.e. when Z2 sits on the
    polar divisor of Z1.
    """
    ov = normalized_overlap(space, Z1, Z2)
    if ov.modulus < ZERO_OVERLAP_TOL:
        raise DiastasisUndefinedError(
            "overlap vanishes: second point lies on the polar divisor of the first"
        )
    return float(-2.0 * np.log(ov.modulus))


def plucker_embed(F: Frame) -> PluckerVector:
    """Vector of n x n row minors of the frame, lexicographic subset order."""
    if not F.space.compact:
        raise UnsupportedSpaceError("Plucker embedding implemented for the compact space")
    n, N = F.space.n, F.space.N
    rows = np.array(list(combinations(range(N), n)))
    return PluckerVector(n, N, np.linalg.det(F.F[rows]))


def plucker_overlap_oracle(F1: Frame, F2: Frame) -> complex:
    """Normalized Plucker inner product; Cauchy-Binet oracle for the kernel.

    Equals det(F1^dagger F2) up to the norms, hence matches the normalized
    chart-kernel overlap in modulus (and up to a unit phase).
    """
    if F1.space != F2.space:
        raise PreconditionError("frames belong to different spaces")
    p1 = plucker_embed(F1).components
    p2 = plucker_embed(F2).components
    ip = complex(np.vdot(p1, p2))
    return ip / (np.linalg.norm(p1) * np.linalg.norm(p2))


def energy(space: GrassmannSpace, spec: EnergySpec, F: Frame) -> float:
    """Covariant Berezin symbol of the diagonal Hamiltonian: trace(diag(eps) P)
    with P the orthogonal projection onto the plane."""
    if not space.compact:
        raise UnsupportedSpaceError("energy function implemented for the compact space")
    if spec.eps.size != space.N:
        raise PreconditionError(f"eps must have length {space.N}")
    row_weights = np.sum(np.abs(F.F) ** 2, axis=1)
    return float(np.dot(spec.eps, row_weights))


def _energy_chart_pieces(space: GrassmannSpace, spec: EnergySpec, Z: np.ndarray):
    a1 = np.diag(spec.eps[: space.n]).astype(complex)
    a2 = np.diag(spec.eps[space.n :]).astype(complex)
    C = np.linalg.inv(np.eye(space.n) + Z @ Z.conj().T)
    M = a1 + Z @ a2 @ Z.conj().T
    return a1, a2, C, M


def energy_chart(space: GrassmannSpace, spec: EnergySpec, p: ChartPoint) -> float:
    """Energy in chart coordinates: tr((A1 + Z A2 Z^dagger)(I + Z Z^dagger)^{-1})."""
    _, _, C, M = _energy_chart_pieces(space, spec, p.Z)
    return float(np.trace(M @ C).real)


def energy_gradient(
    space: GrassmannSpace, spec: EnergySpec, p: ChartPoint
) -> np.ndarray:
    """Analytic gradient of the chart energy, packed as the n x m matrix with
    entries d f/d Re(Z_ij) + i d f/d Im(Z_ij)."""
    if not space.compact:
        raise UnsupportedSpaceError("energy gradient implemented for the compact space")
    if spec.eps.size != space.N:
        raise PreconditionError(f"eps must have length {space.N}")
    _check_same_space(space, p)
    Z = p.Z
    _, a2, C, M = _energy_chart_pieces(space, spec, Z)
    return 2.0 * (C @ Z @ a2 - C @ M @ C @ Z)


def coordinate_plane_frame(space: GrassmannSpace, subset) -> Frame:
    """Frame of the coordinate plane spanned by the selected standard axes."""
    S = sorted(int(i) for i in subset)
    if len(S) != space.n or len(set(S)) != space.n:
        raise PreconditionError(f"subset must pick {space.n} distinct axes")
    F = np.zeros((space.N, space.n), dtype=complex)
    for col, i in enumerate(S):
        F[i, col] = 1.0
    return Frame(space, F)


def critical_points(space: GrassmannSpace, spec: EnergySpec):
    """All critical points of the energy function for distinct coefficients.

    Returns one (subset, frame, value) per coordinate n-plane; each is
    verified critical by evaluating the analytic gradient at the origin of
    the chart centered on that plane (same functional form with the
    coefficients permuted so the subset comes first).
    """
    if not space.compact:
        raise UnsupportedSpaceError("critical points implemented for the compact space")
    if spec.eps.size != space.N:
        raise PreconditionError(f"eps must have length {space.N}")
    spec.require_distinct()
    out = []
    zero = ChartPoint(space, np.zeros((space.n, space.m)))
    for S in combinations(range(space.N), space.n):
        rest = [i for i in range(space.N) if i not in set(S)]
        perm = EnergySpec(np.concatenate([spec.eps[list(S)], spec.eps[rest]]))
        gnorm = float(np.linalg.norm(energy_gradient(space, perm, zero)))
        if gnorm >= CRITICAL_GRAD_TOL:
            raise ConsistencyError(
                f"coordinate plane {S} failed the gradient check ({gnorm:.3e})"
            )
        value = float(np.sum(spec.eps[list(S)]))
        out.append((S, coordinate_plane_frame(space, S), value))
    return out


def kernel_frame_oracle(Z1: ChartPoint, Z2: ChartPoint) -> complex:
    """det(F_raw(Z1)^dagger F_raw(Z2)): the raw-frame Gram determinant, which
    the compact kernel must reproduce exactly."""
    return complex(np.linalg.det(raw_frame(Z1).conj().T @ raw_frame(Z2)))
