"""Coherent-state overlaps, diastasis, Plucker embedding and the energy function.

The reproducing kernel is the fundamental determinant kernel (Plucker weight
one): K = det(I + Z1 Z2^dagger) compact, K = det(I - Z1 Z2^dagger)^{-1}
noncompact.  Higher weights would raise these kernels to the k-th power; only
weight one is used here.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    DiastasisUndefinedError,
    Frozen,
    NumericalFailure,
    PreconditionError,
    UnsupportedSpaceError,
)
from .geometry import CHART_SINGULAR_TOL, _chart_svd, _pair_angles, raw_frame
from .linalg import _det, _eye, _numbers
from .spaces import ChartPoint, Frame, GrassmannSpace, check_space
from .spaces import check_enumeration_size, coordinate_plane_frame

CRITICAL_GRAD_TOL = 1e-8
DISTINCT_REL_GAP = 1e-6
# plucker_embed stacks C(N, n) blocks of n x n entries: 1e7 complex entries
# are 160 MB, and det factors a copy; G_11(C^22) would need 8.5e7 (1.4 GB)
MAX_PLUCKER_ENTRIES = 10**7


class OverlapValue(Frozen):
    """Kernel value and its normalization to modulus <= 1."""

    __slots__ = ("raw", "normalized")

    def __init__(self, raw: complex, normalized: complex):
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", normalized)

    @property
    def modulus(self) -> float:
        return abs(self.normalized)


class EnergySpec(Frozen):
    """Diagonal Hamiltonian weights, one real coefficient per ambient axis."""

    __slots__ = ("eps",)

    def __init__(self, eps):
        object.__setattr__(self, "eps", eps)
        self.__post_init__()

    def __post_init__(self):
        e = _numbers(self.eps, "eps", real=True)
        if e.ndim != 1 or e.size < 2:
            raise PreconditionError("eps must be a 1-D array of length n+m")
        if not np.all(np.isfinite(e)):
            raise PreconditionError("eps contains non-finite entries")
        object.__setattr__(self, "eps", e)

    def require_distinct(self) -> None:
        e = np.sort(self.eps)
        scale = max(1.0, float(np.max(np.abs(e))))
        if np.min(np.diff(e)) < DISTINCT_REL_GAP * scale:
            raise DegenerateSpectrumError(
                "Hamiltonian coefficients must be pairwise distinct "
                f"(relative gap >= {DISTINCT_REL_GAP:g})"
            )


class PluckerVector(Frozen):
    """Minors of a frame, indexed by size-n row subsets in lexicographic order."""

    __slots__ = ("n", "N", "components")

    def __init__(self, n: int, N: int, components: np.ndarray):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "components", components)

    def subsets(self):
        return list(combinations(range(self.N), self.n))


def kernel(space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint) -> complex:
    """Reproducing kernel; holomorphic in Z1 entries, antiholomorphic in Z2."""
    return _kernels(space, (Z1, Z2))[0]


def _kernels(space: GrassmannSpace, *pairs) -> list[complex]:
    """kernel(space, Z1, Z2) for each pair (Z1, Z2), through one stacked product and det."""
    check_space(space, *(p for pair in pairs for p in pair))
    G = np.array([a.Z for a, _ in pairs]) @ np.array([b.Z for _, b in pairs]).conj().swapaxes(1, 2)
    (np.add if space.compact else np.subtract)(_eye(space.n), G, out=G)  # I + eps Z1 Z2^dagger
    with np.errstate(all="ignore"):
        dets = np.linalg.det(G)
    # the dual kernel is 1 / det, so a det that underflows to 0 is out of range too
    if not np.isfinite(dets).all() or not (space.compact or dets.all()):
        raise PreconditionError("kernel determinant is outside the float64 range")
    return dets.tolist() if space.compact else [1.0 / d for d in dets.tolist()]


def normalized_overlap(
    space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint
) -> OverlapValue:
    raw, d1, d2 = _kernels(space, (Z1, Z2), (Z1, Z1), (Z2, Z2))
    d1, d2 = d1.real, d2.real
    # d1, d2 >= 1 exactly, but float64 can round them to <= 0, when the entries
    # of Z differ in scale by more than about 1e8 and the identity in
    # I + eps Z Z^dagger is lost, and their product can overflow
    if not (d1 > 0 and d2 > 0 and d1 * d2 < np.inf):
        raise NumericalFailure(
            f"kernel normalization {d1:.3g} x {d2:.3g} is not a positive float64 product"
        )
    return OverlapValue(raw, raw / math.sqrt(d1 * d2))


def cayley_distance(space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint) -> float:
    """Elliptic Cayley distance arccos|normalized overlap|, compact only."""
    if not space.compact:
        raise UnsupportedSpaceError(
            "Cayley distance is defined on the compact space; "
            "use the noncompact angle identity instead"
        )
    return float(np.arccos(min(normalized_overlap(space, Z1, Z2).modulus, 1.0)))


def diastasis(space: GrassmannSpace, Z1: ChartPoint, Z2: ChartPoint) -> float:
    """Calabi diastasis D = -2 log |normalized overlap|, symmetric and >= 0.

    The modulus is at most 1 by Cauchy-Schwarz, but rounding can put it above 1
    for nearby points; it is clamped there, so D is never negative, and D = 0.0,
    never -0.0.  Compact: undefined exactly where Z2's plane leaves Z1's chart, on Z1's polar
    divisor, where the smallest cosine of their angles (_pair_angles) is below 1e-12, as the
    chart map refuses a plane; the modulus is their product, so only one below that reads them,
    and D = -2 sum log cos theta_i stays finite where the product underflows.  The dual has
    no divisor: a tiny overlap is a large D.
    """
    modulus = normalized_overlap(space, Z1, Z2).modulus
    if space.compact and modulus < CHART_SINGULAR_TOL:
        cosines = _pair_angles(1, Z1.Z, Z2.Z)[1]
        if cosines[-1] < CHART_SINGULAR_TOL:
            raise DiastasisUndefinedError(
                "overlap vanishes: second point lies on the polar divisor of the first")
        return float(-2.0 * np.log(cosines).sum())
    return float(-2.0 * np.log(modulus)) if modulus < 1.0 else 0.0


def plucker_embed(F: Frame) -> PluckerVector:
    """Vector of n x n row minors of the frame, lexicographic subset order."""
    if not F.space.compact:
        raise UnsupportedSpaceError("Plucker embedding implemented for the compact space")
    n, N = F.space.n, F.space.N
    count = check_enumeration_size(N, "Plucker embedding", choose=n)
    check_enumeration_size(count * n * n, "Plucker minor entries", MAX_PLUCKER_ENTRIES)
    return PluckerVector(n, N, _det(F.F[_subset_rows(N, n)], "Plucker minors are not finite"))


@functools.lru_cache(maxsize=32)
def _subset_rows(N: int, n: int) -> np.ndarray:
    """The C(N, n) x n table of size-n row subsets in lexicographic order,
    read-only since shared; 32 tables hold every (N, n) with N <= 8, and a
    huge table goes once 32 others have been used after it."""
    rows = np.array(list(combinations(range(N), n)))
    rows.flags.writeable = False
    return rows


def plucker_overlap_oracle(F1: Frame, F2: Frame) -> complex:
    """Normalized Plucker inner product; Cauchy-Binet oracle for the kernel.

    Equals det(F1^dagger F2) up to the norms, hence matches the normalized
    chart-kernel overlap in modulus (and up to a unit phase).
    """
    check_space(F1.space, F2)
    p1 = plucker_embed(F1).components
    p2 = plucker_embed(F2).components
    ip = complex(np.vdot(p1, p2))
    return ip / (np.linalg.norm(p1) * np.linalg.norm(p2))


def _check_energy(space: GrassmannSpace, spec: EnergySpec, what: str = "energy function") -> None:
    if not space.compact:
        raise UnsupportedSpaceError(f"{what} implemented for the compact space")
    if spec.eps.size != space.N:
        raise PreconditionError(f"eps must have length {space.N}")


def energy(space: GrassmannSpace, spec: EnergySpec, F: Frame) -> float:
    """Covariant Berezin symbol of the diagonal Hamiltonian: trace(diag(eps) P)
    with P the orthogonal projection onto the plane."""
    _check_energy(space, spec)
    check_space(space, F)
    row_weights = np.sum(np.abs(F.F) ** 2, axis=1)
    return float(np.dot(spec.eps, row_weights))


def _energy_chart_pieces(Z: np.ndarray):
    """C = (I + Z Z^dagger)^{-1}, C Z and Z^dagger C Z from the compact chart
    SVD (u, co, si, vh) of Z: C = I - u diag(si^2) u^dagger,
    C Z = u diag(co si) vh, Z^dagger C Z = vh^dagger diag(si^2) vh.
    Every factor stays bounded, where inverting I + Z Z^dagger in float64
    loses the identity once the entries of Z reach about 1e8."""
    u, co, si, vh = _chart_svd(1, Z)
    w = si * si
    C = _eye(Z.shape[0]) - (u * w) @ u.conj().T
    return C, (u * (co * si)) @ vh, (vh.conj().T * w) @ vh


def energy_chart(space: GrassmannSpace, spec: EnergySpec, p: ChartPoint) -> float:
    """Energy in chart coordinates: tr((A1 + Z A2 Z^dagger)(I + Z Z^dagger)^{-1}),
    evaluated as tr(A1 C) + tr(A2 Z^dagger C Z) with C = (I + Z Z^dagger)^{-1}."""
    _check_energy(space, spec)
    check_space(space, p)
    C, _, ZhCZ = _energy_chart_pieces(p.Z)
    a1, a2 = spec.eps[: space.n], spec.eps[space.n :]
    return float(np.dot(a1, C.diagonal().real) + np.dot(a2, ZhCZ.diagonal().real))


def energy_gradient(
    space: GrassmannSpace, spec: EnergySpec, p: ChartPoint
) -> np.ndarray:
    """Analytic gradient of the chart energy, packed as the n x m matrix with
    entries d f/d Re(Z_ij) + i d f/d Im(Z_ij)."""
    _check_energy(space, spec)
    check_space(space, p)
    C, CZ, ZhCZ = _energy_chart_pieces(p.Z)
    a1, a2 = spec.eps[: space.n], spec.eps[space.n :]
    # 2 (C Z A2 - C M C Z) with M = A1 + Z A2 Z^dagger, regrouped on bounded factors
    return 2.0 * ((CZ * a2) @ (_eye(space.m) - ZhCZ) - (C * a1) @ CZ)


def critical_points(space: GrassmannSpace, spec: EnergySpec):
    """All critical points of the energy function for distinct coefficients.

    Returns one (subset, frame, value) per coordinate n-plane; each frame F
    is verified critical by the first-order condition of tr(A P) with
    A = diag(eps): the residual A F - F (F^dagger A F) must vanish, i.e. A
    maps the plane into itself.
    """
    _check_energy(space, spec, "critical points")
    spec.require_distinct()
    check_enumeration_size(space.N, "critical point enumeration", choose=space.n)
    out = []
    for S in combinations(range(space.N), space.n):
        F = coordinate_plane_frame(space, S)
        AF = spec.eps[:, None] * F.F
        gnorm = float(np.linalg.norm(AF - F.F @ (F.F.conj().T @ AF)))
        if gnorm >= CRITICAL_GRAD_TOL:
            raise ConsistencyError(
                f"coordinate plane {S} failed the gradient check ({gnorm:.3e})"
            )
        value = float(np.sum(spec.eps[list(S)]))
        out.append((S, F, value))
    return out


def kernel_frame_oracle(Z1: ChartPoint, Z2: ChartPoint) -> complex:
    """det(F_raw(Z1)^dagger F_raw(Z2)): the raw-frame Gram determinant, which
    the compact kernel must reproduce exactly."""
    check_space(Z1.space, Z2)
    return complex(np.linalg.det(raw_frame(Z1).conj().T @ raw_frame(Z2)))
