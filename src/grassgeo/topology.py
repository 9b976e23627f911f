"""Exact combinatorial invariants and the seven-way characteristic report.

This module uses integer arithmetic only; Python integers make the binomial
path overflow-free.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import ConsistencyError, Frozen
from .kernels import EnergySpec, critical_points, plucker_embed
from .loci import SchubertSymbol
from .spaces import GrassmannSpace, check_enumeration_size, coordinate_plane_frame

ORTHOGONALITY_TOL = 1e-14
# orthogonal_coherent_count holds two k x k complex arrays for k = C(n+m, n)
# planes: 2000 admits (6, 7) with 1716 planes and refuses (7, 7) with 3432
MAX_ORTHOGONAL_PLANES = 2000
# fundamental_rep_dim multiplies n m factor pairs into exact integers that grow with them,
# and weyl_group_ratio takes (n + m)!; on one core of a shared two-core x86-64 Xeon the
# slowest admitted call, fundamental_rep_dim(40000, 1), takes 0.66 s, and (200, 200) 0.33 s
MAX_WEYL_FACTORS = 40_000


class CharacteristicReport(Frozen):
    """The seven characteristic numbers, all provably equal."""

    __slots__ = (
        "euler", "weyl_ratio", "cell_count", "fundamental_rep_dim", "kodaira_N",
        "critical_count", "max_orthogonal_coherent",
    )

    def __init__(
        self, euler: int, weyl_ratio: int, cell_count: int, fundamental_rep_dim: int,
        kodaira_N: int, critical_count: int, max_orthogonal_coherent: int,
    ):
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "weyl_ratio", weyl_ratio)
        object.__setattr__(self, "cell_count", cell_count)
        object.__setattr__(self, "fundamental_rep_dim", fundamental_rep_dim)
        object.__setattr__(self, "kodaira_N", kodaira_N)
        object.__setattr__(self, "critical_count", critical_count)
        object.__setattr__(self, "max_orthogonal_coherent", max_orthogonal_coherent)
        self.__post_init__()

    def values(self) -> tuple:
        return self._values()

    def as_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __post_init__(self):
        vals = self.values()
        if len(set(vals)) != 1:
            raise ConsistencyError(f"characteristic numbers disagree: {vals}")


def euler_characteristic(n: int, m: int) -> int:
    """Weyl group order ratio (n+m)! / (n! m!) for the Grassmannian."""
    space = GrassmannSpace(n, m)
    return math.comb(space.N, space.n)


def weyl_group_ratio(n: int, m: int) -> int:
    """The same number computed as the explicit factorial quotient; refused when n m
    passes MAX_WEYL_FACTORS, which also bounds the n + m of (n + m)!."""
    space = GrassmannSpace(n, m)
    check_enumeration_size(space.n * space.m, "Weyl group ratio n m", MAX_WEYL_FACTORS)
    return math.factorial(space.N) // (math.factorial(space.n) * math.factorial(space.m))


def fundamental_rep_dim(n: int, m: int) -> int:
    """Dimension of the GL(n+m) representation Lambda^n C^{n+m}, by the Weyl
    dimension formula prod_{i<j} (l_i - l_j + j - i) / (j - i) for its highest
    weight l = (1^n, 0^m), in exact integers: only the pairs i < n <= j have
    l_i != l_j, and each gives (j - i + 1) / (j - i); refused when these n m pairs pass
    MAX_WEYL_FACTORS."""
    space = GrassmannSpace(n, m)
    check_enumeration_size(space.n * space.m, "Weyl dimension factor pairs", MAX_WEYL_FACTORS)
    num = den = 1
    for i in range(space.n):
        for j in range(space.n, space.N):
            num *= j - i + 1
            den *= j - i
    return num // den


def schubert_cells(n: int, m: int) -> list[SchubertSymbol]:
    """All Schubert symbols for G_n(C^{n+m}): nondecreasing omega in [0, m]^n."""
    space = GrassmannSpace(n, m)
    check_enumeration_size(space.N, "cell enumeration", choose=space.n)
    return [
        SchubertSymbol(w, m) for w in combinations_with_replacement(range(m + 1), n)
    ]


def orthogonal_coherent_count(space: GrassmannSpace) -> int:
    """Constructive count of pairwise orthogonal coherent states: the
    coordinate n-planes, verified orthonormal through the Gram matrix of
    their normalized Plucker vectors."""
    _check_orthogonal_count(space)
    subsets = combinations(range(space.N), space.n)
    P = np.array([plucker_embed(coordinate_plane_frame(space, S)).components for S in subsets])
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    dev = np.abs(P.conj() @ P.T - np.eye(len(P)))
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[i, j] >= ORTHOGONALITY_TOL:
        raise ConsistencyError(
            f"coordinate planes {i} and {j} are not orthonormal ({dev[i, j]:.3e})"
        )
    return len(P)


def _check_orthogonal_count(space: GrassmannSpace) -> None:
    check_enumeration_size(
        space.N, "orthogonal coherent planes", MAX_ORTHOGONAL_PLANES, choose=space.n
    )


def characteristic_report(n: int, m: int, spec: EnergySpec) -> CharacteristicReport:
    """Assemble the seven equal numbers, each through its own route.

    The minimal projective embedding dimension is reported as the Plucker
    dimension of the very ample determinant bundle; no independent
    minimality search is attempted.
    """
    space = GrassmannSpace(n, m, epsilon=1)
    _check_orthogonal_count(space)  # before any enumeration
    chi = euler_characteristic(n, m)
    cells = schubert_cells(n, m)
    dims = np.array([c.cell_dim for c in cells])
    if dims.min() != 0 or dims.max() != n * m or len(cells) != chi:
        raise ConsistencyError("Schubert cell enumeration failed its Poincare check")
    crit = critical_points(space, spec)
    return CharacteristicReport(
        euler=chi,
        weyl_ratio=weyl_group_ratio(n, m),
        cell_count=len(cells),
        fundamental_rep_dim=fundamental_rep_dim(n, m),
        kodaira_N=math.comb(n + m, n),
        critical_count=len(crit),
        max_orthogonal_coherent=orthogonal_coherent_count(space),
    )
