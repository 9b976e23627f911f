"""Cut locus, conjugate spectrum, Schubert strata and isoclinic tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, EnumerationSizeError, OnPolarDivisorError, PreconditionError
from .geometry import _exp0_frames, chart_of_frame
from .linalg import check_positive_finite, principal_angles, rank_tol, svd
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, check_frame_gram, origin_frame

DEFAULT_DET_TOL = 1e-9
DEFAULT_ANGLE_TOL = 1e-5
DEFAULT_EQUAL_ANGLE_TOL = 1e-6
DEFAULT_CONJUGACY_TOL = 1e-3
COALESCE_REL_TOL = 1e-12
MAX_CONJUGATE_TIMES = 100_000
_FAMILY_ORDER = {"T1": 0, "T2": 1, "T3": 2}


@dataclass(frozen=True)
class CartanVector:
    """Normalized direction in the maximal flat: r = min(n, m) reals with
    unit Euclidean norm."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 1 or h.size < 1:
            raise PreconditionError("h must be a nonempty 1-D real array")
        if abs(np.sum(h**2) - 1.0) > 1e-10:
            raise PreconditionError("Cartan vector must satisfy sum h_i^2 = 1")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class ConjugateTime:
    """Predicted conjugate parameter along the geodesic with direction h.

    family T1 comes from pairs (p, q) with denominator |h_p +/- h_q|
    (multiplicity 2 per sign), T2 from 2|h_p| (multiplicity 1), T3 from
    |h_p| (multiplicity 2|m-n|, present only when n != m).  Coincident times
    are coalesced with summed multiplicity.
    """

    t: float
    family: str
    multiplicity: int
    indices: tuple
    lam: int


@dataclass(frozen=True)
class SchubertSymbol:
    """Nondecreasing sequence omega with derived sigma(i) = omega(i) + i."""

    omega: tuple
    m_bound: int

    def __post_init__(self):
        w = tuple(int(x) for x in self.omega)
        if len(w) < 1:
            raise PreconditionError("omega must be nonempty")
        if any(b < a for a, b in zip(w, w[1:])):
            raise PreconditionError("omega must be nondecreasing")
        if w[0] < 0 or w[-1] > self.m_bound:
            raise PreconditionError(f"omega entries must lie in [0, {self.m_bound}]")
        object.__setattr__(self, "omega", w)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def sigma(self) -> tuple:
        return tuple(w + i for i, w in enumerate(self.omega, start=1))

    @property
    def jumps(self) -> tuple:
        """Indices 0 = i_0 < i_1 < ... < i_l = n where omega strictly increases."""
        n = self.n
        inner = [i for i in range(1, n) if self.omega[i - 1] < self.omega[i]]
        return tuple([0] + inner + [n])

    @property
    def cell_dim(self) -> int:
        return int(sum(self.omega))


def cut_locus_test(
    space: GrassmannSpace,
    F: Frame,
    tol: float = DEFAULT_DET_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> bool:
    """True iff the plane lies on the polar divisor of the origin.

    Both criteria are computed: |det(F_O^dagger F)| < tol and largest
    principal angle with O within angle_tol of pi/2; a mismatch raises a
    consistency error.
    """
    if not space.compact:
        raise PreconditionError("cut locus test applies to the compact space")
    check_positive_finite(tol, "tol")
    det_val = abs(np.linalg.det(F.top))
    angles = principal_angles(origin_frame(space).F, F.F)
    by_det = det_val < tol
    by_angle = float(angles[-1]) > np.pi / 2 - angle_tol
    if by_det != by_angle:
        raise ConsistencyError(
            f"cut-locus criteria disagree: |det| = {det_val:.3e}, "
            f"max angle = {angles[-1]:.12f}"
        )
    return by_det


class DisjointUnionResult(NamedTuple):
    branch: str  # "chart" | "polar-divisor" | "near-divisor"
    det_modulus: float
    chart_point: ChartPoint | None


def disjoint_union_check(
    space: GrassmannSpace, F: Frame, tol: float = DEFAULT_DET_TOL
) -> DisjointUnionResult:
    """Every plane is exactly one of chart-representable or polar-divisor.

    Borderline determinants in [tol, 10 tol) are flagged rather than
    classified.
    """
    check_positive_finite(tol, "tol")
    det_val = abs(np.linalg.det(F.top))
    if det_val < tol:
        return DisjointUnionResult("polar-divisor", det_val, None)
    try:
        p = chart_of_frame(F)
    except OnPolarDivisorError:
        p = None
    if det_val < 10 * tol:
        return DisjointUnionResult("near-divisor", det_val, p)
    if p is None:
        raise ConsistencyError(
            f"determinant {det_val:.3e} above tolerance but chart map failed"
        )
    return DisjointUnionResult("chart", det_val, p)


def tangent_conjugate_times(
    space: GrassmannSpace, h: CartanVector, t_max: float
) -> list[ConjugateTime]:
    """All predicted conjugate parameters t <= t_max along direction h.

    Zero denominators (h_p = h_q or h_p = 0) contribute no time: the formula
    value is infinite.  Coincident times from different (family, indices,
    lambda) are merged, multiplicities summed; the surviving tag is the
    largest single contribution.
    """
    check_positive_finite(t_max, "t_max")
    r = space.rank
    if h.h.size != r:
        raise PreconditionError(f"h must have length r = {r}")
    hv = h.h

    # (denominator, family, multiplicity, indices); time lam pi / denom
    series = []
    for p in range(r):
        for q in range(p + 1, r):
            series.append((abs(hv[p] + hv[q]), "T1", 2, (p, q)))
            series.append((abs(hv[p] - hv[q]), "T1", 2, (p, q)))
    for p in range(r):
        series.append((2 * abs(hv[p]), "T2", 1, (p,)))
    if space.n != space.m:
        mult3 = 2 * abs(space.m - space.n)
        for p in range(r):
            series.append((abs(hv[p]), "T3", mult3, (p,)))
    series = [s for s in series if s[0] >= 1e-14]

    # Python floats: an overflowing product is inf without a warning
    count = sum(np.floor(t_max * float(s[0]) / np.pi) for s in series)
    if count > MAX_CONJUGATE_TIMES:
        raise EnumerationSizeError(
            f"about {count:.3g} conjugate times up to t_max; "
            f"at most {MAX_CONJUGATE_TIMES} are listed"
        )
    raw = []
    for denom, family, mult, indices in series:
        lam = 1
        while lam * np.pi / denom <= t_max + 1e-15:
            raw.append(ConjugateTime(lam * np.pi / denom, family, mult, indices, lam))
            lam += 1

    raw.sort(key=lambda c: (c.t, _FAMILY_ORDER[c.family]))
    merged: list[ConjugateTime] = []
    for c in raw:
        if merged and abs(c.t - merged[-1].t) <= COALESCE_REL_TOL * max(1.0, c.t):
            prev = merged[-1]
            keep = prev if prev.multiplicity >= c.multiplicity else c
            merged[-1] = ConjugateTime(
                prev.t, keep.family, prev.multiplicity + c.multiplicity,
                keep.indices, keep.lam,
            )
        else:
            merged.append(c)
    return merged


def cartan_to_tangent(space: GrassmannSpace, h: CartanVector) -> TangentVector:
    """Diagonal embedding of a Cartan vector: B_ii = h_i, zeros elsewhere."""
    r = space.rank
    if h.h.size != r:
        raise PreconditionError(f"h must have length r = {r}")
    B = np.zeros((space.n, space.m), dtype=complex)
    B[np.arange(r), np.arange(r)] = h.h
    return TangentVector(space, B)


def dexp_min_singular(
    space: GrassmannSpace,
    B: TangentVector,
    t: float,
    fd_step: float = 1e-5,
) -> float:
    """Smallest singular value of the real Jacobian of B' -> vec(P(exp B'))
    at B' = t B, normalized by the largest singular value.

    Central differences over all 2nm real coordinates.  Measuring the
    projection matrix avoids chart transitions entirely: the chart Jacobian
    can blow up (projective-line antipode) while the true differential
    degenerates, and P handles both uniformly.  Normalizing by the largest
    singular value keeps high-multiplicity degeneracies visible: on the
    projective plane at parameter pi, three of the four real directions
    degenerate at once, so any mid-spectrum normalizer collapses with them.
    """
    if not (1e-7 <= fd_step <= 1e-3):
        raise PreconditionError("fd_step must lie in [1e-7, 1e-3]")
    if not np.isfinite(t):
        raise PreconditionError("t must be finite")
    n, m = space.n, space.m
    B0 = TangentVector(space, t * B.B).B
    # all 4nm points in one stack; column 2 idx + {0, 1} moves entry
    # divmod(idx, m) by fd_step, 1j fd_step
    E = np.eye(n * m).reshape(n * m, n, m)
    dB = np.stack([E * fd_step, E * (1j * fd_step)], axis=1).reshape(-1, n, m)
    F = _exp0_frames(space.epsilon, np.concatenate([B0 + dB, B0 - dB]))
    check_frame_gram(space, F)
    Fh = np.swapaxes(F, -1, -2).conj()
    P = F @ np.linalg.inv(Fh @ F) @ Fh  # orthogonal projection onto each span
    diff = (P[: 2 * n * m] - P[2 * n * m :]).reshape(2 * n * m, -1) / (2.0 * fd_step)
    s = svd(np.concatenate([diff.real, diff.imag], axis=1).T).s
    if s[0] == 0.0:
        raise PreconditionError("degenerate Jacobian: all singular values vanish")
    return float(s[-1] / s[0])


def is_conjugate(
    space: GrassmannSpace,
    B: TangentVector,
    t: float,
    tol: float = DEFAULT_CONJUGACY_TOL,
) -> bool:
    """True iff exp0(tB) is conjugate to the origin at normalized tolerance tol."""
    if B.norm == 0.0:
        raise PreconditionError("conjugacy test needs a nonzero direction")
    return dexp_min_singular(space, B, t) < tol


def standard_flag(space: GrassmannSpace) -> np.ndarray:
    """Flag preset with C^p spanned by the first p standard basis vectors."""
    return np.eye(space.N, dtype=complex)


def dual_flag(space: GrassmannSpace) -> np.ndarray:
    """Flag preset adapted to the origin: C^m equals the orthocomplement of O."""
    order = list(range(space.n, space.N)) + list(range(space.n))
    return np.eye(space.N, dtype=complex)[:, order]


def schubert_dims(F: Frame, flag: np.ndarray, tol: float = DEFAULT_DET_TOL) -> list[int]:
    """dim(X intersect C^p) for p = 1..n+m via n + p - rank([F | basis of C^p])."""
    flag = np.asarray(flag, dtype=complex)
    N, n = F.space.N, F.space.n
    if flag.shape != (N, N):
        raise PreconditionError(f"flag basis must be {N}x{N}")
    gram_dev = np.max(np.abs(flag.conj().T @ flag - np.eye(N)))
    if gram_dev > 1e-8:
        raise PreconditionError("flag basis must be orthonormal")
    dims = []
    for p in range(1, N + 1):
        stacked = np.hstack([F.F, flag[:, :p]])
        dims.append(n + p - rank_tol(stacked, tol))
    return dims


def schubert_membership(
    F: Frame, symbol: SchubertSymbol, flag: np.ndarray
) -> tuple[bool, bool]:
    """(in_Z, generic): the intersection-dimension conditions of Z(omega) and
    their equalities at the jump indices."""
    if symbol.n != F.space.n or symbol.m_bound != F.space.m:
        raise PreconditionError("symbol does not match the space dimensions")
    dims = schubert_dims(F, flag)
    sigma = symbol.sigma
    in_z = all(dims[sigma[i] - 1] >= i + 1 for i in range(symbol.n))
    generic = in_z and all(
        dims[sigma[ih - 1] - 1] == ih for ih in symbol.jumps if ih > 0
    )
    return in_z, generic


def wong_cut_symbol(space: GrassmannSpace) -> SchubertSymbol:
    """The symbol (m-1, m, ..., m) whose variety, with the dual flag, is the
    cut locus of the origin."""
    return SchubertSymbol((space.m - 1,) + (space.m,) * (space.n - 1), space.m)


def _angles_with_origin(space: GrassmannSpace, F: Frame) -> np.ndarray:
    return principal_angles(origin_frame(space).F, F.F)


def conjugate_stratum_W(
    space: GrassmannSpace, F: Frame, tol: float = DEFAULT_EQUAL_ANGLE_TOL
) -> bool:
    """Angle-based test for the Wong stratum of the conjugate locus: more
    zero angles with O than the generic forced count max(0, n - m), or at
    least one right angle."""
    if not space.compact:
        raise PreconditionError("conjugate strata apply to the compact space")
    ang = _angles_with_origin(space, F)
    zeros = int(np.count_nonzero(ang < tol))
    rights = int(np.count_nonzero(ang > np.pi / 2 - tol))
    return zeros > max(0, space.n - space.m) or rights >= 1


def conjugate_stratum_I(
    space: GrassmannSpace, F: Frame, tol: float = DEFAULT_EQUAL_ANGLE_TOL
) -> bool:
    """Necessary-condition stratum test: some pair of stationary angles with
    O coincide within tol.  Not claimed sufficient for membership."""
    if not space.compact:
        raise PreconditionError("conjugate strata apply to the compact space")
    ang = np.sort(_angles_with_origin(space, F))
    if ang.size < 2:
        return False
    return bool(np.min(np.diff(ang)) < tol)


def isoclinic_test(F1: Frame, F2: Frame, tol: float = DEFAULT_EQUAL_ANGLE_TOL) -> bool:
    """True iff all stationary angles between the two planes coincide."""
    ang = principal_angles(F1.F, F2.F)
    return bool(ang[-1] - ang[0] < tol)
