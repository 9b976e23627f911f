"""Cut locus, conjugate spectrum, Schubert strata and isoclinic tests."""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, Frozen, PreconditionError
from .geometry import CHART_SINGULAR_TOL, _chart_factors, _chart_of_rows
from .linalg import DEFAULT_RANK_TOL, ENTRY_LIMIT, ORTHONORMALITY_TOL, _angles, _principal_angles
from .linalg import _det, _numbers, _rank, _svd, _svdvals, as_matrix, check_bounded, check_gram
from .linalg import check_positive_finite, check_rank_tol
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, check_enumeration_size
from .spaces import check_space

DEFAULT_CUT_COSINE_TOL = 1e-9  # below it, the smallest cosine with O puts a plane on the cut locus
DET_CROSS_CHECK_TOL = 1e-12  # |det F_top| vs the product of its singular values, both <= 1
DEFAULT_EQUAL_ANGLE_TOL = 1e-6
DEFAULT_CONJUGACY_TOL = 1e-3
FD_STEP = 1e-5  # central-difference step of dexp_min_singular
# largest |t B|_2 the dual dexp is measured at: the radial change of the projection
# shrinks like 1/cosh^2, so there the ratio keeps about 5 of float64's digits
DEXP_DUAL_LIMIT = 7.0
COALESCE_REL_TOL = 1e-12
MAX_CONJUGATE_TIMES = 100_000
# bound on the complex entries of P that one stacked dexp chunk holds, 16 MiB
_DEXP_CHUNK_ENTRIES = 2**20


class CartanVector(Frozen):
    """Normalized direction in the maximal flat: r = min(n, m) reals with
    unit Euclidean norm."""

    __slots__ = ("h",)

    def __init__(self, h):
        object.__setattr__(self, "h", h)
        self.__post_init__()

    def __post_init__(self):
        h = _numbers(self.h, "h", real=True)
        if h.ndim != 1 or h.size < 1:
            raise PreconditionError("h must be a nonempty 1-D real array")
        if not np.all(np.isfinite(h)):
            raise PreconditionError("h contains non-finite entries")
        if abs(np.sum(h**2) - 1.0) > 1e-10:
            raise PreconditionError("Cartan vector must satisfy sum h_i^2 = 1")
        object.__setattr__(self, "h", h)


class ConjugateTime(Frozen):
    """Predicted conjugate parameter along the geodesic with direction h.

    family T1 comes from pairs (p, q) with denominator |h_p +/- h_q|
    (multiplicity 2 per sign), T2 from 2|h_p| (multiplicity 1), T3 from
    |h_p| (multiplicity 2|m-n|, present only when n != m).  Coincident times
    are coalesced with summed multiplicity.
    """

    __slots__ = ("t", "family", "multiplicity", "indices", "lam")

    def __init__(self, t: float, family: str, multiplicity: int, indices: tuple, lam: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "lam", lam)


class SchubertSymbol(Frozen):
    """Nondecreasing sequence omega with derived sigma(i) = omega(i) + i."""

    __slots__ = ("omega", "m_bound")

    def __init__(self, omega, m_bound: int):
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "m_bound", m_bound)
        self.__post_init__()

    def __post_init__(self):
        try:
            w = tuple(operator.index(x) for x in self.omega)
            object.__setattr__(self, "m_bound", operator.index(self.m_bound))
        except TypeError:
            raise PreconditionError("omega and m_bound must be integers") from None
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


def cut_locus_test(space: GrassmannSpace, F: Frame, tol: float = DEFAULT_CUT_COSINE_TOL) -> bool:
    """True iff the plane lies on the polar divisor of the origin: its smallest cosine with O,
    the smallest singular value of F_O^dagger F = F_top, is below tol.  The compact space
    only; a det that disagrees with that SVD raises ConsistencyError (_top_block)."""
    _, (_, s, _) = _top_block(space, F, tol)
    return bool(s[-1] < tol)


def _top_block(space: GrassmannSpace, F: Frame, tol: float) -> tuple:
    """|det F_top| and the thin SVD (u, s, vh) of F_top: the one reading of the top block.
    The cut-locus test and the disjoint-union check decide on s[-1]; the det is reported.

    The compact space only.  A |det| that differs by more than DET_CROSS_CHECK_TOL from
    the product of the cosines of the principal angles with O, the singular values s of
    F_O^dagger F = F_top, raises a consistency error."""
    if not space.compact:
        raise PreconditionError("cut locus test applies to the compact space")
    check_positive_finite(tol, "tol")
    check_space(space, F)
    det_val = abs(_det(F.top, "top-block determinant is not finite"))
    top_svd = _svd(F.top)
    cosines = float(np.prod(top_svd[1]))
    if not abs(det_val - cosines) <= DET_CROSS_CHECK_TOL:
        raise ConsistencyError(
            f"cut-locus criteria disagree: |det| = {det_val:.3e}, cosine product {cosines:.3e}"
        )
    return det_val, top_svd


class DisjointUnionResult(NamedTuple):
    branch: str  # "chart" | "polar-divisor" | "near-divisor"
    det_modulus: float
    chart_point: ChartPoint | None


def disjoint_union_check(
    space: GrassmannSpace, F: Frame, tol: float = DEFAULT_CUT_COSINE_TOL
) -> DisjointUnionResult:
    """Every plane of the compact space is exactly one of chart-representable or
    polar-divisor, decided on its smallest cosine with O, the smallest singular value
    s_min of F_top (_top_block): below tol is the polar divisor, and borderline values
    in [tol, max(10 tol, CHART_SINGULAR_TOL)) are flagged near-divisor rather than
    classified.  Otherwise the chart point comes from the same SVD of F_top.
    """
    det_val, top_svd = _top_block(space, F, tol)
    if top_svd[1][-1] < tol:
        return DisjointUnionResult("polar-divisor", det_val, None)
    if top_svd[1][-1] < max(10 * tol, CHART_SINGULAR_TOL):
        return DisjointUnionResult("near-divisor", det_val, None)
    return DisjointUnionResult("chart", det_val, _chart_of_rows(space, top_svd, F.bottom))


def _cartan_rank(space: GrassmannSpace, h: CartanVector) -> int:
    """The rank r = min(n, m) of space, which must be the length of h."""
    r = space.rank
    if h.h.size != r:
        raise PreconditionError(f"h must have length r = {r}")
    return r


def tangent_conjugate_times(
    space: GrassmannSpace, h: CartanVector, t_max: float
) -> list[ConjugateTime]:
    """All predicted conjugate parameters t <= t_max along direction h.

    Zero denominators (h_p = h_q or h_p = 0) contribute no time: the formula
    value is infinite.  Coincident times from different (family, indices,
    lambda) are merged, multiplicities summed; the surviving tag is the
    first of the largest single contributions.  The noncompact dual has nonpositive
    curvature, so its list is empty.
    """
    check_positive_finite(t_max, "t_max")
    r = _cartan_rank(space, h)
    if not space.compact:
        return []
    hv = h.h

    # (denominator, family, multiplicity, indices); time lam pi / denom
    pairs = [(p, q) for p in range(r) for q in range(p + 1, r)]
    series = [(abs(hv[p] + sign * hv[q]), "T1", 2, (p, q)) for p, q in pairs for sign in (1, -1)]
    series += [(2 * abs(hv[p]), "T2", 1, (p,)) for p in range(r)]
    if space.n != space.m:
        series += [(abs(hv[p]), "T3", 2 * abs(space.m - space.n), (p,)) for p in range(r)]
    series = [s for s in series if s[0] >= 1e-14]

    # each denominator is at most 2, so t_max / pi times it stays finite and floors to an int
    count = sum(int(t_max / np.pi * float(s[0])) for s in series)
    check_enumeration_size(count, "conjugate time list", MAX_CONJUGATE_TIMES)
    raw = []
    for denom, family, mult, indices in series:
        lam = 1
        while lam * np.pi / denom <= t_max + 1e-15:
            raw.append(ConjugateTime(lam * np.pi / denom, family, mult, indices, lam))
            lam += 1

    raw.sort(key=lambda c: (c.t, c.family))  # T1 < T2 < T3
    groups: list[list[ConjugateTime]] = []
    for c in raw:
        if groups and abs(c.t - groups[-1][0].t) <= COALESCE_REL_TOL * max(1.0, c.t):
            groups[-1].append(c)
        else:
            groups.append([c])
    coalesced = []
    for g in groups:
        top = max(g, key=lambda c: c.multiplicity)
        mult = sum(c.multiplicity for c in g)
        coalesced.append(ConjugateTime(g[0].t, top.family, mult, top.indices, top.lam))
    return coalesced


def cartan_to_tangent(space: GrassmannSpace, h: CartanVector) -> TangentVector:
    """Diagonal embedding of a Cartan vector: B_ii = h_i, zeros elsewhere."""
    r = _cartan_rank(space, h)
    check_enumeration_size(space.n * space.m, "tangent entries")
    B = np.zeros((space.n, space.m), dtype=complex)
    B[np.arange(r), np.arange(r)] = h.h
    return TangentVector(space, B)


def dexp_min_singular(space: GrassmannSpace, B: TangentVector, t: float) -> float:
    """Smallest singular value of the real Jacobian of B' -> vec(P(exp B'))
    at B' = t B, normalized by the largest singular value.

    Central differences over all 2nm real coordinates.  Measuring the
    projection matrix avoids chart transitions entirely: the chart Jacobian
    can blow up (projective-line antipode) while the true differential
    degenerates, and P handles both uniformly.  Normalizing by the largest
    singular value keeps high-multiplicity degeneracies visible: on the
    projective plane at parameter pi, three of the four real directions
    degenerate at once, so any mid-spectrum normalizer collapses with them.

    One point is a stack of one, and a t-grid (conjugate-scan) runs the same
    core on a stack of all its points, in chunks of bounded memory, with the
    same ratios bit for bit.  The 4nm perturbed planes of each point get
    orthonormal frames G from one stacked SVD on both signs, so each
    projection is G G^dagger; for n > m the core runs on the complement.
    The Jacobian gives its singular values only, unscaled.  Past
    DEXP_DUAL_LIMIT the dual raises.  Errors are per point: a grid raises the
    error of its first failing point, as a loop would.
    """
    check_space(space, B)
    Bp = _scaled_direction(B, t) + _perturbations(space.n, space.m)
    return float(_dexp_chunk(space.epsilon, space.n, space.m, Bp[None])[0])


def _scaled_direction(B: TangentVector, t: float) -> np.ndarray:
    """t B, checked as dexp_min_singular checks each point."""
    check_bounded(t, "t")
    return as_matrix(t * B.B, "B")


def _dexp_scan(space: GrassmannSpace, B: TangentVector, ts: np.ndarray) -> np.ndarray:
    """dexp_min_singular(space, B, t) for each t of the grid ts, stacked.

    The points are checked at once; the grid runs up to the first point that
    fails its check, and that point then raises its own error, so an earlier
    point that fails later in the core raises first, as in a loop.
    """
    check_space(space, B)
    with np.errstate(all="ignore"):  # t B may overflow; the check fails then
        B0 = ts[:, None, None] * B.B
        ok = (np.abs(ts) <= ENTRY_LIMIT) & (np.abs(B0).max(axis=(1, 2)) <= ENTRY_LIMIT)
    k = len(ts) if ok.all() else int(np.argmin(ok))
    n, m, dB = space.n, space.m, _perturbations(space.n, space.m)
    step = max(1, _DEXP_CHUNK_ENTRIES // (len(dB) * (n + m) ** 2))
    ratios = np.empty(k)
    for i in range(0, k, step):
        ratios[i : i + step] = _dexp_chunk(space.epsilon, n, m, B0[:k][i : i + step, None] + dB)
    if k < len(ts):
        _scaled_direction(B, float(ts[k]))
    return ratios


@functools.lru_cache(maxsize=None)
def _perturbations(n: int, m: int) -> np.ndarray:
    """The 4nm central-difference offsets (+dB, then -dB), read-only since
    shared: entry 2 idx + {0, 1} of dB moves entry divmod(idx, m) by FD_STEP,
    1j FD_STEP.  Refused where one point's 4nm projections, (n+m)^2 entries each, pass MAX_CELLS."""
    check_enumeration_size(4 * n * m * (n + m) ** 2, "dexp projection entries per point")
    E = np.eye(n * m).reshape(n * m, n, m)
    dB = np.stack([E * FD_STEP, E * (1j * FD_STEP)], axis=1).reshape(-1, n, m)
    both = np.concatenate([dB, -dB])
    both.flags.writeable = False
    return both


def _dexp_chunk(eps: int, n: int, m: int, Bp: np.ndarray) -> np.ndarray:
    """The ratios of a stack Bp (p, 4nm, n, m) of perturbed points, each projection
    G G^dagger of an orthonormal frame G from _dexp_frames, on both signs.

    For n > m the core runs on the complement, the plane of -Bp^dagger in G_m(C^{m+n}),
    as _dexp_frames needs n <= m: its projection is I - P with the blocks swapped, so
    the central differences only change sign and order and the Jacobian keeps its
    singular values; complements make the same angles."""
    if n > m:
        n, m, Bp = m, n, -Bp.swapaxes(-1, -2).conj()
    G = _dexp_frames(eps, Bp)
    P = G @ G.swapaxes(-1, -2).conj()
    half = 2 * n * m
    # the real view interleaves the Jacobian's rows [Re | Im]
    s = _svdvals((P[:, :half] - P[:, half:]).reshape(len(P), half, -1).view(float).swapaxes(1, 2))
    if not s[:, 0].all():
        raise PreconditionError("degenerate Jacobian: all singular values vanish")
    return s[:, -1] / s[:, 0]


def _dexp_frames(eps: int, Bp: np.ndarray) -> np.ndarray:
    """Orthonormal frames G = [u diag(co) ; vh^dagger diag(si)] (p, k, n+m, n) of the planes
    exp0(Bp), Bp (p, k, n, m) with n <= m, from one stacked SVD u diag(s) vh: co, si =
    cos s, sin s, or on the dual the compact chart factors of tanh s, as exp0 there is
    the plane of the chart point u tanh(s) vh.  With n <= m the thin u is unitary, so G
    is the chart frame [I + u diag(co - 1) u^dagger ; vh^dagger diag(si) u^dagger] times u
    and spans the same plane.  The first dual point past DEXP_DUAL_LIMIT raises; below it
    no dual Jacobian degenerates, so the per-point error order holds."""
    u, s, vh = _svd(Bp)
    if eps > 0:
        co, si = np.cos(s), np.sin(s)
    else:
        top = s[..., 0].max(axis=-1)
        if not (top <= DEXP_DUAL_LIMIT).all():
            x = top[np.argmin(top <= DEXP_DUAL_LIMIT)]
            raise PreconditionError(
                f"dual dexp is measured up to |t B|_2 = {DEXP_DUAL_LIMIT:g}, got about {x:.4g}: "
                "past it the central difference runs out of digits")
        co, si = _chart_factors(1, np.tanh(s))
    vs = vh.swapaxes(-1, -2).conj() * si[..., None, :]
    return np.concatenate([u * co[..., None, :], vs], axis=-2)


def is_conjugate(space: GrassmannSpace, B: TangentVector, t: float) -> bool:
    """True iff exp0(tB) is conjugate to the origin, at DEFAULT_CONJUGACY_TOL.

    Always False on the noncompact dual, which has no conjugate points; there
    the normalized dexp singular value only decays like 1/sinh.
    """
    check_space(space, B)
    if B.norm == 0.0:
        raise PreconditionError("conjugacy test needs a nonzero direction")
    if not space.compact:
        return False
    return dexp_min_singular(space, B, t) < DEFAULT_CONJUGACY_TOL


def standard_flag(space: GrassmannSpace) -> np.ndarray:
    """Flag preset with C^p spanned by the first p standard basis vectors; refused where the
    N rank tests of schubert_dims, of at most N x (n+N) entries each, pass MAX_CELLS in all."""
    check_enumeration_size(space.N**2 * (space.N + space.n), "schubert_dims stack entries")
    return np.eye(space.N, dtype=complex)


def dual_flag(space: GrassmannSpace) -> np.ndarray:
    """Flag preset adapted to the origin: C^m equals the orthocomplement of O."""
    order = list(range(space.n, space.N)) + list(range(space.n))
    return standard_flag(space)[:, order]


def schubert_dims(F: Frame, flag: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> list[int]:
    """dim(X intersect C^p) for p = 1..n+m, n + p - rank([F | basis of C^p]) by rank_tol's
    rule at tol: the flag and tol are checked once, then each rank is one SVD of leading
    columns of [F | flag].  schubert_membership decides a symbol on these dims.  A dim
    outside [max(0, n + p - N), min(n, p)], which a tol near 1 gives, is a ConsistencyError."""
    flag = as_matrix(flag, "flag basis")
    N, n = F.space.N, F.space.n
    if flag.shape != (N, N):
        raise PreconditionError(f"flag basis must be {N}x{N}")
    check_gram(flag, 1, ORTHONORMALITY_TOL, "flag basis")
    check_rank_tol(tol)
    stacked = np.concatenate([F.F, flag], axis=1)
    dims = [n + p - _rank(_svdvals(stacked[:, : n + p]), tol) for p in range(1, N + 1)]
    for p, dim in enumerate(dims, 1):
        if not max(0, n + p - N) <= dim <= min(n, p):
            raise ConsistencyError(
                f"dim(X intersect C^{p}) = {dim} at rank tolerance {tol:g} lies outside "
                f"[{max(0, n + p - N)}, {min(n, p)}]; the tolerance is too large"
            )
    return dims


def schubert_membership(space: GrassmannSpace, dims: list, symbol: SchubertSymbol) -> tuple:
    """(in_Z, generic) of a plane of space with schubert_dims dims against a flag: the
    conditions dims[sigma(i)] >= i of Z(omega) for that flag, and their equalities at the
    jump indices.  It reads no plane, so the tol the dims were read at decides."""
    if symbol.n != space.n or symbol.m_bound != space.m:
        raise PreconditionError("symbol does not match the space dimensions")
    if len(dims) != space.N:
        raise PreconditionError(f"dims must list {space.N} dimensions, one per C^p")
    sigma = symbol.sigma
    in_z = all(dims[sigma[i] - 1] >= i + 1 for i in range(symbol.n))
    generic = in_z and all(dims[sigma[ih - 1] - 1] == ih for ih in symbol.jumps if ih > 0)
    return in_z, generic


def wong_cut_symbol(space: GrassmannSpace) -> SchubertSymbol:
    """The symbol (m-1, m, ..., m) whose variety, with the dual flag, is the
    cut locus of the origin."""
    return SchubertSymbol((space.m - 1,) + (space.m,) * (space.n - 1), space.m)


def conjugate_stratum_W(space: GrassmannSpace, F: Frame) -> bool:
    """Angle-based test for the Wong stratum of the conjugate locus: one of the r = min(n, m)
    genuine angles with O is zero or a right angle; the forced zeros of n > m do not count."""
    return _conjugate_strata(space, F)[1]


def conjugate_stratum_I(space: GrassmannSpace, F: Frame) -> bool:
    """Necessary-condition stratum test: two of the r = min(n, m) genuine angles with O
    coincide within tolerance, the forced zeros of n > m aside.  Not claimed sufficient."""
    return _conjugate_strata(space, F)[2]


def _conjugate_strata(space: GrassmannSpace, F: Frame) -> tuple[np.ndarray, bool, bool]:
    """The angles of F with O = span(e_1, ..., e_n), taken once off F's own blocks, and
    both stratum tests on them; the dual is rejected before any angle is taken.  The
    cosines are the singular values of F.top and the sines those of F.bottom, so r =
    min(n, m) angles are genuine; the n - m others of n > m come first as exact zeros."""
    if not space.compact:
        raise PreconditionError("conjugate strata apply to the compact space")
    check_space(space, F)
    n, r, tol = space.n, space.rank, DEFAULT_EQUAL_ANGLE_TOL
    ang = _angles(_svdvals(F.bottom), _svdvals(F.top)[n - r :])[::-1]
    stratum_W = bool(ang[0] < tol or ang[-1] > np.pi / 2 - tol)
    stratum_I = bool((np.diff(ang) < tol).any())
    return np.concatenate([np.zeros(n - r), ang]), stratum_W, stratum_I


def isoclinic_test(F1: Frame, F2: Frame) -> bool:
    """True iff all stationary angles between the two planes coincide."""
    return _isoclinic(F1, F2)[1]


def _isoclinic(F1: Frame, F2: Frame) -> tuple[np.ndarray, bool]:
    """The angles between the two planes, taken once, and the isoclinic test
    on them; the dual is rejected before any angle is taken."""
    if not F1.space.compact:
        raise PreconditionError("isoclinic test applies to the compact space")
    check_space(F1.space, F2)
    ang = _principal_angles(F1.F, F2.F)
    return ang, bool(ang[-1] - ang[0] < DEFAULT_EQUAL_ANGLE_TOL)
