"""Domain types: the space, chart points, tangent vectors and frames."""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError, EnumerationSizeError, Frozen, PreconditionError
from .linalg import _svdvals, as_matrix, check_gram

FRAME_GRAM_TOL = 1e-10
# also bounds the dense arrays that --space alone sizes: cut-test --seed at its costliest,
# 816 x 409, takes 2.2 s as one CLI process on a shared two-core x86-64 Xeon
MAX_CELLS = 10**6
# a size refusal prints its count in full up to Python's default bound on the digits of an
# int turned to text; a longer count is neither printed nor, for a binomial, computed
MAX_COUNT_DIGITS = 4300
_LONG_COUNT = 10**MAX_COUNT_DIGITS


class GrassmannSpace(Frozen):
    """G_n(C^{n+m}) when epsilon = +1, its noncompact dual when epsilon = -1.

    n is the plane dimension, m the codimension.  Points are n-planes in
    C^{n+m}; the noncompact dual is realized as the bounded domain of n x m
    matrices with all singular values < 1.  Equal (n, m, epsilon) give equal spaces.
    """

    __slots__ = ("n", "m", "epsilon")

    def __init__(self, n: int, m: int, epsilon: int = 1):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "epsilon", epsilon)
        self.__post_init__()

    def __post_init__(self):
        # Python ints, so that no numpy scalar reaches the Python-float loops
        try:
            for attr in ("n", "m", "epsilon"):
                object.__setattr__(self, attr, operator.index(getattr(self, attr)))
        except TypeError:
            raise PreconditionError("n, m and epsilon must be integers") from None
        if self.n < 1 or self.m < 1:
            raise PreconditionError("n and m must be >= 1")
        if self.epsilon not in (1, -1):
            raise PreconditionError("epsilon must be +1 (compact) or -1 (noncompact)")

    @property
    def N(self) -> int:
        return self.n + self.m

    @property
    def rank(self) -> int:
        """Symmetric rank r = min(n, m)."""
        return min(self.n, self.m)

    @property
    def compact(self) -> bool:
        return self.epsilon == 1


def _store_matrix(obj, attr: str, name: str, shape: tuple) -> np.ndarray:
    """Replace obj.attr by as_matrix(obj.attr, name), which must have the given shape."""
    M = as_matrix(getattr(obj, attr), name)
    if M.shape != shape:
        raise PreconditionError(f"{name} must be {shape[0]}x{shape[1]}, got {M.shape}")
    object.__setattr__(obj, attr, M)
    return M


class ChartPoint(Frozen):
    """Local coordinates Z (n x m) in the maximal chart around the origin plane."""

    __slots__ = ("space", "Z")

    def __init__(self, space: GrassmannSpace, Z):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "Z", Z)
        self.__post_init__()

    def __post_init__(self):
        Z = _store_matrix(self, "Z", "Z", (self.space.n, self.space.m))
        if not self.space.compact:
            top = _svdvals(Z)[0]
            if top >= 1.0:
                raise DomainError(
                    f"noncompact chart point needs all singular values < 1, "
                    f"largest is {top:.6g}"
                )


class TangentVector(Frozen):
    """Normal coordinates B (n x m) at the origin plane."""

    __slots__ = ("space", "B")

    def __init__(self, space: GrassmannSpace, B):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "B", B)
        self.__post_init__()

    def __post_init__(self):
        _store_matrix(self, "B", "B", (self.space.n, self.space.m))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.B))


class Frame(Frozen):
    """(n+m) x n matrix whose column span is the plane.

    Compact: orthonormal columns.  Noncompact: J-orthonormal columns with
    J = diag(I_n, -I_m), i.e. F^dagger J F = I_n.  Chart-free, so it also
    covers the polar divisor.  Frame(space, F) checks a caller's array once;
    the frames the package builds (J-)orthonormal come from _built_frame unchecked.
    """

    __slots__ = ("space", "F")

    def __init__(self, space: GrassmannSpace, F):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "F", F)
        self.__post_init__()

    def __post_init__(self):
        F = _store_matrix(self, "F", "frame", (self.space.N, self.space.n))
        # F^dagger J F rounds relative to F's largest squared column norm, 1 if orthonormal
        check_gram(F, self.space.epsilon, FRAME_GRAM_TOL * (np.abs(F) ** 2).sum(0).max())

    @property
    def top(self) -> np.ndarray:
        return self.F[: self.space.n]

    @property
    def bottom(self) -> np.ndarray:
        return self.F[self.space.n :]


def check_space(space: GrassmannSpace, *items) -> None:
    """Raise unless each chart point, tangent vector or frame belongs to space."""
    for item in items:
        if item.space is not space and item.space != space:
            raise PreconditionError(f"{_KINDS[type(item)]} belongs to a different space")


_KINDS = {ChartPoint: "chart point", TangentVector: "tangent vector", Frame: "frame"}


def _built_frame(space: GrassmannSpace, F: np.ndarray) -> Frame:
    """Frame of an (N, n) complex array that the package built (J-)orthonormal from checked
    data, such as the SVD factors of a chart point: Frame's entry and Gram checks are not run."""
    frame = object.__new__(Frame)
    object.__setattr__(frame, "space", space)
    object.__setattr__(frame, "F", F)
    return frame


def coordinate_plane_frame(space: GrassmannSpace, subset) -> Frame:
    """Frame of the coordinate plane spanned by the selected standard axes: exact unit
    vectors at the rows check_rows reads, orthonormal, so a compact frame is not checked
    again; on the dual an axis past row n has J-norm -1, and Frame refuses that plane."""
    F = np.zeros((space.N, space.n), dtype=complex)
    F[check_rows(space, subset, "subset"), range(space.n)] = 1.0
    return _built_frame(space, F) if space.compact else Frame(space, F)


def check_rows(space: GrassmannSpace, rows, name: str) -> list[int]:
    """The n distinct indices in range(N) that rows lists, sorted; each is read
    with operator.index, so a float or numpy float index is refused, not truncated."""
    try:
        S = sorted(operator.index(i) for i in rows)
    except TypeError:
        raise PreconditionError(f"{name} must list integer indices") from None
    if len(S) != space.n or len(set(S)) != space.n:
        raise PreconditionError(f"{name} must pick {space.n} distinct indices")
    if S[0] < 0 or S[-1] >= space.N:
        raise PreconditionError(f"{name} indices must lie in [0, {space.N})")
    return S


def origin_frame(space: GrassmannSpace) -> Frame:
    """Frame of the origin plane O = span(e_1, ..., e_n)."""
    return coordinate_plane_frame(space, range(space.n))


def check_enumeration_size(
    count: int, what: str, limit: int | None = None, choose: int | None = None
) -> int:
    """Raise EnumerationSizeError, and the only place that does, when an
    enumeration of count coordinate planes, cells, minors or conjugate times,
    or a dense array of count entries, not yet built, would exceed limit,
    MAX_CELLS by default; return the count it admits.  The size of the space
    sets most counts; t_max sets the conjugate times, and --points the
    conjugate-scan entries.  With choose = k the count is the binomial
    C(count, k), for 0 <= k <= count, the number of k-subsets of count axes.
    A refusal prints its count in full up to MAX_COUNT_DIGITS digits, and a
    binomial is computed no further than that."""
    limit = MAX_CELLS if limit is None else limit
    if choose is not None:
        count = _binomial_capped(count, choose, _LONG_COUNT)
    if count > limit:
        size = count if count < _LONG_COUNT else f"over {MAX_COUNT_DIGITS} digits"
        raise EnumerationSizeError(f"{what} of size {size} exceeds {limit}")
    return count


def _binomial_capped(N: int, k: int, cap: int) -> int:
    """min(C(N, k), cap).  The partial products C(N - k + i, i), k the smaller of k
    and N - k, grow with i, so the first that reaches cap stops them."""
    k = min(k, N - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (N - k + i) // i
        if c >= cap:
            return cap
    return c
