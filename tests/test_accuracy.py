"""Accuracy envelopes against 50-digit mpmath oracles: of `geometry.distance`,
of `linalg.principal_angles`, of the RK4 integrator `geometry.geodesic_ode`, of
`geometry.exp0` near tan poles, of the compact `kernels.diastasis` where the overlap
underflows, of the dual `kernels.diastasis` and the dual `geometry.log0` near the boundary;
and of `loci.dexp_min_singular` against its own central difference at 30 digits;
and the dual chart round trip near the boundary of the bounded domain.

Each row names a region, the worst error seen there on its sample and the
bound asserted.  The oracle takes the angles from their cosines: the
singular values of F1^dagger J F2 for (J-)orthonormal frames F1, F2 are
cos theta_i (compact) or cosh tau_i (noncompact).  The float code takes
sines instead (noncompact, and compact angles below pi/4).  Its compact
angles above pi/4 come from the same cosines, but taken with n <= m from the
float64 chart SVDs, where the oracle forms 50-digit inverse square roots; so
the two routes share no rounding.
"""

import math

import mpmath
import numpy as np
import pytest

from grassgeo import geometry, kernels, linalg, loci
from grassgeo.errors import ConjugateToChartError, OnPolarDivisorError, PreconditionError
from grassgeo.geometry import (
    CHART_SINGULAR_TOL,
    chart_of_frame,
    distance,
    exp0,
    exp0_frame,
    frame_of_chart,
    geodesic_ode,
)
from grassgeo.sampling import generator, random_tangent_rng
from grassgeo.spaces import ChartPoint, Frame, GrassmannSpace, TangentVector
from conftest import mp_chart_cosines, mp_matrix, mp_orthonormal, random_unitary

SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
PAIRS_PER_SIZE = 5
EPS = np.finfo(float).eps


def distance_oracle(eps, Z1, Z2):
    """2-norm of the angles from the chart cosines, evaluated at 50 digits
    from the exact float inputs."""
    with mpmath.workdps(50):
        s = mp_chart_cosines(eps, Z1, Z2)
        if eps > 0:
            angles = [mpmath.acos(min(x, 1)) for x in s]
        else:
            angles = [mpmath.acosh(max(x, 1)) for x in s]
        return mpmath.sqrt(mpmath.fsum(a**2 for a in angles))


def _at_radius(rng, n, m, radius):
    Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return Z * (radius / np.linalg.norm(Z, 2))


def _pairs(rng, n, m, radius, apart):
    """Pairs with ||Z1||_2 = radius and either Z2 at Frobenius distance
    `apart` from Z1, or, when apart is None, ||Z2||_2 = radius as well; a
    radius pair (r1, r2) puts Z1 at r1 and Z2 at r2."""
    r1, r2 = radius if isinstance(radius, tuple) else (radius, radius)
    for _ in range(PAIRS_PER_SIZE):
        Z1 = _at_radius(rng, n, m, r1)
        if apart is None:
            yield Z1, _at_radius(rng, n, m, r2)
        else:
            W = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            yield Z1, Z1 + W * (apart / np.linalg.norm(W))


UNEQUAL = [(n, m) for n, m in SIZES if n != m]
SQUARE = [(n, m) for n, m in SIZES if n == m]

# (region, sizes, epsilon, radius, apart, observed worst relative error,
# bound).  The unequal rows put one point near 1e3 and the other near 1e6,
# in both orders; `distance` gives role 2 to the larger one, whose A2 damps
# Z2 - Z1 (the 1e6-to-1e3 row read 4.4e-13 in the order given).  On the
# square row D1 is applied in the basis of the full vh1; as
# I + vh1^dagger diag(co1 - 1) vh1 it read 2.8e-10
ACCURACY = [
    ("compact-off-origin", SIZES, 1, 1.5, None, 3.7e-16, 1e-14),
    ("noncompact-off-origin", SIZES, -1, 0.8, None, 5.6e-16, 1e-14),
    ("compact-1e-7-apart", SIZES, 1, 0.7, 1e-7, 5.0e-16, 1e-13),
    ("noncompact-1e-7-apart", SIZES, -1, 0.7, 1e-7, 6.6e-16, 1e-13),
    ("noncompact-radius-0.999", SIZES, -1, 0.999, None, 3.5e-14, 1e-12),
    ("noncompact-radius-0.999999", SIZES, -1, 0.999999, None, 1.5e-11, 1e-10),
    ("compact-unequal-1e3-to-1e6", UNEQUAL, 1, (1e3, 1e6), None, 1.3e-15, 1e-14),
    ("compact-unequal-1e6-to-1e3", UNEQUAL, 1, (1e6, 1e3), None, 8.6e-16, 1e-14),
    ("compact-square-radius-1e6-1-apart", SQUARE, 1, 1e6, 1.0, 1.1e-15, 1e-14),
]


@pytest.mark.parametrize(
    "sizes, eps, radius, apart, observed, bound",
    [pytest.param(*row[1:], id=row[0]) for row in ACCURACY],
)
def test_distance_accuracy(sizes, eps, radius, apart, observed, bound):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, m in sizes:
        space = GrassmannSpace(n, m, eps)
        for Z1, Z2 in _pairs(rng, n, m, radius, apart):
            d = distance(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
            exact = distance_oracle(eps, Z1, Z2)
            worst = max(worst, float(abs(d - exact) / exact))
    assert worst < bound, f"worst relative error {worst:.2e} (recorded {observed:.1e})"


def test_distance_accuracy_singular_values_apart():
    # compact-sigma-1e5-to-0.3: distance between 0 and U diag(sigma) W, in
    # both role orders, with sigma spread from 1e5 to 0.3, where the frame of
    # I + Z Z^dagger failed its Gram check.  Observed worst relative error
    # 4.6e-13 over 60 pairs: the rounding of entries near 1e5 moves sigma = 0.3
    # by about 1e-11, as any normwise backward-stable SVD allows
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, m in [(2, 2), (2, 3), (3, 2)] * 20:
        k = min(n, m)
        U, W = random_unitary(rng, n)[:, :k], random_unitary(rng, m)[:k]
        Z = U @ np.diag(np.geomspace(1e5, 0.3, k)) @ W
        space = GrassmannSpace(n, m)
        for Z1, Z2 in ((np.zeros((n, m)), Z), (Z, np.zeros((n, m)))):
            d = distance(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
            exact = distance_oracle(1, Z1, Z2)
            worst = max(worst, float(abs(d - exact) / exact))
    assert worst < 1e-11, f"worst relative error {worst:.2e} (recorded 4.6e-13)"


def principal_angles_oracle(F1, F2):
    """The angles, nondecreasing, between the spans of the exact float frames: acos of
    the singular values of Q1^dagger Q2 for Q1, Q2 the frames orthonormalized at 50
    digits."""
    with mpmath.workdps(50):
        Q1, Q2 = mp_orthonormal(F1), mp_orthonormal(F2)
        cosines = mpmath.svd_c(Q1.transpose_conj() * Q2, compute_uv=False)
        return sorted(mpmath.acos(min(c, 1)) for c in cosines)


def _frames_at_angles(rng, n, m, theta):
    """Frames Q[:, :n] and Q [diag(cos theta) ; diag(sin theta) ; 0] V, n <= m, for random
    unitary Q and V: their spans meet at the angles theta, up to the rounding of the frames."""
    Q = random_unitary(rng, n + m)
    X = np.zeros((n + m, n), dtype=complex)
    X[:n], X[n : 2 * n] = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    return Q[:, :n], Q @ X @ random_unitary(rng, n)


# (region, angle draw for n angles, observed worst absolute error, bound), 20 frame pairs
# for each n <= m <= 3.  Near 0 arccos alone reads about 1e-8, near pi/2 arcsin alone;
# the pi/4 row draws each angle at its own distance 1e-12 to 1e-3 on either side.
# Angles drawn within ~1e-15 of each other fall outside this envelope: there LAPACK
# moves clustered singular values by up to ~4e-15 on its own (5.4e-15 seen)
ANGLE_ACCURACY = [
    ("near-0", lambda rng, n: 10.0 ** rng.uniform(-10, -3, n), 8.5e-17, 2e-15),
    (
        "near-pi/4",
        lambda rng, n: np.pi / 4 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, -3, n),
        7.8e-16,
        2e-15,
    ),
    ("near-pi/2", lambda rng, n: np.pi / 2 - 10.0 ** rng.uniform(-10, -3, n), 1.4e-16, 2e-15),
]


@pytest.mark.parametrize(
    "draw, observed, bound",
    [pytest.param(*row[1:], id=row[0]) for row in ANGLE_ACCURACY],
)
def test_principal_angles_accuracy(draw, observed, bound):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, m in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)] * 20:
        F1, F2 = _frames_at_angles(rng, n, m, draw(rng, n))
        exact = principal_angles_oracle(F1, F2)
        got = linalg.principal_angles(F1, F2)
        worst = max(worst, max(float(abs(g - e)) for g, e in zip(got, exact)))
    assert worst < bound, f"worst absolute error {worst:.2e} (recorded {observed:.1e})"


def exp_oracle(eps, B):
    """U ta(S) V^dagger from the SVD B = U S V^dagger at 50 digits, with
    ta = tan (compact) or tanh (noncompact): the exact geodesic endpoint."""
    with mpmath.workdps(50):
        U, S, V = mpmath.svd_c(mp_matrix(B))
        k = min(B.shape)
        ta = mpmath.tan if eps > 0 else mpmath.tanh
        Z = U[:, :k] * mpmath.diag([ta(S[i]) for i in range(k)]) * V[:k, :]
        return np.array([[complex(Z[i, j]) for j in range(Z.cols)] for i in range(Z.rows)])


def _criterion_1_directions():
    rng = generator(20240817)
    for eps in (1, -1):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                space = GrassmannSpace(n, m, eps)
                yield space, random_tangent_rng(space, rng, max_norm=1.0).B


def _direction(n, m, signs, B, norm2=None):
    B = np.asarray(B, dtype=complex)
    if norm2 is not None:
        B = B * (norm2 / np.linalg.norm(B, 2))
    return lambda: [(GrassmannSpace(n, m, eps), B) for eps in signs]


BOTH = (1, -1)
# unitary factors for a 2 x 3 B with prescribed singular values
_U2 = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_W23 = np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 0.0]])
# and for a 3 x 4 B
_U3 = np.array([[0.6, 0.8j, 0.0], [0.8j, 0.6, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
    [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.8, 0.6]]
)
_W34 = np.array([[0.6, 0.0, 0.8j, 0.0], [0.0, 0.8, 0.0, 0.6j], [0.8j, 0.0, 0.6, 0.0]])
# seeded unitary factors for 4 x 5 and 5 x 6 B
_UNITARY_RNG = np.random.default_rng(20240817)
_U4, _W45 = random_unitary(_UNITARY_RNG, 4), random_unitary(_UNITARY_RNG, 5)[:4]
_U5, _W56 = random_unitary(_UNITARY_RNG, 5), random_unitary(_UNITARY_RNG, 6)[:5]

# (region, directions, observed worst entrywise deviation at t = 1 with
# 4000 steps, bound).  From rank-one-C on, the rows are k = 2 to 5 inputs
# whose C = B B^dagger is degenerate or spread: rank deficient (det C
# cancels to rounding), a multiple of I (a repeated eigenvalue), nearly rank
# one, dual singular values that differ in scale (where an integrator on
# the power basis I, C, C^2 or on the k x k coefficients loses up to 1.3 or
# raises LeftChartError), and eigenvalues 1e-9 or 1e-4 apart or exactly
# repeated, where a split of C into idempotents is ill-conditioned or
# degenerate.  row-1x3, pair-2x3 and k3-generic are generic complex inputs
# at k = 1, 2 and 3
ODE_ACCURACY = [
    ("criterion-1-configurations", _criterion_1_directions, 6.6e-15, 2e-14),
    ("complex-1x3", _direction(1, 3, (1,), [[0.5 - 0.3j, 0.2j, -0.4 + 0.1j]]), 4.0e-16, 4e-15),
    (
        "dual-norm-3",
        _direction(2, 3, (-1,), [[1.0 + 0.5j, 0.3, -0.2j], [0.1j, -0.6, 0.4 + 0.2j]], norm2=3.0),
        2.7e-15,
        5e-14,
    ),
    (
        "rank-one-C",
        _direction(2, 3, BOTH, np.outer([1.0, 0.6 + 0.8j], [0.5 - 0.3j, 0.2j, -0.4 + 0.1j])),
        1.4e-14,
        7e-13,
    ),
    (
        "C-multiple-of-I",
        _direction(2, 3, BOTH, 0.7 / np.sqrt(2) * np.array([[1.0, 1j, 0.0], [1j, 1.0, 0.0]])),
        3.8e-15,
        2e-14,
    ),
    ("sigma-1.3-1e-4", _direction(2, 3, BOTH, _U2 @ np.diag([1.3, 1e-4]) @ _W23), 8.7e-13, 9e-12),
    ("dual-sigma-15-3", _direction(2, 3, (-1,), _U2 @ np.diag([15.0, 3.0]) @ _W23), 2.0e-15, 2e-14),
    (
        "dual-sigma-15-0.01",
        _direction(2, 3, (-1,), _U2 @ np.diag([15.0, 0.01]) @ _W23),
        2.8e-16,
        2e-14,
    ),
    ("dual-sigma-12-0.5", _direction(2, 3, (-1,), _U2 @ np.diag([12, 0.5]) @ _W23), 4.4e-16, 2e-14),
    ("dual-diag-300-0.2", _direction(2, 2, (-1,), np.diag([300.0, 0.2])), 3.3e-16, 2e-14),
    (
        "sigma-1.2-1e-9-apart",
        _direction(2, 3, BOTH, _U2 @ np.diag([1.2, 1.2 - 1e-9]) @ _W23),
        1.4e-13,
        1.5e-12,
    ),
    (
        "k3-rank-one-C",
        _direction(
            3, 4, BOTH, np.outer([1.0, 0.6 + 0.8j, -0.5j], [0.5 - 0.3j, 0.2j, -0.4 + 0.1j, 0.3])
        ),
        9.4e-14,
        1.5e-12,
    ),
    ("k3-rank-two-C", _direction(3, 4, BOTH, _U3 @ np.diag([1.2, 0.7, 0.0]) @ _W34), 1.2e-13, 2e-12),
    (
        "k3-C-multiple-of-I",
        _direction(
            3, 4, BOTH,
            0.7 / np.sqrt(2) * np.array([[1.0, 1j, 0.0, 0.0], [1j, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1j]]),
        ),
        3.8e-15,
        4e-14,
    ),
    (
        "k3-sigma-1.3-1e-4",
        _direction(3, 4, BOTH, _U3 @ np.diag([1.3, 1.3 - 1e-4, 0.5]) @ _W34),
        9.0e-13,
        9e-12,
    ),
    (
        "k3-dual-sigma-12-0.5-0.1",
        _direction(3, 4, (-1,), _U3 @ np.diag([12.0, 0.5, 0.1]) @ _W34),
        3.9e-16,
        2e-14,
    ),
    (
        "k3-dual-sigma-10-0.5-0.1",
        _direction(3, 4, (-1,), _U3 @ np.diag([10.0, 0.5, 0.1]) @ _W34),
        9.4e-16,
        2e-14,
    ),
    (
        "k3-dual-sigma-15-3-0.01",
        _direction(3, 4, (-1,), _U3 @ np.diag([15.0, 3.0, 0.01]) @ _W34),
        2.2e-15,
        2e-14,
    ),
    (
        "k3-top-pair-1e-9-apart",
        _direction(3, 4, BOTH, _U3 @ np.diag([1.2, 1.2 - 1e-9, 0.5]) @ _W34),
        1.2e-13,
        1.5e-12,
    ),
    (
        "k3-bottom-pair-1e-9-apart",
        _direction(3, 4, BOTH, _U3 @ np.diag([1.2, 0.5, 0.5 - 1e-9]) @ _W34),
        1.2e-13,
        1.5e-12,
    ),
    (
        "k3-all-within-1e-9",
        _direction(3, 4, BOTH, _U3 @ np.diag([1.2, 1.2 - 5e-10, 1.2 - 1e-9]) @ _W34),
        1.6e-13,
        2e-12,
    ),
    (
        "k3-diag-1.2-0.5-0.5",
        _direction(3, 4, BOTH, np.eye(3, 4) * [1.2, 0.5, 0.5, 0.0]),
        1.9e-13,
        2e-12,
    ),
    ("row-1x3", _direction(1, 3, BOTH, [[0.3 + 0.2j, -0.4, 0.1j]]), 3.9e-15, 4e-14),
    (
        "pair-2x3",
        _direction(2, 3, BOTH, [[0.3 + 0.2j, -0.4, 0.1j], [0.2j, 0.1 - 0.3j, 0.5]]),
        1.5e-15,
        2e-14,
    ),
    (
        "k3-generic",
        _direction(
            3, 4, BOTH,
            [
                [0.3 + 0.2j, -0.4, 0.1j, 0.2],
                [0.2j, 0.1 - 0.3j, 0.5, -0.1],
                [-0.2, 0.3j, 0.1 + 0.1j, 0.4 - 0.2j],
            ],
        ),
        1.9e-15,
        2e-14,
    ),
    (
        "k3-sigma-0.9-1e-9-apart",
        _direction(3, 4, BOTH, _U3 @ np.diag([0.9, 0.9 - 1e-9, 0.4]) @ _W34),
        4.3e-15,
        5e-14,
    ),
    (
        "k4-dual-sigma-12-0.5-0.1-0.05",
        _direction(4, 5, (-1,), _U4 @ np.diag([12.0, 0.5, 0.1, 0.05]) @ _W45),
        1.2e-15,
        2e-14,
    ),
    (
        "k4-dual-sigma-15-3-0.01-0.001",
        _direction(4, 5, (-1,), _U4 @ np.diag([15.0, 3.0, 0.01, 0.001]) @ _W45),
        2.2e-15,
        2e-14,
    ),
    (
        "k4-dual-sigma-11-10-1-0.5",
        _direction(4, 5, (-1,), _U4 @ np.diag([11.0, 10.0, 1.0, 0.5]) @ _W45),
        1.3e-15,
        2e-14,
    ),
    (
        "k4-sigma-0.9-1e-9-apart",
        _direction(4, 5, BOTH, _U4 @ np.diag([0.9, 0.9 - 1e-9, 0.4, 0.2]) @ _W45),
        3.7e-15,
        4e-14,
    ),
    (
        "k5-rank-three-C",
        _direction(5, 6, BOTH, _U5 @ np.diag([1.2, 0.7, 0.3, 0.0, 0.0]) @ _W56),
        1.0e-13,
        1.5e-12,
    ),
]


@pytest.mark.parametrize(
    "directions, observed, bound",
    [pytest.param(*row[1:], id=row[0]) for row in ODE_ACCURACY],
)
def test_geodesic_ode_accuracy(directions, observed, bound):
    worst = 0.0
    for space, B in directions():
        Z = geodesic_ode(space, TangentVector(space, B), 1.0, 4000).Z
        worst = max(worst, float(np.max(np.abs(Z - exp_oracle(space.epsilon, B)))))
    assert worst < bound, f"worst deviation {worst:.2e} (recorded {observed:.1e})"


G24 = GrassmannSpace(2, 2, 1)
G14 = GrassmannSpace(1, 3, 1)
G24_DUAL = GrassmannSpace(2, 2, -1)


@pytest.mark.parametrize(
    "p1, p2",
    [
        pytest.param(
            ChartPoint(G14, [[0.3, 0.1, -0.2]]), ChartPoint(G24, np.diag([0.4, 0.5])),
            id="first-point-other-dimensions",
        ),
        pytest.param(
            ChartPoint(G24, np.diag([0.4, 0.5])), ChartPoint(G14, [[0.3, 0.1, -0.2]]),
            id="second-point-other-dimensions",
        ),
        pytest.param(
            ChartPoint(G24_DUAL, np.diag([0.4, 0.5])), ChartPoint(G24_DUAL, np.diag([0.1, 0.2])),
            id="points-of-the-dual",
        ),
    ],
)
def test_distance_rejects_points_of_another_space(p1, p2):
    with pytest.raises(PreconditionError, match="different space"):
        distance(G24, p1, p2)


def mp_projection(eps, B):
    """Orthogonal projection onto the plane exp0(B), at mpmath's working
    precision, from the first n columns F of the matrix exponential of
    [[0, -B], [B^dagger, 0]] (compact) or [[0, B], [B^dagger, 0]] (dual):
    F (F^dagger F)^{-1} F^dagger, with no SVD of B."""
    n, m = B.shape
    X = mpmath.zeros(n + m, n + m)
    for i in range(n):
        for j in range(m):
            b = mpmath.mpc(complex(B[i, j]))
            X[i, n + j], X[n + j, i] = -eps * b, mpmath.conj(b)
    F = mpmath.expm(X)[:, :n]
    Fh = F.transpose_conj()
    return F * (Fh * F) ** -1 * Fh


def dexp_oracle(space, B, t):
    """The ratio dexp_min_singular measures, from the same float64 points
    t B +- dB, with each projection, their differences and the singular values
    of the Jacobian taken at 30 digits."""
    Bp = loci._scaled_direction(B, t) + loci._perturbations(space.n, space.m)
    half = 2 * space.n * space.m
    with mpmath.workdps(30):
        P = [mp_projection(space.epsilon, b) for b in Bp]
        cols = [[x.real for x in d] + [x.imag for x in d] for d in
                (a - b for a, b in zip(P[:half], P[half:]))]
        s = mpmath.svd_r(mpmath.matrix(cols).T, compute_uv=False)
        return min(s) / max(s)


# (region, sign, |t B|_2 values, observed worst relative error, bound), on
# one seeded direction per size; (3, 2) runs the core on the complement and
# (1, 3) on the plane itself.  The dual's radial difference shrinks like
# 1/cosh^2 |t B|_2, and with it the digits left, up to DEXP_DUAL_LIMIT
DEXP_ACCURACY = [
    ("compact-up-to-6", 1, (0.7, 2.2, 6.0), 4.3e-11, 1e-9),
    ("dual-3", -1, (3.0,), 2.4e-9, 1e-8),
    ("dual-5", -1, (5.0,), 9.0e-8, 1e-6),
]


@pytest.mark.parametrize(
    "eps, ts, observed, bound",
    [pytest.param(*row[1:], id=row[0]) for row in DEXP_ACCURACY],
)
def test_dexp_min_singular_accuracy(eps, ts, observed, bound):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, m in [(1, 1), (2, 2), (3, 2), (1, 3)]:
        space = GrassmannSpace(n, m, eps)
        B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        B = TangentVector(space, B / np.linalg.norm(B, 2))
        for t in ts:
            exact = dexp_oracle(space, B, t)
            worst = max(worst, float(abs(loci.dexp_min_singular(space, B, t) - exact) / exact))
    assert worst < bound, f"worst relative error {worst:.2e} (recorded {observed:.1e})"


def test_dual_chart_round_trip_near_the_boundary():
    # dual-radius-0.999999: chart_of_frame(frame_of_chart(Z) W) against Z for
    # |Z|_2 = 0.999999 and a random unitary W, 30 draws per shape, n, m <= 4.
    # Observed worst absolute error 8.1e-13: the SVD of F_top loses about a
    # digit here against an LU inverse of F_top (1.3e-13 on the same draws)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n in range(1, 5):
        for m in range(1, 5):
            space = GrassmannSpace(n, m, -1)
            for _ in range(30):
                Z = _at_radius(rng, n, m, 0.999999)
                F = frame_of_chart(ChartPoint(space, Z)).F @ random_unitary(rng, n)
                back = chart_of_frame(Frame(space, F)).Z
                worst = max(worst, float(np.abs(back - Z).max()))
    assert worst < 1e-11, f"worst absolute error {worst:.2e} (recorded 8.1e-13)"


def _pole_sigmas(deltas):
    """sigma = k pi + pi/2 + delta in float64 for k in 0..3, 10, 100, 1000, 1e4 and 12
    seeded k up to 1e4."""
    rng = np.random.default_rng(20240817)
    ks = [0, 1, 2, 3, 10, 100, 1000, 10_000, *rng.integers(0, 10_001, 12).tolist()]
    return [k * np.pi + np.pi / 2 + delta for k in ks for delta in deltas]


def _mp_cos_tan(sigma):
    """|cos sigma| and tan sigma of the float sigma at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(sigma)
        return float(abs(mpmath.cos(x))), mpmath.tan(x)


def _raises(call, error) -> bool:
    try:
        call()
    except error:
        return True
    return False


POLE_DELTAS = [sign * 10.0**e for e in np.arange(-11.0, -2.9, 0.5) for sign in (1, -1)]
# offsets that put some float sigma on either side of |cos sigma| = CHART_SINGULAR_TOL
AT_POLE_DELTAS = [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12, -2e-12]
# |cos sigma| 1.58e-12 and 9.0e-13: a float-pi distance to the nearest pole
# refuses the first and takes the second, the other way round from the chart map
LARGE_SIGMAS = [8194.844436888974, 16384.976484797568]


def test_exp0_accuracy_near_tan_poles():
    # B = diag(sigma, 0.3) on G_1(C^2) and G_2(C^3), whose SVD is exact, so
    # exp0 takes tan of the float sigma itself; 1e-11 <= |delta| <= 1e-3, 680
    # sigmas.  Observed worst relative error of Z[0, 0] 9.4e-17
    worst = 0.0
    for sigma in _pole_sigmas(POLE_DELTAS):
        exact = _mp_cos_tan(sigma)[1]
        for n, m in [(1, 1), (2, 3)]:
            space = GrassmannSpace(n, m, 1)
            B = np.zeros((n, m))
            B[0, 0] = sigma
            if n > 1:
                B[1, 1] = 0.3
            z = exp0(space, TangentVector(space, B)).Z[0, 0]
            worst = max(worst, float(abs((z - exact) / exact)))
    assert worst < 1e-15, f"worst relative error {worst:.2e} (recorded 9.4e-17)"


def test_exp0_refuses_every_pole_cosine_below_the_chart_tol():
    space = GrassmannSpace(1, 1, 1)
    refused = 0
    for sigma in _pole_sigmas(AT_POLE_DELTAS):
        B = TangentVector(space, [[sigma]])
        if _mp_cos_tan(sigma)[0] < CHART_SINGULAR_TOL:
            refused += 1
            with pytest.raises(ConjugateToChartError):
                exp0(space, B)
        else:
            exp0(space, B)
    assert refused >= 60


def test_exp0_refuses_exactly_where_the_chart_map_does():
    # one rule of chart membership: exp0 raises ConjugateToChartError iff the
    # chart map raises OnPolarDivisorError on exp0_frame's plane; cosines within
    # 1% of CHART_SINGULAR_TOL, where the rounding of the frame decides, are skipped
    space = GrassmannSpace(1, 1, 1)
    for sigma in _pole_sigmas(POLE_DELTAS + AT_POLE_DELTAS) + LARGE_SIGMAS:
        cos = _mp_cos_tan(sigma)[0]
        if abs(cos / CHART_SINGULAR_TOL - 1.0) < 0.01:
            continue
        B = TangentVector(space, [[sigma]])
        assert _raises(lambda: exp0(space, B), ConjugateToChartError) == _raises(
            lambda: chart_of_frame(exp0_frame(space, B)), OnPolarDivisorError
        ), f"sigma {sigma!r}, |cos| {cos:.3e}"


def test_exp0_at_a_large_sigma_next_to_the_chart_tol():
    # |cos sigma| = 1.58e-12; 50-digit tan of the float sigma 634786260538.26503
    space = GrassmannSpace(1, 1, 1)
    z = exp0(space, TangentVector(space, [[LARGE_SIGMAS[0]]])).Z[0, 0]
    assert z == pytest.approx(634786260538.26503, rel=1e-15)


def dual_diastasis_oracle(Z1, Z2):
    """2 log of the product of cosh tau_i, the dual chart cosines, at 50 digits from
    the exact float inputs: from the angles, not from the kernel determinant."""
    with mpmath.workdps(50):
        return 2 * mpmath.fsum(mpmath.log(x) for x in mp_chart_cosines(-1, Z1, Z2))


def test_dual_diastasis_near_the_boundary():
    # dual-radius-1-minus-1e-9-to-1e-12: Z2 = U diag(1 - 10^-u) W with u uniform
    # in [9, 12] and random unitary U, W, Z1 at 0 or at radius 0.5; 10 draws per
    # shape, n, m <= 3.  The dual has no polar divisor, so a vanishing overlap
    # is a large diastasis, not an error.  Observed worst relative error 1.2e-6:
    # the kernel determinant det(I - Z2 Z2^dagger) loses digits as |Z2| -> 1
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for r1 in (0.0, 0.5):
        for n, m in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]:
            space, k = GrassmannSpace(n, m, -1), min(n, m)
            for _ in range(10):
                s = 1.0 - 10.0 ** -rng.uniform(9, 12, k)
                Z2 = (random_unitary(rng, n)[:, :k] * s) @ random_unitary(rng, m)[:k]
                Z1 = _at_radius(rng, n, m, r1) if r1 else np.zeros((n, m))
                D = kernels.diastasis(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
                exact = dual_diastasis_oracle(Z1, Z2)
                worst = max(worst, float(abs(D - exact) / exact))
    assert worst < 1e-5, f"worst relative error {worst:.2e} (recorded 1.2e-6)"


def test_dual_diastasis_of_the_diagonal_near_the_boundary():
    # G_3(C^6), Z1 = 0, Z2 = (1 - 1e-12) I: overlap 8.9e-36; 50 digits give
    # 80.8136881720017
    space = GrassmannSpace(3, 3, -1)
    Z2 = (1 - 1e-12) * np.eye(3)
    D = kernels.diastasis(space, ChartPoint(space, np.zeros((3, 3))), ChartPoint(space, Z2))
    exact = dual_diastasis_oracle(np.zeros((3, 3)), Z2)
    assert float(abs(D - exact) / exact) < 1e-13
    assert mpmath.nstr(exact, 15) == "80.8136881720017"


@pytest.mark.parametrize("n, c", [(2, 1e8), (3, 3e5), (4, 1e4)])
def test_compact_diastasis_off_the_divisor_where_the_overlap_is_tiny(n, c):
    # Z1 = 0, Z2 = c I on G_n(C^2n): n cosines 1 / sqrt(1 + c^2), none near 0, whose product,
    # the overlap, is 1e-16, 3.7e-17 or 1e-16; D = n log1p(c^2) = 73.68, 75.67 or 73.68
    space = GrassmannSpace(n, n, 1)
    zero, far = ChartPoint(space, np.zeros((n, n))), ChartPoint(space, c * np.eye(n))
    exact = n * math.log1p(c * c)
    for a, b in ((zero, far), (far, zero)):
        assert abs(kernels.diastasis(space, a, b) - exact) <= 1e-14 * exact


def test_compact_diastasis_where_the_overlap_underflows():
    # G_32(C^64), Z1 = 0.5 I, Z2 = (-2 + 1e-10) I: 32 cosines of 2.0e-11, whose product
    # underflows to 0.0; D = 1576.66 from each scalar cosine |1 + a b| / sqrt((1 + a^2)
    # (1 + b^2)) at 50 digits.  Observed relative error 1.6e-12
    space = GrassmannSpace(32, 32, 1)
    a, b = 0.5, -2 + 1e-10
    with mpmath.workdps(50):
        x, y = mpmath.mpf(a), mpmath.mpf(b)
        exact = -64 * mpmath.log(abs(1 + x * y) / mpmath.sqrt((1 + x * x) * (1 + y * y)))
    z1, z2 = ChartPoint(space, a * np.eye(32)), ChartPoint(space, b * np.eye(32))
    assert kernels.normalized_overlap(space, z1, z2).modulus == 0.0
    for p, q in ((z1, z2), (z2, z1)):
        D = kernels.diastasis(space, p, q)
        assert float(abs(D - exact) / exact) < 1e-11, f"D = {D!r}, exact {mpmath.nstr(exact, 17)}"


def dual_log0_oracle(Z):
    """U diag(atanh s) V from the 50-digit SVD of the exact float Z, and its
    largest singular value s_max."""
    with mpmath.workdps(50):
        U, s, V = mpmath.svd_c(mp_matrix(Z))
        D = mpmath.zeros(U.cols, V.rows)
        for i in range(len(s)):
            D[i, i] = mpmath.atanh(s[i])
        return U * D * V, s[0]


# (u, observed worst relative Frobenius error of B, observed worst ratio of
# that error to eps kappa)
DUAL_LOG0_ACCURACY = [
    (3, 4.4e-14, 1.50),
    (6, 2.4e-11, 1.54),
    (9, 1.8e-8, 1.76),
    (12, 1.4e-5, 1.75),
]


@pytest.mark.parametrize(
    "u, observed, ratio",
    [pytest.param(*row, id=f"dual-1-minus-1e-{row[0]}") for row in DUAL_LOG0_ACCURACY],
)
def test_dual_log0_accuracy_near_the_boundary(u, observed, ratio):
    # Z = U diag(s) W with s_max = 1 - 10^-u, the other singular values
    # uniform below it, and random unitary U, W; 5 draws per shape, n, m <= 3.
    # atanh amplifies the eps-sized absolute error of s_max by
    # kappa = 1 / (2 (1 - s_max) atanh s_max) relative to atanh s_max, so the
    # bound is 8 eps kappa per draw, not a fixed number
    rng = np.random.default_rng(20240817)
    worst = worst_ratio = 0.0
    for n, m in SIZES:
        space, k = GrassmannSpace(n, m, -1), min(n, m)
        for _ in range(PAIRS_PER_SIZE):
            s = np.sort(rng.uniform(0.0, 1.0, k))[::-1]
            s[0] = 1.0 - 10.0**-u
            Z = (random_unitary(rng, n)[:, :k] * s) @ random_unitary(rng, m)[:k]
            B = geometry.log0(space, ChartPoint(space, Z)).B
            exact, s_max = dual_log0_oracle(Z)
            with mpmath.workdps(50):
                error = mpmath.mnorm(mp_matrix(B) - exact, "f") / mpmath.atanh(s_max)
                kappa = 1 / (2 * (1 - s_max) * mpmath.atanh(s_max))
            worst = max(worst, float(error))
            worst_ratio = max(worst_ratio, float(error / kappa) / EPS)
    assert worst_ratio < 8.0, (
        f"worst error {worst:.2e} is {worst_ratio:.2f} eps kappa "
        f"(recorded {observed:.1e}, {ratio:.2f} eps kappa)"
    )
