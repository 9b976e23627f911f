"""Accuracy envelopes against 50-digit mpmath oracles: of `geometry.distance`,
and of the RK4 integrator `geometry.geodesic_ode`.

Each row names a region, the worst error seen there on its sample and the
bound asserted.  The oracle takes the angles from their cosines: the
singular values of F1^dagger J F2 for (J-)orthonormal frames F1, F2 are
cos theta_i (compact) or cosh tau_i (noncompact).  The float code takes
sines instead (noncompact, and compact angles below pi/4), so the two routes
share no formula and no rounding.
"""

import mpmath
import numpy as np
import pytest

from grassgeo.errors import PreconditionError
from grassgeo.geometry import distance, geodesic_ode
from grassgeo.sampling import generator, random_tangent_rng
from grassgeo.spaces import ChartPoint, GrassmannSpace, TangentVector

SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
PAIRS_PER_SIZE = 5


def _mp_matrix(A):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in A])


def _mp_inv_sqrt(G):
    w, Q = mpmath.eighe(G)
    return Q * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * Q.transpose_conj()


def distance_oracle(eps, Z1, Z2):
    """2-norm of the angles from the singular values of
    (I + eps Z1 Z1^dagger)^{-1/2} (I + eps Z1 Z2^dagger) (I + eps Z2 Z2^dagger)^{-1/2},
    evaluated at 50 digits from the exact float inputs."""
    with mpmath.workdps(50):
        A, B = _mp_matrix(Z1), _mp_matrix(Z2)
        eye = mpmath.eye(A.rows)
        M = (
            _mp_inv_sqrt(eye + eps * A * A.transpose_conj())
            * (eye + eps * A * B.transpose_conj())
            * _mp_inv_sqrt(eye + eps * B * B.transpose_conj())
        )
        s = mpmath.svd_c(M, compute_uv=False)
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
    `apart` from Z1, or, when apart is None, ||Z2||_2 = radius as well."""
    for _ in range(PAIRS_PER_SIZE):
        Z1 = _at_radius(rng, n, m, radius)
        if apart is None:
            yield Z1, _at_radius(rng, n, m, radius)
        else:
            W = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            yield Z1, Z1 + W * (apart / np.linalg.norm(W))


# (region, epsilon, radius, apart, observed worst relative error, bound)
ACCURACY = [
    ("compact-off-origin", 1, 1.5, None, 3.6e-16, 1e-14),
    ("noncompact-off-origin", -1, 0.8, None, 5.5e-16, 1e-14),
    ("compact-1e-7-apart", 1, 0.7, 1e-7, 1.8e-9, 1e-8),
    ("noncompact-1e-7-apart", -1, 0.7, 1e-7, 8.8e-16, 1e-13),
    ("noncompact-radius-0.999", -1, 0.999, None, 8.3e-15, 1e-12),
    ("noncompact-radius-0.999999", -1, 0.999999, None, 7.8e-12, 1e-10),
]


@pytest.mark.parametrize(
    "eps, radius, apart, observed, bound",
    [pytest.param(*row[1:], id=row[0]) for row in ACCURACY],
)
def test_distance_accuracy(eps, radius, apart, observed, bound):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, m in SIZES:
        space = GrassmannSpace(n, m, eps)
        for Z1, Z2 in _pairs(rng, n, m, radius, apart):
            d = distance(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
            exact = distance_oracle(eps, Z1, Z2)
            worst = max(worst, float(abs(d - exact) / exact))
    assert worst < bound, f"worst relative error {worst:.2e} (recorded {observed:.1e})"


def exp_oracle(eps, B):
    """U ta(S) V^dagger from the SVD B = U S V^dagger at 50 digits, with
    ta = tan (compact) or tanh (noncompact): the exact geodesic endpoint."""
    with mpmath.workdps(50):
        U, S, V = mpmath.svd_c(_mp_matrix(B))
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

# (region, directions, observed worst entrywise deviation at t = 1 with
# 4000 steps, bound).  The last seven rows are k = 2 and k = 3 inputs whose
# C = B B^dagger is degenerate: rank one or two (det C cancels to rounding),
# a multiple of I (a repeated eigenvalue), and nearly rank one (k = 2) or
# with two eigenvalues 1e-4 apart (k = 3)
ODE_ACCURACY = [
    ("criterion-1-configurations", _criterion_1_directions, 2.3e-15, 2e-14),
    ("complex-1x3", _direction(1, 3, (1,), [[0.5 - 0.3j, 0.2j, -0.4 + 0.1j]]), 4.0e-16, 4e-15),
    (
        "dual-norm-3",
        _direction(2, 3, (-1,), [[1.0 + 0.5j, 0.3, -0.2j], [0.1j, -0.6, 0.4 + 0.2j]], norm2=3.0),
        5.2e-15,
        5e-14,
    ),
    (
        "rank-one-C",
        _direction(2, 3, BOTH, np.outer([1.0, 0.6 + 0.8j], [0.5 - 0.3j, 0.2j, -0.4 + 0.1j])),
        6.6e-14,
        7e-13,
    ),
    (
        "C-multiple-of-I",
        _direction(2, 3, BOTH, 0.7 / np.sqrt(2) * np.array([[1.0, 1j, 0.0], [1j, 1.0, 0.0]])),
        2.1e-15,
        2e-14,
    ),
    ("sigma-1.3-1e-4", _direction(2, 3, BOTH, _U2 @ np.diag([1.3, 1e-4]) @ _W23), 8.8e-13, 9e-12),
    (
        "k3-rank-one-C",
        _direction(
            3, 4, BOTH, np.outer([1.0, 0.6 + 0.8j, -0.5j], [0.5 - 0.3j, 0.2j, -0.4 + 0.1j, 0.3])
        ),
        1.5e-13,
        1.5e-12,
    ),
    ("k3-rank-two-C", _direction(3, 4, BOTH, _U3 @ np.diag([1.2, 0.7, 0.0]) @ _W34), 1.9e-13, 2e-12),
    (
        "k3-C-multiple-of-I",
        _direction(
            3, 4, BOTH,
            0.7 / np.sqrt(2) * np.array([[1.0, 1j, 0.0, 0.0], [1j, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1j]]),
        ),
        3.4e-15,
        4e-14,
    ),
    (
        "k3-sigma-1.3-1e-4",
        _direction(3, 4, BOTH, _U3 @ np.diag([1.3, 1.3 - 1e-4, 0.5]) @ _W34),
        8.8e-13,
        9e-12,
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
