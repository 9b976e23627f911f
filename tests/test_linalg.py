import numpy as np
import pytest

from grassgeo.errors import PreconditionError, SingularityError
from grassgeo.linalg import (
    apply_spectral,
    principal_angles,
    rank_tol,
    svd,
)
from conftest import random_unitary


class TestSvd:
    def test_identity(self):
        r = svd(np.eye(2))
        assert np.allclose(r.s, [1.0, 1.0])

    def test_diagonal(self):
        r = svd(np.diag([3.0, 0.0]))
        assert np.allclose(r.s, [3.0, 0.0])

    def test_reconstruction(self, rng):
        M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        r = svd(M)
        rel = np.linalg.norm(r.reconstruct() - M) / np.linalg.norm(M)
        assert rel < 1e-12

    def test_sorted_nonnegative(self, rng):
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        s = svd(M).s
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_rejects_nan(self):
        with pytest.raises(PreconditionError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestApplySpectral:
    def test_zero_matrix(self):
        out = apply_spectral(np.zeros((2, 3)), np.tan)
        assert np.allclose(out, 0.0)

    def test_scalar_reduces_to_f(self):
        out = apply_spectral(np.array([[1.0]]), np.tan)
        assert abs(out[0, 0] - 1.5574077246549023) < 1e-14

    def test_diagonal_case(self):
        out = apply_spectral(np.diag([0.3, 0.8]), np.sin)
        assert np.allclose(out, np.diag([np.sin(0.3), np.sin(0.8)]), atol=1e-14)

    def test_singularity_reported(self):
        def bad(s):
            return np.where(np.isclose(s, 2.0), np.nan, s)

        with pytest.raises(SingularityError):
            apply_spectral(np.diag([2.0, 1.0]), bad)

    def test_unitary_equivariance_odd_f(self, rng):
        # U B V^dagger must commute with the spectral map for odd f, f(0)=0
        B = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        for _ in range(5):
            U = random_unitary(rng, 2)
            V = random_unitary(rng, 3)
            lhs = apply_spectral(U @ B @ V.conj().T, np.sin)
            rhs = U @ apply_spectral(B, np.sin) @ V.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestRankTol:
    def test_identity(self):
        assert rank_tol(np.eye(3), 1e-9) == 3

    def test_zero(self):
        assert rank_tol(np.zeros((3, 3)), 1e-9) == 0

    def test_below_threshold(self):
        assert rank_tol(np.diag([1.0, 1e-14]), 1e-9) == 1

    def test_unitary_invariance(self, rng):
        M = np.diag([1.0, 0.5, 1e-13])
        U = random_unitary(rng, 3)
        assert rank_tol(U @ M) == rank_tol(M) == rank_tol(M @ U)

    def test_requires_positive_tol(self):
        with pytest.raises(PreconditionError):
            rank_tol(np.eye(2), 0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_requires_finite_tol(self, tol):
        with pytest.raises(PreconditionError):
            rank_tol(np.eye(2), tol)


class TestPrincipalAngles:
    def test_identical_planes(self, rng):
        A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(A)
        assert np.max(principal_angles(q, q)) < 1e-12

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert np.allclose(principal_angles(e1, e2), [np.pi / 2])

    def test_chart_line_angle(self):
        # in G_1(C^2) the angle between O and the plane of chart point Z is
        # arctan|Z|: cos(theta) equals the normalized overlap (1+|Z|^2)^{-1/2}
        z = 0.7 - 0.4j
        origin = np.array([[1.0], [0.0]])
        f = np.array([[1.0], [np.conj(z)]]) / np.sqrt(1 + abs(z) ** 2)
        expected = np.arctan(abs(z))
        assert abs(principal_angles(origin, f)[0] - expected) < 1e-12

    def test_symmetric(self, rng):
        for _ in range(5):
            A = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            B = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            qa, _ = np.linalg.qr(A)
            qb, _ = np.linalg.qr(B)
            d = principal_angles(qa, qb) - principal_angles(qb, qa)
            assert np.max(np.abs(d)) < 1e-10

    def test_rejects_non_orthonormal(self):
        with pytest.raises(PreconditionError):
            principal_angles(np.ones((3, 1)), np.array([[1.0], [0.0], [0.0]]))
