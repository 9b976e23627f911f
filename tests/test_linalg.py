import numpy as np
import pytest

from grassgeo.errors import PreconditionError, SingularityError
from grassgeo.geometry import raw_frame
from grassgeo.kernels import _subset_rows
from grassgeo.linalg import (
    _eye,
    _svd,
    _svdvals,
    apply_spectral,
    check_gram,
    principal_angles,
    rank_tol,
    svd,
)
from grassgeo.loci import dual_flag, standard_flag
from grassgeo.spaces import ChartPoint, GrassmannSpace, coordinate_plane_frame
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

        # a Python float, so the message does not depend on numpy's scalar repr
        with pytest.raises(SingularityError, match=r"at singular value 2\.0$"):
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

    def test_same_work_on_near_and_far_pairs(self, rng, monkeypatch):
        # the sines and the cosines are both taken on every input, so a pair
        # whose angles are all above pi/4 still takes the residual's SVD
        calls, svd = [], np.linalg.svd

        def counted(M, *args, **kwargs):
            calls.append(np.shape(M))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        Q = random_unitary(rng, 4)
        near, far = Q[:, [0, 1]] + 1e-9 * Q[:, [2, 3]], Q[:, [2, 3]] + 0.1 * Q[:, [0, 1]]
        for F2 in (near / np.sqrt(1 + 1e-18), far / np.sqrt(1.01)):
            calls.clear()
            angles = principal_angles(Q[:, :2], F2)
            assert sorted(calls) == [(2, 2), (4, 2)], angles


class TestCheckGram:
    def test_accepts_and_rejects_on_both_signs(self, rng):
        F = random_unitary(rng, 4)[:, :2]
        check_gram(F, 1, 1e-10)
        with pytest.raises(PreconditionError, match=r"^frame orthonormality deviation 2\.000e-06"):
            check_gram(F * (1.0 + 1e-6), 1, 1e-10)
        # on the dual it checks the J-Gram F^dagger J F, which the Gram fails
        F = np.array([[np.cosh(0.5)], [np.sinh(0.5)]], dtype=complex)
        check_gram(F, -1, 1e-10)
        with pytest.raises(PreconditionError, match=r"^frame orthonormality deviation 5\.431e-01"):
            check_gram(F, 1, 1e-10)
        with pytest.raises(PreconditionError, match=r"^flag J-orthonormality deviation nan"):
            check_gram(F * np.nan, -1, 1e-10, "flag")

    def test_svdvals_match_the_svd(self, rng):
        M = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
        assert np.allclose(_svdvals(M), _svd(M)[1], rtol=1e-14, atol=0)


class TestSharedConstants:
    def test_identity_is_shared_and_read_only(self):
        eye = _eye(3, complex)
        assert eye.dtype == complex and np.array_equal(eye, np.eye(3))
        assert _eye(3, complex) is eye
        with pytest.raises(ValueError):
            eye[0, 1] = 1.0

    def test_plucker_rows_are_shared_and_read_only(self):
        rows = _subset_rows(4, 2)
        assert rows.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert _subset_rows(4, 2) is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 3

    @pytest.mark.parametrize(
        "build",
        [
            standard_flag,
            dual_flag,
            lambda space: raw_frame(ChartPoint(space, np.zeros((2, 3)))),
            lambda space: coordinate_plane_frame(space, (0, 1)).F,
        ],
        ids=["standard_flag", "dual_flag", "raw_frame", "coordinate_plane_frame"],
    )
    def test_public_results_are_fresh(self, build):
        # a caller may write into what a public function returns; the next
        # call must not see it
        space = GrassmannSpace(2, 3)
        first = build(space)
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(build(space), expected)
