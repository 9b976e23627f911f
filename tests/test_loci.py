import numpy as np
import pytest

from grassgeo import loci
from grassgeo.errors import EnumerationSizeError, PreconditionError
from grassgeo.geometry import exp0_frame, frame_of_chart
from grassgeo.kernels import coordinate_plane_frame
from grassgeo.loci import (
    CartanVector,
    SchubertSymbol,
    cartan_to_tangent,
    conjugate_stratum_I,
    conjugate_stratum_W,
    cut_locus_test,
    dexp_min_singular,
    disjoint_union_check,
    dual_flag,
    is_conjugate,
    isoclinic_test,
    schubert_dims,
    schubert_membership,
    standard_flag,
    tangent_conjugate_times,
    wong_cut_symbol,
)
from grassgeo.spaces import Frame, GrassmannSpace, TangentVector, origin_frame
from conftest import random_chart_point_rng, random_plane_rng


CP1 = GrassmannSpace(1, 1, 1)
CP2 = GrassmannSpace(1, 2, 1)


class TestCartanVector:
    def test_accepts_unit(self):
        CartanVector([0.8, 0.6])

    def test_rejects_unnormalized(self):
        with pytest.raises(PreconditionError):
            CartanVector([1.0, 1.0])

    def test_rejects_matrix(self):
        with pytest.raises(PreconditionError):
            CartanVector(np.eye(2))


class TestConjugateTimes:
    def test_projective_line(self):
        times = tangent_conjugate_times(CP1, CartanVector([1.0]), 3.2)
        assert [(c.family, c.multiplicity, c.lam) for c in times] == [
            ("T2", 1, 1),
            ("T2", 1, 2),
        ]
        assert abs(times[0].t - np.pi / 2) < 1e-15
        assert abs(times[1].t - np.pi) < 1e-15

    def test_projective_plane_coalescence(self):
        # at t = pi the second T2 hit lands on the first T3 hit; the merged
        # entry carries the summed multiplicity 1 + 2 and the larger tag
        times = tangent_conjugate_times(CP2, CartanVector([1.0]), 3.2)
        assert len(times) == 2
        assert abs(times[0].t - np.pi / 2) < 1e-15
        assert times[0].family == "T2"
        assert times[0].multiplicity == 1
        assert abs(times[1].t - np.pi) < 1e-15
        assert times[1].family == "T3"
        assert times[1].multiplicity == 3

    def test_generic_g2c4_direction(self):
        sp = GrassmannSpace(2, 2, 1)
        times = tangent_conjugate_times(sp, CartanVector([0.8, 0.6]), 3.0)
        got = [(round(c.t, 12), c.family, c.multiplicity) for c in times]
        assert got == [
            (1.963495408494, "T2", 1),
            (2.243994752564, "T1", 2),
            (2.617993877991, "T2", 1),
        ]

    def test_no_t3_for_equal_ranks(self):
        sp = GrassmannSpace(2, 2, 1)
        times = tangent_conjugate_times(sp, CartanVector([0.8, 0.6]), 10.0)
        assert all(c.family != "T3" for c in times)

    def test_zero_component_skipped(self):
        # h = (1, 0): the q = 1 entries give |h0 - h1| = |h0 + h1| = 1 and
        # h1 itself contributes nothing
        sp = GrassmannSpace(2, 2, 1)
        times = tangent_conjugate_times(sp, CartanVector([1.0, 0.0]), 1.7)
        assert abs(times[0].t - np.pi / 2) < 1e-15
        assert times[0].family == "T2"

    def test_requires_positive_horizon(self):
        with pytest.raises(PreconditionError):
            tangent_conjugate_times(CP1, CartanVector([1.0]), 0.0)

    def test_requires_matching_rank(self):
        with pytest.raises(PreconditionError):
            tangent_conjugate_times(CP1, CartanVector([0.8, 0.6]), 1.0)

    @pytest.mark.parametrize("t_max", [np.nan, np.inf])
    def test_requires_finite_horizon(self, t_max):
        with pytest.raises(PreconditionError):
            tangent_conjugate_times(CP1, CartanVector([1.0]), t_max)

    def test_count_bounded_before_listing(self, monkeypatch):
        # on the projective line the times are k pi / 2: ten up to 5 pi
        monkeypatch.setattr(loci, "MAX_CONJUGATE_TIMES", 10)
        assert len(tangent_conjugate_times(CP1, CartanVector([1.0]), 5 * np.pi)) == 10
        with pytest.raises(EnumerationSizeError):
            tangent_conjugate_times(CP1, CartanVector([1.0]), 5.6 * np.pi)

    @pytest.mark.parametrize("t_max", [1e9, 1e308])
    def test_huge_horizon_rejected(self, t_max):
        with pytest.raises(EnumerationSizeError):
            tangent_conjugate_times(CP2, CartanVector([1.0]), t_max)


class TestCartanEmbedding:
    def test_diagonal(self):
        sp = GrassmannSpace(2, 3, 1)
        B = cartan_to_tangent(sp, CartanVector([0.8, 0.6]))
        expected = np.zeros((2, 3))
        expected[0, 0], expected[1, 1] = 0.8, 0.6
        assert np.allclose(B.B, expected)

    def test_unit_norm(self):
        sp = GrassmannSpace(2, 2, 1)
        B = cartan_to_tangent(sp, CartanVector([0.8, 0.6]))
        assert B.norm == pytest.approx(1.0)


class TestDexp:
    def test_identity_like_near_zero(self):
        B = cartan_to_tangent(CP1, CartanVector([1.0]))
        assert dexp_min_singular(CP1, B, 0.1) > 0.9

    def test_projective_line_antipode(self):
        B = cartan_to_tangent(CP1, CartanVector([1.0]))
        assert dexp_min_singular(CP1, B, np.pi / 2) < 1e-6
        assert dexp_min_singular(CP1, B, 0.8) > 1e-2

    def test_projective_plane_return_dip(self):
        B = cartan_to_tangent(CP2, CartanVector([1.0]))
        assert dexp_min_singular(CP2, B, np.pi) < 1e-6

    def test_g2c4_predicted_time(self):
        sp = GrassmannSpace(2, 2, 1)
        B = cartan_to_tangent(sp, CartanVector([0.8, 0.6]))
        t_star = np.pi / 1.6  # first T2 time for h = (0.8, 0.6)
        assert dexp_min_singular(sp, B, t_star) < 1e-6
        assert dexp_min_singular(sp, B, 0.8 * t_star) > 1e-2

    def test_is_conjugate(self):
        B = cartan_to_tangent(CP1, CartanVector([1.0]))
        assert is_conjugate(CP1, B, np.pi / 2)
        assert not is_conjugate(CP1, B, 1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(PreconditionError):
            is_conjugate(CP1, TangentVector(CP1, [[0.0]]), 1.0)

    def test_step_bounds(self):
        B = cartan_to_tangent(CP1, CartanVector([1.0]))
        with pytest.raises(PreconditionError):
            dexp_min_singular(CP1, B, 0.5, fd_step=1e-2)

    @staticmethod
    def _per_column_reference(space, B, t, fd_step=1e-5):
        # one public exp0_frame per perturbed point, one column at a time
        def projection(Bp):
            F = exp0_frame(space, TangentVector(space, Bp)).F
            return F @ np.linalg.inv(F.conj().T @ F) @ F.conj().T

        cols = []
        for i in range(space.n):
            for j in range(space.m):
                for unit in (1.0, 1.0j):
                    dB = np.zeros((space.n, space.m), dtype=complex)
                    dB[i, j] = unit * fd_step
                    diff = projection(t * B.B + dB) - projection(t * B.B - dB)
                    diff /= 2.0 * fd_step
                    cols.append(np.concatenate([diff.real.ravel(), diff.imag.ravel()]))
        s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        return s[-1] / s[0]

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_per_column_reference(self, n, m, eps):
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(10 * n + m)
        B = TangentVector(space, rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        for t in (0.3, 1.1):
            got = dexp_min_singular(space, B, t)
            assert got == pytest.approx(self._per_column_reference(space, B, t), rel=1e-12)

    def test_noncompact_has_no_conjugate_dip(self):
        # the compact G_2(C^4) dips below 1e-6 at this time; its dual does not
        sp = GrassmannSpace(2, 2, -1)
        B = cartan_to_tangent(sp, CartanVector([0.8, 0.6]))
        assert dexp_min_singular(sp, B, np.pi / 1.6) > 1e-2

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, t):
        sp = GrassmannSpace(2, 2, 1)
        B = cartan_to_tangent(sp, CartanVector([0.8, 0.6]))
        with pytest.raises(PreconditionError):
            dexp_min_singular(sp, B, t)


class TestCutLocus:
    def test_hyperplane_at_infinity(self):
        F = Frame(CP2, np.array([[0.0], [1.0], [0.0]], dtype=complex))
        assert cut_locus_test(CP2, F)

    def test_generic_point_off_locus(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        for _ in range(20):
            F = frame_of_chart(random_chart_point_rng(sp, rng))
            assert not cut_locus_test(sp, F)

    def test_partial_intersection_not_on_locus(self):
        # one zero angle and one right angle with O: max angle is pi/2,
        # so det vanishes and the plane is on the polar divisor
        sp = GrassmannSpace(2, 2, 1)
        assert cut_locus_test(sp, coordinate_plane_frame(sp, (0, 2)))

    def test_noncompact_rejected(self):
        sp = GrassmannSpace(1, 1, -1)
        with pytest.raises(PreconditionError):
            cut_locus_test(sp, origin_frame(sp))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        sp = GrassmannSpace(2, 2, 1)
        for check in (cut_locus_test, disjoint_union_check):
            with pytest.raises(PreconditionError):
                check(sp, coordinate_plane_frame(sp, (0, 2)), tol=tol)
        with pytest.raises(PreconditionError):
            schubert_dims(coordinate_plane_frame(sp, (0, 2)), standard_flag(sp), tol=tol)


class TestDisjointUnion:
    def test_chart_branch(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        F = frame_of_chart(random_chart_point_rng(sp, rng))
        out = disjoint_union_check(sp, F)
        assert out.branch == "chart"
        assert out.chart_point is not None

    def test_divisor_branch(self):
        sp = GrassmannSpace(2, 2, 1)
        out = disjoint_union_check(sp, coordinate_plane_frame(sp, (2, 3)))
        assert out.branch == "polar-divisor"
        assert out.chart_point is None

    def test_thousand_random_planes(self, rng):
        sp = GrassmannSpace(2, 3, 1)
        counts = {"chart": 0, "polar-divisor": 0, "near-divisor": 0}
        for _ in range(1000):
            out = disjoint_union_check(sp, random_plane_rng(sp, rng))
            counts[out.branch] += 1
            if out.branch == "chart":
                assert out.chart_point is not None
        assert counts["chart"] >= 990


class TestSchubertSymbol:
    def test_sigma_and_jumps(self):
        s = SchubertSymbol((1, 2, 2), 3)
        assert s.sigma == (2, 4, 5)
        assert s.jumps == (0, 1, 3)
        assert s.cell_dim == 5

    def test_constant_symbol_jumps(self):
        s = SchubertSymbol((2, 2), 2)
        assert s.jumps == (0, 2)

    def test_rejects_decreasing(self):
        with pytest.raises(PreconditionError):
            SchubertSymbol((2, 1), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            SchubertSymbol((0, 4), 3)


class TestSchubertDims:
    def test_origin_standard_flag(self):
        sp = GrassmannSpace(2, 2, 1)
        dims = schubert_dims(origin_frame(sp), standard_flag(sp))
        assert dims == [1, 2, 2, 2]

    def test_origin_dual_flag(self):
        sp = GrassmannSpace(2, 2, 1)
        dims = schubert_dims(origin_frame(sp), dual_flag(sp))
        assert dims == [0, 0, 1, 2]

    def test_dims_monotone_and_bounded(self, rng):
        sp = GrassmannSpace(2, 3, 1)
        F = random_plane_rng(sp, rng)
        dims = schubert_dims(F, standard_flag(sp))
        assert dims[-1] == sp.n
        assert all(0 <= d for d in dims)
        steps = np.diff([0] + dims)
        assert np.all((steps == 0) | (steps == 1))

    def test_requires_orthonormal_flag(self):
        sp = GrassmannSpace(2, 2, 1)
        with pytest.raises(PreconditionError):
            schubert_dims(origin_frame(sp), 2 * np.eye(4))


class TestWongCutVariety:
    def test_symbol_shape(self):
        sp = GrassmannSpace(2, 3, 1)
        s = wong_cut_symbol(sp)
        assert s.omega == (2, 3)
        assert s.cell_dim == sp.n * sp.m - 1

    def test_polar_planes_belong(self):
        sp = GrassmannSpace(2, 2, 1)
        s = wong_cut_symbol(sp)
        flag = dual_flag(sp)
        for subset in ((2, 3), (0, 2), (1, 3)):
            F = coordinate_plane_frame(sp, subset)
            in_z, _ = schubert_membership(F, s, flag)
            assert in_z

    def test_generic_planes_do_not(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        s = wong_cut_symbol(sp)
        flag = dual_flag(sp)
        for _ in range(20):
            F = frame_of_chart(random_chart_point_rng(sp, rng))
            in_z, _ = schubert_membership(F, s, flag)
            assert not in_z

    def test_membership_matches_cut_test(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        s = wong_cut_symbol(sp)
        flag = dual_flag(sp)
        for _ in range(200):
            F = random_plane_rng(sp, rng)
            in_z, _ = schubert_membership(F, s, flag)
            assert in_z == cut_locus_test(sp, F)

    def test_generic_stratum_flag(self):
        # a plane meeting O-perp in exactly one line is a generic member
        sp = GrassmannSpace(2, 2, 1)
        F = coordinate_plane_frame(sp, (0, 2))
        in_z, generic = schubert_membership(F, wong_cut_symbol(sp), dual_flag(sp))
        assert in_z and generic
        G = coordinate_plane_frame(sp, (2, 3))
        in_z2, generic2 = schubert_membership(G, wong_cut_symbol(sp), dual_flag(sp))
        assert in_z2 and not generic2

    def test_symbol_space_mismatch(self):
        sp = GrassmannSpace(2, 2, 1)
        with pytest.raises(PreconditionError):
            schubert_membership(origin_frame(sp), SchubertSymbol((1,), 2), dual_flag(sp))


class TestStrata:
    def test_wong_stratum_partial_plane(self):
        sp = GrassmannSpace(2, 2, 1)
        assert conjugate_stratum_W(sp, coordinate_plane_frame(sp, (0, 2)))

    def test_wong_stratum_generic_false(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        for _ in range(20):
            F = frame_of_chart(random_chart_point_rng(sp, rng))
            assert not conjugate_stratum_W(sp, F)

    def test_forced_zero_angles_do_not_trigger(self, rng):
        # n > m forces n - m zero angles everywhere; only extra ones count
        sp = GrassmannSpace(2, 1, 1)
        for _ in range(10):
            F = frame_of_chart(random_chart_point_rng(sp, rng))
            assert not conjugate_stratum_W(sp, F)

    def test_equal_angle_stratum(self):
        sp = GrassmannSpace(2, 2, 1)
        B = TangentVector(sp, np.diag([0.5, 0.5]))
        F = exp0_frame(sp, B)
        assert conjugate_stratum_I(sp, F)
        G = exp0_frame(sp, TangentVector(sp, np.diag([0.3, 0.9])))
        assert not conjugate_stratum_I(sp, G)

    def test_single_angle_never_equal_pair(self, rng):
        F = frame_of_chart(random_chart_point_rng(CP2, rng))
        assert not conjugate_stratum_I(CP2, F)

    def test_noncompact_rejected(self):
        sp = GrassmannSpace(1, 1, -1)
        with pytest.raises(PreconditionError):
            conjugate_stratum_W(sp, origin_frame(sp))


class TestIsoclinic:
    def test_equal_diagonal_direction(self):
        sp = GrassmannSpace(2, 2, 1)
        F = exp0_frame(sp, TangentVector(sp, np.diag([0.5, 0.5])))
        assert isoclinic_test(origin_frame(sp), F)

    def test_unequal_angles(self):
        sp = GrassmannSpace(2, 2, 1)
        F = exp0_frame(sp, TangentVector(sp, np.diag([0.3, 0.9])))
        assert not isoclinic_test(origin_frame(sp), F)

    def test_any_line_pair_isoclinic(self, rng):
        # rank-one spaces have a single stationary angle
        F1 = random_plane_rng(CP2, rng)
        F2 = random_plane_rng(CP2, rng)
        assert isoclinic_test(F1, F2)
