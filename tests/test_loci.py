import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassgeo import jsonio, linalg, loci
from grassgeo.errors import ConsistencyError, EnumerationSizeError, PreconditionError
from grassgeo.geometry import chart_of_frame, chart_transition, exp0_frame, frame_of_chart
from grassgeo.linalg import ENTRY_LIMIT
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
from grassgeo.sampling import random_plane
from grassgeo.spaces import Frame, GrassmannSpace, TangentVector, origin_frame
from cli_corpus import built_frame
from conftest import random_chart_point_rng, random_plane_rng, random_unitary, run_main


CP1 = GrassmannSpace(1, 1, 1)
CP2 = GrassmannSpace(1, 2, 1)


def _core_orientation(B):
    """B (..., n, m) as the dexp core takes it: B itself for n <= m, and for n > m
    -B^dagger, whose plane exp0(-B^dagger) in G_m(C^{m+n}) is the complement of exp0(B)
    with the blocks swapped."""
    return B if B.shape[-2] <= B.shape[-1] else -B.swapaxes(-1, -2).conj()


def _core_projection(eps, B):
    """(sign, Q) from the core's frame G of one B (n, m) in its orientation: Q = G G^dagger,
    with the blocks swapped back to the order of C^{n+m} for n > m.  The projection of
    exp0(B) is Q for sign 1, and I - Q for sign -1 (n > m)."""
    n, m = B.shape
    G = loci._dexp_frames(eps, _core_orientation(B)[None, None])[0, 0]
    Q = G @ G.conj().T
    if n <= m:
        return 1, Q
    order = np.r_[m : m + n, :m]
    return -1, Q[np.ix_(order, order)]


class TestCartanVector:
    def test_accepts_unit(self):
        CartanVector([0.8, 0.6])

    def test_rejects_unnormalized(self):
        with pytest.raises(PreconditionError):
            CartanVector([1.0, 1.0])

    def test_rejects_matrix(self):
        with pytest.raises(PreconditionError):
            CartanVector(np.eye(2))

    @pytest.mark.parametrize("h", [[np.nan], [1.0, np.nan]])
    def test_rejects_non_finite(self, h):
        with pytest.raises(PreconditionError):
            CartanVector(h)


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

    def test_coalesced_time_keeps_the_largest_single_tag(self):
        # at t = sqrt(5) pi on G_2(C^7), h = (2, 1)/sqrt(5), six contributions
        # coincide: T1 2 + 2, T2 1 + 1 and T3 6 + 6.  The tag is the first T3
        # (6), not the T1 that a comparison with the running sum would keep
        sp = GrassmannSpace(2, 5, 1)
        times = tangent_conjugate_times(sp, CartanVector(np.array([2.0, 1.0]) / np.sqrt(5)), 7.1)
        last = times[-1]
        assert abs(last.t - np.sqrt(5) * np.pi) < 1e-14
        assert (last.family, last.multiplicity, last.indices, last.lam) == ("T3", 18, (0,), 2)

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

    def test_dual_has_no_conjugate_times(self):
        # the compact G_2(C^4) has four times up to 4 along this direction
        sp = GrassmannSpace(2, 2, -1)
        assert tangent_conjugate_times(sp, CartanVector([0.6, 0.8]), 4.0) == []
        with pytest.raises(PreconditionError):
            tangent_conjugate_times(sp, CartanVector([0.6, 0.8]), np.inf)


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

    def test_size_refused_before_the_zeros(self):
        # 10^12 complex entries would take 14.6 TiB
        with pytest.raises(EnumerationSizeError, match="tangent entries"):
            cartan_to_tangent(GrassmannSpace(1, 10**12, 1), CartanVector([1.0]))


class TestDexp:
    def test_identity_like_near_zero(self):
        B = cartan_to_tangent(CP1, CartanVector([1.0]))
        assert dexp_min_singular(CP1, B, 0.1) > 0.9

    def test_lost_perturbation_is_a_degenerate_jacobian(self):
        # at t = 1e12 every FD_STEP perturbation of t B rounds away, so each
        # difference of projections, and so the whole Jacobian, is zero
        sp = GrassmannSpace(2, 2, 1)
        B = TangentVector(sp, [[0.3 + 0.2j, -0.4 + 0.1j], [0.5 - 0.6j, 0.2 + 0.7j]])
        with pytest.raises(PreconditionError, match="degenerate Jacobian"):
            dexp_min_singular(sp, B, 1e12)

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

    def test_dual_never_conjugate(self):
        # the normalized singular value decays like 1/sinh but never vanishes
        sp = GrassmannSpace(2, 2, -1)
        assert not is_conjugate(sp, TangentVector(sp, np.diag([1.0, 0.0])), 4.0)

    @staticmethod
    def _per_column_reference(space, B, t, fd_step=1e-5):
        # the core's orthonormal frame of one perturbed point at a time, one
        # column at a time; test_projector_matches_exp0_frame checks that frame.
        # For n > m the difference of I - Q is minus that of Q, with no I added
        def difference(Bp, Bm):
            (sign, Qp), (_, Qm) = (_core_projection(space.epsilon, b) for b in (Bp, Bm))
            return sign * (Qp - Qm)

        cols = []
        for i in range(space.n):
            for j in range(space.m):
                for unit in (1.0, 1.0j):
                    dB = np.zeros((space.n, space.m), dtype=complex)
                    dB[i, j] = unit * fd_step
                    diff = difference(t * B.B + dB, t * B.B - dB)
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

    @pytest.mark.parametrize(
        "eps, norm",
        [(1, x) for x in (1e-3, 0.5, 2.0, 7.0, 100.0)] + [(-1, x) for x in (1e-3, 0.5, 1.5, 3.0)],
    )
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (1, 3)])
    def test_projector_matches_exp0_frame(self, n, m, eps, norm):
        # G G^dagger of the core's orthonormal frame, or for n > m I minus that of
        # the complement with the blocks swapped, is F (F^dagger F)^{-1} F^dagger of
        # the public exp0_frame, J-orthonormal on the dual
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(100 * n + 10 * m + (eps > 0))
        B = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        B *= norm / np.linalg.norm(B, 2)
        sign, Q = _core_projection(eps, B)
        P = Q if sign > 0 else np.eye(n + m) - Q
        F = exp0_frame(space, TangentVector(space, B)).F
        want = F @ np.linalg.inv(F.conj().T @ F) @ F.conj().T
        assert np.abs(P - want).max() <= 1e-14

    def test_dual_limit(self):
        # |t B|_2 = t here; the perturbed points lie within 2e-5 of t B
        sp = GrassmannSpace(2, 2, -1)
        B = cartan_to_tangent(sp, CartanVector([1.0, 0.0]))
        assert 0.0 < dexp_min_singular(sp, B, loci.DEXP_DUAL_LIMIT - 1e-4) < 1e-4
        for t in (loci.DEXP_DUAL_LIMIT + 1e-4, 1e150):
            with pytest.raises(PreconditionError, match="runs out of digits"):
                dexp_min_singular(sp, B, t)
        with pytest.raises(PreconditionError, match="got about 7.1: past it"):
            loci._dexp_scan(sp, B, np.array([6.9, 7.1, 8.0]))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, t):
        sp = GrassmannSpace(2, 2, 1)
        B = cartan_to_tangent(sp, CartanVector([0.8, 0.6]))
        with pytest.raises(PreconditionError):
            dexp_min_singular(sp, B, t)


class TestDexpScan:
    """The stacked scan is the per-point call, run on a whole t-grid."""

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_grid_equals_per_point_bit_for_bit(self, n, m, eps, monkeypatch):
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(10 * n + m)
        B = TangentVector(space, rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        ts = np.linspace(0.05, 1.6, 13)
        # 3 points per chunk, so that the grid crosses four chunk boundaries
        monkeypatch.setattr(loci, "_DEXP_CHUNK_ENTRIES", 3 * 4 * n * m * (n + m) ** 2)
        got = loci._dexp_scan(space, B, ts)
        want = [dexp_min_singular(space, B, float(t)) for t in ts]
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "eps, ts, message",
        [
            # t = 1e150 passes the dual limit, which fails before the
            # bound on t fails at the second point
            (-1, [1e150, 2e150], "dual dexp is measured up to .* got about 1e\\+150: past it"),
            (1, [1.0, 2e150], "t must be finite and at most"),
        ],
    )
    def test_grid_fails_as_its_first_failing_point(self, eps, ts, message):
        space = GrassmannSpace(1, 1, eps)
        B = TangentVector(space, [[1.0]])
        with pytest.raises(PreconditionError, match=message):
            loci._dexp_scan(space, B, np.array(ts))

    def test_compact_core_calls_no_inv(self, monkeypatch):
        # on both signs the projection is G G^dagger of an orthonormal frame:
        # no Gram check, no inverse, and one SVD for the frames and one for
        # the Jacobian per chunk
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.inv or check_gram called")

        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(None)
            return svd(*args, **kwargs)

        spaces = [GrassmannSpace(2, 2, eps) for eps in (1, -1)]
        Bs = [cartan_to_tangent(space, CartanVector([0.8, 0.6])) for space in spaces]
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "svd", counted)
        for module in (linalg, loci):
            monkeypatch.setattr(module, "check_gram", refuse)
        monkeypatch.setattr(loci, "_DEXP_CHUNK_ENTRIES", 3 * 4 * 4 * 4**2)  # 3 points a chunk
        # G comes straight from the SVD factors, with no chart frame G u^dagger
        assert not hasattr(loci, "_frame")
        for space, B in zip(spaces, Bs):
            calls.clear()
            # the first T2 time of the compact sign, which the dual does not share
            assert (dexp_min_singular(space, B, np.pi / 1.6) < 1e-6) == space.compact
            assert len(calls) == 2
            calls.clear()
            assert loci._dexp_scan(space, B, np.linspace(0.1, 3.0, 13)).shape == (13,)
            assert len(calls) == 2 * 5

    def test_perturbations_are_read_only(self):
        dB = loci._perturbations(2, 2)
        assert dB.shape == (16, 2, 2)
        assert loci._perturbations(2, 2) is dB
        with pytest.raises(ValueError):
            dB[0, 0, 0] = 1.0

    def test_perturbations_keep_the_16_most_recent_shapes(self):
        # a long-lived process does not keep the offsets of every shape it touched
        loci._perturbations.cache_clear()
        for m in range(1, 18):
            loci._perturbations(1, m)
        assert loci._perturbations.cache_info().currsize == 16
        dB = loci._perturbations(1, 17)
        assert loci._perturbations(1, 17) is dB and loci._perturbations.cache_info().misses == 17


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    eps=st.sampled_from([1, -1]),
    reach=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_core_frames_are_orthonormal(n, m, eps, reach, seed):
    """The core's frames are orthonormal and G G^dagger is an orthogonal
    projection, to 1e-14, for stacks of B at log-uniform scales from 1e-8 up
    to ENTRY_LIMIT on the compact sign and up to DEXP_DUAL_LIMIT on the dual;
    for n > m the core's frames are those of the complement, from -B^dagger."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(2, 3, n, m)) + 1j * rng.normal(size=(2, 3, n, m))
    limit = (ENTRY_LIMIT if eps > 0 else loci.DEXP_DUAL_LIMIT) * (1.0 - 1e-9)
    scale = min(10.0 ** (-8.0 + reach * (np.log10(limit) + 8.0)), limit)
    B *= scale / np.linalg.norm(B, 2, axis=(2, 3)).max()
    G = loci._dexp_frames(eps, _core_orientation(B))
    assert G.shape == (2, 3, n + m, min(n, m))
    Gh = G.swapaxes(-1, -2).conj()
    assert np.abs(Gh @ G - np.eye(min(n, m))).max() <= 1e-14
    P = G @ Gh
    assert np.abs(P - P.swapaxes(-1, -2).conj()).max() <= 1e-14
    assert np.abs(P @ P - P).max() <= 1e-14


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

    @pytest.mark.parametrize("c", [2e-9, 1e-7, 5e-6])
    def test_det_above_tol_is_off_locus(self, c):
        # angles (0, arccos c) with O: the smallest cosine c passes the default
        # tol 1e-9, though the largest angle lies within 1e-5 of pi/2
        sp = GrassmannSpace(2, 2, 1)
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0], F[1, 1], F[3, 1] = 1.0, c, np.sqrt(1.0 - c * c)
        assert not cut_locus_test(sp, Frame(sp, F))

    def test_cross_check_fails_on_its_own(self, rng, monkeypatch):
        sp = GrassmannSpace(2, 2, 1)
        F = frame_of_chart(random_chart_point_rng(sp, rng))
        det = loci._det
        monkeypatch.setattr(loci, "_det", lambda M, failure: 2.0 * det(M, failure))
        for check in (cut_locus_test, disjoint_union_check):
            with pytest.raises(ConsistencyError, match="cut-locus criteria disagree"):
                check(sp, F)
        code, out, _ = run_main(["cut-test", "--space", "2", "2", "compact", "--seed", "7"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ConsistencyError"
        assert "cut-locus criteria disagree" in out

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 3), (1, 2)])
    @pytest.mark.parametrize("c", [1e-16, 1e-14, 1e-13, 5e-13])
    def test_tight_tol_refused_chart_is_near_divisor(self, n, m, c, tmp_path):
        # angles (0, ..., 0, arccos c) with O: the smallest cosine c lies above
        # tol 1e-20 but below CHART_SINGULAR_TOL, where the chart map takes no
        # plane; that is near-divisor, not a fault
        sp = GrassmannSpace(n, m, 1)
        F = np.zeros((n + m, n), dtype=complex)
        F[np.arange(n - 1), np.arange(n - 1)] = 1.0
        F[n - 1, n - 1], F[n, n - 1] = c, np.sqrt(1.0 - c * c)
        out = disjoint_union_check(sp, Frame(sp, F), tol=1e-20)
        assert out.branch == "near-divisor" and out.chart_point is None
        assert out.det_modulus == pytest.approx(c, rel=1e-12)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(jsonio.matrix_to_doc(F)))
        argv = ["cut-test", "--space", str(n), str(m), "compact", "--frame", str(path)]
        code, stdout, err = run_main([*argv, "--tol", "1e-20"])
        payload = json.loads(stdout)
        assert (code, err) == (0, "")
        assert payload["branch"] == "near-divisor" and payload["on_cut_locus"] is False

    def test_one_det_and_one_svd_and_no_inv(self, monkeypatch):
        # cut-test reads F_top once, and the chart map inverts no matrix
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.inv called")

        calls = []

        def counted(name):
            original = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        sp = GrassmannSpace(2, 3, 1)
        F = random_plane_rng(sp, np.random.default_rng(3))
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for name in ("det", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        code, out, _ = run_main(["cut-test", "--space", "2", "3", "compact", "--seed", "7"])
        assert code == 0 and json.loads(out)["branch"] == "chart"
        assert sorted(calls) == ["det", "svd"]
        for call in (lambda: chart_of_frame(F), lambda: chart_transition(sp, F, [1, 4])):
            calls.clear()
            call()
            assert calls == ["svd"]

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

    @pytest.mark.parametrize(
        "c, branch",
        [(5e-10, "polar-divisor"), (1.5e-9, "near-divisor"), (5e-9, "near-divisor"),
         (1.5e-8, "chart"), (1e-3, "chart")],
    )
    def test_branch_on_the_smallest_cosine(self, c, branch):
        # cosines (0.5, c) with O at the default tol 1e-9: below tol is the
        # divisor, [tol, 10 tol) is flagged, and |det| = c / 2 decides nothing
        sp = GrassmannSpace(2, 2, 1)
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0], F[2, 0], F[1, 1], F[3, 1] = 0.5, np.sqrt(0.75), c, np.sqrt(1.0 - c * c)
        out = disjoint_union_check(sp, Frame(sp, F))
        assert out.branch == branch and (out.chart_point is None) == (branch != "chart")
        assert out.det_modulus == pytest.approx(c / 2, rel=1e-12)

    def test_dual_rejected(self):
        # the dual has no polar divisor: there |det F_top| >= 1
        sp = GrassmannSpace(2, 2, -1)
        with pytest.raises(PreconditionError, match="applies to the compact space"):
            disjoint_union_check(sp, origin_frame(sp))

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
            in_z, _ = schubert_membership(sp, schubert_dims(F, flag), s)
            assert in_z

    def test_generic_planes_do_not(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        s = wong_cut_symbol(sp)
        flag = dual_flag(sp)
        for _ in range(20):
            F = frame_of_chart(random_chart_point_rng(sp, rng))
            in_z, _ = schubert_membership(sp, schubert_dims(F, flag), s)
            assert not in_z

    def test_membership_matches_cut_test(self, rng):
        sp = GrassmannSpace(2, 2, 1)
        s = wong_cut_symbol(sp)
        flag = dual_flag(sp)
        for _ in range(200):
            F = random_plane_rng(sp, rng)
            in_z, _ = schubert_membership(sp, schubert_dims(F, flag), s)
            assert in_z == cut_locus_test(sp, F)

    @pytest.mark.parametrize(
        "cosines",
        [(c, c) for c in (1e-3, 1e-5, 1e-7)]
        + [(c, c, c) for c in (1e-3, 1e-5, 1e-7)]
        + [(1.0, c) for c in (1e-10, 1e-11)],
        ids=lambda cosines: ",".join(f"{c:g}" for c in cosines),
    )
    def test_membership_matches_cut_test_on_small_cosines(self, cosines, rng):
        # the cut locus is where some cosine with O vanishes, not where their
        # product does: (1e-5, 1e-5) has |det F_top| = 1e-10 below the default
        # tol, yet meets O-perp in no line
        n = len(cosines)
        for m in (n, n + 1):
            sp = GrassmannSpace(n, m, 1)
            F = np.zeros((n + m, n), dtype=complex)
            F[np.arange(n), np.arange(n)] = cosines
            F[n + np.arange(n), np.arange(n)] = np.sqrt(1.0 - np.square(cosines))
            for _ in range(5):
                # rotations inside O and inside O-perp keep the cosines
                U = np.zeros((n + m, n + m), dtype=complex)
                U[:n, :n], U[n:, n:] = random_unitary(rng, n), random_unitary(rng, m)
                G = Frame(sp, U @ F @ random_unitary(rng, n))
                dims = schubert_dims(G, dual_flag(sp))
                in_z, _ = schubert_membership(sp, dims, wong_cut_symbol(sp))
                assert cut_locus_test(sp, G) == in_z == (min(cosines) < 1e-9)

    def test_generic_stratum_flag(self):
        # a plane meeting O-perp in exactly one line is a generic member
        sp = GrassmannSpace(2, 2, 1)
        s, flag = wong_cut_symbol(sp), dual_flag(sp)
        F = coordinate_plane_frame(sp, (0, 2))
        in_z, generic = schubert_membership(sp, schubert_dims(F, flag), s)
        assert in_z and generic
        G = coordinate_plane_frame(sp, (2, 3))
        in_z2, generic2 = schubert_membership(sp, schubert_dims(G, flag), s)
        assert in_z2 and not generic2

    def test_symbol_space_mismatch(self):
        sp = GrassmannSpace(2, 2, 1)
        with pytest.raises(PreconditionError, match="symbol does not match"):
            schubert_membership(sp, [0, 0, 1, 2], SchubertSymbol((1,), 2))
        with pytest.raises(PreconditionError, match="dims must list 4"):
            schubert_membership(sp, [0, 0, 1], wong_cut_symbol(sp))


SMALL_SHAPES = [(n, m) for n in range(1, 5) for m in range(1, 5)]


def _perp(F):
    """The complement of span(F), from a full numpy SVD, as a frame (n+m, m) with its rows
    reordered to [bottom ; top]: its origin, the first m coordinates, is then O-perp."""
    n = F.shape[1]
    perp = np.linalg.svd(F)[0][:, n:]
    return np.vstack([perp[n:], perp[:n]])


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

    @pytest.mark.parametrize("n, m", SMALL_SHAPES)
    def test_complement_duality(self, n, m):
        # F and its complement make the same r = min(n, m) genuine angles with O and
        # O-perp, so they lie in the same strata; the oracle uses numpy alone
        rng, r = np.random.default_rng([n, m]), min(n, m)
        sp, sp_perp = GrassmannSpace(n, m, 1), GrassmannSpace(m, n, 1)
        for k in range(60):
            if k < 30:
                A = rng.standard_normal((n + m, n)) + 1j * rng.standard_normal((n + m, n))
                F = np.linalg.qr(A)[0]
            else:
                angles = rng.uniform(0.1, 1.4, r)
                if k % 3 == 0 and r >= 2:
                    angles[1] = angles[0]  # in I
                elif k % 3 == 1:
                    angles[0] = 0.0  # in W
                else:
                    angles[-1] = np.pi / 2  # in W
                F = built_frame(rng, n, m, np.cos(angles))
            ang, W, I = loci._conjugate_strata(sp, Frame(sp, F))
            ang_perp, W_perp, I_perp = loci._conjugate_strata(sp_perp, Frame(sp_perp, _perp(F)))
            assert (W, I) == (W_perp, I_perp)
            np.testing.assert_allclose(ang[n - r :], ang_perp[m - r :], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, m", SMALL_SHAPES)
    def test_predicted_conjugate_times_land_in_their_stratum(self, n, m):
        # at a T1 time two genuine angles coincide; at a T2 or T3 time one is 0 or pi/2;
        # a random time on the same direction lands in neither stratum
        sp, rng = GrassmannSpace(n, m, 1), np.random.default_rng([3, n, m])
        for _ in range(15):
            h = rng.standard_normal(sp.rank)
            h = CartanVector(h / np.linalg.norm(h))
            B = cartan_to_tangent(sp, h).B
            for c in tangent_conjugate_times(sp, h, 12.0):
                _, W, I = loci._conjugate_strata(sp, exp0_frame(sp, TangentVector(sp, c.t * B)))
                assert W or (I and c.family == "T1"), c
            for t in rng.uniform(0.0, 12.0, 4):
                strata = loci._conjugate_strata(sp, exp0_frame(sp, TangentVector(sp, t * B)))
                assert strata[1:] == (False, False), t

    @pytest.mark.parametrize("n, m", SMALL_SHAPES)
    def test_random_planes_lie_in_neither_stratum(self, n, m):
        sp = GrassmannSpace(n, m, 1)
        for seed in range(200):
            assert loci._conjugate_strata(sp, random_plane(sp, seed))[1:] == (False, False)


class TestIsoclinic:
    def test_equal_diagonal_direction(self):
        sp = GrassmannSpace(2, 2, 1)
        F = exp0_frame(sp, TangentVector(sp, np.diag([0.5, 0.5])))
        assert isoclinic_test(origin_frame(sp), F)

    def test_unequal_angles(self):
        sp = GrassmannSpace(2, 2, 1)
        F = exp0_frame(sp, TangentVector(sp, np.diag([0.3, 0.9])))
        assert not isoclinic_test(origin_frame(sp), F)

    def test_noncompact_rejected(self):
        sp = GrassmannSpace(2, 2, -1)
        with pytest.raises(PreconditionError, match="compact space"):
            isoclinic_test(origin_frame(sp), origin_frame(sp))

    def test_any_line_pair_isoclinic(self, rng):
        # rank-one spaces have a single stationary angle
        F1 = random_plane_rng(CP2, rng)
        F2 = random_plane_rng(CP2, rng)
        assert isoclinic_test(F1, F2)
