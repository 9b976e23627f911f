import inspect
import warnings

import numpy as np
import pytest

from grassgeo import geometry, linalg
from grassgeo.errors import (
    ConjugateToChartError,
    DomainError,
    LeftChartError,
    NumericalFailure,
    OnPolarDivisorError,
    PreconditionError,
    WrongChartError,
)
from grassgeo.geometry import (
    chart_of_frame,
    chart_transition,
    distance,
    exp0,
    exp0_frame,
    frame_of_chart,
    geodesic_ode,
    log0,
    raw_frame,
    transport_to_origin,
)
from grassgeo.linalg import principal_angles
from grassgeo.sampling import generator
from grassgeo.spaces import (
    ChartPoint,
    Frame,
    GrassmannSpace,
    TangentVector,
    origin_frame,
)
from conftest import (
    random_chart_point_rng,
    random_plane_rng,
    random_tangent_rng,
    random_unitary,
)


def zero_point(space):
    return ChartPoint(space, np.zeros((space.n, space.m)))


class TestFrames:
    def test_origin_chart(self, g24):
        F = frame_of_chart(zero_point(g24))
        assert np.max(np.abs(F.F - origin_frame(g24).F)) < 1e-12

    def test_scalar_one(self, cp1):
        F = frame_of_chart(ChartPoint(cp1, [[1.0]]))
        assert np.allclose(np.abs(F.F.ravel()), [1 / np.sqrt(2)] * 2)

    def test_raw_gram_identity(self, g24, rng):
        p1 = random_chart_point_rng(g24, rng)
        p2 = random_chart_point_rng(g24, rng)
        gram = raw_frame(p1).conj().T @ raw_frame(p2)
        assert np.max(np.abs(gram - (np.eye(2) + p1.Z @ p2.Z.conj().T))) < 1e-12

    def test_round_trip(self, g24, rng):
        for _ in range(10):
            p = random_chart_point_rng(g24, rng)
            back = chart_of_frame(frame_of_chart(p))
            assert np.max(np.abs(back.Z - p.Z)) < 1e-10

    def test_round_trip_noncompact(self, g24_dual, rng):
        for _ in range(10):
            p = random_chart_point_rng(g24_dual, rng)
            back = chart_of_frame(frame_of_chart(p))
            assert np.max(np.abs(back.Z - p.Z)) < 1e-10

    def test_orthogonal_plane_has_no_chart(self, g24):
        F = np.zeros((4, 2), dtype=complex)
        F[2, 0] = F[3, 1] = 1.0
        with pytest.raises(OnPolarDivisorError):
            chart_of_frame(Frame(g24, F))

    def test_noncompact_domain_enforced(self, cp1_dual):
        with pytest.raises(DomainError):
            ChartPoint(cp1_dual, [[1.2]])

    def test_frames_at_spread_and_near_the_boundary(self):
        # compact singular values spread from 1e5 to 0.3, where forming
        # I + Z Z^dagger lost the frame's orthonormality; dual points at
        # radius 0.999999, whose J-Gram rounding grows like 1 / (1 - r^2)
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(100):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            k = min(n, m)
            U, W = random_unitary(rng, n)[:, :k], random_unitary(rng, m)[:k]
            space = GrassmannSpace(n, m)
            F = frame_of_chart(ChartPoint(space, U @ np.diag(np.geomspace(1e5, 0.3, k)) @ W)).F
            worst = max(worst, np.abs(F.conj().T @ F - np.eye(n)).max())
            dual = GrassmannSpace(n, m, -1)
            Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            frame_of_chart(ChartPoint(dual, Z * (0.999999 / np.linalg.norm(Z, 2))))
        assert worst <= 1e-14

    def test_no_eigh(self, g24, g24_dual, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rng = np.random.default_rng(4)
        for space in (g24, g24_dual):
            p1, p2 = random_chart_point_rng(space, rng), random_chart_point_rng(space, rng)
            frame_of_chart(p1)
            transport_to_origin(space, p1)
            distance(space, p1, p2)

    def test_distance_builds_no_frame(self, monkeypatch):
        # one formula for both signs: the sines of the chart difference, and
        # on the compact sign cosines from the chart SVDs, never frames
        def refuse(*args, **kwargs):
            raise AssertionError("frame or frame angles built")

        monkeypatch.setattr(geometry, "_frame", refuse)
        monkeypatch.setattr(geometry, "_principal_angles", refuse, raising=False)
        monkeypatch.setattr(linalg, "_principal_angles", refuse)
        rng = np.random.default_rng(5)
        for n, m in [(1, 3), (2, 2), (3, 1)]:
            for eps in (1, -1):
                space = GrassmannSpace(n, m, eps)
                Z1, Z2 = (random_chart_point_rng(space, rng).Z for _ in range(2))
                d = distance(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
                assert d == pytest.approx(distance_oracle(space, Z1, Z2), rel=1e-12)

    def test_indefinite_gram_is_domain_error(self, cp1_dual):
        # a point that got past the boundary check still fails as a DomainError
        p = ChartPoint(cp1_dual, [[0.5]])
        object.__setattr__(p, "Z", np.array([[1.2 + 0j]]))
        with pytest.raises(DomainError, match="outside the bounded domain"):
            frame_of_chart(p)


class TestExp:
    def test_zero(self, g24):
        assert np.allclose(exp0(g24, TangentVector(g24, np.zeros((2, 2)))).Z, 0)

    def test_scalar_compact_is_tan(self, cp1):
        for t in (0.3, 0.7, 1.2):
            z = exp0(cp1, TangentVector(cp1, [[t]])).Z[0, 0]
            assert abs(z - np.tan(t)) < 1e-14

    def test_scalar_noncompact_is_tanh(self, cp1_dual):
        for t in (0.3, 2.0, 5.0):
            z = exp0(cp1_dual, TangentVector(cp1_dual, [[t]])).Z[0, 0]
            assert abs(z - np.tanh(t)) < 1e-14

    def test_diagonal_matches_ode(self, g24):
        B = TangentVector(g24, np.diag([0.4, 0.9]))
        closed = exp0(g24, B)
        assert np.allclose(closed.Z, np.diag([np.tan(0.4), np.tan(0.9)]), atol=1e-12)
        ode = geodesic_ode(g24, B, 1.0, 4000)
        assert np.max(np.abs(ode.Z - closed.Z)) < 1e-8

    def test_tan_pole_raises(self, cp1):
        with pytest.raises(ConjugateToChartError):
            exp0(cp1, TangentVector(cp1, [[np.pi / 2]]))

    @pytest.mark.parametrize("s", [18.0, 20.0, 1000.0])
    def test_noncompact_float64_limit_message(self, g24_dual, s):
        # tanh(s) is within rounding of 1, so Z would sit on the boundary
        with pytest.raises(DomainError, match="float64.*exp0_frame"):
            exp0(g24_dual, TangentVector(g24_dual, np.diag([s, 0.2])))


class TestExpFrame:
    def test_zero(self, g24):
        F = exp0_frame(g24, TangentVector(g24, np.zeros((2, 2))))
        assert np.max(np.abs(F.F - origin_frame(g24).F)) < 1e-12

    def test_reaches_point_missed_by_chart(self, cp1):
        F = exp0_frame(cp1, TangentVector(cp1, [[np.pi / 2]]))
        target = np.array([[0.0], [1.0]])
        assert principal_angles(F.F, target)[0] < 1e-12

    def test_consistency_with_exp0(self, g24, rng):
        for _ in range(100):
            B = random_tangent_rng(g24, rng, max_norm=1.2)
            F1 = frame_of_chart(exp0(g24, B))
            F2 = exp0_frame(g24, B)
            assert np.max(principal_angles(F1.F, F2.F)) < 1e-9

    def test_noncompact_j_orthonormal(self, g24_dual, rng):
        B = random_tangent_rng(g24_dual, rng, max_norm=2.0)
        exp0_frame(g24_dual, B)  # Frame constructor checks the J-Gram


class TestLog:
    def test_zero(self, g24):
        assert np.allclose(log0(g24, zero_point(g24)).B, 0)

    def test_scalar_compact(self, cp1):
        B = log0(cp1, ChartPoint(cp1, [[1.0]])).B[0, 0]
        assert abs(B - np.pi / 4) < 1e-14

    def test_scalar_noncompact(self, cp1_dual):
        B = log0(cp1_dual, ChartPoint(cp1_dual, [[np.tanh(2.0)]])).B[0, 0]
        assert abs(B - 2.0) < 1e-12

    def test_inverse_pair(self, g24, g24_dual, rng):
        for space in (g24, g24_dual):
            for _ in range(20):
                B = random_tangent_rng(space, rng, max_norm=1.4)
                back = log0(space, exp0(space, B))
                assert np.max(np.abs(back.B - B.B)) < 1e-9

    def test_exp_of_log(self, g24, rng):
        for _ in range(10):
            p = random_chart_point_rng(g24, rng)
            again = exp0(g24, log0(g24, p))
            assert np.max(np.abs(again.Z - p.Z)) < 1e-10


def assert_dual_diag_at_1000(Z):
    # geodesic_ode on the dual at B = diag(1000, 0.2), diag(1000, 0.2, 0.1) or
    # diag(1000, 0.2, 0.1, 0.05) (padded with zeros), t = 1, 4000 steps: C is
    # diagonal, so the Jacobi method rotates nothing and each diagonal entry
    # is one scalar run: the k = 1 row's value at 1000, bit for bit, and tanh
    # of the small singular values within 4e-16 (seen 3.1e-16), with every
    # other entry exactly zero
    line = GrassmannSpace(1, 1, -1)
    row = geodesic_ode(line, TangentVector(line, [[1000.0]]), 1.0, 4000).Z[0, 0]
    assert Z[0, 0] == row == 0.9999999999999998
    tail = (0.2, 0.1, 0.05)[: min(Z.shape) - 1]
    for i, s in enumerate(tail, start=1):
        assert abs(Z[i, i] - np.tanh(s)) < 4e-16
    Z = Z.copy()
    np.fill_diagonal(Z, 0.0)
    assert not Z.any()


class TestGeodesicOde:
    def test_zero_stays_zero(self, g24):
        out = geodesic_ode(g24, TangentVector(g24, np.zeros((2, 2))), 1.0, 200)
        assert np.allclose(out.Z, 0)

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_time_is_origin(self, n, eps, rng):
        # h = t / steps = 0 is a valid step: Z(0) = 0 exactly, for every k
        # (one scalar run per eigenvector of C = B B^dagger)
        m = max(n, 3)
        space = GrassmannSpace(n, m, epsilon=eps)
        B = random_tangent_rng(space, rng, max_norm=1.0)
        out = geodesic_ode(space, B, 0.0, 100)
        assert np.array_equal(out.Z, np.zeros((n, m)))

    def test_scalar_closed_form(self, cp1):
        out = geodesic_ode(cp1, TangentVector(cp1, [[1.0]]), 0.7, 4000)
        assert abs(out.Z[0, 0] - np.tan(0.7)) < 1e-8

    def test_matches_exp_both_signs(self, g24, g24_dual, rng):
        for space in (g24, g24_dual):
            for _ in range(5):
                B = random_tangent_rng(space, rng, max_norm=1.0)
                ode = geodesic_ode(space, B, 1.0, 4000)
                closed = exp0(space, B)
                assert np.max(np.abs(ode.Z - closed.Z)) < 1e-6

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_numpy_scalars_reach_the_integrator_as_python_numbers(self, k, eps, monkeypatch):
        # a numpy t or numpy dimensions must not turn every RK4 step into
        # numpy-scalar arithmetic; the endpoint is the same bits
        jacobi, scalar, seen, runs = geometry._rk4_jacobi, geometry._rk4_scalar, [], []

        def spy_jacobi(V, eps_, h, steps):
            seen.append((type(eps_), type(h)))
            return jacobi(V, eps_, h, steps)

        def spy_scalar(*args):
            runs.append(tuple(map(type, args)))
            return scalar(*args)

        monkeypatch.setattr(geometry, "_rk4_jacobi", spy_jacobi)
        monkeypatch.setattr(geometry, "_rk4_scalar", spy_scalar)
        space = GrassmannSpace(k, 3, eps)
        B = random_tangent_rng(space, generator(k), max_norm=1.0)
        want = geodesic_ode(space, B, 1.0, 200).Z
        numpy_space = GrassmannSpace(np.int64(k), np.int64(3), np.int64(eps))
        for sp, t in ((space, np.float64(1.0)), (numpy_space, 1.0)):
            assert np.array_equal(geodesic_ode(sp, TangentVector(sp, B.B), t, 200).Z, want)
        assert seen == [(int, float)] * 3
        assert runs == [(float, int, float, int, float)] * (3 * k)

    def test_step_floor(self, cp1):
        with pytest.raises(PreconditionError):
            geodesic_ode(cp1, TangentVector(cp1, [[1.0]]), 1.0, 50)

    @pytest.mark.parametrize(
        "n, B",
        [
            (1, [[2.0]]),
            (2, np.diag([2.0, 0.3])),
            (3, np.diag([2.0, 0.3, 0.1])),
            (4, np.diag([2.0, 0.3, 0.1, 0.05])),
        ],
    )
    def test_tan_pole_leaves_chart(self, n, B):
        # singular value 2 crosses the tan pole at t = pi/4; Z overflows to
        # inf/NaN between guard checks, which must still count as leaving
        space = GrassmannSpace(n, n, epsilon=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LeftChartError):
                geodesic_ode(space, TangentVector(space, B), 1.0, 4000)

    @pytest.mark.parametrize(
        "n, m",
        [
            pytest.param(2, 2, id="2"),
            pytest.param(2, 3, id="3"),
            pytest.param(3, 3, id="3-3"),
            pytest.param(4, 4, id="4-4"),
        ],
    )
    def test_singular_stage_gram_leaves_chart(self, n, m):
        # a fast noncompact tangent (h |B|_2 = 0.25) must not drive a stage
        # Gram factor singular: one scalar run per eigenvector of C takes each
        # singular value on its own and stays in the chart for every k
        space = GrassmannSpace(n, m, epsilon=-1)
        B = np.zeros((n, m))
        np.fill_diagonal(B, (1000.0, 0.2, 0.1, 0.05)[:n])
        assert_dual_diag_at_1000(geodesic_ode(space, TangentVector(space, B), 1.0, 4000).Z)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_huge_entries_leave_the_chart(self, eps):
        # C = V V^dagger would have entries near 1e200; the run must end in
        # LeftChartError, not OverflowError
        space = GrassmannSpace(3, 4, epsilon=eps)
        B = TangentVector(space, np.full((3, 4), 1e100) + 1e99 * np.eye(3, 4))
        with pytest.raises(LeftChartError):
            geodesic_ode(space, B, 1.0, 200)

    def test_step_cap(self, cp1):
        with pytest.raises(PreconditionError):
            geodesic_ode(cp1, TangentVector(cp1, [[1.0]]), 1.0, geometry.MAX_ODE_STEPS + 1)

    @pytest.mark.parametrize(
        "tail, b, hB",
        [
            pytest.param([0.2], 1000.0, None, id="1000.0-0.25"),
            pytest.param([0.2], 2000.0, "0.5", id="2000.0-0.5"),
            pytest.param([0.2], 4000.0, "1", id="4000.0-1"),
            pytest.param([0.2, 0.1], 1000.0, None, id="k3-1000.0-0.25"),
            pytest.param([0.2, 0.1], 2000.0, "0.5", id="k3-2000.0-0.5"),
            pytest.param([0.2, 0.1], 4000.0, "1", id="k3-4000.0-1"),
            pytest.param([0.2, 0.1, 0.05], 1000.0, None, id="k4-1000.0-0.25"),
            pytest.param([0.2, 0.1, 0.05], 4000.0, "1", id="k4-4000.0-1"),
        ],
    )
    def test_noncompact_failure_names_the_step(self, tail, b, hB):
        # the exact noncompact geodesic stays in the bounded domain, so both
        # failures (a singular stage Gram factor at b = 2000, blow-up at
        # b = 4000) must blame the step h |B|_2 and ask for more steps; every
        # k takes h |B|_2 = 0.25 without failing (hB None), and at 0.5 a
        # stage of the scalar equation at beta = 2000^2 meets
        # 1 + eps beta x^2 = 0
        n = 1 + len(tail)
        space = GrassmannSpace(n, n, epsilon=-1)
        B = TangentVector(space, np.diag([b, *tail]))
        if hB is None:
            assert_dual_diag_at_1000(geodesic_ode(space, B, 1.0, 4000).Z)
            return
        with pytest.raises(LeftChartError, match=rf"integration.* = {hB};.*raise steps"):
            geodesic_ode(space, B, 1.0, 4000)

    def test_initial_velocity_cubic(self, g24, rng):
        # acceleration vanishes at Z = 0, so exp0(hB) - hB = O(h^3)
        B = random_tangent_rng(g24, rng, max_norm=1.0)
        errs = []
        for h in (1e-2, 1e-3):
            z = exp0(g24, TangentVector(g24, h * B.B)).Z
            errs.append(np.linalg.norm(z - h * B.B))
        assert errs[0] < 10 * (1e-2) ** 3
        assert errs[1] < 10 * (1e-3) ** 3


class TestGeodesicOracleIndependence:
    """The RK4 oracle must be able to fail exp0 on its own: it shares no
    formula with the closed form, a wrong eigensolve fails it, and it calls
    no dense linear algebra."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps, name", [(1, "_tan"), (-1, "_tanh")])
    def test_wrong_closed_form_fails_the_comparison(self, n, eps, name, monkeypatch):
        space = GrassmannSpace(n, 3, epsilon=eps)  # k = min(n, m) = n
        B = random_tangent_rng(space, generator(n), max_norm=1.0)
        ode = geodesic_ode(space, B, 1.0, 4000).Z
        assert np.max(np.abs(ode - exp0(space, B).Z)) < 1e-6
        monkeypatch.setattr(geometry, name, np.sin)
        # the oracle does not move with the closed form, the comparison fails
        assert np.array_equal(geodesic_ode(space, B, 1.0, 4000).Z, ode)
        assert np.max(np.abs(ode - exp0(space, B).Z)) > 1e-4

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_reversed_singular_values_fail_the_comparison(self, eps, n, monkeypatch):
        # exp0 pairing ta of the singular values with the wrong singular
        # vectors; the oracle takes no singular value, so it does not move
        space = GrassmannSpace(n, 3, epsilon=eps)  # k = min(n, m) = n
        B = random_tangent_rng(space, generator(n), max_norm=1.0)
        ode = geodesic_ode(space, B, 1.0, 4000).Z
        assert np.max(np.abs(ode - exp0(space, B).Z)) < 1e-6
        original = geometry.apply_spectral

        def reversed_spectral(M, f):
            return original(M, lambda s: f(s[::-1]))

        monkeypatch.setattr(geometry, "apply_spectral", reversed_spectral)
        assert np.array_equal(geodesic_ode(space, B, 1.0, 4000).Z, ode)
        assert np.max(np.abs(ode - exp0(space, B).Z)) > 1e-4

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_wrong_jacobi_rotation_fails_the_comparison(self, k, eps, monkeypatch):
        # a rotation that leaves the phase of a_pq unconjugated no longer
        # diagonalizes C, so the oracle moves away from exp0
        space = GrassmannSpace(k, 5, epsilon=eps)
        B = random_tangent_rng(space, generator(k), max_norm=1.0)
        ode = geodesic_ode(space, B, 1.0, 4000).Z
        assert np.max(np.abs(ode - exp0(space, B).Z)) < 1e-6
        source = inspect.getsource(geometry._jacobi_eigh)
        assert source.count("u.conjugate()") == 1
        namespace = dict(vars(geometry))
        exec(source.replace("u.conjugate()", "u"), namespace)
        monkeypatch.setattr(geometry, "_jacobi_eigh", namespace["_jacobi_eigh"])
        assert np.max(np.abs(geodesic_ode(space, B, 1.0, 4000).Z - exp0(space, B).Z)) > 1e-2

    @pytest.mark.parametrize("eps", [1, -1])
    def test_pair_with_zero_row_is_the_row(self, eps):
        v = np.array([[0.3 + 0.2j, -0.4, 0.1j]])
        pair_space, row_space = GrassmannSpace(2, 3, eps), GrassmannSpace(1, 3, eps)
        pair = geodesic_ode(pair_space, TangentVector(pair_space, np.vstack([v, 0 * v])), 1.0, 4000)
        row = geodesic_ode(row_space, TangentVector(row_space, v), 1.0, 4000)
        assert np.array_equal(pair.Z[:1], row.Z)
        assert not pair.Z[1].any()

    def test_tan_pole_crossing_leaves_the_chart(self, monkeypatch):
        # ||tB||_2 = 1.68 > pi/2: the scalar run of the largest eigenvalue of
        # C crosses a tan pole, and its blow-up check sees it at 100, 400 and
        # 4000 steps.  With that check off, the 100-step run returns a point
        # far outside the chart
        space = GrassmannSpace(4, 4)
        B = random_tangent_rng(space, generator(4), max_norm=1.0).B
        B = TangentVector(space, B * (1.4 / np.linalg.norm(B, 2)))
        for steps in (100, 400, 4000):
            with pytest.raises(LeftChartError, match="left the chart"):
                geodesic_ode(space, B, -1.2, steps)
        monkeypatch.setattr(geometry, "BLOWUP_LIMIT", np.inf)
        assert np.abs(geodesic_ode(space, B, -1.2, 100).Z).max() > 1e8

    def test_complex_row_endpoint_is_parallel_to_b(self):
        line = GrassmannSpace(1, 3)
        B = np.array([[0.5 - 0.3j, 0.2j, -0.4 + 0.1j]])
        Z = geodesic_ode(line, TangentVector(line, B), 1.0, 4000).Z
        ratio = np.vdot(B, Z) / np.vdot(B, B)
        assert np.max(np.abs(Z - ratio * B)) < 1e-12 * np.abs(Z).max()
        # Z = tan(|B|) / |B| B
        beta = np.linalg.norm(B)
        assert abs(ratio - np.tan(beta) / beta) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_dense_linear_algebra(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("geodesic_ode called numpy.linalg")

        refused = (
            "inv", "solve", "svd", "eigh", "eig", "eigvals", "eigvalsh", "qr", "cholesky",
            "det", "lstsq", "pinv",
        )
        for name in refused:
            monkeypatch.setattr(np.linalg, name, refuse)
        called = []

        def spy(name):
            original = getattr(geometry, name)

            def run(*args):
                called.append(name)
                return original(*args)

            monkeypatch.setattr(geometry, name, run)
            return original

        jacobi = spy("_rk4_jacobi")
        spy("_rk4_scalar")
        space = GrassmannSpace(n, 4)  # k = min(n, m) = n
        B = TangentVector(space, np.full((n, 4), 0.3 + 0.1j))
        geodesic_ode(space, B, 1.0, 400)
        assert called == ["_rk4_jacobi"] + ["_rk4_scalar"] * n
        # the dual returns a ChartPoint, whose domain check takes one SVD,
        # so the one path geodesic_ode takes is called on its own
        for eps in (1, -1):
            jacobi(B.B, eps, 1.0 / 400, 400)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_jacobi_eigh_diagonalizes(self, k):
        # generic, repeated, rank-one and spread over 11 decades:
        # C = Q diag(lam) Q^dagger with Q unitary, to rounding of the largest
        # eigenvalue
        rng = np.random.default_rng(k)
        spreads = (np.linspace(1.0, 0.3, k), [1.0] * k, [1.0] + [0.0] * (k - 1), np.logspace(0, -11, k))
        for spread in spreads:
            V = random_unitary(rng, k) @ np.diag(spread) @ random_unitary(rng, k)
            C = V @ V.conj().T
            lam, Q = geometry._jacobi_eigh(C.tolist())
            Q = np.array(Q)
            assert np.abs(Q.conj().T @ Q - np.eye(k)).max() < 1e-15 * k
            assert np.abs((Q * lam) @ Q.conj().T - C).max() < 1e-15 * k
            assert np.allclose(sorted(lam), sorted(np.square(spread)), rtol=1e-8, atol=1e-15)

    def test_jacobi_sweep_cap_raises(self, monkeypatch):
        # a Jacobi run that has not converged is never returned
        C = np.array([[2.0, 1.0 + 1.0j, 0.5], [1.0 - 1.0j, 3.0, 0.2j], [0.5, -0.2j, 1.0]])
        lam, _ = geometry._jacobi_eigh(C.tolist())
        assert np.allclose(sorted(lam), np.linalg.eigvalsh(C), rtol=0, atol=1e-14)
        monkeypatch.setattr(geometry, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalFailure, match="1 sweeps"):
            geometry._jacobi_eigh(C.tolist())

SIZES = [(n, m) for n in range(1, 5) for m in range(1, 5)]


def cholesky_frame(space, Z):
    # [I ; Z^dagger] L^{-dagger} with L L^dagger = I + eps Z Z^dagger
    L = np.linalg.cholesky(np.eye(space.n) + space.epsilon * (Z @ Z.conj().T))
    return np.linalg.solve(L.conj(), raw_frame(ChartPoint(space, Z)).T).T


def distance_oracle(space, Z1, Z2):
    """Principal angles (compact) or arccosh of the J-Gram singular values
    (noncompact) of Cholesky-normalized frames."""
    F1, F2 = cholesky_frame(space, Z1), cholesky_frame(space, Z2)
    J = np.diag([1.0] * space.n + [float(space.epsilon)] * space.m)
    s = np.linalg.svd(F1.conj().T @ J @ F2, compute_uv=False)
    if space.compact:
        theta = np.arccos(np.minimum(s, 1.0))
    else:
        theta = np.arccosh(np.maximum(s, 1.0))
    return float(np.sqrt(np.sum(theta**2)))


def two_svd_distance(space, Z1, Z2):
    """distance as it was before both chart SVDs became one stacked call: one
    full SVD per point, ordered by si[0], with numpy norms."""
    Z1, Z2 = (Z1, Z2) if space.n <= space.m else (Z1.T, Z2.T)
    (Z1, (u1, co1, si1, vh1)), (Z2, (u2, co2, si2, vh2)) = sorted(
        ((Z, geometry._chart_svd(space.epsilon, Z, True)) for Z in (Z1, Z2)),
        key=lambda z: z[1][2][0],
    )
    k, X = len(co1), vh1 @ ((Z2 - Z1).conj().T @ u2 * co2)
    s = np.linalg.svd(np.concatenate([co1[:, None] * X[:k], X[k:]]), compute_uv=False)
    if not space.compact:
        return float(np.linalg.norm(np.arcsinh(s)))
    C = co1[:, None] * (u1.conj().T @ u2) * co2 + si1[:, None] * (vh1[:k] @ vh2[:k].conj().T) * si2
    cos = np.minimum(np.linalg.svd(C, compute_uv=False)[::-1], 1.0)
    theta = np.where(s < np.sqrt(0.5), np.arcsin(np.minimum(s, 1.0)), np.arccos(cos))
    return float(np.linalg.norm(theta))


class TestTransport:
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n, m", SIZES)
    def test_isometry_sending_point_to_origin(self, n, m, eps):
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(100 * n + 10 * m + (eps > 0))
        J = np.diag([1.0] * n + [float(eps)] * m)
        for _ in range(5):
            p = random_chart_point_rng(space, rng)
            g = transport_to_origin(space, p)
            assert np.max(np.abs(g.conj().T @ J @ g - J)) < 1e-13
            moved = g @ cholesky_frame(space, p.Z)
            assert np.max(np.abs(moved[n:])) < 1e-13

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n, m", SIZES)
    def test_distance_is_homogeneous(self, n, m, eps):
        # distance(p1, p2) = distance(O, g p2) for the g that sends p1 to O
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(1000 + 100 * n + 10 * m + (eps > 0))
        for _ in range(5):
            p1, p2 = random_chart_point_rng(space, rng), random_chart_point_rng(space, rng)
            g = transport_to_origin(space, p1)
            moved = chart_of_frame(Frame(space, g @ frame_of_chart(p2).F))
            d = distance(space, p1, p2)
            assert distance(space, zero_point(space), moved) == pytest.approx(d, rel=1e-13)

    def test_origin_fixed(self, g24):
        g = transport_to_origin(g24, zero_point(g24))
        moved = Frame(g24, g @ origin_frame(g24).F)
        assert np.max(principal_angles(moved.F, origin_frame(g24).F)) < 1e-10

    def test_maps_point_to_origin(self, g24, rng):
        p = random_chart_point_rng(g24, rng)
        g = transport_to_origin(g24, p)
        moved = Frame(g24, g @ frame_of_chart(p).F)
        assert np.max(principal_angles(moved.F, origin_frame(g24).F)) < 1e-10

    def test_preserves_principal_angles(self, g24, rng):
        p = random_chart_point_rng(g24, rng)
        g = transport_to_origin(g24, p)
        F1 = random_plane_rng(g24, rng)
        F2 = random_plane_rng(g24, rng)
        before = principal_angles(F1.F, F2.F)
        after = principal_angles((g @ F1.F), (g @ F2.F))
        assert np.max(np.abs(before - after)) < 1e-10

    def test_noncompact_is_j_unitary(self, g24_dual, rng):
        p = random_chart_point_rng(g24_dual, rng)
        g = transport_to_origin(g24_dual, p)
        J = np.diag([1.0, 1.0, -1.0, -1.0])
        assert np.max(np.abs(g.conj().T @ J @ g - J)) < 1e-9
        moved = Frame(g24_dual, g @ frame_of_chart(p).F)
        assert np.max(np.abs(moved.F[2:] @ np.linalg.inv(moved.F[:2]))) < 1e-9


class TestDistance:
    def test_self_distance(self, rng):
        # Z - Z is exactly 0, so no sine is left
        for n, m in SIZES:
            for eps in (1, -1):
                space = GrassmannSpace(n, m, eps)
                p = random_chart_point_rng(space, rng)
                assert distance(space, p, p) == 0.0

    def test_scalar_unit_speed(self, cp1):
        for t in (0.2, 0.8, 1.4):
            d = distance(cp1, zero_point(cp1), ChartPoint(cp1, [[np.tan(t)]]))
            assert abs(d - t) < 1e-12

    def test_symmetry(self, rng):
        # the roles go by norm, not by argument order, so swapping the points changes no bit
        for n, m in SIZES:
            for eps in (1, -1):
                space = GrassmannSpace(n, m, eps)
                for _ in range(50):
                    p1 = random_chart_point_rng(space, rng, 0.6)
                    p2 = random_chart_point_rng(space, rng, 0.6)
                    assert distance(space, p1, p2) == distance(space, p2, p1)

    def test_triangle_inequality(self, g24, rng):
        for _ in range(100):
            a = random_chart_point_rng(g24, rng)
            b = random_chart_point_rng(g24, rng)
            c = random_chart_point_rng(g24, rng)
            dab = distance(g24, a, b)
            dbc = distance(g24, b, c)
            dac = distance(g24, a, c)
            assert dac <= dab + dbc + 1e-9

    def test_noncompact_unit_speed(self, g24_dual, rng):
        B = random_tangent_rng(g24_dual, rng, max_norm=1.0)
        for t in (0.5, 1.5):
            z = exp0(g24_dual, TangentVector(g24_dual, t * B.B))
            d = distance(g24_dual, zero_point(g24_dual), z)
            assert abs(d - t * B.norm) < 1e-8

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n, m", SIZES)
    def test_matches_oracle_off_origin(self, n, m, eps):
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(1000 + 100 * n + 10 * m + (eps > 0))
        for _ in range(5):
            Z1 = random_chart_point_rng(space, rng).Z
            Z2 = random_chart_point_rng(space, rng).Z
            d = distance(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
            assert d == pytest.approx(distance_oracle(space, Z1, Z2), rel=1e-12, abs=1e-12)

    def test_polar_divisor_fallback_line(self, cp1):
        # z = 1 and z = -1 are orthogonal lines in C^2
        d = distance(cp1, ChartPoint(cp1, [[1.0]]), ChartPoint(cp1, [[-1.0]]))
        assert d == pytest.approx(np.pi / 2, abs=1e-14)

    def test_one_full_svd_of_a_stack_of_two(self, monkeypatch):
        # both chart SVDs are one stacked LAPACK call; the other SVDs are thin
        calls = []
        svd = np.linalg.svd

        def counted(M, *args, **kwargs):
            calls.append((M.shape, kwargs.get("full_matrices", True)))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(6)
        for n, m in [(1, 3), (2, 2), (3, 1)]:
            for eps in (1, -1):
                space = GrassmannSpace(n, m, eps)
                p1, p2 = random_chart_point_rng(space, rng), random_chart_point_rng(space, rng)
                calls.clear()
                distance(space, p1, p2)
                assert [shape for shape, full in calls if full] == [(2, min(n, m), max(n, m))]

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 2), (4, 1)])
    def test_matches_two_svd_formula_bit_for_bit(self, n, m, eps):
        space = GrassmannSpace(n, m, eps)
        rng = np.random.default_rng(7 + 10 * n + m)
        for scale in (1e-3, 0.3, 1.0, 1e3):
            Z1 = random_chart_point_rng(space, rng).Z * (scale if eps > 0 else 1.0)
            Z2 = random_chart_point_rng(space, rng).Z
            # -Z1 ties Z1 in norm, so the given order decides the roles
            for A, B in [(Z1, Z2), (Z2, Z1), (Z1, -Z1), (-Z1, Z1), (Z1, Z1 + 1e-7 * Z2)]:
                d = distance(space, ChartPoint(space, A), ChartPoint(space, B))
                assert d == two_svd_distance(space, A, B)

    def test_dual_point_outside_the_domain_is_domain_error(self, g24_dual):
        # a point that got past the boundary check fails in either role
        good, bad = zero_point(g24_dual), ChartPoint(g24_dual, 0.5 * np.eye(2))
        object.__setattr__(bad, "Z", np.diag([1.2 + 0j, 0.1]))
        for p1, p2 in [(good, bad), (bad, good)]:
            with pytest.raises(DomainError, match="outside the bounded domain"):
                distance(g24_dual, p1, p2)

    def test_polar_divisor_fallback_plane(self, g24):
        # one right angle between the first axes, atan 0.5 - atan 0.3 between the second
        d = distance(
            g24, ChartPoint(g24, np.diag([1.0, 0.5])), ChartPoint(g24, np.diag([-1.0, 0.3]))
        )
        expected = np.hypot(np.pi / 2, np.arctan(0.5) - np.arctan(0.3))
        assert d == pytest.approx(expected, abs=1e-14)


class TestChartTransition:
    def test_projective_line_inversion(self, cp1):
        z = 0.8 - 0.3j
        F = frame_of_chart(ChartPoint(cp1, [[z]]))
        out = chart_transition(cp1, F, [1])
        assert abs(out.Z[0, 0] - 1 / z) < 1e-12

    def test_identity_selection_matches_chart(self, g24, rng):
        p = random_chart_point_rng(g24, rng)
        F = frame_of_chart(p)
        out = chart_transition(g24, F, [0, 1])
        assert np.max(np.abs(out.Z - p.Z)) < 1e-10

    def test_distance_chart_independent(self, cp1, rng):
        p1 = random_chart_point_rng(cp1, rng)
        p2 = random_chart_point_rng(cp1, rng)
        d0 = distance(cp1, p1, p2)
        q1 = chart_transition(cp1, frame_of_chart(p1), [1])
        q2 = chart_transition(cp1, frame_of_chart(p2), [1])
        d1 = distance(cp1, q1, q2)
        assert abs(d0 - d1) < 1e-9

    def test_singular_selection(self, g24):
        with pytest.raises(WrongChartError):
            chart_transition(g24, origin_frame(g24), [2, 3])
