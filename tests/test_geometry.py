import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from grassgeo import geometry
from grassgeo.errors import (
    ConjugateToChartError,
    DomainError,
    LeftChartError,
    OnPolarDivisorError,
    PreconditionError,
    WrongChartError,
)
from grassgeo.geometry import (
    apply_isometry,
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
from conftest import random_chart_point_rng, random_plane_rng, random_tangent_rng


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


class TestGeodesicOde:
    def test_zero_stays_zero(self, g24):
        out = geodesic_ode(g24, TangentVector(g24, np.zeros((2, 2))), 1.0, 200)
        assert np.allclose(out.Z, 0)

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_time_is_origin(self, n, eps, rng):
        # h = t / steps = 0 is a valid step: Z(0) = 0 exactly, for the row
        # (k = 1), pair (k = 2), triple (k = 3) and block (k = 4) integrators
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
        # a fast noncompact tangent drives a stage Gram matrix singular;
        # that must be a typed error, not numpy's LinAlgError
        space = GrassmannSpace(n, m, epsilon=-1)
        B = np.zeros((n, m))
        np.fill_diagonal(B, (1000.0, 0.2, 0.1, 0.05)[:n])
        with pytest.raises(LeftChartError, match="integration"):
            geodesic_ode(space, TangentVector(space, B), 1.0, 4000)

    def test_step_cap(self, cp1):
        with pytest.raises(PreconditionError):
            geodesic_ode(cp1, TangentVector(cp1, [[1.0]]), 1.0, geometry.MAX_ODE_STEPS + 1)

    @pytest.mark.parametrize(
        "tail, b, hB",
        [
            pytest.param([0.2], 1000.0, "0.25", id="1000.0-0.25"),
            pytest.param([0.2], 4000.0, "1", id="4000.0-1"),
            pytest.param([0.2, 0.1], 1000.0, "0.25", id="k3-1000.0-0.25"),
            pytest.param([0.2, 0.1], 4000.0, "1", id="k3-4000.0-1"),
            pytest.param([0.2, 0.1, 0.05], 1000.0, "0.25", id="k4-1000.0-0.25"),
            pytest.param([0.2, 0.1, 0.05], 4000.0, "1", id="k4-4000.0-1"),
        ],
    )
    def test_noncompact_failure_names_the_step(self, tail, b, hB):
        # the exact noncompact geodesic stays in the bounded domain, so both
        # failures (singular stage Gram matrix at b = 1000, blow-up at
        # b = 4000) must blame the step h |B|_2 and ask for more steps
        n = 1 + len(tail)
        space = GrassmannSpace(n, n, epsilon=-1)
        B = TangentVector(space, np.diag([b, *tail]))
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
    formula with the closed form, its integrators check each other, and
    it calls no dense linear algebra per step."""

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

    @pytest.mark.parametrize("eps", [1, -1])
    def test_row_and_block_integrators_agree(self, eps):
        V = np.array([[0.3 + 0.2j, -0.4, 0.1j]])
        row = geometry._rk4_row(V, eps, 1.0 / 4000, 4000)
        block = geometry._rk4_block(V, eps, 1.0 / 4000, 4000)
        assert np.max(np.abs(row - block)) < 1e-12

    @pytest.mark.parametrize("eps", [1, -1])
    def test_pair_and_block_integrators_agree(self, eps):
        V = np.array([[0.3 + 0.2j, -0.4, 0.1j], [0.2j, 0.1 - 0.3j, 0.5]])
        pair = geometry._rk4_pair(V, eps, 1.0 / 4000, 4000)
        block = geometry._rk4_block(V, eps, 1.0 / 4000, 4000)
        assert np.max(np.abs(pair - block)) < 1e-12

    @pytest.mark.parametrize("eps", [1, -1])
    def test_triple_and_block_integrators_agree(self, eps):
        V = np.array(
            [
                [0.3 + 0.2j, -0.4, 0.1j, 0.2],
                [0.2j, 0.1 - 0.3j, 0.5, -0.1],
                [-0.2, 0.3j, 0.1 + 0.1j, 0.4 - 0.2j],
            ]
        )
        triple = geometry._rk4_triple(V, eps, 1.0 / 4000, 4000)
        block = geometry._rk4_block(V, eps, 1.0 / 4000, 4000)
        assert np.max(np.abs(triple - block)) < 1e-12

    def test_block_residual_notices_tan_pole(self, monkeypatch):
        # ||tB||_2 = 1.68 > pi/2: Z stays below BLOWUP_LIMIT at the sampled
        # steps, so only the carried-H residual sees the run leave the chart
        space = GrassmannSpace(4, 4)
        B = random_tangent_rng(space, generator(4), max_norm=1.0).B
        B = TangentVector(space, B * (1.4 / np.linalg.norm(B, 2)))
        with pytest.raises(LeftChartError, match="residual"):
            geodesic_ode(space, B, -1.2, 4000)
        monkeypatch.setattr(geometry, "H_RESIDUAL_LIMIT", np.inf)
        geodesic_ode(space, B, -1.2, 4000)

    @pytest.mark.parametrize("rk4", ["_rk4_row", "_rk4_block"])
    def test_complex_row_endpoint_is_parallel_to_b(self, rk4):
        B = np.array([[0.5 - 0.3j, 0.2j, -0.4 + 0.1j]])
        Z = getattr(geometry, rk4)(B, 1, 1.0 / 4000, 4000)
        ratio = np.vdot(B, Z) / np.vdot(B, B)
        assert np.max(np.abs(Z - ratio * B)) < 1e-12 * np.abs(Z).max()
        # Z = tan(|B|) / |B| B
        beta = np.linalg.norm(B)
        assert abs(ratio - np.tan(beta) / beta) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_dense_linear_algebra(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("geodesic_ode called numpy.linalg")

        for name in ("inv", "solve", "svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        called = []

        def spy(rk4):
            def run(*args):
                called.append(rk4)
                return rk4(*args)

            return run

        names = ("_rk4_row", "_rk4_pair", "_rk4_triple", "_rk4_block")
        integrators = [getattr(geometry, name) for name in names]
        for name, rk4 in zip(names, integrators):
            monkeypatch.setattr(geometry, name, spy(rk4))
        space = GrassmannSpace(n, 4)  # k = min(n, m) = n
        B = TangentVector(space, np.full((n, 4), 0.3 + 0.1j))
        geodesic_ode(space, B, 1.0, 400)
        assert called == [integrators[n - 1]]
        # the dual returns a ChartPoint, whose domain check takes one SVD,
        # so the integrator geodesic_ode chose is called on its own
        rk4 = called[0]
        for eps in (1, -1):
            rk4(B.B, eps, 1.0 / 400, 400)

    def test_geometry_does_not_import_scipy(self):
        code = "import sys, grassgeo.geometry; sys.exit('scipy' in sys.modules)"
        src = os.path.dirname(os.path.dirname(geometry.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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

    def test_origin_fixed(self, g24):
        g = transport_to_origin(g24, zero_point(g24))
        moved = apply_isometry(g, origin_frame(g24))
        assert np.max(principal_angles(moved.F, origin_frame(g24).F)) < 1e-10

    def test_maps_point_to_origin(self, g24, rng):
        p = random_chart_point_rng(g24, rng)
        g = transport_to_origin(g24, p)
        moved = apply_isometry(g, frame_of_chart(p))
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
        J = g24_dual.j_matrix()
        assert np.max(np.abs(g.conj().T @ J @ g - J)) < 1e-9
        moved = apply_isometry(g, frame_of_chart(p))
        assert np.max(np.abs(moved.F[2:] @ np.linalg.inv(moved.F[:2]))) < 1e-9


class TestDistance:
    def test_self_distance(self, g24, rng):
        p = random_chart_point_rng(g24, rng)
        assert distance(g24, p, p) < 1e-10

    def test_scalar_unit_speed(self, cp1):
        for t in (0.2, 0.8, 1.4):
            d = distance(cp1, zero_point(cp1), ChartPoint(cp1, [[np.tan(t)]]))
            assert abs(d - t) < 1e-12

    def test_symmetry(self, g24, g24_dual, rng):
        for space in (g24, g24_dual):
            p1 = random_chart_point_rng(space, rng, 0.6)
            p2 = random_chart_point_rng(space, rng, 0.6)
            assert abs(distance(space, p1, p2) - distance(space, p2, p1)) < 1e-10

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
