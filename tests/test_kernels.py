import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassgeo import kernels, spaces
from grassgeo.errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    EnumerationSizeError,
    DiastasisUndefinedError,
    PreconditionError,
    UnsupportedSpaceError,
)
from grassgeo.geometry import CHART_SINGULAR_TOL, _pair_angles, chart_of_frame
from grassgeo.geometry import frame_of_chart, transport_to_origin
from grassgeo.kernels import (
    EnergySpec,
    cayley_distance,
    coordinate_plane_frame,
    critical_points,
    diastasis,
    energy,
    energy_chart,
    energy_gradient,
    kernel,
    kernel_frame_oracle,
    normalized_overlap,
    plucker_embed,
    plucker_overlap_oracle,
)
from grassgeo.spaces import ChartPoint, Frame, GrassmannSpace, origin_frame
from conftest import random_chart_point_rng, random_plane_rng, random_unitary


def zero_point(space):
    return ChartPoint(space, np.zeros((space.n, space.m)))


class TestKernel:
    def test_origin_overlap_is_one(self, g24, rng):
        z = random_chart_point_rng(g24, rng)
        assert kernel(g24, zero_point(g24), z) == pytest.approx(1.0)

    def test_scalar_row_case(self):
        sp = GrassmannSpace(1, 2, 1)
        z1 = ChartPoint(sp, [[0.3 + 0.1j, -0.2j]])
        z2 = ChartPoint(sp, [[0.5, 0.4 - 0.3j]])
        expected = 1 + (z1.Z @ z2.Z.conj().T)[0, 0]
        assert kernel(sp, z1, z2) == pytest.approx(expected)

    def test_matches_raw_frame_gram(self, g24, rng):
        for _ in range(20):
            z1 = random_chart_point_rng(g24, rng)
            z2 = random_chart_point_rng(g24, rng)
            assert abs(kernel(g24, z1, z2) - kernel_frame_oracle(z1, z2)) < 1e-12

    def test_hermitian_symmetry(self, g24, g24_dual, rng):
        for space in (g24, g24_dual):
            z1 = random_chart_point_rng(space, rng)
            z2 = random_chart_point_rng(space, rng)
            assert abs(kernel(space, z1, z2) - np.conj(kernel(space, z2, z1))) < 1e-12

    def test_diagonal_kernel_at_least_one(self, g24, g24_dual, rng):
        for space in (g24, g24_dual):
            z = random_chart_point_rng(space, rng)
            assert kernel(space, z, z).real >= 1.0


class TestStackedKernels:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_per_pair_det_bit_for_bit(self, eps):
        # the stacked product and det give what det(I + eps Z1 Z2^dagger) of
        # each pair on its own gives, to the last bit
        rng = np.random.default_rng(8)
        for n in range(1, 4):
            for m in range(1, 4):
                space = GrassmannSpace(n, m, eps)
                points = [random_chart_point_rng(space, rng) for _ in range(3)]
                pairs = [(a, b) for a in points for b in points]
                for pair, value in zip(pairs, kernels._kernels(space, *pairs)):
                    Z1, Z2 = pair[0].Z, pair[1].Z
                    d = complex(np.linalg.det(np.eye(n) + eps * (Z1 @ Z2.conj().T)))
                    assert value == (d if eps > 0 else 1.0 / d)

    @pytest.mark.parametrize("name", ["normalized_overlap", "diastasis", "cayley_distance"])
    def test_one_det_call(self, name, monkeypatch):
        calls = []
        det = np.linalg.det

        def counted(G):
            calls.append(G.shape)
            return det(G)

        monkeypatch.setattr(np.linalg, "det", counted)
        rng = np.random.default_rng(9)
        for eps in (1, -1) if name != "cayley_distance" else (1,):
            space = GrassmannSpace(2, 3, eps)
            z1, z2 = random_chart_point_rng(space, rng), random_chart_point_rng(space, rng)
            calls.clear()
            getattr(kernels, name)(space, z1, z2)
            assert calls == [(3, 2, 2)]


@st.composite
def near_pairs(draw):
    """(space, Z1, Z2) with n, m <= 3, both signs, Z2 - Z1 of relative size
    1e-12 to 1e-3; dual points keep spectral norm below 0.96."""
    n, m, eps = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([1, -1]))
    parts = st.floats(-1.0, 1.0)
    Z1, D = (
        np.array([[complex(draw(parts), draw(parts)) for _ in range(m)] for _ in range(n)])
        for _ in range(2)
    )
    Z1 = Z1 * (10.0 ** draw(st.floats(-2.0, 2.0)) if eps > 0 else 0.95 / math.sqrt(2 * n * m))
    scale = 10.0 ** draw(st.floats(-12.0, -3.0)) * max(1e-300, np.abs(Z1).max())
    return GrassmannSpace(n, m, eps), Z1, Z1 + scale * D


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(near_pairs())
def test_diastasis_is_never_negative(pair):
    # |overlap| <= 1 by Cauchy-Schwarz, but its rounding can pass 1 for near points
    space, Z1, Z2 = pair
    D = diastasis(space, ChartPoint(space, Z1), ChartPoint(space, Z2))
    assert D >= 0.0 and math.copysign(1.0, D) == 1.0


class TestNormalizedOverlap:
    def test_self_overlap(self, g24, g24_dual, rng):
        for space in (g24, g24_dual):
            z = random_chart_point_rng(space, rng)
            assert normalized_overlap(space, z, z).modulus == pytest.approx(1.0)

    def test_compact_scalar_cosine(self, cp1):
        for t in (0.3, 0.9, 1.3):
            ov = normalized_overlap(cp1, zero_point(cp1), ChartPoint(cp1, [[np.tan(t)]]))
            assert abs(ov.modulus - np.cos(t)) < 1e-12

    def test_noncompact_scalar_sech(self, cp1_dual):
        # cos(theta) = 1/cosh(delta) along the hyperbolic geodesic
        for t in (0.5, 1.5, 3.0):
            ov = normalized_overlap(
                cp1_dual, zero_point(cp1_dual), ChartPoint(cp1_dual, [[np.tanh(t)]])
            )
            assert abs(ov.modulus - 1 / np.cosh(t)) < 1e-12

    def test_modulus_bounded(self, g24, rng):
        for _ in range(50):
            z1 = random_chart_point_rng(g24, rng)
            z2 = random_chart_point_rng(g24, rng)
            assert normalized_overlap(g24, z1, z2).modulus <= 1 + 1e-12

    def test_transport_invariance(self, g24, rng):
        base = random_chart_point_rng(g24, rng, 0.5)
        g = transport_to_origin(g24, base)
        z1 = random_chart_point_rng(g24, rng, 0.5)
        z2 = random_chart_point_rng(g24, rng, 0.5)
        before = normalized_overlap(g24, z1, z2).modulus
        from grassgeo.geometry import chart_of_frame

        w1 = chart_of_frame(Frame(g24, g @ frame_of_chart(z1).F))
        w2 = chart_of_frame(Frame(g24, g @ frame_of_chart(z2).F))
        after = normalized_overlap(g24, w1, w2).modulus
        assert abs(before - after) < 1e-10


class TestCayleyDiastasis:
    def test_cayley_self(self, g24, rng):
        z = random_chart_point_rng(g24, rng)
        assert cayley_distance(g24, z, z) < 1e-7

    def test_cayley_scalar(self, cp1):
        d = cayley_distance(cp1, zero_point(cp1), ChartPoint(cp1, [[1.0]]))
        assert abs(d - np.pi / 4) < 1e-12

    def test_cayley_orthogonal_is_right_angle(self):
        # frames of the hyperplane z_0 = 0 in CP^2 sit at Cayley distance pi/2
        sp = GrassmannSpace(1, 2, 1)
        F0 = origin_frame(sp)
        Fh = Frame(sp, np.array([[0.0], [1.0], [0.0]], dtype=complex))
        assert abs(abs(plucker_overlap_oracle(F0, Fh))) < 1e-14

    def test_cayley_noncompact_unsupported(self, cp1_dual):
        z = zero_point(cp1_dual)
        with pytest.raises(UnsupportedSpaceError):
            cayley_distance(cp1_dual, z, z)

    def test_diastasis_self(self, g24, rng):
        z = random_chart_point_rng(g24, rng)
        assert diastasis(g24, z, z) < 1e-12

    def test_diastasis_scalar(self, cp1):
        for z in (0.5, 1.5):
            d = diastasis(cp1, zero_point(cp1), ChartPoint(cp1, [[z]]))
            assert abs(d - np.log(1 + z**2)) < 1e-12

    def test_diastasis_cayley_identity(self, g24, rng):
        for _ in range(100):
            z1 = random_chart_point_rng(g24, rng)
            z2 = random_chart_point_rng(g24, rng)
            D = diastasis(g24, z1, z2)
            dc = cayley_distance(g24, z1, z2)
            assert abs(D + 2 * np.log(np.cos(dc))) < 1e-9

    def test_diastasis_undefined_on_polar_divisor(self, g24):
        # planes spanned by {e1, e3} and {e2, e4} overlap to zero yet both
        # admit chart coordinates after a small rotation; build the exact
        # mutually polar pair through chart points of a 1x1 sub-block
        z1 = ChartPoint(g24, np.array([[1e9, 0.0], [0.0, 1e9]]))
        z2 = ChartPoint(g24, np.array([[-1e-9, 0.0], [0.0, -1e-9]]))
        with pytest.raises(DiastasisUndefinedError):
            diastasis(g24, z1, z2)


def _pair_at_cosine(rng, space, cosine):
    """Chart points of two compact planes whose smallest cosine is `cosine`, the other
    min(n, m) - 1 cosines drawn in [1/2, 1], so their product stays above 1e-12 when
    `cosine` does: O and a plane built with those cosines with O, both turned by one
    random unitary of C^{n+m}, which keeps the angles."""
    n, m, r = space.n, space.m, space.rank
    c = np.ones(n)
    c[:r] = np.concatenate([[cosine], rng.uniform(0.5, 1.0, r - 1)])
    U, Vh, Q = random_unitary(rng, n), random_unitary(rng, n), random_unitary(rng, m)
    F2 = np.vstack([(U * c) @ Vh, (Q[:, :r] * np.sqrt(1.0 - c[:r] ** 2)) @ Vh[:r]])
    g = random_unitary(rng, space.N)
    return [chart_of_frame(Frame(space, g @ F)) for F in (origin_frame(space).F, F2)]


class TestDiastasisDomain:
    """Compact D(Z1, Z2) is undefined exactly where Z2's plane leaves Z1's chart: where the
    smallest cosine of their angles is below CHART_SINGULAR_TOL, as for the chart map."""

    def test_undefined_iff_smallest_cosine_iff_plucker_oracle(self):
        rng = np.random.default_rng(32)
        for n in range(1, 4):
            for m in range(1, 4):
                space = GrassmannSpace(n, m, 1)
                # I + Z1 Z2^dagger = I - E E^dagger, E = eye(n, m): min(n, m) zero cosines
                polar = [ChartPoint(space, s * np.eye(n, m)) for s in (2.0, -0.5)]
                cases = [(0.0, polar)] + [(c, _pair_at_cosine(rng, space, c))
                                          for c in (0.0, 1e-13, 1e-11) for _ in range(3)]
                for cosine, pair in cases:
                    oracle = abs(plucker_overlap_oracle(*map(frame_of_chart, pair)))
                    for z1, z2 in (pair, pair[::-1]):
                        try:
                            D = diastasis(space, z1, z2)
                        except DiastasisUndefinedError:
                            D = None
                        smallest = _pair_angles(1, z1.Z, z2.Z)[1][-1]
                        found = (D is None, smallest < CHART_SINGULAR_TOL,
                                 oracle < CHART_SINGULAR_TOL)
                        assert found == (cosine < 1e-12,) * 3, (n, m, cosine)
                        assert D is None or D > 50.0  # -2 log 1e-11 = 50.66


class TestPlucker:
    def test_enumeration_bounded(self, g24, monkeypatch):
        monkeypatch.setattr(spaces, "MAX_CELLS", 6)
        assert plucker_embed(origin_frame(g24)).components.size == 6
        monkeypatch.setattr(spaces, "MAX_CELLS", 5)
        with pytest.raises(EnumerationSizeError):
            plucker_embed(origin_frame(g24))

    def test_entry_count_bounded(self, g24, monkeypatch):
        # the stacked minors of G_2(C^4) hold C(4, 2) * 2 * 2 = 24 entries
        monkeypatch.setattr(kernels, "MAX_PLUCKER_ENTRIES", 24)
        assert plucker_embed(origin_frame(g24)).components.size == 6
        monkeypatch.setattr(kernels, "MAX_PLUCKER_ENTRIES", 23)
        with pytest.raises(EnumerationSizeError, match="entries of size 24 exceeds 23"):
            plucker_embed(origin_frame(g24))

    def test_origin_components(self, g24):
        pv = plucker_embed(origin_frame(g24))
        assert abs(pv.components[0] - 1.0) < 1e-14
        assert np.max(np.abs(pv.components[1:])) < 1e-14

    def test_three_term_relation(self, g24, rng):
        for _ in range(100):
            F = random_plane_rng(g24, rng)
            p = plucker_embed(F).components
            # lexicographic subsets: 12, 13, 14, 23, 24, 34
            res = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
            assert abs(res) < 1e-12

    def test_cauchy_binet(self, g24, rng):
        F1 = random_plane_rng(g24, rng)
        F2 = random_plane_rng(g24, rng)
        p1 = plucker_embed(F1).components
        p2 = plucker_embed(F2).components
        ip = np.vdot(p1, p2)
        det = np.linalg.det(F1.F.conj().T @ F2.F)
        assert abs(ip - det) < 1e-12

    def test_oracle_self_and_orthogonal(self, g24):
        F = origin_frame(g24)
        assert plucker_overlap_oracle(F, F) == pytest.approx(1.0)
        G = coordinate_plane_frame(g24, (2, 3))
        assert abs(plucker_overlap_oracle(F, G)) < 1e-14

    def test_oracle_matches_kernel(self, g24, rng):
        for _ in range(200):
            z1 = random_chart_point_rng(g24, rng)
            z2 = random_chart_point_rng(g24, rng)
            ov = normalized_overlap(g24, z1, z2).modulus
            orc = abs(plucker_overlap_oracle(frame_of_chart(z1), frame_of_chart(z2)))
            assert abs(ov - orc) < 1e-10


class TestEnergy:
    def test_origin_value(self, g24):
        spec = EnergySpec([4.0, 3.0, 2.0, 1.0])
        assert energy(g24, spec, origin_frame(g24)) == pytest.approx(7.0)

    def test_coordinate_plane_subset_sums(self, g24):
        spec = EnergySpec([4.0, 3.0, 2.0, 1.0])
        from itertools import combinations

        for S in combinations(range(4), 2):
            F = coordinate_plane_frame(g24, S)
            assert energy(g24, spec, F) == pytest.approx(sum(spec.eps[list(S)]))

    def test_gauge_invariance(self, g24, rng):
        spec = EnergySpec([4.0, 3.0, 2.0, 1.0])
        F = random_plane_rng(g24, rng)
        U = random_unitary(rng, 2)
        from grassgeo.spaces import Frame

        assert abs(
            energy(g24, spec, F) - energy(g24, spec, Frame(g24, F.F @ U))
        ) < 1e-12

    def test_value_bounds(self, g24, rng):
        spec = EnergySpec([4.0, 3.0, 2.0, 1.0])
        for _ in range(20):
            v = energy(g24, spec, random_plane_rng(g24, rng))
            assert 1.0 + 2.0 - 1e-12 <= v <= 4.0 + 3.0 + 1e-12

    def test_chart_energy_agrees_with_frame_energy(self, g24, rng):
        spec = EnergySpec([4.0, 3.0, 2.0, 1.0])
        p = random_chart_point_rng(g24, rng)
        assert energy_chart(g24, spec, p) == pytest.approx(
            energy(g24, spec, frame_of_chart(p))
        )

    @pytest.mark.parametrize("Z", [[[1e20], [1e9]], [[1e150], [1e150]]])
    def test_chart_energy_at_large_entries(self, Z):
        # entries far apart in scale, or at the entry limit: I + Z Z^dagger
        # rounds its identity away in float64.  The oracle evaluates
        # tr((A1 + Z A2 Z^T)(I + Z Z^T)^{-1}) with 360 digits, which keep that
        # identity next to |Z|^2 <= 2e300 and leave the value right to 50 digits.
        space, spec = GrassmannSpace(2, 1), EnergySpec([3.0, 2.0, 1.0])
        p = ChartPoint(space, Z)
        with mpmath.workdps(360):
            Zm = mpmath.matrix(Z)
            M = mpmath.diag([3, 2]) + Zm * mpmath.matrix([[1]]) * Zm.T
            value = M * (mpmath.eye(2) + Zm * Zm.T) ** -1
            exact = value[0, 0] + value[1, 1]
        assert 3.0 <= exact <= 5.0
        assert energy_chart(space, spec, p) == pytest.approx(float(exact), rel=1e-14)
        assert np.all(np.isfinite(energy_gradient(space, spec, p)))

    @pytest.mark.parametrize("fn", [energy_chart, energy_gradient])
    def test_chart_energy_guards(self, fn, g24, g24_dual):
        # the guards of energy: the dual is unsupported, eps has length n + m
        Z = 0.3 * np.eye(2)
        with pytest.raises(UnsupportedSpaceError):
            fn(g24_dual, EnergySpec([4.0, 3.0, 2.0, 1.0]), ChartPoint(g24_dual, Z))
        with pytest.raises(PreconditionError, match="length 4"):
            fn(g24, EnergySpec([3.0, 2.0, 1.0]), ChartPoint(g24, Z))


class TestEnergyGradient:
    SPEC = EnergySpec([4.0, 3.0, 2.0, 1.0])

    def finite_difference(self, space, spec, p, h=1e-5):
        G = np.zeros((space.n, space.m), dtype=complex)
        for i in range(space.n):
            for j in range(space.m):
                for unit in (1.0, 1.0j):
                    Zp, Zm = p.Z.copy(), p.Z.copy()
                    Zp[i, j] += unit * h
                    Zm[i, j] -= unit * h
                    d = (
                        energy_chart(space, spec, ChartPoint(space, Zp))
                        - energy_chart(space, spec, ChartPoint(space, Zm))
                    ) / (2 * h)
                    G[i, j] += d * (1.0 if unit == 1.0 else 1.0j)
        return G

    def test_zero_at_origin(self, g24):
        G = energy_gradient(g24, self.SPEC, zero_point(g24))
        assert np.max(np.abs(G)) < 1e-14

    def test_matches_finite_differences(self, g24, rng):
        for _ in range(10):
            p = random_chart_point_rng(g24, rng)
            G = energy_gradient(g24, self.SPEC, p)
            Gfd = self.finite_difference(g24, self.SPEC, p)
            rel = np.max(np.abs(G - Gfd)) / max(1.0, np.max(np.abs(G)))
            assert rel < 1e-6

    def test_nonzero_at_generic_point(self, g24, rng):
        p = random_chart_point_rng(g24, rng)
        assert np.linalg.norm(energy_gradient(g24, self.SPEC, p)) > 1e-4


class TestCriticalPoints:
    def test_projective_line(self, cp1):
        pts = critical_points(cp1, EnergySpec([2.0, 1.0]))
        assert len(pts) == 2
        assert sorted(v for _, _, v in pts) == [1.0, 2.0]

    def test_g2c4_count(self, g24):
        pts = critical_points(g24, EnergySpec([4.0, 3.0, 2.0, 1.0]))
        assert len(pts) == 6

    def test_argmax_selects_largest(self, g24):
        pts = critical_points(g24, EnergySpec([4.0, 3.0, 2.0, 1.0]))
        best = max(pts, key=lambda t: t[2])
        assert best[0] == (0, 1)
        assert best[2] == pytest.approx(7.0)

    def test_repeated_eps_rejected(self, g24):
        with pytest.raises(DegenerateSpectrumError):
            critical_points(g24, EnergySpec([1.0, 1.0, 2.0, 3.0]))

    def test_check_fails_on_non_critical_planes(self, g24, monkeypatch):
        # the per-plane check must test the returned frame itself
        rng = np.random.default_rng(3)
        monkeypatch.setattr(
            kernels, "coordinate_plane_frame", lambda space, S: random_plane_rng(space, rng)
        )
        with pytest.raises(ConsistencyError, match="gradient check"):
            critical_points(g24, EnergySpec([4.0, 3.0, 2.0, 1.0]))

    def test_enumeration_bounded_before_building(self, g24, monkeypatch):
        spec = EnergySpec([4.0, 3.0, 2.0, 1.0])
        monkeypatch.setattr(spaces, "MAX_CELLS", 6)
        assert len(critical_points(g24, spec)) == 6
        monkeypatch.setattr(spaces, "MAX_CELLS", 5)

        def no_plane(space, S):
            raise AssertionError("a plane was built")

        monkeypatch.setattr(kernels, "coordinate_plane_frame", no_plane)
        with pytest.raises(EnumerationSizeError):
            critical_points(g24, spec)
