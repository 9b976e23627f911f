"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass or fail line so the suite output doubles as
an acceptance report.  All randomness is seeded; every tolerance is stated
inline next to its check.
"""

import functools
import json
import time

import mpmath
import numpy as np
import pytest

from grassgeo import jsonio, kernels
from grassgeo.geometry import (
    distance,
    exp0,
    frame_of_chart,
    geodesic_ode,
    log0,
)
from grassgeo.kernels import (
    EnergySpec,
    cayley_distance,
    coordinate_plane_frame,
    diastasis,
    energy_chart,
    energy_gradient,
    normalized_overlap,
    plucker_embed,
    plucker_overlap_oracle,
)
from grassgeo.linalg import principal_angles
from grassgeo.loci import (
    CartanVector,
    cartan_to_tangent,
    dexp_min_singular,
    tangent_conjugate_times,
)
from grassgeo.sampling import generator, random_chart_point_rng, random_tangent_rng
from grassgeo.spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, origin_frame
from grassgeo.topology import characteristic_report
from conftest import CLI, mp_chart_cosines, run_process

SEED = 987654321


def report(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"criterion {num:2d} [{label}]: FAIL")
                raise
            print(f"criterion {num:2d} [{label}]: PASS")

        return wrapper

    return deco


def zero_point(space):
    return ChartPoint(space, np.zeros((space.n, space.m)))


def random_orthonormal_with_polar_vector(space, rng):
    """A frame whose first column lies in the orthocomplement of the origin."""
    N, n, m = space.N, space.n, space.m
    v = np.zeros(N, dtype=complex)
    v[n:] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v /= np.linalg.norm(v)
    cols = [v]
    while len(cols) < n:
        w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for c in cols:
            w -= np.vdot(c, w) * c
        w /= np.linalg.norm(w)
        cols.append(w)
    return Frame(space, np.column_stack(cols))


@report(1, "exp/ODE equivalence")
def test_criterion_01_exp_ode_equivalence():
    rng = generator(SEED)
    start = time.monotonic()
    worst = 0.0
    total = 0
    configs = [
        (n, m, eps) for eps in (1, -1) for n in (1, 2, 3) for m in (1, 2, 3)
    ]
    while total < 100:
        for n, m, eps in configs:
            if total == 100:
                break
            space = GrassmannSpace(n, m, epsilon=eps)
            B = random_tangent_rng(space, rng, max_norm=1.0)
            ode = geodesic_ode(space, B, 1.0, 4000)
            closed = exp0(space, B)
            worst = max(worst, float(np.max(np.abs(ode.Z - closed.Z))))
            total += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"max entrywise deviation {worst:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds budget"


@report(2, "determinant kernel vs minor expansion")
def test_criterion_02_cauchy_binet_overlap():
    rng = generator(SEED + 2)
    spaces = [
        GrassmannSpace(n, m, 1)
        for n in range(1, 5)
        for m in range(1, 5)
        if n + m <= 8
    ]
    worst = 0.0
    for k in range(200):
        space = spaces[k % len(spaces)]
        z1 = random_chart_point_rng(space, rng)
        z2 = random_chart_point_rng(space, rng)
        ov = normalized_overlap(space, z1, z2).modulus
        oracle = abs(
            plucker_overlap_oracle(frame_of_chart(z1), frame_of_chart(z2))
        )
        worst = max(worst, abs(ov - oracle))
    assert worst < 1e-10, f"max modulus mismatch {worst:.3e}"


@report(3, "cut locus biconditional")
def test_criterion_03_cut_locus():
    rng = generator(SEED + 3)
    spaces = [GrassmannSpace(2, 2, 1), GrassmannSpace(2, 3, 1), GrassmannSpace(3, 3, 1)]
    for k in range(100):
        space = spaces[k % len(spaces)]
        F = random_orthonormal_with_polar_vector(space, rng)
        modulus = abs(plucker_overlap_oracle(origin_frame(space), F))
        assert modulus < 1e-10, f"constructed frame overlap {modulus:.3e}"
        max_angle = principal_angles(origin_frame(space).F, F.F)[-1]
        assert abs(max_angle - np.pi / 2) < 1e-5
    for k in range(1000):
        space = spaces[k % len(spaces)]
        F = frame_of_chart(random_chart_point_rng(space, rng))
        modulus = abs(plucker_overlap_oracle(origin_frame(space), F))
        assert modulus > 1e-6, f"generic frame overlap {modulus:.3e}"


@report(4, "conjugate time spectrum")
def test_criterion_04_conjugate_times():
    rng = generator(SEED + 4)
    spaces = [
        GrassmannSpace(1, 1, 1),
        GrassmannSpace(1, 2, 1),
        GrassmannSpace(2, 1, 1),
        GrassmannSpace(2, 2, 1),
    ]
    ts = np.linspace(3.0 / 200, 3.0, 200)
    for space in spaces:
        for _ in range(5):
            hv = rng.standard_normal(space.rank)
            hv /= np.linalg.norm(hv)
            h = CartanVector(hv)
            B = cartan_to_tangent(space, h)
            scan = np.array([dexp_min_singular(space, B, float(t)) for t in ts])
            threshold = 1e-3 * float(np.median(scan))
            predicted = [c.t for c in tangent_conjugate_times(space, h, 3.0)]
            for t_star in predicted:
                val = dexp_min_singular(space, B, t_star)
                assert val < threshold, (
                    f"{space.n},{space.m}: no dip at predicted t={t_star:.6f} "
                    f"({val:.3e} >= {threshold:.3e})"
                )
            # a dip slightly past the horizon can leak into the last scan
            # points, so the converse check allows predictions just beyond it
            nearby = [c.t for c in tangent_conjugate_times(space, h, 3.05)]
            for t, val in zip(ts, scan):
                if val < threshold:
                    assert any(abs(t - p) < 1e-2 for p in nearby), (
                        f"{space.n},{space.m}: unexplained dip at t={t:.6f}"
                    )

    # projective line: locate the first conjugate parameter to 1e-3
    cp1 = GrassmannSpace(1, 1, 1)
    B1 = cartan_to_tangent(cp1, CartanVector([1.0]))
    fine = np.arange(np.pi / 2 - 0.02, np.pi / 2 + 0.02, 5e-4)
    vals = [dexp_min_singular(cp1, B1, float(t)) for t in fine]
    t_first = float(fine[int(np.argmin(vals))])
    assert abs(t_first - np.pi / 2) < 1e-3

    # projective plane: predicted set {pi/2, pi} and both dips measurable
    cp2 = GrassmannSpace(1, 2, 1)
    B2 = cartan_to_tangent(cp2, CartanVector([1.0]))
    predicted = [c.t for c in tangent_conjugate_times(cp2, CartanVector([1.0]), 3.2)]
    assert np.allclose(predicted, [np.pi / 2, np.pi], atol=1e-12)
    assert dexp_min_singular(cp2, B2, np.pi / 2) < 1e-6
    assert dexp_min_singular(cp2, B2, np.pi) < 1e-6


def cosine_oracle(Z1, Z2):
    """(diastasis, Cayley distance) at 50 digits from the chart cosines c_i:
    D = -2 sum log c_i and Cayley = arccos prod c_i.  No kernel determinant
    enters, so the oracle shares nothing with normalized_overlap."""
    with mpmath.workdps(50):
        c = mp_chart_cosines(1, Z1, Z2)
        D = -2 * mpmath.fsum(mpmath.log(x) for x in c)
        return float(D), float(mpmath.acos(min(mpmath.fprod(c), 1)))


def criterion_05_compact(rng):
    """Deviations over criterion 5's 100 compact pairs: of the identity
    D = -2 log cos(Cayley), and of D and the Cayley distance from
    cosine_oracle."""
    compact = [GrassmannSpace(1, 1, 1), GrassmannSpace(2, 2, 1), GrassmannSpace(2, 3, 1)]
    identity, oracle = [], []
    for k in range(100):
        space = compact[k % len(compact)]
        z1 = random_chart_point_rng(space, rng)
        z2 = random_chart_point_rng(space, rng)
        D = diastasis(space, z1, z2)
        dc = cayley_distance(space, z1, z2)
        D_ref, dc_ref = cosine_oracle(z1.Z, z2.Z)
        identity.append(abs(D + 2 * np.log(np.cos(dc))))
        oracle.append(max(abs(D - D_ref), abs(dc - dc_ref)))
    return np.array(identity), np.array(oracle)


@report(5, "diastasis identities")
def test_criterion_05_diastasis():
    rng = generator(SEED + 5)
    identity, oracle = criterion_05_compact(rng)
    assert identity.max() < 1e-9
    assert oracle.max() < 1e-9

    # hyperbolic identity along rank-one geodesics from the origin
    duals = [GrassmannSpace(1, 1, -1), GrassmannSpace(1, 2, -1),
             GrassmannSpace(2, 2, -1), GrassmannSpace(2, 3, -1)]
    for k in range(50):
        space = duals[k % len(duals)]
        u = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        v = rng.standard_normal(space.m) + 1j * rng.standard_normal(space.m)
        B = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        t = 0.2 + 2.3 * rng.random()
        Z = exp0(space, TangentVector(space, t * B))
        delta = log0(space, Z).norm
        cos_theta = normalized_overlap(space, zero_point(space), Z).modulus
        assert abs(cos_theta * np.cosh(delta) - 1.0) < 1e-9


def test_criterion_05_fails_on_a_wrong_overlap(monkeypatch):
    """A normalized overlap off by a factor 1 + 1e-6 keeps the identity, which
    reads both sides from it, but not the oracle."""
    original = kernels.normalized_overlap

    def scaled(space, z1, z2):
        ov = original(space, z1, z2)
        return kernels.OverlapValue(ov.raw, ov.normalized * (1 + 1e-6))

    monkeypatch.setattr(kernels, "normalized_overlap", scaled)
    identity, oracle = criterion_05_compact(generator(SEED + 5))
    assert identity.max() < 1e-9 < oracle.max()


@report(6, "critical point structure")
def test_criterion_06_morse_structure():
    from itertools import combinations

    rng = generator(SEED + 6)
    for n, m in ((1, 2), (2, 2), (2, 3)):
        space = GrassmannSpace(n, m, 1)
        eps = np.arange(space.N, 0, -1, dtype=float)
        # each coordinate plane, moved to the chart origin by the eps
        # permutation that lists its rows first, must be a critical point
        for S in combinations(range(space.N), n):
            rest = [i for i in range(space.N) if i not in S]
            spec = EnergySpec(eps[list(S) + rest])
            G = energy_gradient(space, spec, zero_point(space))
            assert np.linalg.norm(G) < 1e-8

    space = GrassmannSpace(2, 3, 1)
    spec = EnergySpec(np.arange(5, 0, -1, dtype=float))
    for _ in range(100):
        p = random_chart_point_rng(space, rng)
        assert np.linalg.norm(energy_gradient(space, spec, p)) > 1e-4

    h = 1e-5
    for _ in range(10):
        p = random_chart_point_rng(space, rng)
        G = energy_gradient(space, spec, p)
        Gfd = np.zeros_like(G)
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
                    Gfd[i, j] += d * unit
        rel = np.max(np.abs(G - Gfd)) / np.max(np.abs(G))
        assert rel < 1e-6, f"gradient relative error {rel:.3e}"


@report(7, "seven-way characteristic equality")
def test_criterion_07_seven_numbers():
    for n in range(1, 8):
        for m in range(1, 8 - n + 1):
            spec = EnergySpec(np.arange(n + m, 0, -1, dtype=float))
            rep = characteristic_report(n, m, spec)
            vals = rep.values()
            assert len(set(vals)) == 1, f"({n},{m}): {vals}"


@report(8, "quadric relation on minors")
def test_criterion_08_plucker_relations():
    rng = generator(SEED + 8)
    space = GrassmannSpace(2, 2, 1)
    for _ in range(100):
        p = plucker_embed(
            frame_of_chart(random_chart_point_rng(space, rng))
        ).components
        res = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
        assert abs(res) < 1e-12
    # frames meeting span(e3, e4): the (1,2) minor vanishes and the relation
    # collapses to the two-term slice identity
    for _ in range(100):
        F = random_orthonormal_with_polar_vector(space, rng)
        p = plucker_embed(F).components
        assert abs(p[0]) < 1e-12
        assert abs(p[2] * p[3] - p[1] * p[4]) < 1e-12


@report(9, "unit speed and inversion")
def test_criterion_09_unit_speed_inversion():
    rng = generator(SEED + 9)
    for eps in (1, -1):
        for n, m in ((1, 1), (2, 2), (2, 3)):
            space = GrassmannSpace(n, m, epsilon=eps)
            for _ in range(20):
                B = random_tangent_rng(space, rng, max_norm=1.0)
                direction = TangentVector(space, B.B / B.norm)
                t = 0.1 + 1.1 * rng.random()
                z = exp0(space, TangentVector(space, t * direction.B))
                d = distance(space, zero_point(space), z)
                assert abs(d - t) < 1e-8
            for _ in range(20):
                B = random_tangent_rng(space, rng, max_norm=1.4)
                back = log0(space, exp0(space, B))
                assert np.max(np.abs(back.B - B.B)) < 1e-9


@report(10, "deterministic CLI output")
def test_criterion_10_determinism(tmp_path):
    doc = tmp_path / "b.json"
    doc.write_text(
        json.dumps(jsonio.matrix_to_doc(np.array([[0.2, 0.5], [0.1, -0.3]])))
    )

    json_args = ["exp", "--space", "2", "2", "compact",
                 "--input", str(doc), "--verify"]
    seeded_args = ["plucker", "--space", "2", "2", "compact", "--seed", "42"]
    csv_args = ["conjugate-scan", "--space", "1", "1", "compact",
                "--h", "1.0", "--tmax", "3.0", "--points", "25"]
    for args in (json_args, seeded_args, csv_args):
        first, second = (run_process([*CLI, *args]).stdout for _ in range(2))
        assert first and first == second
