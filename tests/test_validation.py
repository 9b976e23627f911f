"""Validate once: each object built from a caller's array is checked when it is
built, the frames the package builds orthonormal are not checked again, and every
public call checks its arguments' space before it works on their raw arrays."""

import itertools
import sys

import numpy as np
import pytest

from grassgeo import cli, jsonio, kernels, linalg, loci, topology
from grassgeo.errors import (
    ConsistencyError,
    EnumerationSizeError,
    NumericalFailure,
    PreconditionError,
)
from grassgeo.geometry import (
    chart_of_frame,
    chart_transition,
    distance,
    exp0_frame,
    geodesic_ode,
    transport_to_origin,
)
from grassgeo.sampling import (
    generator,
    random_chart_point_rng,
    random_plane_rng,
    random_tangent_rng,
)
from grassgeo.spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, check_enumeration_size
from grassgeo.spaces import coordinate_plane_frame

G24 = GrassmannSpace(2, 2)


def _record_calls(monkeypatch, name):
    """List that records the first argument's shape of each call to the
    linalg function `name`, made from any grassgeo module."""
    calls = []
    original = getattr(linalg, name)

    def counting(F, *args, **kwargs):
        calls.append(np.shape(F))
        return original(F, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("grassgeo") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def gram_checks(monkeypatch):
    """List that records one entry per Gram check run in any grassgeo module."""
    return _record_calls(monkeypatch, "check_gram")


def _count(gram_checks, call):
    gram_checks.clear()
    call()
    return len(gram_checks)


def test_gram_checks_per_call(gram_checks, monkeypatch, tmp_path):
    rng = generator(11)
    p1, p2 = random_chart_point_rng(G24, rng), random_chart_point_rng(G24, rng)
    F = random_plane_rng(G24, rng)
    Q1, Q2 = random_plane_rng(G24, rng).F, F.F
    # distance builds its frames from checked chart points and checks none;
    # the loci calls read the angles with the origin off F's own blocks, so
    # they build and check no frame
    assert _count(gram_checks, lambda: distance(G24, p1, p2)) == 0
    assert _count(gram_checks, lambda: loci.cut_locus_test(G24, F)) == 0
    assert _count(gram_checks, lambda: loci.conjugate_stratum_W(G24, F)) == 0
    assert _count(gram_checks, lambda: loci.conjugate_stratum_I(G24, F)) == 0
    # raw arrays are still checked, both of them
    assert _count(gram_checks, lambda: linalg.principal_angles(Q1, Q2)) == 2
    assert _count(gram_checks, lambda: loci.isoclinic_test(F, F)) == 0
    # the dexp core's frames are orthonormal by construction, on both signs
    for space, B in ((G24, B24), (G24_DUAL, B24_DUAL)):
        assert _count(gram_checks, lambda: loci.dexp_min_singular(space, B, 1.0)) == 0
        grid = np.linspace(0.1, 2.0, 7)
        assert _count(gram_checks, lambda: loci._dexp_scan(space, B, grid)) == 0
    # strata: no check of its seeded frame, built orthonormal, one of a --frame
    # document, and the angles taken once, off its blocks
    angles = _record_calls(monkeypatch, "_angles")
    two_frames = _record_calls(monkeypatch, "_principal_angles")
    strata = ["strata", "--space", "2", "2", "compact", "--seed", "5"]
    assert _count(gram_checks, lambda: cli.main(strata)) == 0
    assert len(angles) == 1 and two_frames == []
    doc = tmp_path / "F.json"
    doc.write_text(jsonio.dumps(jsonio.matrix_to_doc(F.F)))
    strata = ["strata", "--space", "2", "2", "compact", "--frame", str(doc)]
    assert _count(gram_checks, lambda: cli.main(strata)) == 1


G14 = GrassmannSpace(1, 3)
G24_DUAL = GrassmannSpace(2, 2, epsilon=-1)
SPEC = kernels.EnergySpec([4.0, 3.0, 2.0, 1.0])
_rng = generator(5)
F14, F24, F24_DUAL = (random_plane_rng(s, _rng) for s in (G14, G24, G24_DUAL))
P14, P24, P24_DUAL = (random_chart_point_rng(s, _rng) for s in (G14, G24, G24_DUAL))
B24, B24_DUAL = (random_tangent_rng(s, _rng) for s in (G24, G24_DUAL))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: kernels.energy(G24, SPEC, F14), id="energy"),
        pytest.param(lambda: kernels.energy_chart(G24, SPEC, P14), id="energy_chart"),
        pytest.param(lambda: kernels.kernel_frame_oracle(P24, P24_DUAL), id="kernel_frame_oracle"),
        pytest.param(lambda: transport_to_origin(G24, P24_DUAL), id="transport_to_origin"),
        pytest.param(lambda: chart_transition(G24, F14, [0, 1]), id="chart_transition"),
        pytest.param(lambda: loci.dexp_min_singular(G24, B24_DUAL, 1.0), id="dexp_min_singular"),
        pytest.param(lambda: loci.is_conjugate(G24, B24_DUAL, 1.0), id="is_conjugate"),
        pytest.param(lambda: loci.is_conjugate(G24_DUAL, B24, 1.0), id="is_conjugate-dual"),
        pytest.param(lambda: loci.disjoint_union_check(G24, F14), id="disjoint_union_check"),
        pytest.param(lambda: loci.cut_locus_test(G24, F14), id="cut_locus_test"),
        pytest.param(lambda: loci.conjugate_stratum_W(G24, F24_DUAL), id="conjugate_stratum_W"),
        pytest.param(lambda: loci.conjugate_stratum_I(G24, F24_DUAL), id="conjugate_stratum_I"),
        pytest.param(lambda: loci.isoclinic_test(F24, F24_DUAL), id="isoclinic_test"),
    ],
)
def test_rejects_objects_of_another_space(call):
    with pytest.raises(PreconditionError, match="belongs to a different space"):
        call()


G12_DUAL = GrassmannSpace(1, 1, epsilon=-1)
BIG_P24 = ChartPoint(G24, 1e100 * np.eye(2))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: loci.dexp_min_singular(G24, TangentVector(G24, 2 * np.eye(2)), 1e308),
            id="dexp-t-huge",
        ),
        pytest.param(
            lambda: exp0_frame(G12_DUAL, TangentVector(G12_DUAL, [[1e3]])),
            id="exp0_frame-cosh-overflow",
        ),
        pytest.param(lambda: kernels.kernel(G24, BIG_P24, BIG_P24), id="kernel-det-overflow"),
    ],
)
def test_float64_range_ends_in_a_typed_error(call):
    with pytest.raises(PreconditionError):
        call()


def _built_frames():
    """(space, frame) from each of the three builders whose frames Frame does not check:
    frame_of_chart of compact chart points of norm 1e-8 to 1e150 and of dual ones of radius
    up to the largest float below 1, random_plane of seeds 0 to 199 on both signs, and
    every compact coordinate plane of n, m <= 3."""
    from grassgeo.geometry import frame_of_chart
    from grassgeo.sampling import random_plane

    rng = generator(29)
    for n, m in ((1, 1), (1, 3), (2, 2), (3, 2)):
        sp, dual = GrassmannSpace(n, m), GrassmannSpace(n, m, -1)
        G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        for norm in 10.0 ** np.arange(-8, 151, 2):
            yield sp, frame_of_chart(ChartPoint(sp, norm / np.linalg.norm(G) * G))
        # a diagonal Z has its radius exactly; a rotated one up to 1 - 1e-9
        for radius in (0.5, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, np.nextafter(1.0, 0.0)):
            yield dual, frame_of_chart(ChartPoint(dual, radius * np.eye(n, m)))
            if radius <= 1 - 1e-9:
                Z = radius / np.linalg.svd(G, compute_uv=False)[0] * G
                yield dual, frame_of_chart(ChartPoint(dual, Z))
        for space in (sp, dual):
            for seed in range(200):
                yield space, random_plane(space, seed)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            space = GrassmannSpace(n, m)
            for rows in itertools.combinations(range(n + m), n):
                yield space, coordinate_plane_frame(space, rows)


def test_built_frames_pass_the_frame_check():
    # the builders skip Frame's Gram check: what they build would pass it, bit for bit
    count = 0
    for space, built in _built_frames():
        assert built.F.dtype == complex and built.F.shape == (space.N, space.n)
        assert np.array_equal(Frame(space, built.F).F, built.F)
        count += 1
    assert count > 1700


def test_builders_run_no_frame_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise PreconditionError("refused")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("grassgeo") and "check_gram" in vars(module):
            monkeypatch.setattr(module, "check_gram", refuse)
    assert all(built.space is space for space, built in _built_frames())
    # a caller's array, the exp0_frame of a tangent vector and a dual coordinate
    # plane are still checked
    for call in (
        lambda: Frame(G24, np.eye(4)[:, :2]),
        lambda: exp0_frame(G24, B24),
        lambda: coordinate_plane_frame(G24_DUAL, [0, 1]),
    ):
        with pytest.raises(PreconditionError, match="refused"):
            call()


def test_a_dual_coordinate_plane_past_the_origin_is_refused():
    # e_3 has J-norm -1 on the dual of G_2(C^4): the plane of e_1, e_3 is not a point of it
    with pytest.raises(PreconditionError, match="J-orthonormality deviation 2.000e"):
        coordinate_plane_frame(G24_DUAL, [0, 2])


def test_frame_gram_bound_scales_with_the_frame():
    # cosh^2 10 - sinh^2 10 rounds to 1 - 1.5e-8 in float64, far off an
    # absolute 1e-10 but within 1e-10 of the squared column norm 4.9e8; a
    # relative 1e-8 change of one entry moves it to 3.4
    F = np.array([[np.cosh(10.0)], [np.sinh(10.0)]])
    assert Frame(G12_DUAL, F).F.shape == (2, 1)
    with pytest.raises(PreconditionError, match="J-orthonormality deviation 2.426e"):
        Frame(G12_DUAL, F * [[1.0 + 1e-8], [1.0]])


def test_space_stores_python_ints():
    space = GrassmannSpace(np.int64(2), np.int32(3), np.int8(-1))
    assert [type(x) for x in (space.n, space.m, space.epsilon)] == [int, int, int]
    assert space == GrassmannSpace(2, 3, -1)
    for bad in ((2.0, 2, 1), (2, "3", 1), (2, 2, 1.0)):
        with pytest.raises(PreconditionError, match="must be integers"):
            GrassmannSpace(*bad)


@pytest.mark.parametrize(
    "rows, match",
    [
        pytest.param([0, -1], r"must lie in \[0, 4\)", id="negative"),
        pytest.param([0, 4], r"must lie in \[0, 4\)", id="past-N"),
        pytest.param([0, 1.7], "must list integer indices", id="float-1.7"),
        pytest.param([0, 2.9], "must list integer indices", id="float-2.9"),
        pytest.param([0, np.float64(1.0)], "must list integer indices", id="numpy-float"),
        pytest.param([1, 1], "must pick 2 distinct indices", id="repeated"),
        pytest.param([0, 1, 2], "must pick 2 distinct indices", id="too-many"),
        pytest.param(2, "must list integer indices", id="not-a-list"),
    ],
)
def test_row_subsets_are_read_once_and_exactly(rows, match):
    # a negative index, an index past N or a float is refused, not read as
    # another row, a bare IndexError or a truncated index
    for call in (lambda: coordinate_plane_frame(G24, rows), lambda: chart_transition(G24, F24, rows)):
        with pytest.raises(PreconditionError, match=match):
            call()
    assert np.array_equal(coordinate_plane_frame(G24, [np.int64(3), 0]).F[[0, 3]], np.eye(2))


# a call per scalar parameter that reads a float: t, t_max or a tol
SCALAR_READERS = {
    "dexp_min_singular": lambda t: loci.dexp_min_singular(G24, B24, t),
    "is_conjugate": lambda t: loci.is_conjugate(G24, B24, t),
    "tangent_conjugate_times": lambda t: loci.tangent_conjugate_times(
        G24, loci.CartanVector([0.6, 0.8]), t
    ),
    "cut_locus_test": lambda tol: loci.cut_locus_test(G24, F24, tol),
    "disjoint_union_check": lambda tol: loci.disjoint_union_check(G24, F24, tol),
    "schubert_dims": lambda tol: loci.schubert_dims(F24, np.eye(4), tol),
    "rank_tol": lambda tol: linalg.rank_tol(np.eye(2), tol),
}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ChartPoint(G24, [["x"]]), id="ChartPoint-string"),
        pytest.param(lambda: ChartPoint(G24, [[1], [1, 2]]), id="ChartPoint-ragged"),
        pytest.param(lambda: TangentVector(G24, {"a": 1}), id="TangentVector-dict"),
        pytest.param(lambda: TangentVector(G24, [[10**400, 0], [0, 0]]), id="TangentVector-int"),
        pytest.param(lambda: linalg.principal_angles("ab", "cd"), id="principal_angles-strings"),
        pytest.param(lambda: linalg.rank_tol([["x"]]), id="rank_tol-string"),
        pytest.param(lambda: loci.CartanVector([1j]), id="CartanVector-complex"),
        pytest.param(lambda: loci.CartanVector(np.array([1 + 1j])), id="CartanVector-numpy"),
        pytest.param(lambda: kernels.EnergySpec(["a", 1]), id="EnergySpec-string"),
        pytest.param(lambda: kernels.EnergySpec(np.array([1, 2j])), id="EnergySpec-numpy"),
        pytest.param(lambda: loci.SchubertSymbol((0.5, 1.9), 2), id="SchubertSymbol-floats"),
        pytest.param(lambda: loci.SchubertSymbol(("1", "2"), 2), id="SchubertSymbol-strings"),
        pytest.param(lambda: loci.SchubertSymbol((0, 1), 1.5), id="SchubertSymbol-float-bound"),
        pytest.param(
            lambda: loci.schubert_dims(F24, [["x"] * 4] * 4), id="schubert_dims-string-flag"
        ),
        *[
            pytest.param(lambda read=read, bad=bad: read(bad), id=f"{name}-{bad!r}")
            for name, read in SCALAR_READERS.items()
            for bad in ("0.5", None)
        ],
        pytest.param(lambda: geodesic_ode(G24, B24, 1.0, 100.5), id="geodesic_ode-steps-100.5"),
        pytest.param(lambda: geodesic_ode(G24, B24, 1.0, "400"), id="geodesic_ode-steps-'400'"),
        pytest.param(lambda: geodesic_ode(G24, B24, "1", 400), id="geodesic_ode-t-'1'"),
        # refused as input, not blamed on the integration as LeftChartError
        pytest.param(lambda: geodesic_ode(G24, B24, np.nan, 400), id="geodesic_ode-t-nan"),
        pytest.param(lambda: geodesic_ode(G24, B24, -np.inf, 400), id="geodesic_ode-t-inf"),
    ],
)
def test_unreadable_input_is_a_typed_error(call):
    # refused at the constructor or the raw-array boundary, not passed on as a
    # bare ValueError or TypeError, and not truncated (0.5 read as 0, 1j as 0)
    with pytest.raises(PreconditionError):
        call()


P = PreconditionError


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(
            lambda: linalg.as_matrix(np.zeros(3)), P, "2-dimensional", id="as_matrix-1-D"
        ),
        pytest.param(
            lambda: linalg.as_matrix(np.zeros((0, 2))), P, "positive dimensions",
            id="as_matrix-empty",
        ),
        pytest.param(
            lambda: linalg.principal_angles(np.eye(3)[:, :1], np.eye(3)[:, :2]), P,
            "equal shapes",
            id="principal_angles-shapes",
        ),
        pytest.param(
            lambda: loci.SchubertSymbol((), 2), P, "nonempty", id="SchubertSymbol-empty"
        ),
        pytest.param(
            lambda: loci.schubert_dims(F24, np.eye(3)), P, "must be 4x4",
            id="schubert_dims-flag-shape",
        ),
        pytest.param(
            lambda: GrassmannSpace(2, 2, 0), P, "epsilon", id="GrassmannSpace-epsilon-0"
        ),
        pytest.param(lambda: topology.weyl_group_ratio(0, 1), P, ">= 1", id="weyl_group_ratio-0"),
        # topology reads (n, m) through GrassmannSpace: 0 and floats never reach math.comb
        pytest.param(
            lambda: topology.fundamental_rep_dim(0, 1), P, ">= 1", id="fundamental_rep_dim-0"
        ),
        pytest.param(
            lambda: topology.fundamental_rep_dim(2.0, 3), P, "integers",
            id="fundamental_rep_dim-float",
        ),
        pytest.param(
            lambda: topology.euler_characteristic(2.0, 3), P, "integers",
            id="euler_characteristic-float",
        ),
        pytest.param(
            lambda: topology.schubert_cells(1.5, 2), P, "integers", id="schubert_cells-float"
        ),
        pytest.param(lambda: jsonio.dumps(None), P, "NoneType", id="dumps-None"),
        # an int past the float range is refused, not left to a bare OverflowError
        *[
            pytest.param(
                lambda read=SCALAR_READERS[name]: read(10**400), P, "must be positive and finite",
                id=f"{name}-10**400",
            )
            for name in ("tangent_conjugate_times", "cut_locus_test", "schubert_dims", "rank_tol")
        ],
        # exact integers that grow with n m: refused before the products, not left to run
        # for seconds (fundamental_rep_dim(400, 400) took 6.9 s)
        *[
            pytest.param(
                lambda route=route: route(400, 400), EnumerationSizeError,
                "of size 160000 exceeds 40000",
                id=f"{route.__name__}-400",
            )
            for route in (topology.fundamental_rep_dim, topology.weyl_group_ratio)
        ],
        # C(200000, 100000) has 60204 digits: refused without computing or printing it
        pytest.param(
            lambda: topology.schubert_cells(100000, 100000), EnumerationSizeError,
            "cell enumeration of size over 4300 digits exceeds 1000000",
            id="schubert_cells-100000",
        ),
    ],
)
def test_library_only_typed_errors(call, error, match):
    # no CLI command reaches these checks
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize(
    "count, choose, size",
    [
        pytest.param(3432, None, "3432", id="3432"),
        pytest.param(14, 7, "3432", id="C(14,7)"),
        pytest.param(10**4300 - 1, None, "9" * 4300, id="4300-digits"),
        pytest.param(10**4300 - 1, 1, "9" * 4300, id="C(4300-digits,1)"),
        pytest.param(10**4300, None, "over 4300 digits", id="4301-digits"),
        pytest.param(10**4300, 1, "over 4300 digits", id="C(4301-digits,1)"),
    ],
)
def test_a_refusal_prints_its_count_in_full_up_to_4300_digits(count, choose, size):
    # what printed before keeps its bytes; Python turns no longer int into text
    with pytest.raises(EnumerationSizeError) as refusal:
        check_enumeration_size(count, "cells", 2000, choose=choose)
    assert str(refusal.value) == f"cells of size {size} exceeds 2000"


def test_an_admitted_binomial_is_returned():
    assert check_enumeration_size(14, "cells", 3432, choose=7) == 3432
    assert check_enumeration_size(14, "cells", 3432, choose=0) == 1
    with pytest.raises(EnumerationSizeError, match="cells of size 3432 exceeds 3431"):
        check_enumeration_size(14, "cells", 3431, choose=7)


@pytest.mark.parametrize("tol", [1.0, 2.0, np.inf])
def test_rank_tolerance_lies_below_one(tol):
    # from tol = 1 on, s > tol max(1, s_0) counts no singular value: rank_tol(I_3, 2) was 0
    for call in (
        lambda: linalg.rank_tol(np.eye(3), tol),
        lambda: loci.schubert_dims(F24, np.eye(4), tol),
    ):
        with pytest.raises(PreconditionError, match="below 1"):
            call()


def test_schubert_dims_outside_their_range_are_refused():
    # at tol 0.9 the flag's own directions drop out of the ranks: dims [2, 3, 3, 4]
    # on G_2(C^4), where dim(X intersect C^1) is at most 1
    F = random_plane_rng(G24, generator(0))
    assert loci.schubert_dims(F, np.eye(4)) == [0, 0, 1, 2]
    message = r"C\^1\) = 2 at rank tolerance 0.9 lies outside \[0, 1\]"
    with pytest.raises(ConsistencyError, match=message):
        loci.schubert_dims(F, np.eye(4), 0.9)


def test_isoclinic_takes_angles_once(monkeypatch, capsys):
    angles = _record_calls(monkeypatch, "_principal_angles")
    cli.main(["isoclinic", "--space", "2", "2", "compact", "--seed1", "1", "--seed2", "2"])
    assert len(angles) == 1
    assert '"isoclinic"' in capsys.readouterr().out


def test_lapack_svd_failure_is_numerical_failure(monkeypatch):
    """Every SVD the package takes, on the inputs below built beforehand,
    turns a LAPACK failure into NumericalFailure."""
    F = random_plane_rng(G24, generator(3))
    Q1, Q2 = F24.F, F.F
    calls = {
        "exp0_frame": lambda: exp0_frame(G24, B24),
        "dexp_min_singular": lambda: loci.dexp_min_singular(G24, B24, 1.0),
        "distance": lambda: distance(G24, P24, P24),
        "distance-dual": lambda: distance(G24_DUAL, P24_DUAL, P24_DUAL),
        "chart_of_frame": lambda: chart_of_frame(F),
        "chart_transition": lambda: chart_transition(G24, F, [1, 3]),
        "disjoint_union_check": lambda: loci.disjoint_union_check(G24, F),
        "principal_angles": lambda: linalg.principal_angles(Q1, Q2),
        "ChartPoint-dual": lambda: ChartPoint(G24_DUAL, P24_DUAL.Z),
        "sampling": lambda: random_chart_point_rng(G24, generator(3)),
        "rank_tol": lambda: linalg.rank_tol(Q1),
    }

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    for name, call in calls.items():
        with pytest.raises(NumericalFailure, match="SVD did not converge"):
            call()


def test_as_matrix_passes_per_call(monkeypatch):
    """Entries are checked where an object is built or a raw array comes in;
    the SVDs taken on the package's own arrays check nothing again."""
    rng = generator(11)
    p1, p2 = random_chart_point_rng(G24, rng), random_chart_point_rng(G24, rng)
    F = random_plane_rng(G24, rng)
    Q1, Q2 = random_plane_rng(G24, rng).F, F.F
    checks = _record_calls(monkeypatch, "as_matrix")
    # none for distance, whose frames are raw arrays, nor for
    # cut_locus_test, which reads F's blocks; the chart point or tangent
    # vector each call builds; the two raw frames
    assert _count(checks, lambda: distance(G24, p1, p2)) == 0
    assert _count(checks, lambda: distance(G24_DUAL, P24_DUAL, P24_DUAL)) == 0
    assert _count(checks, lambda: loci.cut_locus_test(G24, F)) == 0
    assert _count(checks, lambda: ChartPoint(G24_DUAL, P24_DUAL.Z)) == 1
    assert _count(checks, lambda: loci.dexp_min_singular(G24, B24, 1.0)) == 1
    assert _count(checks, lambda: chart_of_frame(F)) == 1
    assert _count(checks, lambda: loci.disjoint_union_check(G24, F)) == 1
    assert _count(checks, lambda: chart_transition(G24, F, [1, 3])) == 1
    assert _count(checks, lambda: linalg.principal_angles(Q1, Q2)) == 2
