"""The four benchmark workloads: seeded inputs, timed operations, oracle checks.

A workload is built from its seed before anything is timed.  It holds a fixed
schedule of operations; the timed loop cycles through it.  An operation calls
only grassgeo's public functions (through module attributes, so the tracer's
rebinding reaches them) and returns its results.  Its check compares them
with an independent oracle, runs outside the timed region and raises
CheckFailed; the returned float is the worst deviation it saw.

Every schedule is data-independent in the work it does: the same workload
makes the same grassgeo and numpy.linalg calls for every seed.  Where
grassgeo branches on the data, the inputs are stratified so that each slot of
the schedule takes a fixed branch (see pair-sweep).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from grassgeo import cli, geometry, jsonio, kernels, linalg, loci, sampling
from grassgeo.spaces import GrassmannSpace

from hostenv import ROOT, WORK

# tolerances of the acceptance criteria the checks reproduce
EXP_ODE_TOL = 1e-6  # criterion 1
OVERLAP_TOL = 1e-10  # criterion 2
DIASTASIS_TOL = 1e-9  # criterion 5
DISTANCE_TOL = 1e-8  # criterion 9
DIP_FACTOR = 1e-3  # criterion 4: dip below 1e-3 x scan median
DIP_WINDOW = 1e-2  # criterion 4: an observed dip lies this close to a prediction
COSINE_TOL = 1e-10

ODE_STEPS = 4000
SCAN_TMAX = 3.0
SCAN_POINTS = 50
SMALL_ANGLE = np.pi / 4  # principal_angles recomputes angles below this by arcsin
BRANCH_MARGIN = 1e-9


class CheckFailed(Exception):
    """A result disagreed with its oracle."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], float]


@dataclass
class Workload:
    ops: list[Op]
    trace_ops: list[Op]
    in_children: bool = False  # the timed operations run in child processes


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _within(label: str, value: float, oracle: float, tol: float) -> float:
    dev = abs(float(value) - float(oracle))
    _require(dev < tol, f"{label}: deviation {dev:.3e} not below {tol:g}")
    return dev


def _space_label(space: GrassmannSpace) -> str:
    kind = "c" if space.compact else "nc"
    return f"{space.n}x{space.m}{kind}"


# ------------------------------------------------------------ geodesic-oracle

GEODESIC_CONFIGS = [(n, m, eps) for eps in (1, -1) for n in (1, 2, 3) for m in (1, 2, 3)]
GEODESIC_ROUNDS = 4


def _geodesic_op(space, B) -> Op:
    def run():
        closed = geometry.exp0(space, B)
        ode = geometry.geodesic_ode(space, B, 1.0, ODE_STEPS)
        return {"closed": closed.Z, "ode": ode.Z}

    def check(r):
        dev = float(np.max(np.abs(r["ode"] - r["closed"])))
        _require(dev < EXP_ODE_TOL, f"exp0 vs RK4 deviation {dev:.3e}")
        return dev

    return Op(_space_label(space), run, check)


def geodesic_oracle(seed: int, quiet=contextlib.nullcontext) -> Workload:
    """Criterion 1 cross-checks: exp0 against geodesic_ode at t = 1."""
    rng = sampling.generator(seed)
    ops = []
    for _ in range(GEODESIC_ROUNDS):
        for n, m, eps in GEODESIC_CONFIGS:
            space = GrassmannSpace(n, m, eps)
            ops.append(_geodesic_op(space, sampling.random_tangent_rng(space, rng, 1.0)))
    return Workload(ops, ops[: len(GEODESIC_CONFIGS)])


# ------------------------------------------------------------ conjugate-scan

# A scan costs about 4nm exp0_frame calls per point, so latencies cluster by
# space.  G_2(C^4) and G_2(C^5) appear twice: three spaces are cheaper than
# G_2(C^4) and three dearer, so the median lies mid-cluster rather than on
# the edge between two spaces.
SCAN_SPACES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 2), (2, 3), (2, 3), (3, 3)]
SCAN_ROUNDS = 4


def _scan_op(space, h) -> Op:
    ts = np.linspace(SCAN_TMAX / SCAN_POINTS, SCAN_TMAX, SCAN_POINTS)

    def run():
        # the same calls cmd_conjugate_scan makes
        B = loci.cartan_to_tangent(space, h)
        predicted = [c.t for c in loci.tangent_conjugate_times(space, h, SCAN_TMAX)]
        scan = [loci.dexp_min_singular(space, B, float(t)) for t in ts]
        return {"predicted": predicted, "scan": np.array(scan)}

    def check(r):
        scan = r["scan"]
        threshold = DIP_FACTOR * float(np.median(scan))
        B = loci.cartan_to_tangent(space, h)
        worst = 0.0
        for t_star in r["predicted"]:
            val = loci.dexp_min_singular(space, B, float(t_star))
            _require(val < threshold, f"no dip at predicted t={t_star:.6f}")
            worst = max(worst, val)
        nearby = [c.t for c in loci.tangent_conjugate_times(space, h, SCAN_TMAX + 0.05)]
        for t, val in zip(ts, scan):
            if val < threshold:
                _require(
                    any(abs(t - p) < DIP_WINDOW for p in nearby),
                    f"unexplained dip at t={t:.6f}",
                )
        return worst

    return Op(_space_label(space), run, check)


def conjugate_scan(seed: int, quiet=contextlib.nullcontext) -> Workload:
    """Criterion 4 scans: dexp degeneracy on a t-grid against predicted times."""
    rng = sampling.generator(seed)
    ops = []
    for _ in range(SCAN_ROUNDS):
        for n, m in SCAN_SPACES:
            space = GrassmannSpace(n, m, 1)
            hv = rng.standard_normal(space.rank)
            ops.append(_scan_op(space, loci.CartanVector(hv / np.linalg.norm(hv))))
    return Workload(ops, ops[: len(SCAN_SPACES)])


# ------------------------------------------------------------ pair-sweep

PAIR_SPACES = [
    (n, m, eps) for n in range(1, 5) for m in range(1, 5) if n + m <= 8 for eps in (1, -1)
]
PAIR_ROUNDS = 8
PAIR_TRACE_ROUNDS = 2
# candidate pairs drawn per space.  The count is fixed, so set-up makes the
# same calls for every seed.  About one n = 1 pair in five is far, so 96
# candidates miss a far pair with probability below 1e-9; for n >= 2 more
# than 99% of pairs are near.
PAIR_POOL = {1: 96}
PAIR_POOL_DEFAULT = PAIR_ROUNDS + 4


def _orthonormal_basis(Z: np.ndarray) -> np.ndarray:
    n = Z.shape[0]
    return np.linalg.qr(np.vstack([np.eye(n), Z.conj().T]))[0]


def _inv_sqrt(G: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(G)
    return (V / np.sqrt(w)) @ V.conj().T


def hyperbolic_angles(Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Oracle for the noncompact dual: singular values of F1^H J F2 are cosh tau.

    With F = [I; Z^H] (I - Z Z^H)^{-1/2}, F1^H J F2 is the matrix below; the
    distance is the 2-norm of the tau vector.
    """
    n = Z1.shape[0]
    eye = np.eye(n)
    M = _inv_sqrt(eye - Z1 @ Z1.conj().T) @ (eye - Z1 @ Z2.conj().T) @ _inv_sqrt(
        eye - Z2 @ Z2.conj().T
    )
    return np.arccosh(np.maximum(np.linalg.svd(M, compute_uv=False), 1.0))


def _pair_op(space, z1, z2, Q1, Q2) -> Op:
    if space.compact:
        def run():
            ov = kernels.normalized_overlap(space, z1, z2)
            diast = kernels.diastasis(space, z1, z2)
            dist = geometry.distance(space, z1, z2)
            F1, F2 = geometry.frame_of_chart(z1), geometry.frame_of_chart(z2)
            return {
                "overlap": ov.modulus,
                "diastasis": diast,
                "distance": dist,
                "angles": linalg.principal_angles(F1.F, F2.F),
                "cayley": kernels.cayley_distance(space, z1, z2),
                "plucker": abs(kernels.plucker_overlap_oracle(F1, F2)),
                "on_cut": loci.cut_locus_test(space, F2),
            }
    else:
        def run():
            ov = kernels.normalized_overlap(space, z1, z2)
            return {
                "overlap": ov.modulus,
                "diastasis": kernels.diastasis(space, z1, z2),
                "distance": geometry.distance(space, z1, z2),
                "angles": linalg.principal_angles(Q1, Q2),
            }

    def check(r):
        cosines = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
        devs = [
            _within(
                "principal-angle cosines", 0.0,
                np.max(np.abs(np.cos(r["angles"]) - cosines)), COSINE_TOL,
            )
        ]
        if space.compact:
            devs.append(_within("overlap vs Plucker", r["overlap"], r["plucker"], OVERLAP_TOL))
            devs.append(_within(
                "diastasis vs -2 log cos(Cayley)",
                r["diastasis"], -2.0 * np.log(np.cos(r["cayley"])), DIASTASIS_TOL,
            ))
            devs.append(_within(
                "distance vs principal-angle norm",
                r["distance"], np.linalg.norm(r["angles"]), DISTANCE_TOL,
            ))
            # a chart point never meets the polar divisor of the origin
            _require(not r["on_cut"], "chart point reported on the cut locus")
        else:
            tau = hyperbolic_angles(z1.Z, z2.Z)
            devs.append(_within(
                "overlap vs prod 1/cosh(tau)", r["overlap"], np.prod(1.0 / np.cosh(tau)),
                OVERLAP_TOL,
            ))
            devs.append(_within(
                "diastasis vs 2 sum log cosh(tau)",
                r["diastasis"], 2.0 * np.sum(np.log(np.cosh(tau))), DIASTASIS_TOL,
            ))
            devs.append(_within(
                "distance vs hyperbolic-angle norm",
                r["distance"], np.linalg.norm(tau), DISTANCE_TOL,
            ))
        return max(devs)

    return Op(_space_label(space), run, check)


def pair_sweep(seed: int, quiet=contextlib.nullcontext) -> Workload:
    """Random pairs of chart points on every G_n(C^{n+m}) with n + m <= 8, both signs.

    principal_angles takes an extra SVD when some angle is below pi/4 ("near"
    pairs).  For n >= 2 nearly every random pair is near; for n = 1 about one
    in five is far.  So slot k of each n = 1 space takes a far pair when k is
    odd, every other slot a near pair, chosen from a fixed-size pool of
    candidates.  The call counts are then the same for every seed.
    """
    rng = sampling.generator(seed)
    by_slot = {}
    for n, m, eps in PAIR_SPACES:
        space = GrassmannSpace(n, m, eps)
        pool = [
            (sampling.random_chart_point_rng(space, rng), sampling.random_chart_point_rng(space, rng))
            for _ in range(PAIR_POOL.get(n, PAIR_POOL_DEFAULT))
        ]
        with quiet():
            kinds = {"near": [], "far": []}
            for z1, z2 in pool:
                Q1, Q2 = _orthonormal_basis(z1.Z), _orthonormal_basis(z2.Z)
                top = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)[0]
                if abs(top - np.cos(SMALL_ANGLE)) > BRANCH_MARGIN:
                    kind = "near" if top > np.cos(SMALL_ANGLE) else "far"
                    kinds[kind].append((z1, z2, Q1, Q2))
            for k in range(PAIR_ROUNDS):
                kind = "far" if n == 1 and k % 2 else "near"
                if not kinds[kind]:
                    raise RuntimeError(f"no {kind} pair among {len(pool)} candidates")
                by_slot[(k, n, m, eps)] = _pair_op(space, *kinds[kind][k % len(kinds[kind])])
    ops = [by_slot[(k, n, m, eps)] for k in range(PAIR_ROUNDS) for n, m, eps in PAIR_SPACES]
    return Workload(ops, ops[: PAIR_TRACE_ROUNDS * len(PAIR_SPACES)])


# ------------------------------------------------------------ cli-cold


def _write_doc(path, M) -> str:
    path.write_text(json.dumps(jsonio.matrix_to_doc(M)), encoding="utf-8")
    return str(path)


def _cli_in_process(argv):
    """Run cli.main in this process; return (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode("utf-8")


CUT_SPACE = GrassmannSpace(3, 3, 1)
CUT_CANDIDATES = 8


def _near_plane_seed(rng, quiet) -> int:
    """First of a fixed number of candidate seeds whose random plane has an
    angle below pi/4 with the origin, so cut_locus_test's principal_angles
    takes the same branch for every workload seed (about 998 in 1000 do)."""
    seeds = [int(s) for s in rng.integers(0, 2**31, CUT_CANDIDATES)]
    planes = [sampling.random_plane(CUT_SPACE, s) for s in seeds]
    with quiet():
        tops = [np.linalg.svd(F.top, compute_uv=False)[0] for F in planes]
    for s, top in zip(seeds, tops):
        if top > np.cos(SMALL_ANGLE) + BRANCH_MARGIN:
            return s
    raise RuntimeError(f"no near plane among {CUT_CANDIDATES} candidate seeds")


def _cli_command_list(seed: int, workdir, quiet) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) for the fixed CLI mix."""
    rng = sampling.generator(seed)
    g22c, g23n, g22n = GrassmannSpace(2, 2, 1), GrassmannSpace(2, 3, -1), GrassmannSpace(2, 2, -1)
    B = sampling.random_tangent_rng(g22c, rng, 1.0).B
    Zlog = sampling.random_chart_point_rng(g23n, rng).Z
    z1, z2 = (sampling.random_chart_point_rng(g22c, rng).Z for _ in range(2))
    w1, w2 = (sampling.random_chart_point_rng(g22n, rng).Z for _ in range(2))
    frame_seed = int(rng.integers(0, 2**31))
    cut_seed = _near_plane_seed(rng, quiet)
    h = rng.standard_normal(2)
    h_args = [repr(float(x)) for x in h / np.linalg.norm(h)]
    outside = np.array([[1.5 + 0.2 * rng.random()]])  # beyond the unit disk
    d = {
        name: _write_doc(workdir / f"{name}.json", M)
        for name, M in (("b", B), ("zlog", Zlog), ("z1", z1), ("z2", z2),
                        ("w1", w1), ("w2", w2), ("outside", outside))
    }
    return [
        ("exp", ["exp", "--space", "2", "2", "compact", "--input", d["b"]], 0),
        ("log", ["log", "--space", "2", "3", "noncompact", "--input", d["zlog"]], 0),
        ("overlap", ["overlap", "--space", "2", "2", "compact",
                     "--z1", d["z1"], "--z2", d["z2"], "--verify"], 0),
        ("distance", ["distance", "--space", "2", "2", "noncompact",
                      "--z1", d["w1"], "--z2", d["w2"]], 0),
        ("plucker", ["plucker", "--space", "2", "3", "compact", "--seed", str(frame_seed)], 0),
        ("cut-test", ["cut-test", "--space", "3", "3", "compact", "--seed", str(cut_seed)], 0),
        ("conjugate-times", ["conjugate-times", "--space", "2", "2", "compact",
                             "--h", *h_args, "--tmax", "3"], 0),
        ("conjugate-scan", ["conjugate-scan", "--space", "2", "2", "compact",
                            "--h", *h_args, "--tmax", "3", "--points", "25"], 0),
        ("char-numbers", ["char-numbers", "--space", "3", "4", "compact"], 0),
        ("domain-error", ["log", "--space", "1", "1", "noncompact", "--input", d["outside"]], 1),
    ]


CLI_LABELS = (
    "exp", "log", "overlap", "distance", "plucker", "cut-test",
    "conjugate-times", "conjugate-scan", "char-numbers", "domain-error",
)
# char-numbers, the only command far slower than interpreter start-up, is a
# quarter of the cycle.  The tail percentile of a run (about p85 to p90) then
# lies inside its latency cluster, not on the edge between two clusters.
CLI_CYCLE = (
    "exp", "log", "char-numbers", "overlap", "distance", "char-numbers",
    "plucker", "cut-test", "char-numbers", "conjugate-times", "conjugate-scan",
    "domain-error",
)


def _cli_subprocess_op(label, argv, expected, reference) -> Op:
    cmd = [sys.executable, "-m", "grassgeo.cli", *argv]

    def run():
        out = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=120)
        return {"code": out.returncode, "stdout": out.stdout, "stderr": out.stderr}

    return Op(label, run, _cli_check(label, expected, reference))


def _cli_in_process_op(label, argv, expected, reference) -> Op:
    def run():
        code, stdout = _cli_in_process(argv)
        return {"code": code, "stdout": stdout, "stderr": b""}

    return Op(label, run, _cli_check(label, expected, reference))


def _cli_check(label, expected, reference):
    """Exit code as expected, nothing on stderr, stdout bytes equal to the
    in-process reference (so every repeat equals the first)."""

    def check(r):
        ref = reference(label)
        _require(r["code"] == expected, f"{label}: exit {r['code']}, expected {expected}")
        _require(r["stderr"] == b"", f"{label}: stderr {r['stderr'][-200:]!r}")
        _require(r["stdout"] == ref, f"{label}: stdout differs from the reference bytes")
        doc = json.loads(r["stdout"]) if label != "conjugate-scan" else {}
        if label == "overlap":
            return _within("CLI overlap vs Plucker", doc["verify"]["modulus_diff"], 0.0, OVERLAP_TOL)
        if label == "domain-error":
            _require(doc["error"]["type"] == "DomainError", f"{label}: {doc}")
        return 0.0

    return check


def cli_cold(seed: int, quiet=contextlib.nullcontext) -> Workload:
    """Fresh `python -m grassgeo.cli` processes over a fixed mix of subcommands.

    The traced passes run the same argv through cli.main in this process,
    since spans cannot be recorded inside a child.
    """
    workdir = WORK / "cli"
    workdir.mkdir(parents=True, exist_ok=True)
    commands = _cli_command_list(seed, workdir, quiet)
    argvs = {label: argv for label, argv, _ in commands}
    refs: dict = {}

    def reference(label):
        # computed on first use, outside the timed region
        if label not in refs:
            refs[label] = _cli_in_process(argvs[label])[1]
        return refs[label]

    by_label = {c[0]: c for c in commands}
    ops = [_cli_subprocess_op(*by_label[label], reference) for label in CLI_CYCLE]
    trace_ops = [_cli_in_process_op(*c, reference) for c in commands]
    return Workload(ops, trace_ops, in_children=True)


WORKLOADS = {
    "geodesic-oracle": geodesic_oracle,
    "conjugate-scan": conjugate_scan,
    "pair-sweep": pair_sweep,
    "cli-cold": cli_cold,
}
