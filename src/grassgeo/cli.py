"""Command-line front end exposing every operation over JSON matrix I/O.

Exit codes: 0 success, 1 domain/numerical errors (machine-readable error
object on stdout), 2 usage errors.  GRASSGEO_TOL overrides the default
tolerance of cut-test and schubert; their --tol overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import geometry, jsonio, kernels, loci, topology
from .errors import GrassGeoError, PreconditionError
from .kernels import EnergySpec
from .linalg import principal_angles
from .sampling import random_plane
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, origin_frame


def _tol(args) -> float:
    raw = os.environ.get("GRASSGEO_TOL") if args.tol is None else args.tol
    if raw is None:
        return loci.DEFAULT_DET_TOL
    try:
        return float(raw)
    except ValueError:
        raise PreconditionError(f"GRASSGEO_TOL is not a number: {raw!r}")


def _t(args) -> float:
    # checked before t * B, where inf * 0 would warn
    if not np.isfinite(args.t):
        raise PreconditionError(f"--t must be finite, got {args.t!r}")
    return args.t


def _usage_error(message: str):
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_doc(path: str, name: str) -> np.ndarray:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        _usage_error(
            f"malformed JSON in {name}: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        )
    except OSError as exc:
        _usage_error(f"cannot read {name}: {exc}")
    return jsonio.doc_to_matrix(doc, name)


def _space(args) -> GrassmannSpace:
    n, m, kind = args.space
    try:
        return GrassmannSpace(int(n), int(m), {"compact": 1, "noncompact": -1}[kind])
    except (KeyError, ValueError):
        _usage_error(f"--space takes N M compact|noncompact, got {n} {m} {kind}")


def _frame_arg(space: GrassmannSpace, args, attr="frame", seed_attr="seed") -> Frame:
    path = getattr(args, attr, None)
    seed = getattr(args, seed_attr, None)
    if path is not None:
        return Frame(space, _read_doc(path, attr))
    if seed is not None:
        return random_plane(space, seed)
    raise PreconditionError(f"provide --{attr} FILE or --{seed_attr} N")


def _chart_arg(space: GrassmannSpace, args, attr: str) -> ChartPoint:
    path = getattr(args, attr)
    return ChartPoint(space, _read_doc(path, attr))


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj) + "\n")


# ---------------------------------------------------------------- commands


def cmd_exp(args):
    space = _space(args)
    B0 = _read_doc(args.input, "input")
    B = TangentVector(space, _t(args) * B0)
    Z = geometry.exp0(space, B)
    out = {"Z": jsonio.matrix_to_doc(Z.Z), "arc_length": B.norm}
    if args.verify:
        ode = geometry.geodesic_ode(space, TangentVector(space, B0), args.t, args.steps)
        out["verify"] = {
            "steps": args.steps,
            "max_abs_diff": float(np.max(np.abs(ode.Z - Z.Z))),
        }
    _emit(out)


def cmd_log(args):
    space = _space(args)
    Z = ChartPoint(space, _read_doc(args.input, "input"))
    B = geometry.log0(space, Z)
    _emit({"B": jsonio.matrix_to_doc(B.B), "norm": B.norm})


def cmd_geodesic_check(args):
    space = _space(args)
    B = TangentVector(space, _read_doc(args.input, "input"))
    closed = geometry.exp0(space, TangentVector(space, _t(args) * B.B))
    ode = geometry.geodesic_ode(space, B, args.t, args.steps)
    _emit(
        {
            "Z_exp": jsonio.matrix_to_doc(closed.Z),
            "Z_ode": jsonio.matrix_to_doc(ode.Z),
            "max_abs_diff": float(np.max(np.abs(ode.Z - closed.Z))),
        }
    )


def cmd_overlap(args):
    space = _space(args)
    z1 = _chart_arg(space, args, "z1")
    z2 = _chart_arg(space, args, "z2")
    ov = kernels.normalized_overlap(space, z1, z2)
    out = {
        "raw": complex(ov.raw),
        "normalized": complex(ov.normalized),
        "modulus": ov.modulus,
    }
    if args.verify:
        if not space.compact:
            raise PreconditionError("--verify uses the compact Plucker oracle")
        oracle = kernels.plucker_overlap_oracle(
            geometry.frame_of_chart(z1), geometry.frame_of_chart(z2)
        )
        out["verify"] = {
            "oracle_modulus": abs(oracle),
            "modulus_diff": abs(abs(oracle) - ov.modulus),
        }
    _emit(out)


def cmd_distance(args):
    space = _space(args)
    d = geometry.distance(space, _chart_arg(space, args, "z1"), _chart_arg(space, args, "z2"))
    _emit({"distance": d})


def cmd_diastasis(args):
    space = _space(args)
    d = kernels.diastasis(space, _chart_arg(space, args, "z1"), _chart_arg(space, args, "z2"))
    _emit({"diastasis": d})


def cmd_cayley(args):
    space = _space(args)
    d = kernels.cayley_distance(
        space, _chart_arg(space, args, "z1"), _chart_arg(space, args, "z2")
    )
    _emit({"cayley_distance": d})


def _cartan(args) -> loci.CartanVector:
    h = np.asarray(args.h, dtype=float)
    norm = np.linalg.norm(h)
    if norm == 0:
        raise PreconditionError("--h must be nonzero")
    if not args.no_normalize:
        h = h / norm
    return loci.CartanVector(h)


def cmd_conjugate_times(args):
    space = _space(args)
    times = loci.tangent_conjugate_times(space, _cartan(args), args.tmax)
    _emit(
        {
            "times": [
                {
                    "t": c.t,
                    "family": c.family,
                    "multiplicity": c.multiplicity,
                    "indices": list(c.indices),
                    "lambda": c.lam,
                }
                for c in times
            ]
        }
    )


def cmd_conjugate_scan(args):
    space = _space(args)
    if args.points < 1:
        _usage_error(f"--points must be at least 1, got {args.points}")
    h = _cartan(args)
    B = loci.cartan_to_tangent(space, h)
    predicted = [c.t for c in loci.tangent_conjugate_times(space, h, args.tmax)]
    ts = np.linspace(args.tmax / args.points, args.tmax, args.points)
    sys.stdout.write("t,min_singular_normalized,predicted_flag\n")
    for t in ts:
        val = loci.dexp_min_singular(space, B, float(t))
        flag = int(any(abs(t - p) < 1e-2 for p in predicted))
        sys.stdout.write(f"{t:.17g},{val:.17g},{flag}\n")


def cmd_cut_test(args):
    space = _space(args)
    F = _frame_arg(space, args)
    tol = _tol(args)
    on_cut = loci.cut_locus_test(space, F, tol=tol)
    check = loci.disjoint_union_check(space, F, tol=tol)
    _emit(
        {
            "on_cut_locus": on_cut,
            "branch": check.branch,
            "det_modulus": check.det_modulus,
        }
    )


def cmd_schubert(args):
    space = _space(args)
    F = _frame_arg(space, args)
    flag = loci.standard_flag(space) if args.flag == "standard" else loci.dual_flag(space)
    out = {"dims": loci.schubert_dims(F, flag, tol=_tol(args))}
    if args.omega is not None:
        symbol = loci.SchubertSymbol(tuple(args.omega), space.m)
        in_z, generic = loci.schubert_membership(F, symbol, flag)
        out["omega"] = list(symbol.omega)
        out["sigma"] = list(symbol.sigma)
        out["jumps"] = list(symbol.jumps)
        out["in_variety"] = in_z
        out["generic"] = generic
    _emit(out)


def cmd_strata(args):
    space = _space(args)
    F = _frame_arg(space, args)
    angles = principal_angles(origin_frame(space).F, F.F)
    _emit(
        {
            "angles_with_origin": list(map(float, angles)),
            "stratum_W": loci.conjugate_stratum_W(space, F),
            "stratum_I": loci.conjugate_stratum_I(space, F),
        }
    )


def cmd_isoclinic(args):
    space = _space(args)
    F1 = _frame_arg(space, args, "frame1", "seed1")
    F2 = _frame_arg(space, args, "frame2", "seed2")
    angles = principal_angles(F1.F, F2.F)
    _emit(
        {
            "isoclinic": loci.isoclinic_test(F1, F2),
            "angles": list(map(float, angles)),
        }
    )


def cmd_plucker(args):
    space = _space(args)
    F = _frame_arg(space, args)
    pv = kernels.plucker_embed(F)
    _emit(
        {
            "subsets": [list(s) for s in pv.subsets()],
            "components": [complex(c) for c in pv.components],
        }
    )


def cmd_energy(args):
    space = _space(args)
    F = _frame_arg(space, args)
    spec = EnergySpec(np.asarray(args.eps, dtype=float))
    _emit({"energy": kernels.energy(space, spec, F)})


def _default_eps(space: GrassmannSpace) -> np.ndarray:
    return np.arange(space.N, 0, -1, dtype=float)


def cmd_critical_points(args):
    space = _space(args)
    eps = np.asarray(args.eps, dtype=float) if args.eps else _default_eps(space)
    pts = kernels.critical_points(space, EnergySpec(eps))
    _emit(
        {
            "count": len(pts),
            "points": [
                {"subset": list(S), "value": value} for S, _, value in pts
            ],
        }
    )


def cmd_char_numbers(args):
    space = _space(args)
    eps = np.asarray(args.eps, dtype=float) if args.eps else _default_eps(space)
    report = topology.characteristic_report(space.n, space.m, EnergySpec(eps))
    _emit(
        {
            "euler": report.euler,
            "weyl_ratio": report.weyl_ratio,
            "cell_count": report.cell_count,
            "fundamental_rep_dim": report.fundamental_rep_dim,
            "kodaira_N": report.kodaira_N,
            "critical_count": report.critical_count,
            "max_orthogonal_coherent": report.max_orthogonal_coherent,
            "all_equal": len(set(report.values())) == 1,
        }
    )


# ---------------------------------------------------------------- parser


def _add_space(p):
    p.add_argument(
        "--space",
        nargs=3,
        metavar=("N", "M", "KIND"),
        required=True,
        help="plane dim, codim, compact|noncompact",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grassgeo")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        _add_space(p)
        p.set_defaults(fn=fn)
        return p

    p = add("exp", cmd_exp, help="geodesic exponential of a tangent matrix")
    p.add_argument("--input", default="-", help="MatrixDocument for B (default stdin)")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--verify", action="store_true", help="cross-check with the geodesic ODE")
    p.add_argument("--steps", type=int, default=4000)

    p = add("log", cmd_log, help="geodesic logarithm of a chart point")
    p.add_argument("--input", default="-")

    p = add("geodesic-check", cmd_geodesic_check, help="closed form vs RK4 integration")
    p.add_argument("--input", default="-")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=4000)

    for name, fn in (
        ("overlap", cmd_overlap),
        ("distance", cmd_distance),
        ("diastasis", cmd_diastasis),
        ("cayley", cmd_cayley),
    ):
        p = add(name, fn)
        p.add_argument("--z1", required=True)
        p.add_argument("--z2", required=True)
        if name == "overlap":
            p.add_argument("--verify", action="store_true")

    p = add("conjugate-times", cmd_conjugate_times, help="predicted conjugate parameters")
    p.add_argument("--h", nargs="+", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--no-normalize", action="store_true")

    p = add("conjugate-scan", cmd_conjugate_scan, help="CSV scan of dexp degeneracy")
    p.add_argument("--h", nargs="+", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--no-normalize", action="store_true")

    p = add("cut-test", cmd_cut_test)
    p.add_argument("--frame")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)

    p = add("schubert", cmd_schubert)
    p.add_argument("--frame")
    p.add_argument("--seed", type=int)
    p.add_argument("--omega", nargs="+", type=int)
    p.add_argument("--flag", choices=["standard", "dual"], default="standard")
    p.add_argument("--tol", type=float)

    p = add("strata", cmd_strata)
    p.add_argument("--frame")
    p.add_argument("--seed", type=int)

    p = add("isoclinic", cmd_isoclinic)
    p.add_argument("--frame1")
    p.add_argument("--frame2")
    p.add_argument("--seed1", type=int)
    p.add_argument("--seed2", type=int)

    p = add("plucker", cmd_plucker)
    p.add_argument("--frame")
    p.add_argument("--seed", type=int)

    p = add("energy", cmd_energy)
    p.add_argument("--frame")
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", nargs="+", type=float, required=True)

    p = add("critical-points", cmd_critical_points)
    p.add_argument("--eps", nargs="+", type=float)

    p = add("char-numbers", cmd_char_numbers)
    p.add_argument("--eps", nargs="+", type=float)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except GrassGeoError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
