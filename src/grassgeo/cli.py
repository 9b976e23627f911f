"""Command-line front end exposing every operation over JSON matrix I/O.

Exit codes: 0 success, 1 domain/numerical errors (machine-readable error
object on stdout), 2 usage errors (a message on stderr).  GRASSGEO_TOL
overrides the default cosine tolerance of cut-test and rank tolerance of
schubert; their --tol overrides both.

Each cmd_* handler returns its result: a document for jsonio.dumps, or the CSV
text of conjugate-scan.  main alone writes stdout, once, after the command has
finished, so a failed command prints only its error object.  main is the in-process
API; a process (`python -m grassgeo.cli`, the grassgeo script) ends through run.

Each process runs one subcommand, so its cold start is mostly imports.  At
module level this file imports only what every subcommand needs: geometry,
jsonio, spaces, errors and linalg.  kernels, loci, topology and sampling are
imported inside the handlers that use them, so exp, log, geodesic-check and
distance load none of them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import re
import sys

import numpy as np

from . import geometry, jsonio
from .errors import GrassGeoError, PreconditionError, UnsupportedSpaceError
from .linalg import DEFAULT_RANK_TOL, ENTRY_LIMIT, check_bounded
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, check_enumeration_size

# points run in stacked chunks of bounded memory; on one core of a shared two-core x86-64 Xeon
# a G_3(C^6) point costs 0.17 to 0.29 ms, so 10000 points take 1.7 to 2.9 s there
MAX_SCAN_POINTS = 10_000
# points times 4nm (n+m)^2 projection entries a point, 1296 on G_3(C^6); on that core each scan
# at this bound, from 14 points of G_15(C^31) to 10000 of G_3(C^6), took 1.0 to 1.4 s as a process
MAX_SCAN_ENTRIES = MAX_SCAN_POINTS * 1296
# every negative float (-6e-1, -inf, -nan) is a value, not an option; 3.13's argparse takes digits
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def _tol(args, default: float) -> float:
    raw = os.environ.get("GRASSGEO_TOL") if args.tol is None else args.tol
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise PreconditionError(f"GRASSGEO_TOL is not a number: {raw!r}")


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
        if seed < 0:
            _usage_error(f"--{seed_attr} must be non-negative, got {seed}")
        from .sampling import random_plane

        return random_plane(space, seed)
    raise PreconditionError(f"provide --{attr} FILE or --{seed_attr} N")


def _chart_arg(space: GrassmannSpace, args, attr: str) -> ChartPoint:
    path = getattr(args, attr)
    return ChartPoint(space, _read_doc(path, attr))


# ---------------------------------------------------------------- commands


def _geodesic(space: GrassmannSpace, args, verify: bool):
    """(t B, exp0(t B), RK4 endpoint, max |RK4 - exp0|) for the --input
    tangent B and --t; the last two are None unless verify."""
    B = TangentVector(space, _read_doc(args.input, "input"))
    check_bounded(args.t, "--t")  # before t * B, where inf * 0 or an overflow would warn
    tB = TangentVector(space, args.t * B.B)
    Z = geometry.exp0(space, tB)
    if not verify:
        return tB, Z, None, None
    ode = geometry.geodesic_ode(space, B, args.t, args.steps)
    return tB, Z, ode, np.max(np.abs(ode.Z - Z.Z))


def cmd_exp(space, args):
    tB, Z, _, diff = _geodesic(space, args, args.verify)
    out = {"Z": jsonio.matrix_to_doc(Z.Z), "arc_length": tB.norm}
    if args.verify:
        out["verify"] = {"steps": args.steps, "max_abs_diff": diff}
    return out


def cmd_log(space, args):
    Z = ChartPoint(space, _read_doc(args.input, "input"))
    B = geometry.log0(space, Z)
    return {"B": jsonio.matrix_to_doc(B.B), "norm": B.norm}


def cmd_geodesic_check(space, args):
    _, Z, ode, diff = _geodesic(space, args, verify=True)
    doc = jsonio.matrix_to_doc
    return {"Z_exp": doc(Z.Z), "Z_ode": doc(ode.Z), "max_abs_diff": diff}


def cmd_overlap(space, args):
    from . import kernels

    z1 = _chart_arg(space, args, "z1")
    z2 = _chart_arg(space, args, "z2")
    ov = kernels.normalized_overlap(space, z1, z2)
    out = {
        "raw": ov.raw,
        "normalized": ov.normalized,
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
    return out


def cmd_pair(space, args):
    """distance, diastasis or cayley: one number from two chart points."""
    if args.command == "distance":
        key, measure = "distance", geometry.distance
    else:
        from . import kernels

        key, measure = {
            "diastasis": ("diastasis", kernels.diastasis),
            "cayley": ("cayley_distance", kernels.cayley_distance),
        }[args.command]
    return {key: measure(space, _chart_arg(space, args, "z1"), _chart_arg(space, args, "z2"))}


def _cartan(args):
    from . import loci

    h = np.asarray(args.h, dtype=float)
    # checked before the norm, whose squares could overflow, and h / norm
    if not np.all(np.abs(h) <= ENTRY_LIMIT):
        raise PreconditionError(f"--h must be finite and at most {ENTRY_LIMIT:g} in modulus")
    norm = np.linalg.norm(h)
    if norm == 0:
        raise PreconditionError("--h must be nonzero")
    if not args.no_normalize:
        h = h / norm
    return loci.CartanVector(h)


def cmd_conjugate_times(space, args):
    from . import loci

    times = loci.tangent_conjugate_times(space, _cartan(args), args.tmax)
    return {
        "times": [
            {
                "t": c.t,
                "family": c.family,
                "multiplicity": c.multiplicity,
                "indices": c.indices,
                "lambda": c.lam,
            }
            for c in times
        ]
    }


def cmd_conjugate_scan(space, args):
    from . import loci

    if not 1 <= args.points <= MAX_SCAN_POINTS:
        _usage_error(f"--points must lie in [1, {MAX_SCAN_POINTS}], got {args.points}")
    work = args.points * 4 * space.n * space.m * space.N**2
    check_enumeration_size(work, "conjugate-scan projection entries", MAX_SCAN_ENTRIES)
    h = _cartan(args)
    B = loci.cartan_to_tangent(space, h)
    times = loci.tangent_conjugate_times(space, h, args.tmax)
    ts = np.linspace(args.tmax / args.points, args.tmax, args.points)
    ratios = loci._dexp_scan(space, B, ts)
    # the times are sorted, so the one nearest t borders its insertion slot
    predicted = np.array([-np.inf] + [c.t for c in times] + [np.inf])
    slot = np.searchsorted(predicted, ts)
    flags = np.minimum(ts - predicted[slot - 1], predicted[slot] - ts) < 1e-2
    rows = ["t,min_singular_normalized,predicted_flag\n"]
    for t, val, flag in zip(ts.tolist(), ratios.tolist(), flags.tolist()):
        rows.append(f"{t:.17g},{val:.17g},{int(flag)}\n")
    # main writes the CSV only once every row is computed, so a failed scan prints only its error
    return "".join(rows)


def cmd_cut_test(space, args):
    from . import loci

    tol = _tol(args, loci.DEFAULT_CUT_COSINE_TOL)
    check = loci.disjoint_union_check(space, _frame_arg(space, args), tol=tol)
    return {
        "on_cut_locus": check.branch == "polar-divisor",
        "branch": check.branch,
        "det_modulus": check.det_modulus,
    }


def cmd_schubert(space, args):
    from . import loci

    F = _frame_arg(space, args)
    flag = loci.standard_flag(space) if args.flag == "standard" else loci.dual_flag(space)
    dims = loci.schubert_dims(F, flag, tol=_tol(args, DEFAULT_RANK_TOL))
    if args.omega is None:
        return {"dims": dims}
    symbol = loci.SchubertSymbol(tuple(args.omega), space.m)
    in_z, generic = loci.schubert_membership(space, dims, symbol)
    return {"dims": dims, "omega": symbol.omega, "sigma": symbol.sigma, "jumps": symbol.jumps,
            "in_variety": in_z, "generic": generic}


def cmd_strata(space, args):
    from . import loci

    F = _frame_arg(space, args)
    angles, stratum_W, stratum_I = loci._conjugate_strata(space, F)
    return {
        "angles_with_origin": angles,
        "stratum_W": stratum_W,
        "stratum_I": stratum_I,
    }


def cmd_isoclinic(space, args):
    from . import loci

    F1 = _frame_arg(space, args, "frame1", "seed1")
    F2 = _frame_arg(space, args, "frame2", "seed2")
    angles, isoclinic = loci._isoclinic(F1, F2)
    return {"isoclinic": isoclinic, "angles": angles}


def cmd_plucker(space, args):
    from . import kernels

    F = _frame_arg(space, args)
    pv = kernels.plucker_embed(F)
    return {
        "subsets": pv.subsets(),
        "components": pv.components,
    }


def cmd_energy(space, args):
    from . import kernels

    F = _frame_arg(space, args)
    return {"energy": kernels.energy(space, kernels.EnergySpec(args.eps), F)}


def _spec(space: GrassmannSpace, args):
    from .kernels import EnergySpec

    if not args.eps:
        check_enumeration_size(space.N, "default eps weights")
    return EnergySpec(args.eps or np.arange(space.N, 0, -1, dtype=float))


def cmd_critical_points(space, args):
    from . import kernels

    pts = kernels.critical_points(space, _spec(space, args))
    return {
        "count": len(pts),
        "points": [
            {"subset": S, "value": value} for S, _, value in pts
        ],
    }


def cmd_char_numbers(space, args):
    if not space.compact:
        raise UnsupportedSpaceError(
            "characteristic numbers are defined for the compact space; "
            "the noncompact dual is a contractible domain"
        )
    from . import topology

    report = topology.characteristic_report(space.n, space.m, _spec(space, args))
    return {**report.as_dict(), "all_equal": len(set(report.values())) == 1}


# ---------------------------------------------------------------- parser


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="grassgeo")
    ap._negative_number_matcher = _NEGATIVE_NUMBER
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, frame=False, **kw):
        p = sub.add_parser(name, **kw)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument(
            "--space",
            nargs=3,
            metavar=("N", "M", "KIND"),
            required=True,
            help="plane dim, codim, compact|noncompact",
        )
        if frame:  # read by _frame_arg
            p.add_argument("--frame")
            p.add_argument("--seed", type=int)
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

    for name in ("overlap", "distance", "diastasis", "cayley"):
        p = add(name, cmd_overlap if name == "overlap" else cmd_pair)
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

    p = add("cut-test", cmd_cut_test, frame=True)
    p.add_argument("--tol", type=float)

    p = add("schubert", cmd_schubert, frame=True)
    p.add_argument("--omega", nargs="+", type=int)
    p.add_argument("--flag", choices=["standard", "dual"], default="standard")
    p.add_argument("--tol", type=float)

    add("strata", cmd_strata, frame=True)

    p = add("isoclinic", cmd_isoclinic)
    p.add_argument("--frame1")
    p.add_argument("--frame2")
    p.add_argument("--seed1", type=int)
    p.add_argument("--seed2", type=int)

    add("plucker", cmd_plucker, frame=True)

    p = add("energy", cmd_energy, frame=True)
    p.add_argument("--eps", nargs="+", type=float, required=True)

    p = add("critical-points", cmd_critical_points)
    p.add_argument("--eps", nargs="+", type=float)

    p = add("char-numbers", cmd_char_numbers)
    p.add_argument("--eps", nargs="+", type=float)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(_space(args), args)
        # conjugate-scan returns its CSV text, every other handler its JSON document
        text = out if isinstance(out, str) else jsonio.dumps(out) + "\n"
        code = 0
    except GrassGeoError as exc:
        text = jsonio.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        code = 1
    sys.stdout.write(text)
    return code


def run() -> None:
    try:
        sys.exit(main())
    finally:
        # the process ends next, so teardown need not traverse what the run built
        gc.freeze()


if __name__ == "__main__":
    run()
