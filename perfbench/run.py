"""Benchmark of grassgeo's oracle cross-checks.

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads: geodesic-oracle, conjugate-scan, pair-sweep, cli-cold (see
perfbench/README.md).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The run exits with 2, and
prints no result, when the checkout holds no grassgeo sources.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostenv  # noqa: E402  (no numpy import; must precede it)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        hostenv.prepare()
    except hostenv.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench

    if args.workload != "all" and args.workload not in bench.workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {list(bench.workloads.WORKLOADS)}")
    if args.workload == "all":
        bench.run_all(__file__, args.seed, args.seconds, bool(args.trace))
    else:
        bench.run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
