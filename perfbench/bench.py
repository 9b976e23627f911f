"""Timed and traced runs of one workload, and the metrics they report.

Untraced (--trace 0): set up several times, warm up, then cycle through the
workload's schedule in a closed loop for --seconds of wall time.  Every
result is checked outside the timed region.  The host's speed is measured
between blocks of operations, and every reported time is scaled to the
reference host (see hostspeed.py); the row also prints the unscaled
figures.

Traced (--trace 1): set up once with the tracer installed, run one warm-up
pass, then alternate an untraced and a traced pass over the workload's fixed
trace slice until --seconds have passed or TRACE_MAX_PASSES traced passes are
done.  Call counts come from one pass and must be equal in every pass; self
times are medians over the traced passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import hostenv
import hostspeed
import workloads
from tracer import LAYERS, SPAN_NAMES, Tracer

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CLI_IMPORT_REPEATS = 5
WARMUP_S = 1.0
CAL_BLOCK_S = 0.25  # operation time between two calibrations
TRACE_MAX_PASSES = 5  # bounds the spans a traced run keeps in memory
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Above p99 the tail of a 20 s pair-sweep run (p99.94) is set by a handful of
# scheduler and neighbour hiccups and spreads more than the bound allows.
TAIL_MAX_PCT = 99.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for label in workloads.CLI_LABELS:
        units[f"cli.{label}.p50_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_floor_ms"] = "ms"
    units["check.max_dev"] = "dev"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self.messages: list[str] = []

    def record(self, op, outcome) -> bool:
        """Check one outcome (a result or the exception the op raised)."""
        self.attempted += 1
        try:
            if isinstance(outcome, Exception):
                raise outcome
            self.max_dev = max(self.max_dev, float(op.check(outcome)))
            return True
        except Exception as exc:  # a failed operation is counted, never fatal
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return False


def run_op(op):
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:
        outcome = exc
    return outcome, time.perf_counter() - start


def import_seconds(module: str, repeats: int) -> float:
    """Median wall time, at reference speed, of a fresh interpreter that
    imports `module`."""
    argv = [sys.executable, "-c", f"import {module}"]
    return statistics.median(
        hostspeed.at_ref(
            lambda: subprocess.run(
                argv, check=True, capture_output=True, cwd=hostenv.ROOT, timeout=120
            )
        )[1]
        for _ in range(repeats)
    )


def tail(latencies):
    """(value, percentile, n) at the highest nearest-rank percentile, up to
    TAIL_MAX_PCT, that still has TAIL_BEYOND samples above it; never below
    the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(min(n - TAIL_BEYOND, math.ceil(n * TAIL_MAX_PCT / 100)), n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


# ------------------------------------------------------------ untraced


def setup(name: str, seed: int):
    """Build the workload SETUP_REPEATS times; set-up time is the median
    build plus the median cold import of grassgeo, both at reference speed."""
    factory = workloads.WORKLOADS[name]
    builds = [hostspeed.at_ref(lambda: factory(seed)) for _ in range(SETUP_REPEATS)]
    build_s = statistics.median(dt for _, dt in builds)
    return builds[0][0], import_seconds("grassgeo", IMPORT_REPEATS) + build_s


def timed_run(wl, seconds: float):
    """Cycle through the schedule for `seconds` of wall time, in blocks of
    at least CAL_BLOCK_S of operation time with a calibration after each;
    an operation's time is scaled by the calibrations around its block."""
    tally = Tally()
    ops = wl.ops
    i = 0
    warm_start = time.perf_counter()
    while time.perf_counter() - warm_start < WARMUP_S and i < len(ops):
        hostspeed.speed(wl.in_children)
        tally.record(ops[i], run_op(ops[i])[0])
        i += 1
    blocks, ok, speeds = [], [], [hostspeed.speed(wl.in_children)]
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        block = []
        while sum(block) < CAL_BLOCK_S:
            op = ops[i % len(ops)]
            i += 1
            outcome, dt = run_op(op)
            block.append(dt)
            ok.append(tally.record(op, outcome))
        blocks.append(block)
        speeds.append(hostspeed.speed(wl.in_children))
    raw, scaled = [], []
    for k, block in enumerate(blocks):
        # block k lies between speeds[k] and speeds[k + 1]; the median of the
        # two calibrations on either side discounts a preempted one
        scale = statistics.median(speeds[max(0, k - 1) : k + 3])
        raw.extend(block)
        scaled.extend(dt * scale for dt in block)
    correct = sum(ok)
    # a failure misses every latency limit
    latencies = [dt if good else math.inf for dt, good in zip(scaled, ok)]
    tail_value, tail_pct, n = tail(latencies)
    raw_tail = tail([dt if good else math.inf for dt, good in zip(raw, ok)])[0]
    usage = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return tally, {
        "ops_per_s": correct / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }, {
        "tail_pct": tail_pct,
        "n": n,
        "raw_ops_per_s": correct / sum(raw),
        "raw_tail_ms": 1e3 * raw_tail,
        "speed_p50": statistics.median(speeds),
        "speed_spread": (max(speeds) - min(speeds)) / statistics.median(speeds),
    }


# ------------------------------------------------------------ traced


def run_pass(ops, tally, tracer=None, group=0):
    """Run ops once (traced when a tracer is given), then check them; return
    the seconds each op took."""
    outcomes, times = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for k, op in enumerate(ops):
            if tracer:
                tracer.group, tracer.op = group, k
            outcome, dt = run_op(op)
            outcomes.append(outcome)
            times.append(dt)
    for op, outcome in zip(ops, outcomes):
        tally.record(op, outcome)
    return times


def pass_counts(totals: dict, group: int) -> dict:
    return {name: entry[0] for name, entry in totals.get(group, {}).items()}


def traced_run(name: str, seed: int, seconds: float):
    tracer = Tracer()
    with tracer.installed():
        wl = workloads.WORKLOADS[name](seed, quiet=tracer.paused)
    tally = Tally()
    run_pass(wl.trace_ops, tally)  # warm-up, so first-call costs land in no pass
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start < seconds and len(traced) < TRACE_MAX_PASSES
    ):
        untraced.append(run_pass(wl.trace_ops, tally))
        traced.append(run_pass(wl.trace_ops, tally, tracer, group=len(traced) + 1))
    totals = tracer.totals()
    groups = range(1, len(traced) + 1)
    first = pass_counts(totals, 1)
    if any(pass_counts(totals, g) != first for g in groups):
        tally.failed += 1
        tally.messages.append("trace: call counts differ between passes")
    metrics = {}
    for span in SPAN_NAMES:
        setup_calls, setup_ns = totals.get(0, {}).get(span, (0, 0))
        pass_ns = statistics.median(totals.get(g, {}).get(span, (0, 0))[1] for g in groups)
        metrics[f"{span}.calls"] = setup_calls + first.get(span, 0)
        metrics[f"{span}.self_s"] = (setup_ns + pass_ns) * 1e-9
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            metrics[f"{span}.self_s"] for span in SPAN_NAMES if span.startswith(layer + ".")
        )
    cli_metrics = dict.fromkeys(
        [f"cli.{label}.p50_ms" for label in workloads.CLI_LABELS]
        + ["cli.import_ms", "cli.interpreter_floor_ms"],
        0.0,
    )
    if wl.in_children:
        for k, op in enumerate(wl.trace_ops):
            cli_metrics[f"cli.{op.label}.p50_ms"] = 1e3 * statistics.median(
                times[k] for times in untraced
            )
        cli_metrics["cli.import_ms"] = 1e3 * import_seconds("grassgeo.cli", CLI_IMPORT_REPEATS)
        cli_metrics["cli.interpreter_floor_ms"] = 1e3 * import_seconds(
            "numpy", CLI_IMPORT_REPEATS
        )
    metrics.update(cli_metrics)
    metrics["check.max_dev"] = tally.max_dev
    metrics["trace.overhead_ratio"] = statistics.median(map(sum, traced)) / statistics.median(
        map(sum, untraced)
    )
    hostenv.WORK.mkdir(parents=True, exist_ok=True)
    span_file = hostenv.WORK / f"spans-{name}-seed{seed}.csv"
    tracer.write(span_file)
    info = {"passes": len(traced), "ops_per_pass": len(wl.trace_ops), "spans": str(span_file)}
    return tally, metrics, info


# ------------------------------------------------------------ output


def result_line(tally, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    print("host " + json.dumps(hostenv.host_facts(), sort_keys=True))
    if trace:
        tally, metrics, info = traced_run(name, seed, seconds)
        units = per_layer_units()
        print(
            f"{name} seed={seed} trace passes={info['passes']} "
            f"ops_per_pass={info['ops_per_pass']} "
            f"trace.overhead_ratio={metrics['trace.overhead_ratio']:.4f} "
            f"check.max_dev={metrics['check.max_dev']:.3e} spans={info['spans']}"
        )
    else:
        wl, setup_s = setup(name, seed)
        tally, metrics, info = timed_run(wl, seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
        ratio = tally.failed / tally.attempted
        print(
            f"{name} seed={seed} "
            f"ops_per_s={metrics['ops_per_s']:.4f} 1/s "
            f"op_p50_ms={metrics['op_p50_ms']:.4f} ms "
            f"op_tail_ms={metrics['op_tail_ms']:.4f} ms (p{info['tail_pct']:.2f}, n={info['n']}) "
            f"failed_ratio={ratio:.4g} ({tally.failed}/{tally.attempted}) "
            f"setup_s={setup_s:.4f} s peak_rss_mb={metrics['peak_rss_mb']:.2f} MB "
            f"check.max_dev={tally.max_dev:.3e}"
        )
        print(
            f"{name} unscaled ops_per_s={info['raw_ops_per_s']:.4f} 1/s "
            f"op_tail_ms={info['raw_tail_ms']:.4f} ms; host speed "
            f"p50={info['speed_p50']:.4f} x reference, range/p50={info['speed_spread']:.3f}"
        )
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(result_line(tally, metrics, units))


def run_all(script: str, seed: int, seconds: float, trace: bool) -> None:
    """Each workload in its own process (so RSS and imports are its own);
    one row per workload, then one combined result line."""
    print("host " + json.dumps(hostenv.host_facts(), sort_keys=True))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, script, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("host ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
