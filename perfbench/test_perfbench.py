"""Self-test of the benchmark: every check can fail, and trace counts repeat.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostenv  # noqa: E402

hostenv.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SEED = 20240817


def _perturbed(result, key, value):
    bad = copy.copy(result)
    bad[key] = value
    return bad


def _assert_check_fails(op, result, key, value):
    with pytest.raises(CheckFailed):
        op.check(_perturbed(result, key, value))


def test_geodesic_check_fails_on_perturbed_ode():
    op = workloads.geodesic_oracle(SEED).ops[0]
    r = op.run()
    assert op.check(r) < workloads.EXP_ODE_TOL
    _assert_check_fails(op, r, "ode", r["ode"] + 1e-5)


def test_conjugate_scan_check_fails_on_missing_or_unexplained_dip():
    op = workloads.conjugate_scan(SEED).ops[3]  # G_2(C^4)
    r = op.run()
    op.check(r)
    # a closed form predicting the wrong times finds no dip there
    _assert_check_fails(op, r, "predicted", [t + 0.05 for t in r["predicted"]])
    # a measured dip far from every prediction is unexplained
    ts = np.linspace(workloads.SCAN_TMAX / workloads.SCAN_POINTS, workloads.SCAN_TMAX,
                     workloads.SCAN_POINTS)
    far = int(np.argmax([min(abs(t - p) for p in r["predicted"]) for t in ts]))
    scan = r["scan"].copy()
    scan[far] = 0.0
    _assert_check_fails(op, r, "scan", scan)


@pytest.mark.parametrize("compact", [True, False])
def test_pair_checks_fail_on_each_perturbed_value(compact):
    op = next(o for o in workloads.pair_sweep(SEED).ops if o.label == ("2x3c" if compact else "2x3nc"))
    r = op.run()
    op.check(r)
    for key in ("overlap", "diastasis", "distance"):
        _assert_check_fails(op, r, key, r[key] + 1e-6)
    _assert_check_fails(op, r, "angles", r["angles"] + 1e-6)
    if compact:
        _assert_check_fails(op, r, "cayley", r["cayley"] + 1e-6)
        _assert_check_fails(op, r, "plucker", r["plucker"] + 1e-6)
        _assert_check_fails(op, r, "on_cut", True)


def test_cli_checks_fail_on_wrong_code_bytes_or_stderr():
    ops = {op.label: op for op in workloads.cli_cold(SEED).trace_ops}
    assert tuple(ops) == workloads.CLI_LABELS
    op = ops["overlap"]
    r = op.run()
    op.check(r)
    _assert_check_fails(op, r, "code", 1)
    _assert_check_fails(op, r, "stderr", b"Traceback")
    _assert_check_fails(op, r, "stdout", r["stdout"].replace(b"0", b"1", 1))
    err = ops["domain-error"]
    r = err.run()
    assert err.check(r) == 0.0 and r["code"] == 1
    _assert_check_fails(err, r, "code", 0)


def _pass_counts(name, seed, ops_limit=None):
    tracer = Tracer()
    with tracer.installed():
        wl = workloads.WORKLOADS[name](seed, quiet=tracer.paused)
    tally = bench.Tally()
    bench.run_pass(wl.trace_ops[:ops_limit], tally, tracer, group=1)
    assert tally.failed == 0, tally.messages
    totals = tracer.totals()
    return {g: bench.pass_counts(totals, g) for g in totals}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_trace_counts_repeat_across_runs_and_seeds(name):
    # the geodesic slice is long; its per-op counts are the same on a prefix
    limit = 2 if name == "geodesic-oracle" else None
    first = _pass_counts(name, SEED, limit)
    assert first[1], "the traced pass recorded no calls"
    assert _pass_counts(name, SEED, limit) == first
    assert _pass_counts(name, SEED + 1, limit) == first


def test_untraced_functions_are_restored():
    from grassgeo import geometry, spaces

    orig = geometry.distance, np.linalg.svd, spaces.Frame.__post_init__
    with Tracer().installed():
        assert geometry.distance is not orig[0]
    assert (geometry.distance, np.linalg.svd, spaces.Frame.__post_init__) == orig


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((hostenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.per_layer_units()


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for path in Path(__file__).parent.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
