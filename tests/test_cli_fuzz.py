"""Hypothesis fuzz of the in-process CLI.

Every argv and matrix document must end in one of three ways: exit 0 with an
empty stderr; exit 1 with a JSON error object on stdout and an empty stderr;
or exit 2 with a usage message.  A traceback, any other exception or a numpy
floating-point warning fails the test.  Two more strategies draw entries at
scales from 1e-150 to 1e150 for n, m <= 4: one drives the RK4 oracle at every
k = min(n, m) <= 4, the other the chart-pair commands, where compact
`distance` must answer unless an entry passes ENTRY_LIMIT.  A fourth drives
the eight frame and energy commands with frames that have one scale per
block, down to subnormal entries, and --eps vectors at one log-uniform scale.
Fixed regressions check the oracle's exits at a tan pole and at extreme scales.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grassgeo import jsonio
from grassgeo.linalg import ENTRY_LIMIT
from conftest import run_main

HUGE = [1e-300, 1e77, 1e150, 1.3e154, 1e200, 1e300, 1e308, 1.7976931348623157e308]

ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1.0, 0.999999, -0.999999] + HUGE + [-x for x in HUGE]),
    st.floats(-1e300, 1e300),
)
SCALARS = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from(HUGE + [-x for x in HUGE] + [0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
DIMS = st.integers(1, 2)
COMMANDS = (
    "exp", "log", "geodesic-check", "overlap", "distance", "diastasis", "cayley",
    "conjugate-times", "conjugate-scan",
)


@st.composite
def matrix_docs(draw, n, m):
    """A MatrixDocument of the right shape, or sometimes of a wrong one."""
    rows = draw(st.one_of(st.just(n), DIMS))
    cols = draw(st.one_of(st.just(m), st.integers(1, 3)))
    data = [[draw(ENTRIES), draw(ENTRIES)] for _ in range(rows * cols)]
    return {"rows": rows, "cols": cols, "data": data}


@st.composite
def invocations(draw):
    """(argv, {file name: document}) for one subcommand."""
    command = draw(st.sampled_from(COMMANDS))
    n, m = draw(DIMS), draw(DIMS)
    kind = draw(st.sampled_from(["compact", "noncompact"]))
    argv = [command, "--space", str(n), str(m), kind]
    docs = {}
    if command in ("exp", "log", "geodesic-check"):
        docs["input"] = draw(matrix_docs(n, m))
        argv += ["--input", "input"]
        if command != "log":
            argv += [f"--t={draw(SCALARS)!r}", "--steps", str(draw(st.integers(1, 200)))]
        if command == "exp" and draw(st.booleans()):
            argv.append("--verify")
    elif command.startswith("conjugate"):
        h = draw(st.lists(SCALARS, min_size=1, max_size=3))
        argv += ["--h", *map(repr, h), f"--tmax={draw(SCALARS)!r}"]
        if draw(st.booleans()):
            argv.append("--no-normalize")
        if command == "conjugate-scan":
            argv += ["--points", str(draw(st.integers(1, 5)))]
    else:
        docs["z1"], docs["z2"] = draw(matrix_docs(n, m)), draw(matrix_docs(n, m))
        argv += ["--z1", "z1", "--z2", "z2"]
        if command == "overlap" and draw(st.booleans()):
            argv.append("--verify")
    return argv, docs


@st.composite
def scaled_matrices(draw, n, m):
    """An n x m complex matrix of the right shape: entries in [-1, 1] times
    one scale drawn log-uniform over [1e-150, 1e150], and sometimes times a
    factor up to 1e8 per row."""
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    rows = draw(st.one_of(st.none(), st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n)))
    factors = [10.0**e for e in rows] if rows else [1.0] * n
    parts = st.floats(-1.0, 1.0)
    return np.array(
        [[complex(draw(parts), draw(parts)) * scale * factors[i] for _ in range(m)] for i in range(n)]
    )


@st.composite
def oracle_invocations(draw):
    """(argv, {file name: document}) for geodesic-check or exp --verify with
    n, m in 1..4, so that every k = min(n, m) <= 4 is reached, and a B of the
    right shape at a scale from scaled_matrices."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["compact", "noncompact"]))
    command = draw(st.sampled_from([["geodesic-check"], ["exp", "--verify"]]))
    argv = [*command, "--space", str(n), str(m), kind, "--input", "input"]
    t = draw(st.one_of(st.floats(-2.0, 2.0), SCALARS))
    argv += [f"--t={t!r}", "--steps", str(draw(st.integers(100, 400)))]
    return argv, {"input": jsonio.matrix_to_doc(draw(scaled_matrices(n, m)))}


@st.composite
def pair_invocations(draw):
    """(argv, {file name: document}) for overlap (with and without --verify),
    distance, diastasis or cayley with n, m in 1..4, both signs, and two
    chart points from scaled_matrices."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["compact", "noncompact"]))
    command = draw(st.sampled_from(
        [["overlap"], ["overlap", "--verify"], ["distance"], ["diastasis"], ["cayley"]]
    ))
    argv = [*command, "--space", str(n), str(m), kind, "--z1", "z1", "--z2", "z2"]
    return argv, {name: jsonio.matrix_to_doc(draw(scaled_matrices(n, m))) for name in ("z1", "z2")}


@st.composite
def block_scaled_frames(draw, n, m, eps):
    """An (n+m) x n frame with one scale per block, log-uniform down to subnormal:
    compact, the orthonormal Q of [s1 X ; s2 Y]; dual, [A ; s Y] U with
    A = (I + s^2 Y^dagger Y)^{1/2} and U unitary, which is J-orthonormal.
    Sometimes the raw blocks, which need not be a frame at all."""
    parts = st.floats(-1.0, 1.0)

    def block(rows, scale):
        entries = [[complex(draw(parts), draw(parts)) for _ in range(n)] for _ in range(rows)]
        return scale * np.array(entries)

    def scale():
        return 10.0 ** draw(st.floats(-320.0, 100.0))

    raw = draw(st.integers(0, 3)) == 0
    if eps > 0:
        F = np.concatenate([block(n, scale()), block(m, scale())])
        return F if raw else np.linalg.qr(F)[0]
    B = block(m, scale())
    if raw:
        return np.concatenate([block(n, 1.0), B])
    _, s, vh = np.linalg.svd(B)
    k = len(s)
    A = np.eye(n) + (vh[:k].conj().T * (np.hypot(1.0, s) - 1.0)) @ vh[:k]
    U = np.linalg.qr(block(n, 1.0) + 2.0 * np.eye(n))[0]
    return np.concatenate([A, B]) @ U


FRAME_COMMANDS = (
    "cut-test", "schubert", "strata", "isoclinic", "plucker", "energy", "critical-points",
    "char-numbers",
)


@st.composite
def frame_invocations(draw):
    """(argv, {file name: document}) for one of the eight frame and energy
    commands with n, m in 1..4, both signs, frames from block_scaled_frames and
    --eps of length n + m (sometimes not) at one scale log-uniform over
    [1e-300, 1e300], sometimes with a near-tie."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["compact", "noncompact"]))
    command = draw(st.sampled_from(FRAME_COMMANDS))
    argv = [command, "--space", str(n), str(m), kind]
    eps = 1 if kind == "compact" else -1
    names = ["frame1", "frame2"] if command == "isoclinic" else ["frame"]
    if command in ("critical-points", "char-numbers"):
        names = []
    docs = {name: jsonio.matrix_to_doc(draw(block_scaled_frames(n, m, eps))) for name in names}
    for name in names:
        argv += [f"--{name}", name]
    if command in ("cut-test", "schubert") and draw(st.booleans()):
        argv.append(f"--tol={draw(st.one_of(st.just(1e-10), SCALARS))!r}")
    if command == "schubert":
        argv += ["--flag", draw(st.sampled_from(["standard", "dual"]))]
        if draw(st.booleans()):
            omega = draw(st.lists(st.integers(-1, m + 1), min_size=n, max_size=n))
            argv += ["--omega", *map(str, sorted(omega))]
    if command == "energy" or (not names and draw(st.booleans())):
        size = draw(st.one_of(st.just(n + m), st.integers(1, 9)))
        scale = 10.0 ** draw(st.floats(-300.0, 300.0))
        values = [scale * draw(st.floats(-1.0, 1.0)) for _ in range(size)]
        if size > 1 and draw(st.booleans()):
            values[1] = values[0] * (1.0 + draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3])))
        argv += ["--eps", *map(repr, values)]
    return argv, docs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _settings(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@_settings(400)
@given(invocations())
def test_cli_outcomes(workdir, invocation):
    _check_outcome(workdir, *invocation)


@_settings(100)
@given(oracle_invocations())
def test_geodesic_oracle_outcomes(workdir, invocation):
    _check_outcome(workdir, *invocation)


@_settings(120)
@given(frame_invocations())
def test_frame_command_outcomes(workdir, invocation):
    _check_outcome(workdir, *invocation)


# U diag(1e5, 0.3) U with U = [[0.6, 0.8j], [0.8j, 0.6]]: singular values
# that differ in scale, where forming I + Z Z^dagger lost the frame
_U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
SPREAD_POINT = jsonio.matrix_to_doc(_U @ np.diag([1e5, 0.3]) @ _U)


@_settings(80)
@given(pair_invocations())
@example((
    ["distance", "--space", "2", "2", "compact", "--z1", "z1", "--z2", "z2"],
    {"z1": jsonio.matrix_to_doc(np.zeros((2, 2))), "z2": SPREAD_POINT},
))
def test_chart_pair_outcomes(workdir, invocation):
    compact_distance = invocation[0][0] == "distance" and "compact" in invocation[0]
    code, out = _check_outcome(workdir, *invocation)
    assert code == 2 or isinstance(json.loads(out), dict)
    if compact_distance and code == 1:
        # every factor comes from the chart SVDs, so only an entry past ENTRY_LIMIT stops it
        assert f"above {ENTRY_LIMIT:g}" in json.loads(out)["error"]["message"]


def _check_outcome(workdir, argv, docs):
    for name, doc in docs.items():
        path = workdir / name
        path.write_text(json.dumps(doc))
        argv[argv.index(name)] = str(path)
    code, out, err = run_main(argv)
    if code == 2:
        assert "usage" in err
        return code, out
    assert err == ""
    if code == 1:
        error = json.loads(out)["error"]
        assert set(error) == {"type", "message"}
    else:
        assert code == 0 and out
    return code, out


@pytest.mark.parametrize("n", [3, 4])
def test_tan_pole_crossing_exits_1(tmp_path, n):
    # ||t B||_2 = 1.68 > pi/2: the compact geodesic crosses a tan pole, which
    # the scalar run of the largest eigenvalue of C must report
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = tmp_path / "b.json"
    path.write_text(json.dumps(jsonio.matrix_to_doc(B * (1.4 / np.linalg.norm(B, 2)))))
    argv = ["geodesic-check", "--space", str(n), str(n), "compact", "--input", str(path)]
    code, out, err = run_main([*argv, "--t", "-1.2"])
    assert (code, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "LeftChartError"


@pytest.mark.parametrize("command", [["geodesic-check"], ["exp", "--verify"]])
def test_huge_pair_exits_1(tmp_path, command):
    # C = B B^dagger has entries near 1e200: squaring them must not raise
    # OverflowError; the compact run leaves the chart
    B = 1e100 * np.ones((2, 4)) + np.eye(2, 4) * [1e100 / 7, 2e100 / 7, 0.0, 0.0]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(jsonio.matrix_to_doc(B)))
    code, out, err = run_main([*command, "--space", "2", "4", "compact", "--input", str(path)])
    assert (code, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "LeftChartError"


def test_tiny_triple_is_t_b(tmp_path):
    # entries near 1e-60: C = B B^dagger near 1e-120 must not underflow into
    # a division by zero; the geodesic is Z = t B (t = 1) to the rounding of
    # the 4000 RK4 steps, which add up h = 1 / 4000 to 1 - 8.2e-14
    rng = np.random.default_rng(3)
    B = 1e-60 * (rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
    path = tmp_path / "b.json"
    path.write_text(json.dumps(jsonio.matrix_to_doc(B)))
    code, out, err = run_main(["geodesic-check", "--space", "3", "3", "compact", "--input", str(path)])
    assert (code, err) == (0, "")
    Z = jsonio.doc_to_matrix(json.loads(out)["Z_ode"])
    assert np.abs(Z - B).max() <= 2e-13 * np.abs(B).max()


@pytest.mark.parametrize("command", ["overlap", "plucker", "cut-test"])
def test_subnormal_plucker_entry_exits_1(tmp_path, command):
    # a chart point with one subnormal entry gives a frame whose 2 x 2 minor
    # [[0, 1], [s, 0]] numpy's complex det returns as NaN, with a
    # divide-by-zero warning; the Plucker oracle must fail as a typed error,
    # and so must cut-test, whose frame has that minor as its top block
    s = 2.225073858507e-311j
    if command == "overlap":
        docs = {"z1": np.zeros((2, 1)), "z2": np.array([[s], [0.0]])}
        argv = ["overlap", "--verify", "--z1", "z1", "--z2", "z2"]
    elif command == "plucker":
        docs = {"frame": np.array([[1.0, 0.0], [0.0, 1.0], [-s, 0.0]])}
        argv = ["plucker", "--frame", "frame"]
    else:
        docs = {"frame": np.array([[0.0, 1.0], [-s, 0.0], [1.0, 0.0]])}
        argv = ["cut-test", "--frame", "frame"]
    for name, M in docs.items():
        (tmp_path / name).write_text(json.dumps(jsonio.matrix_to_doc(M)))
        argv[argv.index(name)] = str(tmp_path / name)
    code, out, err = run_main([*argv, "--space", "2", "1", "compact"])
    assert (code, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "NumericalFailure"
