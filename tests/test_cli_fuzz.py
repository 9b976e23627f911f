"""Hypothesis fuzz of the in-process CLI.

Every argv and matrix document must end in one of three ways: exit 0 with an
empty stderr; exit 1 with a JSON error object on stdout and an empty stderr;
or exit 2 with a usage message.  A traceback, any other exception or a numpy
floating-point warning fails the test.  A second strategy drives the RK4
oracle at k = min(n, m) >= 3, and fixed regressions check its tan-pole exit.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grassgeo import cli, jsonio

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


def _arg(x: float) -> str:
    """A float as one argv word that argparse does not mistake for an option:
    negative numbers are written without an exponent."""
    if x < 0 and math.isfinite(x):
        return np.format_float_positional(x, trim="0")
    return repr(x)


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
            argv += [f"--t={_arg(draw(SCALARS))}", "--steps", str(draw(st.integers(1, 200)))]
        if command == "exp" and draw(st.booleans()):
            argv.append("--verify")
    elif command.startswith("conjugate"):
        h = draw(st.lists(SCALARS, min_size=1, max_size=3))
        argv += ["--h", *map(_arg, h), f"--tmax={_arg(draw(SCALARS))}"]
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
def oracle_invocations(draw):
    """(argv, {file name: document}) for geodesic-check or exp --verify with
    n, m in {3, 4}; the entries are moderate and the shape right, so that most
    runs reach the triple (k = 3) or block (k = 4) integrator."""
    n, m = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    kind = draw(st.sampled_from(["compact", "noncompact"]))
    command = draw(st.sampled_from([["geodesic-check"], ["exp", "--verify"]]))
    argv = [*command, "--space", str(n), str(m), kind, "--input", "input"]
    t = draw(st.one_of(st.floats(-2.0, 2.0), SCALARS))
    argv += [f"--t={_arg(t)}", "--steps", str(draw(st.integers(100, 400)))]
    data = [[draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))] for _ in range(n * m)]
    return argv, {"input": {"rows": n, "cols": m, "data": data}}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


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


def _check_outcome(workdir, argv, docs):
    for name, doc in docs.items():
        path = workdir / name
        path.write_text(json.dumps(doc))
        argv[argv.index(name)] = str(path)
    code, out, err = run_main(argv)
    if code == 2:
        assert "usage" in err
        return
    assert err == ""
    if code == 1:
        error = json.loads(out)["error"]
        assert set(error) == {"type", "message"}
    else:
        assert code == 0 and out


@pytest.mark.parametrize("n", [3, 4])
def test_tan_pole_crossing_exits_1(tmp_path, n):
    # ||t B||_2 = 1.68 > pi/2: the compact geodesic crosses a tan pole, which
    # the triple (k = 3) and block (k = 4) integrators must report
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = tmp_path / "b.json"
    path.write_text(json.dumps(jsonio.matrix_to_doc(B * (1.4 / np.linalg.norm(B, 2)))))
    argv = ["geodesic-check", "--space", str(n), str(n), "compact", "--input", str(path)]
    code, out, err = run_main([*argv, "--t", "-1.2"])
    assert (code, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "LeftChartError"
