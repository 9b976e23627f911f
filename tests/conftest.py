import contextlib
import io
import sys
import warnings

import numpy as np
import pytest

from grassgeo import cli
from grassgeo.sampling import (
    generator,
    random_chart_point_rng,
    random_plane_rng,
    random_tangent_rng,
)
from grassgeo.spaces import GrassmannSpace


@pytest.fixture
def rng():
    return generator(20240817)


@pytest.fixture
def cp1():
    return GrassmannSpace(1, 1, epsilon=1)


@pytest.fixture
def cp1_dual():
    return GrassmannSpace(1, 1, epsilon=-1)


@pytest.fixture
def g24():
    return GrassmannSpace(2, 2, epsilon=1)


@pytest.fixture
def g24_dual():
    return GrassmannSpace(2, 2, epsilon=-1)


def random_unitary(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(A)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def run_main(argv, monkeypatch=None, stdin=None, env=None):
    """(exit code, stdout, stderr) of cli.main(argv) run in-process, with any
    warning raised as an error.  stdin and the environment variables in env
    are set through monkeypatch, as a child process would see them."""
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    for key, value in (env or {}).items():
        monkeypatch.setenv(key, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


__all__ = [
    "run_main",
    "random_chart_point_rng",
    "random_plane_rng",
    "random_tangent_rng",
    "random_unitary",
]
