import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from grassgeo import cli, jsonio
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


def mp_matrix(A):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in A])


def _mp_inv_sqrt(G):
    w, Q = mpmath.eighe(G)
    return Q * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * Q.transpose_conj()


def mp_orthonormal(F):
    """F (F^dagger F)^{-1/2} at mpmath's working precision: the orthonormal frame
    nearest to the exact float frame F, with the same column span."""
    A = mp_matrix(F)
    return A * _mp_inv_sqrt(A.transpose_conj() * A)


def mp_chart_cosines(eps, Z1, Z2):
    """Singular values, at mpmath's working precision, of the chart cosine
    matrix (I + eps Z1 Z1^dagger)^{-1/2} (I + eps Z1 Z2^dagger)
    (I + eps Z2 Z2^dagger)^{-1/2} of the exact float inputs: cos theta_i
    (compact) or cosh tau_i (noncompact) of the angles between the planes."""
    A, B = mp_matrix(Z1), mp_matrix(Z2)
    eye = mpmath.eye(A.rows)
    M = (
        _mp_inv_sqrt(eye + eps * A * A.transpose_conj())
        * (eye + eps * A * B.transpose_conj())
        * _mp_inv_sqrt(eye + eps * B * B.transpose_conj())
    )
    return mpmath.svd_c(M, compute_uv=False)


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


def write_doc(path, M):
    """Write M as a MatrixDocument to the pathlib path; return it as a str."""
    path.write_text(json.dumps(jsonio.matrix_to_doc(np.asarray(M, dtype=complex))))
    return str(path)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI = ["-m", "grassgeo.cli"]


def run_process(args, stdin=None, env=None):
    """CompletedProcess, with stdout and stderr as bytes, of a child
    `python *args` that imports grassgeo from this checkout's src.  stdin is
    a str; env adds variables to the parent's environment.  Only what a real
    process shows needs one: byte-identical reruns, the `python -m` entry
    point and its exit codes, a real environment variable, a clean import."""
    child_env = {**os.environ, **(env or {}), "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args],
        input=None if stdin is None else stdin.encode(),
        capture_output=True,
        env=child_env,
    )


__all__ = [
    "CLI",
    "mp_chart_cosines",
    "mp_matrix",
    "mp_orthonormal",
    "run_main",
    "run_process",
    "random_chart_point_rng",
    "random_plane_rng",
    "random_tangent_rng",
    "random_unitary",
    "write_doc",
]
