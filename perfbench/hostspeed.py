"""Host-speed calibration for the timed runs.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of up to two, over seconds to minutes, in wall time and in process
CPU time alike.  A fixed calibration kernel, independent of grassgeo, is
timed between blocks of operations, and each operation's time is scaled by
the host's speed around its block (see speed()): that is the time it would
have taken on a host on which the kernel takes REF_S.

The kernel mixes what the workloads spend their time on: small complex
LAPACK calls, numpy ufuncs on tiny arrays, and plain Python bytecode.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# The kernel's time on the reference host: a 2-core x86_64 VM with Python
# 3.11, numpy 2.4 and OpenBLAS capped at one thread, in its fast phase.
REF_S = 0.0045
# A bare interpreter start (`python -c pass`) on the same host.
REF_START_S = 0.045

_rng = np.random.default_rng(7)
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = _M @ _M.conj().T + 4 * np.eye(4)
_X = _rng.standard_normal((4, 2)) + 0j
_V = np.linspace(0.0, 1.0, 4) + 0j


def _lapack():
    x = _X
    for _ in range(25):
        x = 0.5 * (x + np.linalg.solve(_H, x))
        np.linalg.qr(_M[:, :3])
        np.linalg.svd(_M[:3, :3], compute_uv=False)
        np.linalg.eigh(_H[:2, :2])
    return x


def _ufunc():
    v = _V
    for _ in range(200):
        v = np.sqrt(np.abs(np.exp(1j * v.real) * 0.5 + (_H @ v) * 0.01)) + 0j
    return v


def _python():
    s, d = 0, {}
    for i in range(12000):
        s += i * 3 % 7
        d[i & 63] = s
    return s


def sample() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    _lapack()
    _ufunc()
    _python()
    return time.perf_counter() - start


def sample_start() -> float:
    """Seconds a bare interpreter start takes now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def speed(children: bool = False) -> float:
    """How fast the host runs now relative to the reference host: REF_S over
    the kernel's time.  For operations that run in child processes, the mean
    of that and REF_START_S over a bare interpreter start's time, since the
    kernel alone does not track the exec, loading and page faults of a
    start."""
    ratio = REF_S / sample()
    if children:
        ratio = 0.5 * (ratio + REF_START_S / sample_start())
    return ratio


def at_ref(fn):
    """(fn's result, seconds fn took scaled to the reference host)."""
    before = speed()
    start = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - start
    return out, dt * 0.5 * (before + speed())
