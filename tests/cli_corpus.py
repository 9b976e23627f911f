"""A checked-in corpus of CLI commands and the sha256 of what each one prints.

"The same outputs" means the same exit code, stdout and stderr bytes for every
subcommand.  `entries()` lists a fixed set of commands over all 17
subcommands, both signs and n, m <= 3: compact chart norms from 0 to 1e100,
dual radii up to 1 - 1e-6 and Z2 = (1 - 1e-12) I, pairs 1e-8 apart, seeds and
built frames with small cosines at several tols, dual scans past
DEXP_DUAL_LIMIT, the typed-error and usage-error cases, and one refusal of
each size cap.  `strata` runs also on (4, 1) and (4, 2), where n - m angles
with O are forced to zero, and on the shapes (1, 4) and (2, 4) of their
complements.  On (4, 4), (1, 4), (4, 1), (5, 4) and (4, 5)
one entry of each pointwise command runs on both signs.  Compact pairs whose
overlap is below 1e-12 run off, just off and on the polar divisor.  `schubert
--omega` runs on a plane whose dims turn on the tol, at the default tol and at 1e-3
through `--tol` and `GRASSGEO_TOL`, and every option of every subcommand is passed.
Inputs come from numpy's own seeded Generator, not from grassgeo.sampling, so
the builder also runs against an older grassgeo.  Each command runs in process through
cli.main, in a scratch working directory that holds its documents under
relative names, so no temporary path enters an id or an output.

    python tests/cli_corpus.py --check   # list the ids whose bytes moved
    python tests/cli_corpus.py --write   # record the digests of this grassgeo

Both use the grassgeo on PYTHONPATH; cli_corpus.json holds the digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("cli_corpus.json")
SHAPES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
STRATA_SHAPES = [(4, 1), (4, 2), (1, 4), (2, 4)]
FOUR_SHAPES = [(4, 4), (1, 4), (4, 1), (5, 4), (4, 5)]
KINDS = ("compact", "noncompact")
# argparse wraps its usage text at the terminal width
FIXED_ENV = {"COLUMNS": "80", "LINES": "24", "GRASSGEO_TOL": None}


@dataclass(frozen=True)
class Entry:
    """One command: argv for cli.main, the documents it reads by relative name,
    its stdin text and the environment variables it sets."""

    id: str
    argv: tuple
    files: dict = field(default_factory=dict)
    stdin: str | None = None
    env: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def _rng(*key) -> np.random.Generator:
    """A Generator of its own for each group of entries, so adding a group moves no input."""
    return np.random.Generator(np.random.PCG64([zlib.crc32(str(k).encode()) for k in key]))


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, k) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def _with_norm(rng, n, m, norm) -> np.ndarray:
    """A random n x m matrix of spectral norm `norm` (0 gives the zero matrix)."""
    Z = _gaussian(rng, (n, m))
    return Z * (norm / np.linalg.norm(Z, 2))


def doc(M) -> str:
    """The MatrixDocument text of M."""
    M = np.asarray(M, dtype=complex)
    data = [[float(z.real), float(z.imag)] for z in M.ravel()]
    return json.dumps({"rows": M.shape[0], "cols": M.shape[1], "data": data})


def built_frame(rng, n, m, cosines) -> np.ndarray:
    """A compact frame (n+m, n) whose cosines with O are `cosines` (at most min(n, m)
    of them, the rest 1), turned by random unitaries inside O and O-perp."""
    c = np.ones(n)
    c[: len(cosines)] = cosines
    r = min(n, m)
    U, Vh, Q = _unitary(rng, n), _unitary(rng, n), _unitary(rng, m)
    top = (U * c) @ Vh
    bottom = (Q[:, :r] * np.sqrt(1.0 - c[:r] ** 2)) @ Vh[:r]
    return np.vstack([top, bottom])


def golden_pair(n, m):
    """Two fixed chart points at least 0.39 apart and of spectral norm below 0.61,
    so in the bounded domain too, built from correctly rounded float64 steps."""
    a, b = np.arange(n)[:, None], np.arange(m)[None, :]
    z1 = (0.1 + 0.2 * a - 0.15 * b) + 1j * (0.05 * (a + b))
    return z1, (0.1 * b - 0.2) + 1j * (0.25 - 0.1 * a)


# ---------------------------------------------------------------- entries


def _tangent_entries(n, m, kind, sp, tag):
    rng = _rng("tangent", n, m, kind)
    for norm in (0.0, 1e-8, 0.5, 1.4, 3.0, 1e3):
        files = {"B.json": doc(_with_norm(rng, n, m, norm))}
        yield Entry(f"exp {tag} |B|={norm:g}", ("exp", *sp, "--input", "B.json"), files)
    files = {"B.json": doc(_with_norm(rng, n, m, 0.9))}
    for t in ("-0.7", "2.5", "1e200", "nan"):
        yield Entry(f"exp {tag} t={t}", ("exp", *sp, "--input", "B.json", "--t", t), files)
    argv = ("exp", *sp, "--input", "B.json", "--verify", "--steps", "200")
    yield Entry(f"exp {tag} verify", argv, files)
    yield Entry(f"exp {tag} stdin", ("exp", *sp), stdin=files["B.json"])
    for norm, steps in ((0.3, "100"), (1.2, "400"), (2.0, "150")):
        files = {"B.json": doc(_with_norm(rng, n, m, norm))}
        argv = ("geodesic-check", *sp, "--input", "B.json", "--steps", steps)
        yield Entry(f"geodesic-check {tag} |B|={norm:g} steps={steps}", argv, files)


def _chart_entries(n, m, kind, sp, tag):
    rng = _rng("chart", n, m, kind)
    # compact chart norms 0 to 1e100; dual radii to 1 - 1e-6, and one point outside
    compact = kind == "compact"
    norms = (0.0, 1e-8, 0.5, 1.0, 30.0, 1e6, 1e50, 1e100) if compact else (
        0.0, 1e-8, 0.5, 0.9, 0.999, 1 - 1e-6, 1.5)
    for s in norms:
        files = {"Z.json": doc(_with_norm(rng, n, m, s))}
        yield Entry(f"log {tag} |Z|={s:.15g}", ("log", *sp, "--input", "Z.json"), files)
    scales = ((0.0, 0.5), (0.5, 0.5), (1.0, 30.0), (1e6, 1e6), (1e100, 1e100)) if compact else (
        (0.0, 0.5), (0.5, 0.9), (0.999, 1 - 1e-6))
    pairs = [(f"|Z1|={a:.15g} |Z2|={b:.15g}", _with_norm(rng, n, m, a), _with_norm(rng, n, m, b))
             for a, b in scales]
    for s in (0.5, 1e3, 1e50) if compact else (0.5, 0.999):
        Z = _with_norm(rng, n, m, s)
        pairs.append((f"1e-8 apart at {s:g}", Z, Z + _with_norm(rng, n, m, 1e-8)))
    Z = _with_norm(rng, n, m, 0.7)
    pairs.append(("equal", Z, Z))
    if not compact:
        pairs.append(("Z1=0 Z2=(1-1e-12)I", np.zeros((n, m)), (1 - 1e-12) * np.eye(n, m)))
    pairs.append(("golden", *golden_pair(n, m)))
    for label, Z1, Z2 in pairs:
        files = {"z1.json": doc(Z1), "z2.json": doc(Z2)}
        for command in ("overlap", "distance", "diastasis", "cayley"):
            argv = (command, *sp, "--z1", "z1.json", "--z2", "z2.json")
            yield Entry(f"{command} {tag} {label}", argv, files)
        argv = ("overlap", *sp, "--z1", "z1.json", "--z2", "z2.json", "--verify")
        yield Entry(f"overlap {tag} {label} verify", argv, files)


def _flat_entries(n, m, kind, sp, tag):
    rng, r = _rng("flat", n, m, kind), min(n, m)
    hs = [("ones", np.ones(r)), ("random", rng.standard_normal(r))]
    if r > 1:
        hs.append(("one zero", np.concatenate([[0.0], rng.standard_normal(r - 1)])))
    for label, h in hs:
        h_args = ("--h", *(repr(float(x)) for x in h))
        for tmax in ("3", "20"):
            argv = ("conjugate-times", *sp, *h_args, "--tmax", tmax)
            yield Entry(f"conjugate-times {tag} h={label} tmax={tmax}", argv)
        # |t B|_2 = t for a unit h, so the dual scan runs past DEXP_DUAL_LIMIT = 7
        argv = ("conjugate-scan", *sp, *h_args, "--tmax", "8", "--points", "12")
        yield Entry(f"conjugate-scan {tag} h={label} tmax=8", argv)
    ones = ("--h", *["1"] * r)
    argv = ("conjugate-scan", *sp, *ones, "--tmax", "2", "--points", "5")
    yield Entry(f"conjugate-scan {tag} tmax=2", argv)
    argv = ("conjugate-times", *sp, *ones, "--tmax", "3", "--no-normalize")
    yield Entry(f"conjugate-times {tag} no-normalize", argv)


def _frame_entries(n, m, kind, sp, tag):
    for seed in ("0", "1", "2", "3"):
        yield Entry(f"cut-test {tag} seed={seed}", ("cut-test", *sp, "--seed", seed))
    for tol in ("1e-12", "1e-2"):
        yield Entry(f"cut-test {tag} seed=0 tol={tol}", ("cut-test", *sp, "--seed", "0",
                                                          "--tol", tol))
    for seed in ("0", "1"):
        for command in ("strata", "plucker"):
            yield Entry(f"{command} {tag} seed={seed}", (command, *sp, "--seed", seed))
        yield Entry(f"schubert {tag} seed={seed}", ("schubert", *sp, "--seed", seed))
    omega = [str(m - 1)] + [str(m)] * (n - 1)  # the Wong cut symbol
    argv = ("schubert", *sp, "--seed", "2", "--flag", "dual", "--omega", *omega)
    yield Entry(f"schubert {tag} seed=2 dual omega={'.'.join(omega)}", argv)
    argv = ("schubert", *sp, "--seed", "2", "--omega", *["0"] * n, "--tol", "1e-6")
    yield Entry(f"schubert {tag} seed=2 omega=0 tol=1e-6", argv)
    for s1, s2 in (("1", "2"), ("3", "3")):
        argv = ("isoclinic", *sp, "--seed1", s1, "--seed2", s2)
        yield Entry(f"isoclinic {tag} seeds={s1},{s2}", argv)
    eps = [str(float(k)) for k in range(n + m, 0, -1)]
    yield Entry(f"energy {tag} seed=0", ("energy", *sp, "--seed", "0", "--eps", *eps))
    if kind == "noncompact":
        return
    # built planes with small cosines with O; on G_2(C^4) also (1e-5, 1e-5), whose det
    # 1e-10 is below the default tol while its smallest cosine is above it
    rng = _rng("frame", n, m, kind)
    cosine_sets = [(1e-3,), (3e-9,), (3e-10,), (0.0,)] + [(1e-5, 1e-5)] * ((n, m) == (2, 2))
    for cosines in cosine_sets:
        label = f"built cosines={','.join(f'{c:g}' for c in cosines)}"
        files = {"F.json": doc(built_frame(rng, n, m, cosines))}
        for tol in (None, "1e-12", "1e-2"):
            argv = ("cut-test", *sp, "--frame", "F.json") + (("--tol", tol) if tol else ())
            yield Entry(f"cut-test {tag} {label}" + (f" tol={tol}" if tol else ""), argv, files)
        for command in ("strata", "plucker"):
            yield Entry(f"{command} {tag} {label}", (command, *sp, "--frame", "F.json"), files)
        argv = ("schubert", *sp, "--frame", "F.json", "--flag", "dual", "--omega", *omega)
        yield Entry(f"schubert {tag} {label} dual", argv, files)
        files = {**files, "F2.json": doc(built_frame(rng, n, m, cosines))}
        argv = ("isoclinic", *sp, "--frame1", "F.json", "--frame2", "F2.json")
        yield Entry(f"isoclinic {tag} {label}", argv, files)


def _strata_entries(n, m):
    """strata on a shape outside SHAPES: seeds, and built frames with small cosines with O
    and, where r = min(n, m) >= 2, two equal ones."""
    sp, tag = ("--space", str(n), str(m), "compact"), f"{n}x{m} compact"
    for seed in ("0", "1"):
        yield Entry(f"strata {tag} seed={seed}", ("strata", *sp, "--seed", seed))
    rng = _rng("strata", n, m)
    for cosines in [(1e-3,), (3e-9,), (0.0,)] + [(0.5, 0.5)] * (min(n, m) >= 2):
        label = f"built cosines={','.join(f'{c:g}' for c in cosines)}"
        files = {"F.json": doc(built_frame(rng, n, m, cosines))}
        yield Entry(f"strata {tag} {label}", ("strata", *sp, "--frame", "F.json"), files)


def _four_entries(n, m, kind):
    """One of each pointwise command on a shape with n or m = 4, as pair-sweep runs them."""
    sp, tag = ("--space", str(n), str(m), kind), f"{n}x{m} {kind}"
    rng = _rng("four", n, m, kind)
    files = {"B.json": doc(_with_norm(rng, n, m, 0.9))}
    yield Entry(f"exp {tag}", ("exp", *sp, "--input", "B.json"), files)
    files = {"Z.json": doc(_with_norm(rng, n, m, 0.5))}
    yield Entry(f"log {tag}", ("log", *sp, "--input", "Z.json"), files)
    files = {"z1.json": doc(_with_norm(rng, n, m, 0.5)), "z2.json": doc(_with_norm(rng, n, m, 0.6))}
    compact = kind == "compact"  # cayley, plucker and cut-test refuse the dual
    for command in ("overlap", "distance", "diastasis") + ("cayley",) * compact:
        yield Entry(f"{command} {tag}", (command, *sp, "--z1", "z1.json", "--z2", "z2.json"), files)
    for command in ("plucker", "cut-test") * compact:
        yield Entry(f"{command} {tag} seed=0", (command, *sp, "--seed", "0"))
    h = ("--h", *(repr(float(x)) for x in rng.standard_normal(min(n, m))))
    yield Entry(f"conjugate-times {tag}", ("conjugate-times", *sp, *h, "--tmax", "3"))
    argv = ("conjugate-scan", *sp, *h, "--tmax", "3", "--points", "5")
    yield Entry(f"conjugate-scan {tag}", argv)


def _algebra_entries(n, m, kind, sp, tag):
    rng = _rng("algebra", n, m, kind)
    eps = [repr(float(x)) for x in rng.standard_normal(n + m)]
    for label, extra in (("default", ()), ("random eps", ("--eps", *eps)),
                         ("equal eps", ("--eps", *["1.0"] * (n + m)))):
        for command in ("critical-points", "char-numbers"):
            yield Entry(f"{command} {tag} {label}", (command, *sp, *extra))


# compact pairs with an overlap below 1e-12: 0 against c I, whose n cosines 1 / sqrt(1 + c^2)
# are far from 0; I against (-1 + 1e-11) I, two cosines of 5e-12, just off the polar divisor;
# and 2 I against -I / 2, on it
DIVISOR_PAIRS = [
    ("Z1=0 Z2=1e8I", 2, np.zeros((2, 2)), 1e8 * np.eye(2)),
    ("Z1=0 Z2=3e5I", 3, np.zeros((3, 3)), 3e5 * np.eye(3)),
    ("Z1=I Z2=(-1+1e-11)I", 2, np.eye(2), (-1 + 1e-11) * np.eye(2)),
    ("Z1=2I Z2=-I/2", 2, 2 * np.eye(2), -0.5 * np.eye(2)),
]


def _divisor_entries():
    for label, n, Z1, Z2 in DIVISOR_PAIRS:
        sp, tag = ("--space", str(n), str(n), "compact"), f"{n}x{n} compact"
        files = {"z1.json": doc(Z1), "z2.json": doc(Z2)}
        for command in ("overlap", "distance", "diastasis", "cayley"):
            argv = (command, *sp, "--z1", "z1.json", "--z2", "z2.json")
            yield Entry(f"{command} {tag} {label}", argv, files)


# typed errors (exit 1) and usage errors (exit 2) outside the per-space grid
G22 = ("--space", "2", "2", "compact")
BAD_INPUTS = [
    Entry("cut-test neither --frame nor --seed", ("cut-test", *G22)),
    Entry("energy --eps 1", ("energy", *G22, "--seed", "0", "--eps", "1")),
    Entry("energy --eps inf 1", ("energy", *G22, "--seed", "0", "--eps", "inf", "1")),
    Entry("critical-points --eps 1 2 3", ("critical-points", *G22, "--eps", "1", "2", "3")),
    Entry("--space 0 2 compact", ("exp", "--space", "0", "2", "compact"), stdin=doc([[0.5]])),
    Entry("document lacks data", ("log", *G22, "--input", "Z.json"),
          {"Z.json": '{"rows": 2, "cols": 2}'}),
    Entry("document is a list", ("log", *G22, "--input", "Z.json"), {"Z.json": "[1, 2]"}),
    Entry("document rows a float", ("log", *G22, "--input", "Z.json"),
          {"Z.json": '{"rows": 1.0, "cols": 1, "data": [[0.5, 0]]}'}),
    Entry("document data a bool", ("log", "--space", "1", "1", "compact", "--input", "Z.json"),
          {"Z.json": '{"rows": 1, "cols": 1, "data": [[true, 0]]}'}),
    Entry("document of the wrong shape", ("log", *G22, "--input", "Z.json"),
          {"Z.json": doc([[0.1, 0.2]])}),
    Entry("document malformed JSON", ("log", *G22, "--input", "Z.json"), {"Z.json": '{"rows": '}),
    Entry("document missing", ("log", *G22, "--input", "missing.json")),
    Entry("--space unknown kind", ("exp", "--space", "2", "2", "compcat")),
    Entry("--space not an integer", ("exp", "--space", "2", "x", "compact")),
    Entry("--seed negative", ("cut-test", *G22, "--seed", "-1")),
    Entry("--points 0", ("conjugate-scan", *G22, "--h", "1", "1", "--tmax", "3", "--points", "0")),
    Entry("--steps 50", ("geodesic-check", *G22, "--steps", "50"), stdin=doc(0.1 * np.eye(2))),
    Entry("--steps 10**6", ("exp", *G22, "--verify", "--steps", "1000000"),
          stdin=doc(0.1 * np.eye(2))),
    Entry("--h zero", ("conjugate-times", *G22, "--h", "0", "0", "--tmax", "3")),
    Entry("--h nan", ("conjugate-times", *G22, "--h", "nan", "1", "--tmax", "3")),
    Entry("--h of the wrong length", ("conjugate-times", *G22, "--h", "1", "--tmax", "3")),
    Entry("--tmax inf", ("conjugate-times", *G22, "--h", "1", "1", "--tmax", "inf")),
    Entry("--tmax negative", ("conjugate-scan", *G22, "--h", "1", "1", "--tmax", "-3")),
    Entry("--omega decreasing", ("schubert", *G22, "--seed", "0", "--omega", "2", "1")),
    Entry("--omega too long", ("schubert", *G22, "--seed", "0", "--omega", "0", "1", "2")),
    Entry("isoclinic without --seed2", ("isoclinic", *G22, "--seed1", "1")),
    Entry("--tol zero", ("cut-test", *G22, "--seed", "7", "--tol", "0")),
    Entry("GRASSGEO_TOL 1e-6", ("cut-test", *G22, "--seed", "7"), env={"GRASSGEO_TOL": "1e-6"}),
    Entry("GRASSGEO_TOL abc", ("schubert", *G22, "--seed", "7"), env={"GRASSGEO_TOL": "abc"}),
    Entry("--tol over GRASSGEO_TOL", ("cut-test", *G22, "--seed", "7", "--tol", "1e-3"),
          env={"GRASSGEO_TOL": "abc"}),
    Entry("schubert --tol 0.9 dims out of range",
          ("schubert", *G22, "--seed", "0", "--tol", "0.9", "--omega", "0", "1")),
    Entry("schubert GRASSGEO_TOL 2", ("schubert", *G22, "--seed", "0"), env={"GRASSGEO_TOL": "2"}),
    Entry("frame not orthonormal", ("strata", *G22, "--frame", "F.json"),
          {"F.json": doc(np.ones((4, 2)))}),
    Entry("unknown subcommand", ("frobnicate", *G22)),
    Entry("missing --z2", ("distance", *G22, "--z1", "z1.json")),
    Entry("cayley on the dual", ("cayley", "--space", "1", "1", "noncompact", "--z1", "z1.json",
                                 "--z2", "z1.json"), {"z1.json": doc([[0.5]])}),
    # one refusal of each size cap, before what it caps is built
    Entry("plucker 9x11 over MAX_PLUCKER_ENTRIES",
          ("plucker", "--space", "9", "11", "compact", "--seed", "0")),
    Entry("char-numbers 7x7 over MAX_ORTHOGONAL_PLANES",
          ("char-numbers", "--space", "7", "7", "compact")),
    Entry("conjugate-times tmax=1e7 over MAX_CONJUGATE_TIMES",
          ("conjugate-times", *G22, "--h", "0.6", "0.8", "--tmax", "1e7")),
    Entry("conjugate-scan 3x4 points=10000 over MAX_SCAN_ENTRIES",
          ("conjugate-scan", "--space", "3", "4", "compact", "--h", "1", "1", "1", "--tmax", "3",
           "--points", "10000")),
    Entry("schubert 100x100 flag stack over MAX_CELLS",
          ("schubert", "--space", "100", "100", "compact", "--seed", "0")),
    Entry("cut-test 1000x1000 seed frame over MAX_CELLS",
          ("cut-test", "--space", "1000", "1000", "compact", "--seed", "0")),
    Entry("char-numbers 1000000x1000000 default eps over MAX_CELLS",
          ("char-numbers", "--space", "1000000", "1000000", "compact")),
    # binomial counts past 4300 digits, refused without being computed
    *[
        Entry(f"{command} {n}x{n} count over 4300 digits", (command, "--space", n, n, "compact"))
        for command, n in (("char-numbers", "20000"), ("char-numbers", "100000"),
                           ("critical-points", "100000"))
    ],
]


def _near_e1_entries():
    """The plane of (e1 + 1e-5 e4) / |.| and (e2 + e3) / sqrt 2 meets C^1 = span(e1) at tol
    1e-3 but not at the default 1e-9, so --omega 0 1 turns on the tol of the dims beside it."""
    F = np.zeros((4, 2))
    F[0, 0], F[3, 0] = 1.0, 1e-5
    F[:, 0] /= np.linalg.norm(F[:, 0])
    F[1, 1] = F[2, 1] = np.sqrt(0.5)
    files = {"F.json": doc(F)}
    argv = ("schubert", *G22, "--frame", "F.json", "--omega", "0", "1")
    yield Entry("schubert near e1 omega=0.1", argv, files)
    yield Entry("schubert near e1 omega=0.1 tol=1e-3", argv + ("--tol", "1e-3"), files)
    yield Entry("schubert near e1 omega=0.1 GRASSGEO_TOL=1e-3", argv, files,
                env={"GRASSGEO_TOL": "1e-3"})


def _option_entries():
    """One entry for each option that no other entry passes to its subcommand."""
    rng = _rng("options")
    files = {"B.json": doc(_with_norm(rng, 2, 2, 0.8))}
    argv = ("geodesic-check", *G22, "--input", "B.json", "--t", "1.5", "--steps", "200")
    yield Entry("geodesic-check 2x2 compact t=1.5", argv, files)
    argv = ("conjugate-scan", *G22, "--h", "0.6", "0.8", "--tmax", "3", "--points", "5",
            "--no-normalize")
    yield Entry("conjugate-scan 2x2 compact no-normalize", argv)
    files = {"F.json": doc(built_frame(rng, 2, 2, (0.5,)))}
    argv = ("energy", *G22, "--frame", "F.json", "--eps", "4.0", "3.0", "2.0", "1.0")
    yield Entry("energy 2x2 compact built frame", argv, files)


def entries() -> list[Entry]:
    """Every corpus command, in a fixed order, with distinct ids."""
    out = []
    for n, m in SHAPES:
        for kind in KINDS:
            sp, tag = ("--space", str(n), str(m), kind), f"{n}x{m} {kind}"
            for group in (_tangent_entries, _chart_entries, _flat_entries, _frame_entries,
                          _algebra_entries):
                out += group(n, m, kind, sp, tag)
    for n, m in STRATA_SHAPES:
        out += _strata_entries(n, m)
    for n, m in FOUR_SHAPES:
        for kind in KINDS:
            out += _four_entries(n, m, kind)
    out += _divisor_entries()
    out += _near_e1_entries()
    out += _option_entries()
    out += BAD_INPUTS
    assert len({e.id for e in out}) == len(out), "corpus ids must be distinct"
    return out


# ---------------------------------------------------------------- running


@contextlib.contextmanager
def _environment(values):
    """Set (or, for None, unset) the variables in values; restore them after."""
    saved = {key: os.environ.get(key) for key in values}
    try:
        for key, value in values.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run(entry: Entry) -> tuple:
    """(exit code, stdout, stderr) of cli.main on the entry, in the current directory,
    with warnings raised as errors; an uncaught exception is exit 1 with its type
    and message on stderr."""
    from grassgeo import cli

    for name, text in entry.files.items():
        Path(name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(entry.stdin or "")
    with _environment({**FIXED_ENV, **entry.env}), warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            saved, sys.stdin = sys.stdin, stdin
            try:
                code = cli.main(list(entry.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback in a real process
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
            finally:
                sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def outputs(selected: list[Entry]) -> dict[str, tuple]:
    """{id: run(entry)} of the entries, run in one fresh scratch directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return {e.id: run(e) for e in selected}
        finally:
            os.chdir(cwd)


def digests(selected: list[Entry]) -> dict[str, str]:
    return {key: digest(result) for key, result in outputs(selected).items()}


def recorded() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def moved(found: dict[str, str], expected: dict[str, str]) -> list[str]:
    """The ids whose digest differs, or that only one side has."""
    return sorted(k for k in found.keys() | expected.keys() if found.get(k) != expected.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the digests")
    mode.add_argument("--check", action="store_true", help="list the ids that moved")
    args = ap.parse_args(argv)
    found = digests(entries())
    if args.write:
        DIGESTS.write_text(json.dumps(found, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(found)} digests to {DIGESTS.name}")
        return 0
    ids = moved(found, recorded())
    print("\n".join(ids + [f"{len(ids)} of {len(found)} moved"]))
    return 1 if ids else 0


if __name__ == "__main__":
    sys.exit(main())
