"""The import rule of a cold start, checked in fresh processes.

`import grassgeo` loads no submodule and no numpy; a public name loads its
submodule on first access.  `python -m grassgeo.cli` loads at module level
only what every subcommand needs (geometry, jsonio, spaces, errors, linalg),
and each handler imports the rest of what it uses.  A fresh child per command
shows what that command loads by itself: in one test process a handler could
pass only because an earlier test loaded its module.  Each child runs the
cli module as `python -m` does and, at exit, writes the number of objects
gc.freeze moved out of the collector's reach and the names in sys.modules to
stderr after a NUL byte, the only byte of stderr the test does not expect.
A process ends through cli.run, which freezes its heap so that teardown does
not collect it; cli.main, the in-process API, never touches gc.
"""

import contextlib
import gc
import importlib
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import grassgeo
from grassgeo import cli, geometry
from conftest import run_main, run_process, write_doc

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    workloads = importlib.import_module("workloads")  # the benchmark's cli-cold mix
finally:
    sys.path.remove(PERFBENCH)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# at exit, a child writes its freeze count and its modules on stderr after a NUL byte
LIST_MODULES = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write("
    "'\\0' + ' '.join([str(gc.get_freeze_count()), *sorted(sys.modules)])))\n"
)
RUN_CLI = "import runpy\nrunpy.run_module('grassgeo.cli', run_name='__main__', alter_sys=True)\n"
# no cold start loads scipy or the test tools
HEAVY = {"scipy", "mpmath", "hypothesis"}
# nor dataclasses, whose decorator compiles each class's methods as its module loads
CODEGEN = {"dataclasses"}

# grassgeo submodules each subcommand loads, cli itself aside; a --seed,
# --seed1 or --seed2 adds sampling, which draws the random plane
BASE = {"errors", "geometry", "jsonio", "linalg", "spaces"}
KERNELS = BASE | {"kernels"}
LOCI = BASE | {"loci"}
NEEDS = {
    "exp": BASE,
    "log": BASE,
    "geodesic-check": BASE,
    "distance": BASE,
    "overlap": KERNELS,
    "diastasis": KERNELS,
    "cayley": KERNELS,
    "plucker": KERNELS,
    "energy": KERNELS,
    "critical-points": KERNELS,
    "conjugate-times": LOCI,
    "conjugate-scan": LOCI,
    "cut-test": LOCI,
    "schubert": LOCI,
    "strata": LOCI,
    "isoclinic": LOCI,
    # topology reads the energy spec from kernels and Schubert symbols from loci
    "char-numbers": BASE | {"kernels", "loci", "topology"},
}
SEED_FLAGS = {"--seed", "--seed1", "--seed2"}


def _needs(argv):
    return NEEDS[argv[0]] | ({"sampling"} if SEED_FLAGS & set(argv) else set())


def _subcommand_argvs(docs):
    """One argv per subcommand, on both signs, with a frame from a file or a seed."""
    h = ["--h", "0.6", "0.8", "--tmax", "3"]
    return {
        "exp": ["exp", "--space", "2", "2", "compact", "--input", docs["b"], "--t", "0.5"],
        "log": ["log", "--space", "2", "2", "noncompact", "--input", docs["z1"]],
        "geodesic-check": ["geodesic-check", "--space", "2", "2", "noncompact",
                           "--input", docs["b"], "--steps", "50"],
        **{
            command: [command, "--space", "2", "2", kind, "--z1", docs["z1"], "--z2", docs["z2"]]
            for command, kind in (("distance", "noncompact"), ("overlap", "compact"),
                                  ("diastasis", "noncompact"), ("cayley", "compact"))
        },
        "plucker": ["plucker", "--space", "2", "2", "compact", "--frame", docs["frame"]],
        "energy": ["energy", "--space", "2", "2", "compact", "--seed", "3",
                   "--eps", "4", "3", "2", "1"],
        "critical-points": ["critical-points", "--space", "2", "2", "compact"],
        "conjugate-times": ["conjugate-times", "--space", "2", "2", "compact", *h],
        "conjugate-scan": ["conjugate-scan", "--space", "2", "2", "compact", *h, "--points", "5"],
        "cut-test": ["cut-test", "--space", "3", "3", "compact", "--seed", "7"],
        "schubert": ["schubert", "--space", "2", "2", "compact", "--frame", docs["frame"],
                     "--omega", "1", "2"],
        "strata": ["strata", "--space", "2", "3", "compact", "--seed", "5"],
        "isoclinic": ["isoclinic", "--space", "2", "2", "compact", "--seed1", "1", "--seed2", "2"],
        "char-numbers": ["char-numbers", "--space", "2", "2", "compact"],
    }


def _child(code, args=()):
    """(exit code, stdout, stderr before the module list, grassgeo submodules
    loaded, every top-level package loaded, objects frozen at exit) of a fresh
    `python -c code *args`."""
    out = run_process(["-c", LIST_MODULES + code, *args])
    stderr, _, listing = out.stderr.rpartition(b"\0")
    frozen, *modules = listing.decode().split()
    ours = {m.split(".", 1)[1] for m in modules if m.startswith("grassgeo.")}
    packages = {m.split(".")[0] for m in modules}
    return out.returncode, out.stdout, stderr, ours, packages, int(frozen)


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """{id: (argv, child result)}; the children run two at a time."""
    workdir = tmp_path_factory.mktemp("cold")
    rng = np.random.default_rng(20240817)
    docs = {
        "b": write_doc(workdir / "b.json", 0.4 * rng.standard_normal((2, 2))),
        "z1": write_doc(workdir / "z1.json", [[0.3, 0.1j], [-0.2, 0.25]]),
        "z2": write_doc(workdir / "z2.json", [[-0.1, 0.2], [0.05j, 0.4]]),
        "frame": write_doc(workdir / "frame.json", [[1, 0], [0, 0.6], [0, 0.8], [0, 0]]),
    }
    argvs = {
        **_subcommand_argvs(docs),
        **{
            f"cli-cold-{label}": argv
            for label, argv, _ in workloads._cli_command_list(1, workdir, contextlib.nullcontext)
        },
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda argv: _child(RUN_CLI, argv), argvs.values())
        return {key: (argv, result) for (key, argv), result in zip(argvs.items(), results)}


CASE_IDS = sorted(NEEDS) + [f"cli-cold-{label}" for label in workloads.CLI_LABELS]


@pytest.mark.parametrize("case", CASE_IDS)
def test_a_cold_command_loads_only_what_its_handler_needs(cases, case):
    argv, (code, stdout, stderr, ours, packages, frozen) = cases[case]
    assert ours == _needs(argv), argv
    assert not HEAVY & packages
    assert not CODEGEN & packages
    assert stderr == b""
    # the bytes of an in-process run, where every module may already be loaded
    assert (code, stdout.decode()) == run_main(argv)[:2]
    assert frozen > 0  # the process ended through cli.run, exit 1 included


def test_a_usage_error_ends_through_run_too():
    argv = ["exp", "--space", "1", "1", "compcat"]
    code, stdout, stderr, _, _, frozen = _child(RUN_CLI, argv)
    assert (code, stdout.decode(), stderr.decode()) == run_main(argv)
    assert code == 2 and stderr.startswith(b"usage error:") and frozen > 0


def test_an_in_process_run_leaves_the_collector_as_it_was(tmp_path):
    before = gc.get_freeze_count(), gc.isenabled()
    for label, argv, expected in workloads._cli_command_list(1, tmp_path, contextlib.nullcontext):
        assert run_main(argv)[0] == expected, label
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_script_runs_the_same_entry_as_python_m():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    target = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]["grassgeo"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_every_subcommand_is_covered(cases):
    from grassgeo import cli

    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    commands = set(subparsers.choices)
    assert commands == set(NEEDS) == {argv[0] for argv, _ in cases.values()}
    assert set(cases) == set(CASE_IDS)


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import grassgeo", set()),
        ("import grassgeo.cli", BASE | {"cli"}),
        ("from grassgeo import exp0", BASE - {"jsonio"}),
        ("import grassgeo; grassgeo.kernels", KERNELS - {"jsonio"}),
    ],
    ids=["grassgeo", "grassgeo.cli", "exp0", "submodule"],
)
def test_a_cold_import_loads_only_what_it_names(statement, loaded):
    code, stdout, stderr, ours, packages, frozen = _child(statement)
    assert (code, stdout, stderr) == (0, b"", b"")
    assert ours == loaded
    assert not HEAVY & packages
    assert not CODEGEN & packages
    assert ("numpy" in packages) == bool(loaded)
    assert frozen == 0  # only cli.run freezes; importing cli does not


# ---------------------------------------------------------------- package contract


def test_every_public_name_is_its_submodule_attribute():
    for name in grassgeo.__all__:
        obj = getattr(grassgeo, name)
        assert obj.__module__.startswith("grassgeo."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_a_public_name_is_read_from_its_submodule_on_every_access(monkeypatch):
    # nothing is cached in the package: a rebound submodule attribute, such as a
    # tracer's wrapper, is what the package returns, and the original comes back
    original = grassgeo.exp0
    monkeypatch.setattr(geometry, "exp0", "rebound")
    assert grassgeo.exp0 == "rebound"
    monkeypatch.undo()
    assert grassgeo.exp0 is original
    assert "exp0" not in vars(grassgeo)


def test_dir_lists_every_public_name():
    assert set(grassgeo.__all__) <= set(dir(grassgeo))
    assert {"__version__", "geometry", "kernels"} <= set(dir(grassgeo))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        grassgeo.no_such_name
    assert not hasattr(grassgeo, "__wrapped__")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from grassgeo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(grassgeo.__all__)
    assert namespace["distance"] is geometry.distance
