"""perfbench's tracer rebinds grassgeo's functions and numpy.linalg's kernels
by name.  A refactor that renames or drops one of those names must fail here,
in the test suite, and not first in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_traced_names_resolve():
    missing = []
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"grassgeo.{layer}")
        for name in names:
            obj = getattr(module, name, None)
            # a traced class is traced through its __post_init__
            if obj is None or (isinstance(obj, type) and not hasattr(obj, "__post_init__")):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_lapack_names_resolve():
    assert [name for name in tracer.LAPACK if not callable(getattr(np.linalg, name, None))] == []
