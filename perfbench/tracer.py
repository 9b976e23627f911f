"""In-memory span tracer around grassgeo's public functions and numpy.linalg.

install() rebinds each traced function, in every loaded grassgeo module that
holds it, to a wrapper that records one span per call.  The validated types
(Frame, ChartPoint, TangentVector) are traced through __post_init__, which is
their constructor validation.  The numpy.linalg kernels beneath grassgeo are
traced as the `lapack` layer.  uninstall() restores every binding, so the
source tree is never touched and untraced passes run the original code.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED = {
    "geometry": (
        "geodesic_ode", "exp0", "exp0_frame", "log0", "distance",
        "transport_to_origin", "frame_of_chart", "chart_of_frame",
    ),
    "spaces": ("Frame", "ChartPoint", "TangentVector"),
    "linalg": ("svd", "apply_spectral", "principal_angles"),
    "kernels": (
        "kernel", "normalized_overlap", "diastasis", "cayley_distance",
        "plucker_embed", "plucker_overlap_oracle",
    ),
    "loci": ("dexp_min_singular", "cut_locus_test", "tangent_conjugate_times"),
    "topology": ("characteristic_report", "orthogonal_coherent_count"),
    "sampling": ("random_plane", "random_tangent_rng", "random_chart_point_rng"),
    "jsonio": ("dumps", "doc_to_matrix"),
    "cli": ("main",),
}
LAPACK = ("solve", "svd", "det", "qr", "eigh", "eigvalsh", "inv")
LAYERS = tuple(TRACED) + ("lapack",)
SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns
) + tuple(f"lapack.{fn}" for fn in LAPACK)

# one span = id, parent id (-1 for a root), group, op index, name index,
# start ns, end ns, self ns; group 0 is set-up, group k the k-th traced pass
FIELDS = ("id", "parent", "group", "op", "name", "start_ns", "end_ns", "self_ns")
WIDTH = len(FIELDS)


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.group = 0
        self.op = -1
        self.active = True
        self._next_id = 0
        self._stack: list[list[int]] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ bindings

    def install(self) -> None:
        import importlib

        for layer in TRACED:
            importlib.import_module(f"grassgeo.{layer}")
        modules = [
            m for name, m in sys.modules.items()
            if name == "grassgeo" or name.startswith("grassgeo.")
        ]
        for ix, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".", 1)
            if layer == "lapack":
                self._rebind(np.linalg, fn_name, self._wrap(ix, getattr(np.linalg, fn_name)))
                continue
            orig = getattr(sys.modules[f"grassgeo.{layer}"], fn_name)
            if isinstance(orig, type):
                self._rebind(orig, "__post_init__", self._wrap(ix, orig.__post_init__))
                continue
            wrapper = self._wrap(ix, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Leave the benchmark's own numpy work, such as oracles, out of the spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _rebind(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name_ix: int, fn):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.spans.extend(
                    (sid, parent, tracer.group, tracer.op, name_ix, start, end, dur - frame[1])
                )

        return wrapper

    # ------------------------------------------------------------ results

    def totals(self) -> dict:
        """{group: {span name: [calls, self ns]}}."""
        out: dict = {}
        s = self.spans
        for base in range(0, len(s), WIDTH):
            group = out.setdefault(s[base + 2], {})
            entry = group.setdefault(SPAN_NAMES[s[base + 4]], [0, 0])
            entry[0] += 1
            entry[1] += s[base + 7]
        return out

    def write(self, path) -> None:
        """Write every span as one CSV line; names are spelled out."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for base in range(0, len(s), WIDTH):
                row = list(s[base : base + WIDTH])
                row[4] = SPAN_NAMES[row[4]]
                fh.write(",".join(map(str, row)) + "\n")
