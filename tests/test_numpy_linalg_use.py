"""A static scan of how src/grassgeo calls numpy.linalg.

The package takes no matrix inverse, linear solve, Hermitian eigensolver,
least squares or Cholesky factor: every spectral step goes through one SVD
wrapper, linalg._svd, which turns a LAPACK failure into NumericalFailure.
The one QR left orthonormalizes the Gaussian draw of a random compact plane.
"""

import ast
import pathlib

import grassgeo

FORBIDDEN = {"inv", "solve", "eigh", "eigvalsh", "pinv", "lstsq", "cholesky"}
# numpy.linalg function -> the only (module, function) allowed to call it
CONFINED = {"svd": {("linalg", "_svd")}, "qr": {("sampling", "random_plane_rng")}}


class _Uses(ast.NodeVisitor):
    """Every numpy.linalg.<name> of one module, with the function it sits in."""

    def __init__(self, module):
        self.module, self.scope, self.numpy, self.found = module, [], set(), []

    def _record(self, name, node):
        self.found.append((name, (self.module, ".".join(self.scope)), node.lineno))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy.add(alias.asname or "numpy")
            elif alias.name.startswith("numpy.linalg"):
                self._record("import numpy.linalg", node)

    def visit_ImportFrom(self, node):
        if node.module == "numpy.linalg":
            for alias in node.names:
                self._record(alias.name, node)
        elif node.module == "numpy" and any(a.name == "linalg" for a in node.names):
            self._record("from numpy import linalg", node)

    def visit_Attribute(self, node):
        base = node.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "linalg"
            and isinstance(base.value, ast.Name)
            and base.value.id in self.numpy
        ):
            self._record(node.attr, node)
        self.generic_visit(node)


def _numpy_linalg_uses():
    uses = []
    for path in sorted(pathlib.Path(grassgeo.__file__).parent.glob("*.py")):
        visitor = _Uses(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        uses += [(name, where, f"{path.name}:{line}") for name, where, line in visitor.found]
    return uses


def test_the_scan_sees_the_calls_it_confines():
    # a scan that finds nothing would pass the test below on its own
    names = {name for name, _, _ in _numpy_linalg_uses()}
    assert {"svd", "qr", "det"} <= names


def test_numpy_linalg_use_in_src():
    bad = []
    for name, where, at in _numpy_linalg_uses():
        if name in FORBIDDEN or name.startswith(("import ", "from ")):
            bad.append(f"{at} {name}")
        elif name in CONFINED and where not in CONFINED[name]:
            bad.append(f"{at} {name} outside {sorted(CONFINED[name])}")
    assert not bad, "numpy.linalg used where the package does not allow it: " + "; ".join(bad)
