"""A static scan of how src/grassgeo calls numpy.linalg, and numpy's arcsin,
of what its package and CLI modules import at module level, and of where it
raises its size refusal, its dual-domain refusal and three of its precondition messages.

The package takes no matrix inverse, linear solve, Hermitian eigensolver,
least squares or Cholesky factor: every spectral step goes through one SVD
wrapper, linalg._svd, which turns a LAPACK failure into NumericalFailure; no
numpy.linalg.norm takes a spectral order (2, -2 or "nuc"), which is an SVD too,
and no name is imported from numpy.linalg, so each call is seen as np.linalg.<name>.
The one QR left orthonormalizes the Gaussian draw of a random compact plane.
Every principal angle comes from one formula, linalg._angles, the only
caller of numpy.arcsin.

A cold start loads only what it uses: __init__ imports no submodule at module
level (its names load lazily), and cli imports kernels, loci, topology and
sampling only inside the handlers that need them.  No module imports
dataclasses, whose decorator compiles each class's methods when its module loads,
or names NamedTuple or namedtuple, which compile a __new__ for each class.

cli has one output boundary: nothing outside main touches sys.stdout, and no
print goes anywhere but file=sys.stderr.

Each contract has one check: spaces.check_enumeration_size alone raises
EnumerationSizeError, and each message of ONE_RAISE is raised by one function.
A caller's array becomes a Frame only through Frame's own checks:
spaces._built_frame, which skips them, is named only by the three builders
whose frames are orthonormal by construction.
"""

import ast
import pathlib

import grassgeo

FORBIDDEN = {"inv", "solve", "eigh", "eigvalsh", "pinv", "lstsq", "cholesky"}
# modules that no module of the package imports, at any level
REFUSED_MODULES = {"dataclasses"}
# names that generate a class's code when its module loads, refused wherever they appear
GENERATED_CLASSES = {"NamedTuple", "namedtuple"}
# numpy.linalg norms, and the orders at which they take an SVD
NORMS = {"norm", "matrix_norm"}
SPECTRAL_ORDS = (2, -2, "nuc")
# the unchecked Frame constructor, confined below like a numpy function
BUILT_FRAME = "_built_frame"
# numpy.linalg function, numpy.<function> or BUILT_FRAME -> the only (module, function) allowed
# to call it
CONFINED = {
    "svd": {("linalg", "_svd")},
    "qr": {("sampling", "random_plane_rng")},
    "numpy.arcsin": {("linalg", "_angles")},
    BUILT_FRAME: {
        ("geometry", "frame_of_chart"),
        ("spaces", "coordinate_plane_frame"),
        ("sampling", "random_plane_rng"),
    },
}
# module -> the grassgeo submodules it must not import at module level
NOT_AT_MODULE_LEVEL = {
    "__init__": {"cli", "errors", "geometry", "jsonio", "kernels", "linalg", "loci",
                 "sampling", "spaces", "topology"},
    "cli": {"kernels", "loci", "topology", "sampling"},
}
# the only function that raises EnumerationSizeError
SIZE_REFUSAL = ("spaces", "check_enumeration_size")
# message -> the one (module, function) that raises it, at one site
ONE_RAISE = {
    "n and m must be >= 1": ("spaces", "GrassmannSpace.__post_init__"),
    "eps must have length": ("kernels", "_check_energy"),
    "h must have length r": ("loci", "_cartan_rank"),
    "noncompact chart point needs all singular values < 1": ("spaces", "ChartPoint.__post_init__"),
}


class _Scoped(ast.NodeVisitor):
    """Records what one module does, with the function it sits in."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def _record(self, name, node):
        self.found.append((name, (self.module, ".".join(self.scope)), node.lineno))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped


class _Raises(_Scoped):
    """Every raise of one module, as (exception name, the constant text of its
    first argument); an f-string's placeholders are left out."""

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        args = node.exc.args if isinstance(node.exc, ast.Call) else []
        parts = args[0].values if args and isinstance(args[0], ast.JoinedStr) else args[:1]
        text = "".join(str(p.value) for p in parts if isinstance(p, ast.Constant))
        self._record((getattr(exc, "id", getattr(exc, "attr", None)), text), node)
        self.generic_visit(node)


class _Uses(_Scoped):
    """Every numpy.linalg.<name>, confined numpy.<name>, use of BUILT_FRAME, import of a
    REFUSED_MODULES module, GENERATED_CLASSES name and numpy.linalg norm at a spectral (or
    unreadable) order of one module, with the function it sits in."""

    def __init__(self, module):
        super().__init__(module)
        self.numpy = set()

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy.add(alias.asname or "numpy")
            elif alias.name.startswith("numpy.linalg"):
                self._record("import numpy.linalg", node)
            elif alias.name.split(".")[0] in REFUSED_MODULES:
                self._record(f"import {alias.name}", node)

    def visit_ImportFrom(self, node):
        if not node.level and (node.module or "").split(".")[0] in REFUSED_MODULES:
            self._record(f"from {node.module} import", node)
        elif node.module == "numpy.linalg":
            for alias in node.names:
                self._record(f"from numpy.linalg import {alias.name}", node)
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "linalg" or "numpy." + alias.name in CONFINED:
                    self._record(f"from numpy import {alias.name}", node)
        for alias in node.names:
            if alias.name in GENERATED_CLASSES:
                self._record(f"generated class {alias.name}", node)

    def _is_linalg(self, node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.numpy
        )

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in NORMS and self._is_linalg(func.value):
            for order in node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]:
                try:
                    spectral = ast.literal_eval(order) in SPECTRAL_ORDS
                except ValueError:
                    spectral = True  # an order the scan cannot read may be spectral
                if spectral:
                    self._record(f"spectral {func.attr}(ord={ast.unparse(order)})", node)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        base = node.value
        if self._is_linalg(base):
            self._record(node.attr, node)
        elif (
            isinstance(base, ast.Name)
            and base.id in self.numpy
            and "numpy." + node.attr in CONFINED
        ):
            self._record("numpy." + node.attr, node)
        elif node.attr == BUILT_FRAME:
            self._record(BUILT_FRAME, node)
        elif node.attr in GENERATED_CLASSES:
            self._record(f"generated class {node.attr}", node)
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == BUILT_FRAME:
            self._record(BUILT_FRAME, node)


def _sources():
    """{module name: source text} of every module of src/grassgeo."""
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(pathlib.Path(grassgeo.__file__).parent.glob("*.py"))
    }


def _found(visitor, sources):
    """(what, (module, function), "module.py:line") of every record of visitor over sources."""
    found = []
    for module, text in sources.items():
        scan = visitor(module)
        scan.visit(ast.parse(text))
        found += [(what, where, f"{module}.py:{line}") for what, where, line in scan.found]
    return found


def _numpy_uses(sources):
    return _found(_Uses, sources)


def _raise_violations(sources):
    raises = _found(_Raises, sources)
    bad = [
        f"{at} raise EnumerationSizeError outside {'.'.join(SIZE_REFUSAL)}"
        for (name, _), where, at in raises
        if name == "EnumerationSizeError" and where != SIZE_REFUSAL
    ]
    for message, home in ONE_RAISE.items():
        sites = [(where, at) for (_, text), where, at in raises if message in text]
        bad += [f"{at} raises {message!r} outside {'.'.join(home)}"
                for where, at in sites if where != home]
        if [where for where, _ in sites].count(home) != 1:
            bad.append(f"{home[0]}.py: {'.'.join(home)} must raise {message!r} once")
    return bad


def _module_level_imports(text):
    """(grassgeo submodule, line) for each submodule that a statement at the
    top level of the source imports, relatively or by the package name."""
    found = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.Import):
            names = [a.name.removeprefix("grassgeo.") for a in node.names
                     if a.name.startswith("grassgeo.")]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "grassgeo"
        ):
            module = (node.module or "").removeprefix("grassgeo").lstrip(".")
            names = [module] if module else [a.name for a in node.names]
        else:
            continue
        found += [(name.split(".")[0], node.lineno) for name in names]
    return found


def _is_sys(node, attr):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def _stdout_uses(text):
    """(top-level function or None, line, what) for each sys.stdout and each print
    call without file=sys.stderr in the source."""
    found = []
    for top in ast.parse(text).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if _is_sys(node, "stdout"):
                found.append((scope, node.lineno, "sys.stdout"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not any(k.arg == "file" and _is_sys(k.value, "stderr") for k in node.keywords)
            ):
                found.append((scope, node.lineno, "print to stdout"))
    return found


def _violations(sources):
    bad = [
        f"cli.py:{line} {what} outside main"
        for scope, line, what in _stdout_uses(sources["cli"])
        if scope != "main"
    ]
    bad += [
        f"{module}.py:{line} module-level import of {name}"
        for module, refused in NOT_AT_MODULE_LEVEL.items()
        for name, line in _module_level_imports(sources[module])
        if name in refused
    ]
    for name, where, at in _numpy_uses(sources):
        if name in FORBIDDEN or name.startswith(("import ", "from ", "generated ", "spectral ")):
            bad.append(f"{at} {name}")
        elif name in CONFINED and where not in CONFINED[name]:
            bad.append(f"{at} {name} outside {sorted(CONFINED[name])}")
    return bad + _raise_violations(sources)


def test_the_scan_sees_the_calls_it_confines():
    # a scan that finds nothing would pass the test below on its own
    sources = _sources()
    names = {name for name, _, _ in _numpy_uses(sources)}
    assert {"svd", "qr", "det", "numpy.arcsin", BUILT_FRAME} <= names
    imported = {name for name, _ in _module_level_imports(sources["cli"])}
    assert imported == {"errors", "geometry", "jsonio", "linalg", "spaces"}
    assert [(scope, what) for scope, _, what in _stdout_uses(sources["cli"])] == [
        ("main", "sys.stdout")
    ]
    raises = _found(_Raises, sources)
    assert [where for (name, _), where, _ in raises if name == "EnumerationSizeError"] == [
        SIZE_REFUSAL
    ]


def test_numpy_linalg_use_in_src():
    bad = _violations(_sources())
    message = (
        "numpy used, a module imported, stdout written or an error raised "
        "where the package forbids it: "
    )
    assert not bad, message + "; ".join(bad)


# (module, text, its replacement): each puts back a use that the scan refuses
MUTATIONS = [
    ("geometry", "theta = _angles(s, c)", "theta = np.arcsin(np.minimum(s, 1.0))"),
    ("loci", "import numpy as np\n", "import numpy as np\nfrom numpy import arcsin\n"),
    ("kernels", "import numpy as np\n", "import numpy as np\n_inv = np.linalg.inv\n"),
    ("linalg", "return _svd(M, compute_uv=False)", "return np.linalg.svd(M, compute_uv=False)"),
    ("cli", "from . import geometry, jsonio\n", "from . import geometry, jsonio, loci\n"),
    ("cli", "import numpy as np\n", "import numpy as np\n\nfrom grassgeo.sampling import random_plane\n"),
    ("cli", "import numpy as np\n", "import numpy as np\nimport grassgeo.topology\n"),
    ("__init__", "import importlib\n", "import importlib\n\nfrom .spaces import Frame\n"),
    ("spaces", "import operator\n", "import operator\nfrom dataclasses import dataclass\n"),
    ("loci", "import operator\n", "import operator\nfrom typing import NamedTuple\n"),
    ("errors", '"""Exception', 'import collections\n_R = collections.namedtuple("_R", "a")\n"""Exception'),
    ("geometry", "abs(h) * _svdvals(B.B)[0]", "abs(h) * np.linalg.norm(B.B, 2)"),
    ("geometry", "abs(h) * _svdvals(B.B)[0]", "abs(h) * np.linalg.norm(B.B, ord=-2)"),
    ("kernels", "np.linalg.norm(p1)", 'np.linalg.norm(p1, "nuc")'),
    ("kernels", "np.linalg.norm(p1)", "np.linalg.norm(p1, ord=order)"),
    ("sampling", "/ np.linalg.norm(B)", "/ np.linalg.matrix_norm(B, ord=2)"),
    ("topology", "import math\n", "import math\nfrom numpy.linalg import norm\n"),
    (
        "geometry",
        "    u, s, vh = _svd(Z, full_matrices=full)\n",
        "    u, s, vh = _svd(Z, full_matrices=full)\n    if eps < 0 and s[..., 0].max() >= 1.0:\n"
        '        raise DomainError("noncompact chart point needs all singular values < 1")\n',
    ),
    (
        "cli",
        '    return {"energy": kernels.energy(space, kernels.EnergySpec(args.eps), F)}',
        '    out = {"energy": kernels.energy(space, kernels.EnergySpec(args.eps), F)}\n'
        '    sys.stdout.write(jsonio.dumps(out) + "\\n")',
    ),
    ("cli", 'print(f"usage error: {message}", file=sys.stderr)', 'print(f"error: {message}")'),
    (
        "cli",
        "        return Frame(space, _read_doc(path, attr))\n",
        "        return _built_frame(space, _read_doc(path, attr))\n",
    ),
    (
        "kernels",
        '    check_enumeration_size(count * n * n, "Plucker minor entries", MAX_PLUCKER_ENTRIES)\n',
        "    if count * n * n > MAX_PLUCKER_ENTRIES:\n"
        '        raise EnumerationSizeError(f"{count * n * n} entries")\n',
    ),
    (
        "topology",
        "    space = GrassmannSpace(n, m)\n    return math.comb(space.N, space.n)\n",
        '    if n < 1 or m < 1:\n        raise PreconditionError("n and m must be >= 1")\n'
        "    return math.comb(n + m, n)\n",
    ),
    (
        "kernels",
        '    _check_energy(space, spec, "critical points")\n',
        "    if spec.eps.size != space.N:\n"
        '        raise PreconditionError(f"eps must have length {space.N}")\n',
    ),
    (
        "loci",
        "    r = _cartan_rank(space, h)\n    check_enumeration_size",
        "    r = space.rank\n    if h.h.size != r:\n"
        '        raise PreconditionError(f"h must have length r = {r}")\n    check_enumeration_size',
    ),
]


def test_a_mutated_copy_fails_the_scan():
    # the guards above can fail: each mutated copy of the source gives one violation
    sources = _sources()
    for module, old, new in MUTATIONS:
        assert old in sources[module], (module, old)
        bad = _violations({**sources, module: sources[module].replace(old, new, 1)})
        assert len(bad) == 1 and bad[0].startswith(f"{module}.py:"), bad
