"""Coherent-state geometry on complex Grassmann manifolds and their duals.

The public names load lazily (PEP 562): `import grassgeo` imports no submodule
and no numpy, and the first access of a name imports the submodule that
defines it.  The name is looked up in that submodule on every access and never
stored here, so a name rebound in its submodule is seen through the package.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "spaces": ("ChartPoint", "Frame", "GrassmannSpace", "TangentVector", "origin_frame"),
    "geometry": (
        "chart_of_frame",
        "chart_transition",
        "distance",
        "exp0",
        "exp0_frame",
        "frame_of_chart",
        "geodesic_ode",
        "log0",
        "transport_to_origin",
    ),
    "kernels": (
        "EnergySpec",
        "OverlapValue",
        "PluckerVector",
        "cayley_distance",
        "critical_points",
        "diastasis",
        "energy",
        "energy_gradient",
        "kernel",
        "normalized_overlap",
        "plucker_embed",
        "plucker_overlap_oracle",
    ),
    "linalg": ("apply_spectral", "principal_angles", "rank_tol", "svd"),
    "loci": (
        "CartanVector",
        "ConjugateTime",
        "SchubertSymbol",
        "cartan_to_tangent",
        "conjugate_stratum_I",
        "conjugate_stratum_W",
        "cut_locus_test",
        "dexp_min_singular",
        "disjoint_union_check",
        "is_conjugate",
        "isoclinic_test",
        "schubert_dims",
        "schubert_membership",
        "tangent_conjugate_times",
    ),
    "topology": (
        "CharacteristicReport",
        "characteristic_report",
        "euler_characteristic",
        "schubert_cells",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "jsonio", "sampling"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
