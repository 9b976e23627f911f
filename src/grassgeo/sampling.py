"""Deterministic random generation for reproducible experiments.

All randomness flows through numpy's PCG64 generator seeded explicitly, so a
fixed seed gives identical output on every platform.
"""

from __future__ import annotations

import numpy as np

from .linalg import _svdvals
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, _built_frame
from .spaces import check_enumeration_size


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_plane(space: GrassmannSpace, seed: int) -> Frame:
    """Haar-like frame: QR orthonormalization of a complex Gaussian matrix.

    For the noncompact dual the frame comes from a uniformly scaled random
    chart point inside the bounded domain.
    """
    rng = generator(seed)
    return random_plane_rng(space, rng)


def random_plane_rng(space: GrassmannSpace, rng: np.random.Generator) -> Frame:
    """random_plane from rng: compact, the Q factor of a Gaussian draw with its column
    phases fixed; dual, frame_of_chart of a random chart point.  Neither is checked again."""
    check_enumeration_size(space.N * space.n, "random frame entries")
    if space.compact:
        A = _complex_gaussian(rng, (space.N, space.n))
        q, r = np.linalg.qr(A)
        # fix column phases so the result is independent of LAPACK sign choices
        phases = np.diag(r) / np.abs(np.diag(r))
        return _built_frame(space, q * phases.conj())
    from .geometry import frame_of_chart

    return frame_of_chart(random_chart_point_rng(space, rng))


def random_tangent_rng(
    space: GrassmannSpace, rng: np.random.Generator, max_norm: float = 1.0
) -> TangentVector:
    B = _complex_gaussian(rng, (space.n, space.m))
    B *= max_norm * rng.uniform(0.1, 1.0) / np.linalg.norm(B)
    return TangentVector(space, B)


def random_chart_point_rng(
    space: GrassmannSpace, rng: np.random.Generator, radius: float = 0.9
) -> ChartPoint:
    Z = _complex_gaussian(rng, (space.n, space.m))
    top = _svdvals(Z)[0]
    Z *= radius * rng.uniform(0.1, 1.0) / top
    return ChartPoint(space, Z)
