"""Charts, frames, geodesics and distance on the Grassmannian and its dual.

The chart convention is fixed once: the raw frame of a chart point Z is the
stacked matrix [I_n ; Z^dagger], so that the raw Gram identity
F_raw(Z')^dagger F_raw(Z) = I + Z' Z^dagger holds exactly.  The determinant
kernel in the coherent-state module relies on this identity verbatim.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConjugateToChartError,
    DomainError,
    LeftChartError,
    OnPolarDivisorError,
    PreconditionError,
    WrongChartError,
)
from .linalg import apply_spectral, inv_sqrt_hermitian, principal_angles, svd
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, origin_frame

CHART_SINGULAR_TOL = 1e-12
TAN_POLE_TOL = 1e-12
BLOWUP_LIMIT = 1e8


def raw_frame(p: ChartPoint) -> np.ndarray:
    """Unnormalized frame [I_n ; Z^dagger] of a chart point."""
    n = p.space.n
    return np.vstack([np.eye(n, dtype=complex), p.Z.conj().T])


def frame_of_chart(p: ChartPoint) -> Frame:
    """Orthonormalized (compact) or J-orthonormalized (noncompact) frame of Z."""
    return Frame(p.space, raw_frame(p) @ _inv_sqrt_gram(p.space.epsilon, p.Z))


def _inv_sqrt_gram(eps: int, X: np.ndarray) -> np.ndarray:
    """(I + eps X X^dagger)^{-1/2}; its positive definiteness is, for eps = -1,
    the bounded-domain condition."""
    try:
        return inv_sqrt_hermitian(np.eye(X.shape[0]) + eps * (X @ X.conj().T))
    except PreconditionError:
        raise DomainError("chart point lies outside the bounded domain") from None


def chart_of_frame(F: Frame) -> ChartPoint:
    """Inverse chart map: Z^dagger = F_bottom @ F_top^{-1}.

    Raises OnPolarDivisorError when the top block is singular; that failure
    is itself meaningful (the plane meets the orthocomplement of the chart
    origin, see the loci module).
    """
    top = F.top
    smin = svd(top).s[-1]
    if smin < CHART_SINGULAR_TOL:
        raise OnPolarDivisorError(
            f"plane is on the polar divisor of the chart origin "
            f"(top-block smallest singular value {smin:.3e})"
        )
    Zdag = F.bottom @ np.linalg.inv(top)
    return ChartPoint(F.space, Zdag.conj().T)


def exp0(space: GrassmannSpace, B: TangentVector) -> ChartPoint:
    """Geodesic exponential at the origin, in chart coordinates.

    Z = B ta(sqrt(B*B)) / sqrt(B*B) with ta = tan (compact) or tanh
    (noncompact); unit speed, so ||B||_F is arc length.
    """
    if B.space != space:
        raise PreconditionError("tangent vector belongs to a different space")
    return ChartPoint(space, apply_spectral(B.B, _tan if space.compact else np.tanh))


def _tan(s: np.ndarray) -> np.ndarray:
    # distance of each singular value to the nearest pi/2 + k*pi pole
    r = np.remainder(s - np.pi / 2, np.pi)
    if np.min(np.minimum(r, np.pi - r)) < TAN_POLE_TOL:
        raise ConjugateToChartError(
            "tan singularity: a singular value of B equals pi/2 mod pi; "
            "the point exists but leaves the chart -- use exp0_frame"
        )
    return np.tan(s)


def exp0_frame(space: GrassmannSpace, B: TangentVector) -> Frame:
    """Geodesic exponential at the origin as a frame; globally defined.

    Block form [co(sqrt(BB*)) ; si(sqrt(B*B))/sqrt(B*B) B*] evaluated through
    one full SVD of B, with co/si = cos/sin (compact) or cosh/sinh
    (noncompact).
    """
    if B.space != space:
        raise PreconditionError("tangent vector belongs to a different space")
    return Frame(space, _exp0_frames(space.epsilon, B.B))


def _exp0_frames(eps: int, B: np.ndarray) -> np.ndarray:
    """exp0_frame on raw arrays: a stack B (..., n, m) gives frames (..., n+m, n)."""
    n, m = B.shape[-2:]
    u, s, vh = np.linalg.svd(B, full_matrices=True)
    k = s.shape[-1]
    if eps > 0:
        co, si = np.cos(s), np.sin(s)
    else:
        co, si = np.cosh(s), np.sinh(s)
    cpad = np.ones(s.shape[:-1] + (n,))
    cpad[..., :k] = co
    uh = np.swapaxes(u, -1, -2).conj()
    top = (u * cpad[..., None, :]) @ uh
    S = np.zeros(s.shape[:-1] + (m, n), dtype=complex)
    S[..., range(k), range(k)] = si
    bottom = np.swapaxes(vh, -1, -2).conj() @ S @ uh
    return np.concatenate([top, bottom], axis=-2)


def log0(space: GrassmannSpace, p: ChartPoint) -> TangentVector:
    """Inverse of exp0 on the principal domain.

    Compact: principal branch, all singular values of B land in [0, pi/2).
    """
    if p.space != space:
        raise PreconditionError("chart point belongs to a different space")
    if space.compact:
        B = apply_spectral(p.Z, np.arctan)
    else:
        # bounded-domain invariant already enforced by ChartPoint
        B = apply_spectral(p.Z, np.arctanh)
    return TangentVector(space, B)


def geodesic_ode(
    space: GrassmannSpace, B: TangentVector, t: float, steps: int
) -> ChartPoint:
    """Integrate the chart geodesic equation with fixed-step classical RK4.

    Z'' = 2 eps Z' Z^dagger (I + eps Z Z^dagger)^{-1} Z', Z(0) = 0,
    Z'(0) = B.  Independent oracle for exp0: nothing from the closed form
    enters (no exp0, no SVD of B, no conserved quantity), so a wrong exp0
    fails the comparison on its own.  Fixed stepping keeps the output
    deterministic for golden tests.

    The equation keeps its form under Z -> Z^T, by the push-through identity
    Z^dagger (I + eps Z Z^dagger)^{-1} = (I + eps Z^dagger Z)^{-1} Z^dagger,
    so it is integrated in the orientation Z (k x l) with k = min(n, m) <= l.
    There the Hermitian Gram matrix G = I_k + eps Z Z^dagger is the smaller
    side: each RK4 stage evaluates the acceleration 2 eps (W Z^dagger G^{-1}) W
    at the stage's own Z and W, with one k x k inverse, or a division when
    k = 1.  Entries that pass BLOWUP_LIMIT or stop being finite (a compact
    geodesic crossing a tan pole) raise LeftChartError, without
    floating-point warnings; so does a singular stage Gram matrix.
    """
    if steps < 100:
        raise PreconditionError("geodesic_ode requires steps >= 100")
    if B.space != space:
        raise PreconditionError("tangent vector belongs to a different space")
    flip = space.n > space.m
    V = B.B.T if flip else B.B
    rk4 = _rk4_row if V.shape[0] == 1 else _rk4_block
    try:
        with np.errstate(all="ignore"):
            Z = rk4(V, space.epsilon, t / steps, steps)
    except np.linalg.LinAlgError as exc:
        raise LeftChartError("integration left the chart: singular stage Gram matrix") from exc
    return ChartPoint(space, Z.T if flip else Z)


def _check_in_chart(Z: np.ndarray) -> None:
    # written as "not <=" so that NaN fails too
    if not np.abs(Z).max() <= BLOWUP_LIMIT:
        raise LeftChartError("geodesic left the chart during integration")


def _rk4_row(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 1 x l chart point, where Z'' = 2 eps vdot(Z, W) W / (1 + eps |Z|^2).

    Every stage point of a step is (z + x w, y w) for complex scalars x and y,
    so its acceleration is 2 eps y^2 (zw + conj(x) ww) / (1 + eps |z + x w|^2)
    times w, with |z + x w|^2 = zz + 2 Re(x zw) + |x|^2 ww.  The inner
    products zz, zw and ww of the step's own z and w are all it takes.
    """
    c = 2.0 * eps
    p = 0.5 * h
    z = np.zeros_like(V[0])
    w = V[0].copy()
    for step in range(steps):
        zz, zw, ww = np.vdot(z, z).real, np.vdot(z, w), np.vdot(w, w).real

        def acc(x, y):
            norm2 = zz + 2.0 * (x * zw).real + abs(x) ** 2 * ww
            return c * y * y * (zw + np.conj(x) * ww) / (1.0 + eps * norm2)

        g1 = acc(0.0, 1.0)
        y2 = 1.0 + p * g1
        g2 = acc(p, y2)
        y3 = 1.0 + p * g2
        g3 = acc(p * y2, y3)
        y4 = 1.0 + h * g3
        g4 = acc(h * y3, y4)
        z = z + (h / 6.0 * (1.0 + 2.0 * (y2 + y3) + y4)) * w
        # w + d w rather than (1 + d) w: rounding 1 + d every step would
        # triple the final error
        w = w + (h / 6.0 * (g1 + 2.0 * (g2 + g3) + g4)) * w
        if step % 64 == 0:
            _check_in_chart(z)
    _check_in_chart(z)
    return z[None, :]


def _rk4_block(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a k x l chart point, k >= 2, in real form.

    A complex A is carried as R(A) = [[Re A, -Im A], [Im A, Re A]], so that
    R(A^dagger) = R(A)^T and every product is one real dot.  Stage i has the
    state S[i] = [R(Z_i); R(W_i)], and its derivative divided by c = 2 eps is
    E R(W_i) with E = [I / c; R(W_i Z_i^dagger G_i^{-1})].  All arrays are
    allocated once; the loop writes into them.
    """
    k, l = V.shape
    r = 2 * k
    c = 2.0 * eps
    S = np.zeros((4, 2 * r, 2 * l))
    S[0, r:] = np.block([[V.real, -V.imag], [V.imag, V.real]])
    K = np.empty_like(S)
    E = np.zeros((2 * r, r))
    E[:r] = np.eye(r) / c
    P = np.empty((2 * r, r))  # [R(Z_i Z_i^dagger); R(W_i Z_i^dagger)]
    G = np.empty((r, r))
    stages = [(S[i], S[i, :r].T, S[i, r:], K[i]) for i in range(4)]
    S0 = S[0]
    advance = (0.5 * h * c, 0.5 * h * c, h * c)
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h * c / 6.0)
    eye = np.eye(r)
    gram = np.add if eps > 0 else np.subtract
    for step in range(steps):
        for i, (Si, Zt, Wi, Ki) in enumerate(stages):
            np.dot(Si, Zt, out=P)
            gram(eye, P[:r], out=G)
            np.dot(P[r:], np.linalg.inv(G), out=E[r:])
            np.dot(E, Wi, out=Ki)
            if i < 3:
                np.add(S0, advance[i] * Ki, out=S[i + 1])
        S0 += np.dot(weights, K.reshape(4, -1)).reshape(S0.shape)
        if step % 64 == 0:
            _check_in_chart(S0[:r])
    _check_in_chart(S0[:r])
    return S0[:k, :l] + 1j * S0[k:r, :l]


def transport_to_origin(space: GrassmannSpace, p: ChartPoint) -> np.ndarray:
    """Isometry g (unitary / J-unitary (n+m) x (n+m)) sending p's plane to O.

    g is the coset representative [[A, eps A Z], [-D Z^dagger, D]] with
    A = (I_n + eps Z Z^dagger)^{-1/2} and D = (I_m + eps Z^dagger Z)^{-1/2}:
    it maps the raw frame [I_n ; Z^dagger] to [A^{-1} ; 0].  Compact:
    g^dagger g = I; noncompact: g^dagger J g = J.  Applying g to frames
    preserves all pairwise principal angles (compact) and all J-Gram matrices
    (noncompact).

    The off-diagonal blocks are formed as eps Z D and -Z^dagger A, equal to
    the above by push-through; against a 40-digit oracle this cuts the
    worst relative rounding error of `distance` on the dual about threefold.
    """
    eps, Z = space.epsilon, p.Z
    Zh = Z.conj().T
    A = _inv_sqrt_gram(eps, Z)
    D = _inv_sqrt_gram(eps, Zh)
    return np.block([[A, eps * (Z @ D)], [-(Zh @ A), D]])


def apply_isometry(g: np.ndarray, F: Frame) -> Frame:
    return Frame(F.space, g @ F.F)


def frame_distance(space: GrassmannSpace, F1: Frame, F2: Frame) -> float:
    """Compact geodesic distance as the 2-norm of the principal-angle vector.

    Valid through the polar divisor, where the largest angle equals pi/2.
    """
    if not space.compact:
        raise PreconditionError("frame_distance is the compact angle formula")
    return float(np.linalg.norm(principal_angles(F1.F, F2.F)))


def distance(space: GrassmannSpace, p1: ChartPoint, p2: ChartPoint) -> float:
    """Geodesic distance: transport p1 to the origin, then ||log0||_F.

    Compact pairs whose second image lands on the polar divisor of the first
    fall back to the principal-angle formula, which tolerates pi/2 angles.
    """
    g = transport_to_origin(space, p1)
    moved = apply_isometry(g, frame_of_chart(p2))
    try:
        return log0(space, chart_of_frame(moved)).norm
    except OnPolarDivisorError:
        if not space.compact:
            raise
        return frame_distance(space, origin_frame(space), moved)


def chart_transition(
    space: GrassmannSpace, F: Frame, row_selection
) -> ChartPoint:
    """Chart coordinates in the chart centered at the selected coordinate plane.

    row_selection lists the n rows forming the new top block; it must be
    invertible there.
    """
    rows = sorted(int(i) for i in row_selection)
    if len(rows) != space.n or len(set(rows)) != space.n:
        raise PreconditionError(f"row_selection must pick {space.n} distinct rows")
    if rows[0] < 0 or rows[-1] >= space.N:
        raise PreconditionError("row_selection indices out of range")
    rest = [i for i in range(space.N) if i not in set(rows)]
    top = F.F[rows]
    if svd(top).s[-1] < CHART_SINGULAR_TOL:
        raise WrongChartError(
            "selected rows give a singular block; plane not in that chart"
        )
    Zdag = F.F[rest] @ np.linalg.inv(top)
    return ChartPoint(space, Zdag.conj().T)
