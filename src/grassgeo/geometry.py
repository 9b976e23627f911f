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
    NumericalFailure,
    OnPolarDivisorError,
    PreconditionError,
    WrongChartError,
)
from .linalg import _principal_angles, _svd, apply_spectral
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, check_space

CHART_SINGULAR_TOL = 1e-12
TAN_POLE_TOL = 1e-12
TANH_LIMIT_TOL = 16 * np.finfo(float).eps
BLOWUP_LIMIT = 1e8
H_RESIDUAL_LIMIT = 1e-2
MAX_ODE_STEPS = 100_000


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
    w, V = np.linalg.eigh(np.eye(X.shape[0]) + eps * (X @ X.conj().T))
    if w[0] <= 0:
        if eps > 0:  # the eigenvalues are >= 1 exactly
            raise NumericalFailure(
                "I + Z Z^dagger is not positive definite in float64: the entries of Z "
                "differ in scale by more than about 1e8"
            )
        raise DomainError("chart point lies outside the bounded domain")
    return (V / np.sqrt(w)) @ V.conj().T


def chart_of_frame(F: Frame) -> ChartPoint:
    """Inverse chart map: Z^dagger = F_bottom @ F_top^{-1}.

    Raises OnPolarDivisorError when the top block is singular; that failure
    is itself meaningful (the plane meets the orthocomplement of the chart
    origin, see the loci module).
    """
    return _chart_of_rows(
        F.space, F.top, F.bottom, OnPolarDivisorError,
        "plane is on the polar divisor of the chart origin "
        "(top-block smallest singular value {smin:.3e})",
    )


def _chart_of_rows(space: GrassmannSpace, top, bottom, error, message: str) -> ChartPoint:
    """Chart point with Z^dagger = bottom @ top^{-1}; raises error(message),
    which may name {smin}, when the smallest singular value smin of top is
    below CHART_SINGULAR_TOL."""
    smin = _svd(top)[1][-1]
    if smin < CHART_SINGULAR_TOL:
        raise error(message.format(smin=smin))
    return ChartPoint(space, (bottom @ np.linalg.inv(top)).conj().T)


def exp0(space: GrassmannSpace, B: TangentVector) -> ChartPoint:
    """Geodesic exponential at the origin, in chart coordinates.

    Z = B ta(sqrt(B*B)) / sqrt(B*B) with ta = tan (compact) or tanh
    (noncompact); unit speed, so ||B||_F is arc length.
    """
    check_space(space, B)
    return ChartPoint(space, apply_spectral(B.B, _tan if space.compact else _tanh))


def _tan(s: np.ndarray) -> np.ndarray:
    # distance of each singular value to the nearest pi/2 + k*pi pole
    r = np.remainder(s - np.pi / 2, np.pi)
    if np.min(np.minimum(r, np.pi - r)) < TAN_POLE_TOL:
        raise ConjugateToChartError(
            "tan singularity: a singular value of B equals pi/2 mod pi; "
            "the point exists but leaves the chart -- use exp0_frame"
        )
    return np.tan(s)


def _tanh(s: np.ndarray) -> np.ndarray:
    th = np.tanh(s)
    # s is nonincreasing; within TANH_LIMIT_TOL of 1 the rounding of u tanh(s) vh
    # can already push the largest singular value of Z to 1
    if 1.0 - th[0] < TANH_LIMIT_TOL:
        raise DomainError(
            f"tanh of the singular value {s[0]:.6g} of B is within {TANH_LIMIT_TOL:.2g} "
            "of 1 (float64 rounds it to 1 above about 19), so the chart point cannot "
            "be told from the boundary of the domain; exp0_frame reaches its own "
            "float64 limit earlier (its J-Gram check fails from about 7)"
        )
    return th


def exp0_frame(space: GrassmannSpace, B: TangentVector) -> Frame:
    """Geodesic exponential at the origin as a frame; globally defined.

    Block form [co(sqrt(BB*)) ; si(sqrt(B*B))/sqrt(B*B) B*] evaluated through
    one thin SVD of B, with co/si = cos/sin (compact) or cosh/sinh
    (noncompact).
    """
    check_space(space, B)
    with np.errstate(all="ignore"):  # cosh overflows from about 710 on; Frame rejects that
        F = _exp0_frames(space.epsilon, B.B)
    return Frame(space, F)


def _exp0_frames(eps: int, B: np.ndarray) -> np.ndarray:
    """exp0_frame on raw arrays: a stack B (..., n, m) gives frames (..., n+m, n)."""
    u, s, vh = _svd(B)
    if eps > 0:
        co, si = np.cos(s), np.sin(s)
    else:
        co, si = np.cosh(s), np.sinh(s)
    # top = I + u diag(co - 1) u^dagger, bottom = vh^dagger diag(si) u^dagger
    uh = np.swapaxes(u, -1, -2).conj()
    top = np.eye(B.shape[-2]) + (u * (co - 1.0)[..., None, :]) @ uh
    bottom = (np.swapaxes(vh, -1, -2).conj() * si[..., None, :]) @ uh
    return np.concatenate([top, bottom], axis=-2)


def log0(space: GrassmannSpace, p: ChartPoint) -> TangentVector:
    """Inverse of exp0 on the principal domain.

    Compact: principal branch, all singular values of B land in [0, pi/2).
    """
    check_space(space, p)
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
    enters (no exp0, no SVD or eigh of B, no tan or tanh, no conserved
    quantity), so a wrong exp0 fails the comparison on its own.  Fixed
    stepping keeps the output deterministic for golden tests.

    The equation keeps its form under Z -> Z^T, by the push-through identity
    Z^dagger (I + eps Z Z^dagger)^{-1} = (I + eps Z^dagger Z)^{-1} Z^dagger,
    so it is integrated in the orientation V (k x l) of B with
    k = min(n, m) <= l.  There the factor W Z^dagger G^{-1}, with
    G = I_k + eps Z Z^dagger, is k x k and multiplies W from the left, so the
    solution keeps the form Z = Psi V, W = Z' = Phi V with k x k
    coefficients:

        Psi' = Phi,  Phi' = 2 eps Phi C Psi^dagger H Phi,
        H = (I + eps Psi C Psi^dagger)^{-1},  Psi(0) = 0,  Phi(0) = I,

    where C = V V^dagger is initial data.  RK4 runs on these coefficients
    only; the reduction is an identity of the equation, not of its solution,
    so the oracle still knows nothing of the closed form.

    The real algebra R[C] = {a I + b C + c C^2 + ... : a, b, c real} is
    invariant too: its elements are Hermitian and commute, so on R[C] the
    right-hand side is Phi' = 2 eps C Psi Phi^2 (I + eps C Psi^2)^{-1},
    again in R[C].  Psi(0) and Phi(0) lie in R[C], and an RK4 stage takes
    only sums, products and one inverse, so every iterate stays there
    (Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. IV).
    R[C] has dimension k at most, with Cayley-Hamilton reducing C^k, so the
    run is on k real numbers per coefficient in Python floats for k = 1
    (_rk4_row), k = 2 (_rk4_pair) and k = 3 (_rk4_triple); k >= 4 steps
    the full complex k x k block (_rk4_block).  Against a 50-digit oracle
    the power basis I, C, C^2 lost nothing to the block at k = 3 (4000
    steps, both signs): rank-one C 1.5e-13 against 1.2e-13, rank-two C
    1.9e-13 against 1.6e-13, singular values 1e-4 apart 8.8e-13 against
    1.4e-12.

    Entries of Z that pass BLOWUP_LIMIT or stop being finite (a compact
    geodesic crossing a tan pole) raise LeftChartError, without
    floating-point warnings; so does a vanishing stage Gram factor when
    k <= 3, and a carried inverse Gram factor that no longer inverts
    (H_RESIDUAL_LIMIT) when k >= 4.  On the noncompact dual each failure
    means the step is too coarse.
    """
    if steps < 100:
        raise PreconditionError("geodesic_ode requires steps >= 100")
    if steps > MAX_ODE_STEPS:
        raise PreconditionError(f"geodesic_ode allows at most {MAX_ODE_STEPS} steps")
    check_space(space, B)
    flip = space.n > space.m
    V = B.B.T if flip else B.B
    k = V.shape[0]
    rk4 = (_rk4_row, _rk4_pair, _rk4_triple)[k - 1] if k <= 3 else _rk4_block
    h = t / steps
    try:
        with np.errstate(all="ignore"):
            Z = rk4(V, space.epsilon, h, steps)
    except LeftChartError as exc:
        if space.compact:
            raise
        # the exact noncompact geodesic never leaves the bounded domain
        hB = abs(h) * np.linalg.norm(B.B, 2)
        raise LeftChartError(
            f"RK4 integration diverged with step x |B|_2 = {hB:.3g}; "
            "the noncompact geodesic stays in the domain, so raise steps"
        ) from exc
    return ChartPoint(space, Z.T if flip else Z)


def _check_in_chart(Z: np.ndarray) -> None:
    # written as "not <=" so that NaN fails too
    if not np.abs(Z).max() <= BLOWUP_LIMIT:
        raise LeftChartError("geodesic left the chart during integration")


def _rk4_row(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 1 x l chart point Z = x V, in Python floats.

    With k = 1, C = beta = |V|^2 and the coefficients Psi, Phi stay real
    scalars x, y: x' = y, y' = 2 eps beta x y^2 / (1 + eps beta x^2),
    x(0) = 0, y(0) = 1.  No numpy call is made per step.  A stage where
    1 + eps beta x^2 vanishes (possible on the dual only) leaves the chart.
    """
    beta = float(np.vdot(V, V).real)
    c, e = 2.0 * eps * beta, eps * beta
    p, sixth = 0.5 * h, h / 6.0
    x, y = 0.0, 1.0
    try:
        for step in range(steps):
            a1 = c * x * y * y / (1.0 + e * x * x)
            x2, y2 = x + p * y, y + p * a1
            a2 = c * x2 * y2 * y2 / (1.0 + e * x2 * x2)
            x3, y3 = x + p * y2, y + p * a2
            a3 = c * x3 * y3 * y3 / (1.0 + e * x3 * x3)
            x4, y4 = x + h * y3, y + h * a3
            a4 = c * x4 * y4 * y4 / (1.0 + e * x4 * x4)
            x += sixth * (y + 2.0 * (y2 + y3) + y4)
            y += sixth * (a1 + 2.0 * (a2 + a3) + a4)
            if step % 64 == 0:
                _check_in_chart(x * V)
    except ZeroDivisionError:
        raise LeftChartError("integration left the chart: singular stage Gram factor") from None
    Z = x * V
    _check_in_chart(Z)
    return Z


def _rk4_pair(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 2 x l chart point Z = Psi V on the algebra R[C], in Python floats.

    Psi and Phi stay in R[C] = {a I + b C : a, b real} (see geodesic_ode), so
    they are carried as x = x0 + x1 C and y = y0 + y1 C, with
    x' = y, y' = 2 eps C x y^2 (1 + eps C x^2)^{-1}, x(0) = 0, y(0) = 1:
    _rk4_row's equation with beta replaced by C.  By Cayley-Hamilton
    C^2 = tau C - delta I (tau = tr C, delta = det C), so that
    (a0 + a1 C)(b0 + b1 C) = (a0 b0 - delta a1 b1) + (a0 b1 + a1 b0 + tau a1 b1) C
    and (g0 + g1 C)^{-1} = ((g0 + tau g1) - g1 C) / (g0^2 + tau g0 g1 + delta g1^2).
    No numpy call is made per step.  A stage where that norm vanishes
    (possible on the dual only) leaves the chart.
    """
    C = V @ V.conj().T
    CV = C @ V
    tau = float(C[0, 0].real + C[1, 1].real)
    delta = float(C[0, 0].real * C[1, 1].real - abs(C[0, 1]) ** 2)
    c = 2.0 * eps

    def accel(x0, x1, y0, y1):
        # 2 eps u g^{-1}, with u = C x y^2 and g = 1 + eps C x^2, in the basis (I, C)
        q0, q1 = x0 * x0 - delta * x1 * x1, 2.0 * x0 * x1 + tau * x1 * x1
        g0, g1 = 1.0 - eps * delta * q1, eps * (q0 + tau * q1)
        r0, r1 = y0 * y0 - delta * y1 * y1, 2.0 * y0 * y1 + tau * y1 * y1
        w0, w1 = x0 * r0 - delta * x1 * r1, x0 * r1 + x1 * r0 + tau * x1 * r1
        u0, u1 = -delta * w1, w0 + tau * w1
        d = c / (g0 * g0 + tau * g0 * g1 + delta * g1 * g1)
        i0, i1 = (g0 + tau * g1) * d, -g1 * d
        return u0 * i0 - delta * u1 * i1, u0 * i1 + u1 * i0 + tau * u1 * i1

    p, sixth = 0.5 * h, h / 6.0
    x0 = x1 = y1 = 0.0
    y0 = 1.0
    try:
        for step in range(steps):
            a10, a11 = accel(x0, x1, y0, y1)
            y20, y21 = y0 + p * a10, y1 + p * a11
            a20, a21 = accel(x0 + p * y0, x1 + p * y1, y20, y21)
            y30, y31 = y0 + p * a20, y1 + p * a21
            a30, a31 = accel(x0 + p * y20, x1 + p * y21, y30, y31)
            y40, y41 = y0 + h * a30, y1 + h * a31
            a40, a41 = accel(x0 + h * y30, x1 + h * y31, y40, y41)
            x0 += sixth * (y0 + 2.0 * (y20 + y30) + y40)
            x1 += sixth * (y1 + 2.0 * (y21 + y31) + y41)
            y0 += sixth * (a10 + 2.0 * (a20 + a30) + a40)
            y1 += sixth * (a11 + 2.0 * (a21 + a31) + a41)
            if step % 64 == 0:
                _check_in_chart(x0 * V + x1 * CV)
    except ZeroDivisionError:
        raise LeftChartError("integration left the chart: singular stage Gram factor") from None
    Z = x0 * V + x1 * CV
    _check_in_chart(Z)
    return Z


def _rk4_triple(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 3 x l chart point Z = Psi V on the algebra R[C], in Python floats.

    _rk4_pair one dimension up: x = x0 + x1 C + x2 C^2, y likewise, on the
    same equation.  By Cayley-Hamilton C^3 = e1 C^2 - e2 C + e3 I, where
    e1 = tr C, e2 is the sum of the principal 2 x 2 minors and e3 = det C,
    all taken from the entries of the Hermitian C.  A product reduces its
    C^4 and C^3 terms with that identity; the inverse of g = 1 + eps C x^2
    is the first column of the inverse of its multiplication matrix
    [g, g C, g C^2], by Cramer's rule.  No numpy call is made per step.  A
    stage where that determinant, det(g), vanishes (possible on the dual
    only) leaves the chart.
    """
    C = V @ V.conj().T
    CV = C @ V
    CCV = C @ CV
    d0, d1, d2 = (float(C[i, i].real) for i in range(3))
    s01, s02, s12 = (float(abs(C[i, j]) ** 2) for i, j in ((0, 1), (0, 2), (1, 2)))
    e1 = d0 + d1 + d2
    e2 = d0 * d1 - s01 + d0 * d2 - s02 + d1 * d2 - s12
    e3 = float(
        d0 * d1 * d2 + 2.0 * (C[0, 1] * C[1, 2] * C[2, 0]).real
        - d0 * s12 - d1 * s02 - d2 * s01
    )
    c = 2.0 * eps

    def accel(x0, x1, x2, y0, y1, y2):
        # 2 eps u g^{-1}, with u = C x y^2 and g = 1 + eps C x^2, in the basis
        # (I, C, C^2); each product a b first folds its C^4 term into C^3
        # (t = a1 b2 + a2 b1 + e1 a2 b2), then C^3 into I, C and C^2
        t = 2.0 * x1 * x2 + e1 * x2 * x2
        q0 = x0 * x0 + e3 * t
        q1 = 2.0 * x0 * x1 + e3 * x2 * x2 - e2 * t
        q2 = 2.0 * x0 * x2 + x1 * x1 - e2 * x2 * x2 + e1 * t
        g0, g1, g2 = 1.0 + eps * e3 * q2, eps * (q0 - e2 * q2), eps * (q1 + e1 * q2)
        h0, h1, h2 = e3 * g2, g0 - e2 * g2, g1 + e1 * g2  # g C
        k0, k1, k2 = e3 * h2, h0 - e2 * h2, h1 + e1 * h2  # g C^2
        # cofactors of the first row of [g, g C, g C^2]: g^{-1} = (n0, n1, n2) / det
        n0, n1, n2 = h1 * k2 - h2 * k1, g2 * k1 - g1 * k2, g1 * h2 - g2 * h1
        d = c / (g0 * n0 + h0 * n1 + k0 * n2)
        t = 2.0 * y1 * y2 + e1 * y2 * y2
        r0 = y0 * y0 + e3 * t
        r1 = 2.0 * y0 * y1 + e3 * y2 * y2 - e2 * t
        r2 = 2.0 * y0 * y2 + y1 * y1 - e2 * y2 * y2 + e1 * t
        t = x1 * r2 + x2 * r1 + e1 * x2 * r2
        w0 = x0 * r0 + e3 * t
        w1 = x0 * r1 + x1 * r0 + e3 * x2 * r2 - e2 * t
        w2 = x0 * r2 + x1 * r1 + x2 * r0 - e2 * x2 * r2 + e1 * t
        u0, u1, u2 = e3 * w2, w0 - e2 * w2, w1 + e1 * w2  # C w
        i0, i1, i2 = n0 * d, n1 * d, n2 * d
        t = u1 * i2 + u2 * i1 + e1 * u2 * i2
        return (
            u0 * i0 + e3 * t,
            u0 * i1 + u1 * i0 + e3 * u2 * i2 - e2 * t,
            u0 * i2 + u1 * i1 + u2 * i0 - e2 * u2 * i2 + e1 * t,
        )

    p, sixth = 0.5 * h, h / 6.0
    x0 = x1 = x2 = y1 = y2 = 0.0
    y0 = 1.0
    try:
        for step in range(steps):
            a10, a11, a12 = accel(x0, x1, x2, y0, y1, y2)
            y20, y21, y22 = y0 + p * a10, y1 + p * a11, y2 + p * a12
            a20, a21, a22 = accel(x0 + p * y0, x1 + p * y1, x2 + p * y2, y20, y21, y22)
            y30, y31, y32 = y0 + p * a20, y1 + p * a21, y2 + p * a22
            a30, a31, a32 = accel(x0 + p * y20, x1 + p * y21, x2 + p * y22, y30, y31, y32)
            y40, y41, y42 = y0 + h * a30, y1 + h * a31, y2 + h * a32
            a40, a41, a42 = accel(x0 + h * y30, x1 + h * y31, x2 + h * y32, y40, y41, y42)
            x0 += sixth * (y0 + 2.0 * (y20 + y30) + y40)
            x1 += sixth * (y1 + 2.0 * (y21 + y31) + y41)
            x2 += sixth * (y2 + 2.0 * (y22 + y32) + y42)
            y0 += sixth * (a10 + 2.0 * (a20 + a30) + a40)
            y1 += sixth * (a11 + 2.0 * (a21 + a31) + a41)
            y2 += sixth * (a12 + 2.0 * (a22 + a32) + a42)
            if step % 64 == 0:
                _check_in_chart(x0 * V + x1 * CV + x2 * CCV)
    except ZeroDivisionError:
        raise LeftChartError("integration left the chart: singular stage Gram factor") from None
    Z = x0 * V + x1 * CV + x2 * CCV
    _check_in_chart(Z)
    return Z


def _rk4_block(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a k x l chart point Z = Psi V on k x k coefficients, any k.

    geodesic_ode takes it for k >= 4; the tests also check _rk4_row,
    _rk4_pair and _rk4_triple against it.

    H = (I + eps Psi C Psi^dagger)^{-1} is carried as part of the state, with
    H' = -eps H (T + T^dagger) H, T = Phi C Psi^dagger, H(0) = I, so that no
    stage inverts anything.  A complex A is carried as
    R(A) = [[Re A, -Im A], [Im A, Re A]], so that R(A^dagger) = R(A)^T and
    every product is one real dot.  The state [R(Psi); R(Phi); R(H)] has the
    derivative [R(Phi); R(T' H Phi); -(U + U^T) / 2], with T' = 2 eps T and
    U = R(H T' H); R(H) stays exactly symmetric.  All arrays are allocated
    once; the loop writes into them.  A diverging run makes Z = Psi V blow up
    or turn NaN.  A run that crosses a tan pole need not: R(H) passes the
    pole bounded while Psi steps over it.  So at every 64-step check and at
    the end, the residual |R(H) R(I + eps Psi C Psi^dagger) - I|_max must stay
    within H_RESIDUAL_LIMIT.  In the chart it stayed below 5e-9 at 4000
    steps (compact |tB|_2 <= 1.5, dual <= 5) and below 2e-3 at 100 steps
    (compact 1.5, dual 2.8); at a crossing the first residual past the
    limit was 3.5 or more.
    """
    k = V.shape[0]
    r = 2 * k
    C = V @ V.conj().T
    RC = 2.0 * eps * np.block([[C.real, -C.imag], [C.imag, C.real]])
    S = np.zeros((4, 3 * r, r))
    S[0, r:2 * r] = S[0, 2 * r:] = np.eye(r)
    K = np.empty_like(S)
    Q, T, TH, U = (np.empty((r, r)) for _ in range(4))
    # K[i] holds a_i times the derivative at the stage state S[i], with
    # a = (h/2, h/2, h, h): taking a_i RC for 2 eps R(C) scales every product
    # by a_i, so S[i + 1] = S[0] + K[i] and a step adds (h/6)(1, 2, 2, 1)/a K;
    # that ratio does not depend on h (and has no 0/0 at h = 0)
    scale = (0.5 * h, 0.5 * h, h, h)
    stages = [
        (a * RC, a, S[i, :r], S[i, r:2 * r], S[i, 2 * r:], K[i, :r], K[i, r:2 * r], K[i, 2 * r:])
        for i, a in enumerate(scale)
    ]
    S0, Sflat, Kflat = S[0], S[0].reshape(-1), K.reshape(4, -1)
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    eye = np.eye(r)

    def chart_point():
        Z = (S0[:k, :k] + 1j * S0[k:r, :k]) @ V
        _check_in_chart(Z)
        X = S0[:r]  # R(Psi); R(H) must still invert R(I + eps Psi C Psi^dagger)
        residual = np.abs(S0[2 * r:] @ (eye + 0.5 * (X @ RC @ X.T)) - eye).max()
        if not residual <= H_RESIDUAL_LIMIT:
            raise LeftChartError(
                f"geodesic left the chart during integration: the carried inverse "
                f"Gram factor has residual {residual:.3g}"
            )
        return Z

    for step in range(steps):
        for i, (aRC, a, X, Y, Hm, dX, dY, dH) in enumerate(stages):
            np.dot(aRC, X.T, out=Q)
            np.dot(Y, Q, out=T)
            np.dot(T, Hm, out=TH)
            np.dot(TH, Y, out=dY)
            np.dot(Hm, TH, out=U)
            np.add(U, U.T, out=dH)
            dH *= -0.5
            np.multiply(Y, a, out=dX)
            if i < 3:
                np.add(S0, K[i], out=S[i + 1])
        Sflat += weights @ Kflat
        if step % 64 == 0:
            chart_point()
    return chart_point()


def transport_to_origin(space: GrassmannSpace, p: ChartPoint) -> np.ndarray:
    """Isometry g (unitary / J-unitary (n+m) x (n+m)) sending p's plane to O.

    g is the coset representative [[A, eps A Z], [-D Z^dagger, D]] with
    A = (I_n + eps Z Z^dagger)^{-1/2} and D = (I_m + eps Z^dagger Z)^{-1/2}:
    it maps the raw frame [I_n ; Z^dagger] to [A^{-1} ; 0].  Compact:
    g^dagger g = I; noncompact: g^dagger J g = J.  Applying g to frames
    preserves all pairwise principal angles (compact) and all J-Gram matrices
    (noncompact).

    The off-diagonal blocks are formed as eps Z D and -Z^dagger A, equal to
    the above by push-through.
    """
    check_space(space, p)
    eps, Z = space.epsilon, p.Z
    Zh = Z.conj().T
    A = _inv_sqrt_gram(eps, Z)
    D = _inv_sqrt_gram(eps, Zh)
    return np.block([[A, eps * (Z @ D)], [-(Zh @ A), D]])


def apply_isometry(g: np.ndarray, F: Frame) -> Frame:
    return Frame(F.space, g @ F.F)


def distance(space: GrassmannSpace, p1: ChartPoint, p2: ChartPoint) -> float:
    """Geodesic distance: the 2-norm of the principal angles (compact) or of
    the hyperbolic angles tau_i (noncompact) between the two planes.

    The compact angles, taken between orthonormal frames, hold through the
    polar divisor.  Noncompact: sinh tau_i are the singular values of
    S = (I - Z1^dagger Z1)^{-1/2} (Z2 - Z1)^dagger (I - Z2 Z2^dagger)^{-1/2},
    since S = -G1^dagger J F2 with F2 = frame_of_chart(p2) and
    G1 = [Z1 ; I] (I - Z1^dagger Z1)^{-1/2} the J-orthonormal frame of p1's complement.
    """
    check_space(space, p1, p2)
    if space.compact:
        F1, F2 = frame_of_chart(p1).F, frame_of_chart(p2).F
        return float(np.linalg.norm(_principal_angles(F1, F2)))
    Z1, Z2 = p1.Z, p2.Z
    S = _inv_sqrt_gram(-1, Z1.conj().T) @ (Z2 - Z1).conj().T @ _inv_sqrt_gram(-1, Z2)
    return float(np.linalg.norm(np.arcsinh(_svd(S)[1])))


def chart_transition(
    space: GrassmannSpace, F: Frame, row_selection
) -> ChartPoint:
    """Chart coordinates in the chart centered at the selected coordinate plane.

    row_selection lists the n rows forming the new top block; it must be
    invertible there.
    """
    check_space(space, F)
    rows = sorted(int(i) for i in row_selection)
    if len(rows) != space.n or len(set(rows)) != space.n:
        raise PreconditionError(f"row_selection must pick {space.n} distinct rows")
    if rows[0] < 0 or rows[-1] >= space.N:
        raise PreconditionError("row_selection indices out of range")
    rest = [i for i in range(space.N) if i not in set(rows)]
    return _chart_of_rows(
        space, F.F[rows], F.F[rest], WrongChartError,
        "selected rows give a singular block; plane not in that chart",
    )
