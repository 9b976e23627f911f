"""Charts, frames, geodesics and distance on the Grassmannian and its dual.

The chart convention is fixed once: the raw frame of a chart point Z is the
stacked matrix [I_n ; Z^dagger], so that the raw Gram identity
F_raw(Z')^dagger F_raw(Z) = I + Z' Z^dagger holds exactly.  The determinant
kernel in the coherent-state module relies on this identity verbatim.
"""

from __future__ import annotations

import math

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
from .linalg import _principal_angles, _svd, _svdvals, apply_spectral
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
    smin = _svdvals(top)[-1]
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
    R[C] has dimension k at most, so for k <= 3 the run is in Python floats
    on the coordinates of Psi and Phi along the orthogonal idempotents of
    C, taken from its entries without an eigensolver, where R[C]
    multiplies componentwise: one to three runs of the scalar equation
    (_rk4_scalar), for k = 1 (_rk4_row), k = 2 (_rk4_pair) and k = 3
    (_rk4_triple).  k >= 4 steps the full complex k x k block (_rk4_block).
    Against a 50-digit oracle (4000 steps, both signs) the k = 3 runs lose
    nothing to the block: rank-one C 9.4e-14 against 1.2e-13, rank-two C
    1.2e-13 against 1.6e-13, singular values 1e-4 apart 9.0e-13 against
    1.4e-12.  The power bases I, C and I, C, C^2 they replaced lost the
    answer on the dual once the singular values of B spread (1.3 at
    sigma = (15, 3), 1.2 at (12, 0.5, 0.1)); the idempotents give 1.7e-15
    and 2.1e-15 there.

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
    h = float(t / steps)  # a numpy scalar h would slow every step of the loops
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


def _rk4_scalar(beta: float, eps: int, h: float, steps: int, scale: float) -> float:
    """x(steps h) for x' = y, y' = 2 eps beta x y^2 / (1 + eps beta x^2),
    x(0) = 0, y(0) = 1, by RK4 in Python floats.

    This is the coefficient equation where C acts as the scalar beta: the
    k = 1 row (beta = |V|^2) and each idempotent of C for k = 2 and 3.  No
    numpy call is made per step.  Every 64 steps |x| scale, with scale the
    largest entry of the matrix that x multiplies, must stay within
    BLOWUP_LIMIT (NaN fails too).  A stage where 1 + eps beta x^2 vanishes
    (possible on the dual only) leaves the chart.
    """
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
            if step % 64 == 0 and not abs(x) * scale <= BLOWUP_LIMIT:
                raise LeftChartError("geodesic left the chart during integration")
    except ZeroDivisionError:
        raise LeftChartError("integration left the chart: singular stage Gram factor") from None
    return x


def _rk4_row(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 1 x l chart point Z = x V: _rk4_scalar at beta = |V|^2."""
    beta = float(np.vdot(V, V).real)
    Z = _rk4_scalar(beta, eps, h, steps, float(np.abs(V).max())) * V
    _check_in_chart(Z)
    return Z


def _rk4_pair(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 2 x l chart point Z = Psi V on the algebra R[C], as two scalar runs.

    Psi and Phi stay in R[C] = {a I + b C : a, b real} (see geodesic_ode).
    With K = C - (tr C / 2) I and r = hypot(K00, |K01|), K^2 = r^2 I, so
    E+- = (I +- K / r) / 2 are orthogonal idempotents with E+ + E- = I and
    C = beta+ E+ + beta- E-, beta+ = tr C / 2 + r.  In that basis R[C]
    multiplies componentwise, so x = x+ E+ + x- E- takes two _rk4_scalar
    runs, at beta+ and at beta- = det C / beta+ (Vieta: tr C / 2 - r
    cancels when the singular values of V differ in scale).  Z is built as
    x+ (E+ V) + x- (E- V), not as (x+ + x-) V / 2 + (x+ - x-) K V / (2 r),
    whose two terms cancel once x+ and x- differ in scale; when r = 0, C is
    a multiple of I and E+- V = V / 2.  C and r are taken from the entries
    of V, with no numpy call per step.
    """
    c00, c11 = (float(np.vdot(row, row).real) for row in V)
    c01 = complex(np.vdot(V[1], V[0]))
    k00 = 0.5 * (c00 - c11)
    r = math.hypot(k00, abs(c01))
    beta_p = 0.5 * (c00 + c11) + r
    if r == 0.0:
        beta_m, EpV, EmV = beta_p, 0.5 * V, 0.5 * V
    else:
        beta_m = (c00 * c11 - abs(c01) ** 2) / beta_p
        KV = (np.array([[k00, c01], [c01.conjugate(), -k00]]) / r) @ V
        EpV, EmV = 0.5 * (V + KV), 0.5 * (V - KV)
    x_p = _rk4_scalar(beta_p, eps, h, steps, float(np.abs(EpV).max()))
    x_m = _rk4_scalar(beta_m, eps, h, steps, float(np.abs(EmV).max()))
    Z = x_p * EpV + x_m * EmV
    _check_in_chart(Z)
    return Z


def _rk4_triple(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a 3 x l chart point Z = Psi V on the algebra R[C], as one to three scalar runs.

    The roots of C come from its entries by the trigonometric formula for a
    Hermitian 3 x 3 matrix (O. K. Smith, CACM 4(4), 1961): with m = tr C / 3,
    p = |C - m I|_F^2 / 6 and cos(3 phi) = det(C - m I) / (2 p^1.5), the
    extreme roots are m + 2 sqrt(p) cos(phi) and m + 2 sqrt(p) cos(phi + 2 pi/3).
    The one with the larger gap to the middle root, beta_i, takes one
    _rk4_scalar run on E_i V, with E_i = (C - beta_j)(C - beta_k) /
    ((beta_i - beta_j)(beta_i - beta_k)).  The other two are split as in
    _rk4_pair, on W = V - E_i V: K = (C - b I)(I - E_i) with
    b = (tr C - beta_i) / 2 squares to r^2 there, r = |K|_F / sqrt(2), and
    runs at b +- r act on (W +- K W / r) / 2.  As the parts sum to V and to W
    exactly, an error in a projector costs only the gap between the x it
    separates, so roots 1e-9 apart stay accurate.  The pair roots are not the
    trigonometric ones, whose gap acos resolves only to about sqrt(eps) times
    the spread of the roots near a double root.  When all three roots
    coincide, Z = x(m) V; when r = 0, the pair is one run at b on W.  No numpy
    call is made per step.
    """
    C = V @ V.conj().T
    d0, d1, d2 = (float(C[i, i].real) for i in range(3))
    c01, c02, c12 = complex(C[0, 1]), complex(C[0, 2]), complex(C[1, 2])
    # abs(c) * abs(c), not ** 2: past 1e308 a float product is inf, a float power raises
    s01, s02, s12 = (abs(c) * abs(c) for c in (c01, c02, c12))
    tr = d0 + d1 + d2
    m = tr / 3.0
    a0, a1, a2 = d0 - m, d1 - m, d2 - m
    p = (0.5 * (a0 * a0 + a1 * a1 + a2 * a2) + s01 + s02 + s12) / 3.0

    def run(beta, EV):
        return _rk4_scalar(beta, eps, h, steps, float(np.abs(EV).max())) * EV

    den = 0.0
    if p > 0.0:
        det = (
            a0 * a1 * a2 + 2.0 * (c01 * c12 * c02.conjugate()).real
            - a0 * s12 - a1 * s02 - a2 * s01
        )
        phi = math.acos(max(-1.0, min(1.0, 0.5 * det / (p * math.sqrt(p))))) / 3.0
        b1 = m + 2.0 * math.sqrt(p) * math.cos(phi)
        b3 = m + 2.0 * math.sqrt(p) * math.cos(phi + 2.0 * math.pi / 3.0)
        b2 = tr - b1 - b3
        bi, bj, bk = (b1, b2, b3) if b1 - b2 >= b2 - b3 else (b3, b1, b2)
        den = (bi - bj) * (bi - bk)
    if den == 0.0:
        Z = run(m, V)
    else:
        eye = np.eye(3)
        Ei = ((C - bj * eye) / (bi - bj)) @ ((C - bk * eye) / (bi - bk))
        EiV = Ei @ V
        W = V - EiV
        b = 0.5 * (tr - bi)
        K = (C - b * eye) @ (eye - Ei)
        r = math.sqrt(0.5 * float(np.vdot(K, K).real))
        Z = run(bi, EiV)
        if r == 0.0:
            Z += run(b, W)
        else:
            KW = (K / r) @ W
            Z += run(b + r, 0.5 * (W + KW)) + run(b - r, 0.5 * (W - KW))
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
    return float(np.linalg.norm(np.arcsinh(_svdvals(S))))


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
