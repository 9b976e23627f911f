"""Charts, frames, geodesics and distance on the Grassmannian and its dual.

The chart convention is fixed once: the raw frame of a chart point Z is the
stacked matrix [I_n ; Z^dagger], so that the raw Gram identity
F_raw(Z')^dagger F_raw(Z) = I + Z' Z^dagger holds exactly.  The determinant
kernel in the coherent-state module relies on this identity verbatim.
"""

from __future__ import annotations

import math
import operator

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
from .linalg import ENTRY_LIMIT, _angles, _eye, _svd, _svdvals, apply_spectral, check_bounded
from .spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, _built_frame, check_rows
from .spaces import check_space

CHART_SINGULAR_TOL = 1e-12
TANH_LIMIT_TOL = 16 * np.finfo(float).eps
BLOWUP_LIMIT = 1e8
MAX_ODE_STEPS = 100_000
JACOBI_TOL = 2.0**-60
JACOBI_MAX_SWEEPS = 30


def raw_frame(p: ChartPoint) -> np.ndarray:
    """Unnormalized frame [I_n ; Z^dagger] of a chart point."""
    return np.concatenate([_eye(p.space.n, complex), p.Z.conj().T])


def frame_of_chart(p: ChartPoint) -> Frame:
    """(J-)orthonormal frame [I_n ; Z^dagger] (I + eps Z Z^dagger)^{-1/2} of Z, via _frame:
    built from the SVD of a checked chart point, so not checked again."""
    return _built_frame(p.space, _frame(*_chart_svd(p.space.epsilon, p.Z)))


def _chart_svd(eps: int, Z: np.ndarray, full: bool = False) -> tuple:
    """(u, co, si, vh) of a matrix or a stack Z: the SVD u diag(s) vh, thin unless full,
    and the chart factors co, si of s; a dual s >= 1 lies outside the bounded domain."""
    u, s, vh = _svd(Z, full_matrices=full)
    if eps < 0 and not (s[..., 0] < 1.0).all():
        raise DomainError("chart point lies outside the bounded domain")
    return (u, *_chart_factors(eps, s), vh)


def _chart_factors(eps: int, s: np.ndarray) -> tuple:
    """co = (1 + eps s^2)^{-1/2} and si = s co of the singular values s of a chart point."""
    co = 1.0 / (np.hypot(1.0, s) if eps > 0 else np.sqrt((1.0 - s) * (1.0 + s)))
    return co, s * co


def _frame(u: np.ndarray, co: np.ndarray, si: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """[I + u diag(co - 1) u^dagger ; vh^dagger diag(si) u^dagger] for the thin SVD
    u diag(s) vh of a matrix or a stack (..., n, m) and factors co, si of s."""
    vs = vh.swapaxes(-1, -2).conj() * si[..., None, :]
    F = np.concatenate([u * (co - 1.0)[..., None, :], vs], axis=-2) @ u.swapaxes(-1, -2).conj()
    F[..., : u.shape[-2], :] += _eye(u.shape[-2])
    return F


def chart_of_frame(F: Frame) -> ChartPoint:
    """Inverse chart map: Z^dagger = F_bottom F_top^{-1}, from one SVD of F_top (_chart_of_rows).

    Raises OnPolarDivisorError when the top block is singular; that failure
    is itself meaningful (the plane meets the orthocomplement of the chart
    origin, see the loci module).
    """
    return _chart_of_rows(F.space, _svd(F.top), F.bottom)


def _chart_of_rows(
    space: GrassmannSpace, top_svd: tuple, bottom, error=OnPolarDivisorError,
    message: str = "plane is on the polar divisor of the chart origin "
    "(top-block smallest singular value {smin:.3e})",
) -> ChartPoint:
    """Chart point with Z^dagger = bottom top^{-1}, from the thin SVD u diag(s) vh of top:
    Z = u diag(1/s) vh bottom^dagger, with no inverse.  Raises error(message), which may
    name {smin}, when the smallest singular value smin of top is below CHART_SINGULAR_TOL."""
    u, s, vh = top_svd
    if s[-1] < CHART_SINGULAR_TOL:
        raise error(message.format(smin=s[-1]))
    return ChartPoint(space, (u / s) @ vh @ bottom.conj().T)


def exp0(space: GrassmannSpace, B: TangentVector) -> ChartPoint:
    """Geodesic exponential at the origin, in chart coordinates.

    Z = B ta(sqrt(B*B)) / sqrt(B*B) with ta = tan (compact) or tanh
    (noncompact); unit speed, so ||B||_F is arc length.
    """
    check_space(space, B)
    return ChartPoint(space, apply_spectral(B.B, _tan if space.compact else _tanh))


def _tan(s: np.ndarray) -> np.ndarray:
    # |cos s| are the cosines of exp0_frame's plane with O, which the chart map reads
    if np.abs(np.cos(s)).min() < CHART_SINGULAR_TOL:
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
            f"tanh of the singular value {s[0]:.6g} of B is within {TANH_LIMIT_TOL:.2g} of 1 "
            "(float64 rounds it to 1 above about 19), so the chart point cannot be told from "
            f"the boundary; exp0_frame holds up to about 346, where cosh passes {ENTRY_LIMIT:g}"
        )
    return th


def exp0_frame(space: GrassmannSpace, B: TangentVector) -> Frame:
    """Geodesic exponential at the origin as a frame, globally defined: _frame
    of B's thin SVD with co/si = cos/sin (compact) or cosh/sinh (noncompact)."""
    check_space(space, B)
    u, s, vh = _svd(B.B)
    co, si = (np.cos, np.sin) if space.compact else (np.cosh, np.sinh)
    with np.errstate(all="ignore"):  # cosh overflows from about 710 on; Frame rejects that
        F = _frame(u, co(s), si(s), vh)
    return Frame(space, F)


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
    enters (no exp0, no SVD of B, no LAPACK eigensolver, no tan or tanh, no
    conserved quantity), so a wrong exp0 fails the comparison on its own.
    Fixed stepping keeps the output deterministic for golden tests.

    The equation keeps its form under Z -> Z^T, by the push-through identity
    Z^dagger (I + eps Z Z^dagger)^{-1} = (I + eps Z^dagger Z)^{-1} Z^dagger,
    so it is integrated in the orientation V (k x l) of B with
    k = min(n, m) <= l.  There the factor W Z^dagger G^{-1}, with
    G = I_k + eps Z Z^dagger, is k x k and multiplies W from the left, so the
    solution keeps the form Z = Psi V, W = Z' = Phi V with k x k
    coefficients:

        Psi' = Phi,  Phi' = 2 eps Phi C Psi^dagger H Phi,
        H = (I + eps Psi C Psi^dagger)^{-1},  Psi(0) = 0,  Phi(0) = I,

    where C = V V^dagger is initial data.  The reduction is an identity of
    the equation, not of its solution, so the oracle still knows nothing of
    the closed form.

    The real algebra R[C] = {a I + b C + c C^2 + ... : a, b, c real} is
    invariant too: its elements are Hermitian and commute, so on R[C] the
    right-hand side is Phi' = 2 eps C Psi Phi^2 (I + eps C Psi^2)^{-1},
    again in R[C].  Psi(0) and Phi(0) lie in R[C], and an RK4 stage takes
    only sums, products and one inverse, so every iterate stays there
    (Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. IV).
    With C = sum beta_i q_i q_i^dagger, R[C] multiplies componentwise along
    the eigenvectors q_i, so for every k the run is one scalar equation per
    eigenvector of C (_rk4_scalar, in Python floats), and
    Z = sum x(beta_i) q_i (q_i^dagger V) (_rk4_jacobi).  The q_i come from a
    Jacobi method written out here (_jacobi_eigh), not from LAPACK; they are
    orthonormal to rounding, so eigenvalues 1e-9 apart need no guard, and
    the dual stays accurate where the singular values of B spread.

    Entries of Z that pass BLOWUP_LIMIT or stop being finite, and a stage
    where 1 + eps beta x^2 vanishes, raise LeftChartError without
    floating-point warnings.  On the noncompact dual each failure means the
    step is too coarse.  A compact geodesic that crosses a tan pole raises
    LeftChartError when the steps resolve the pole; an under-resolved run
    can step over it and return, for every k, a point visibly off exp0.
    """
    try:
        steps = operator.index(steps)  # 100.5 or "400" is refused, not truncated
    except TypeError:
        raise PreconditionError("geodesic_ode steps must be an integer") from None
    if steps < 100:
        raise PreconditionError("geodesic_ode requires steps >= 100")
    if steps > MAX_ODE_STEPS:
        raise PreconditionError(f"geodesic_ode allows at most {MAX_ODE_STEPS} steps")
    check_bounded(t, "t")
    check_space(space, B)
    flip = space.n > space.m
    V = B.B.T if flip else B.B
    h = float(t / steps)  # a numpy scalar h would slow every step of the loops
    try:
        with np.errstate(all="ignore"):
            Z = _rk4_jacobi(V, space.epsilon, h, steps)
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


def _rk4_jacobi(V: np.ndarray, eps: int, h: float, steps: int) -> np.ndarray:
    """RK4 for a k x l chart point Z = sum x(beta_i) q_i (q_i^dagger V), one
    scalar run per eigenpair of C = V V^dagger.  C is formed from V scaled by
    2^-e, e the binary exponent of its largest part, and beta_i scaled back
    by 2^(2e), so that entries near 1e-150 or 1e150 neither underflow nor
    overflow in C."""
    e = math.frexp(float(max(np.abs(V.real).max(), np.abs(V.imag).max())))[1]
    Vs = np.ldexp(V.real, -e) + 1j * np.ldexp(V.imag, -e)
    lam, Q = _jacobi_eigh((Vs @ Vs.conj().T).tolist())
    Q = np.array(Q)
    P = Q.conj().T @ Vs  # row i is q_i^dagger Vs
    qmax, pmax = np.abs(Q).max(axis=0), np.abs(P).max(axis=1)
    x = [
        _rk4_scalar(math.ldexp(b, 2 * e), eps, h, steps, math.ldexp(qm * pm, e))
        for b, qm, pm in zip(lam, qmax.tolist(), pmax.tolist())
    ]
    Zs = Q @ (np.array(x)[:, None] * P)
    Z = np.ldexp(Zs.real, e) + 1j * np.ldexp(Zs.imag, e)
    _check_in_chart(Z)
    return Z


def _jacobi_eigh(A: list) -> tuple[list, list]:
    """Eigenvalues and eigenvectors (the columns of Q) of a Hermitian matrix
    A, given as nested lists of Python complex and overwritten, by the cyclic
    complex Jacobi method (Golub & Van Loan, Matrix Computations, sec. 8.5).

    A rotation in the (p, q) plane is skipped when a_pq = 0 or
    |a_pq| <= JACOBI_TOL sqrt(a_pp a_qq), the test under which Jacobi keeps
    the small eigenvalues of a positive semidefinite A to high relative
    accuracy (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).
    The method stops after a sweep with no rotation; reaching
    JACOBI_MAX_SWEEPS raises NumericalFailure.
    """
    k = len(A)
    Q = [[complex(i == j) for j in range(k)] for i in range(k)]
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq, app, aqq = A[p][q], A[p][p].real, A[q][q].real
                r = abs(apq)
                if r == 0.0 or r <= JACOBI_TOL * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                    continue
                rotated = True
                # G = [[c, s u], [-s conj(u), c]] with u = a_pq / r makes
                # G^dagger A G diagonal in (p, q): a real rotation after a phase
                u = apq / r
                tau = (aqq - app) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                su, sv = t * c * u, t * c * u.conjugate()
                for j in range(k):
                    yp, yq = Q[j][p], Q[j][q]
                    Q[j][p], Q[j][q] = c * yp - sv * yq, su * yp + c * yq
                    if j != p and j != q:
                        ap, aq = A[j][p], A[j][q]
                        A[j][p], A[j][q] = c * ap - sv * aq, su * ap + c * aq
                        A[p][j], A[q][j] = A[j][p].conjugate(), A[j][q].conjugate()
                A[p][p], A[q][q] = complex(app - t * r), complex(aqq + t * r)
                A[p][q] = A[q][p] = 0j
        if not rotated:
            return [A[i][i].real for i in range(k)], Q
    raise NumericalFailure(f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def _check_in_chart(Z: np.ndarray) -> None:
    # written as "not <=" so that NaN fails too
    if not np.abs(Z).max() <= BLOWUP_LIMIT:
        raise LeftChartError("geodesic left the chart during integration")


def _rk4_scalar(beta: float, eps: int, h: float, steps: int, scale: float) -> float:
    """x(steps h) for x' = y, y' = 2 eps beta x y^2 / (1 + eps beta x^2),
    x(0) = 0, y(0) = 1, by RK4 in Python floats.

    This is the coefficient equation where C acts as the scalar beta: each
    eigenvector of C (see geodesic_ode).  No numpy call is made per step.
    After steps 0, 64, 128, ... |x| scale, with scale the largest entry of
    the matrix that x multiplies, must stay within BLOWUP_LIMIT (NaN fails
    too): the steps run in blocks of 1, then 64 at a time, each checked, then
    an unchecked rest.  A stage where 1 + eps beta x^2 vanishes (possible on
    the dual only) leaves the chart.
    """
    c, e = 2.0 * eps * beta, eps * beta
    p, sixth = 0.5 * h, h / 6.0
    x, y = 0.0, 1.0
    checked, rest = divmod(steps - 1, 64)
    blocks = [1] + [64] * checked + [rest]
    try:
        for k, block in enumerate(blocks):
            for _ in range(block):
                a1 = c * x * y * y / (1.0 + e * x * x)
                x2, y2 = x + p * y, y + p * a1
                a2 = c * x2 * y2 * y2 / (1.0 + e * x2 * x2)
                x3, y3 = x + p * y2, y + p * a2
                a3 = c * x3 * y3 * y3 / (1.0 + e * x3 * x3)
                x4, y4 = x + h * y3, y + h * a3
                a4 = c * x4 * y4 * y4 / (1.0 + e * x4 * x4)
                x += sixth * (y + 2.0 * (y2 + y3) + y4)
                y += sixth * (a1 + 2.0 * (a2 + a3) + a4)
            if k <= checked and not abs(x) * scale <= BLOWUP_LIMIT:
                raise LeftChartError("geodesic left the chart during integration")
    except ZeroDivisionError:
        raise LeftChartError("integration left the chart: singular stage Gram factor") from None
    return x


def transport_to_origin(space: GrassmannSpace, p: ChartPoint) -> np.ndarray:
    """Isometry g (unitary / J-unitary (n+m) x (n+m)) sending p's plane to O.

    g is the coset representative [[A, eps A Z], [-D Z^dagger, D]] with
    A = (I_n + eps Z Z^dagger)^{-1/2} and D = (I_m + eps Z^dagger Z)^{-1/2}:
    it maps the raw frame [I_n ; Z^dagger] to [A^{-1} ; 0].  Compact:
    g^dagger g = I; noncompact: g^dagger J g = J.  Applying g to frames
    preserves all pairwise principal angles (compact) and all J-Gram matrices
    (noncompact).

    All four blocks come from one thin SVD of Z: [A ; Z^dagger A] is its
    frame, and A Z = Z D, D Z^dagger = Z^dagger A by push-through.
    """
    check_space(space, p)
    u, co, si, vh = _chart_svd(space.epsilon, p.Z)
    A, ZhA = np.split(_frame(u, co, si, vh), [space.n])
    D = _eye(space.m) + (vh.conj().T * (co - 1.0)) @ vh
    return np.block([[A, space.epsilon * ZhA.conj().T], [-ZhA, D]])


def distance(space: GrassmannSpace, p1: ChartPoint, p2: ChartPoint) -> float:
    """Geodesic distance: the 2-norm of the principal angles theta_i (compact), which
    _angles takes from both readings of _pair_angles, or of the hyperbolic angles tau_i."""
    check_space(space, p1, p2)
    s, c = _pair_angles(space.epsilon, p1.Z, p2.Z)
    theta = _angles(s, c) if space.compact else np.arcsinh(s)
    return math.sqrt(theta.dot(theta))


def _pair_angles(eps: int, Z1: np.ndarray, Z2: np.ndarray) -> tuple:
    """(s, c), nonincreasing, of the planes of two chart points: s = sin theta_i, or sinh tau_i,
    the singular values of S = eps G1^dagger J F2 = D1 (Z2 - Z1)^dagger A2, for F2 the frame
    of Z2 and G1 = [-eps Z1 ; I] D1 that of Z1's complement; Z2 - Z1 is exact, so d(p, p) = 0.
    With n <= m (complements make the same angles), S = diag(co1, 1) vh1 (Z2 - Z1)^dagger u2
    diag(co2) up to unitary factors, vh1 full, so no sum cancels; both chart SVDs are one
    stacked call.  Role 2, where A2 damps Z2 - Z1, goes to the larger si[0] (norm), Z2 on a
    tie.  c = cos theta_i, the singular values of A1 (I + Z1 Z2^dagger) A2, or None (dual)."""
    Z = np.array([Z1, Z2] if Z1.shape[0] <= Z1.shape[1] else [Z1.T, Z2.T])
    u, co, si, vh = _chart_svd(eps, Z, True)
    i, j = (1, 0) if si[1, 0] < si[0, 0] else (0, 1)
    Z1, u1, co1, si1, vh1 = Z[i], u[i], co[i], si[i], vh[i]
    Z2, u2, co2, si2, vh2 = Z[j], u[j], co[j], si[j], vh[j]
    k, X = len(co1), vh1 @ ((Z2 - Z1).conj().T @ u2 * co2)
    s = _svdvals(np.concatenate([co1[:, None] * X[:k], X[k:]]))
    if eps < 0:
        return s, None
    # formed for every compact pair, so that the work does not depend on the data
    C = co1[:, None] * (u1.conj().T @ u2) * co2 + si1[:, None] * (vh1[:k] @ vh2[:k].conj().T) * si2
    return s, _svdvals(C)


def chart_transition(
    space: GrassmannSpace, F: Frame, row_selection
) -> ChartPoint:
    """Chart coordinates in the chart centered at the selected coordinate plane.

    row_selection lists the n rows forming the new top block; it must be
    invertible there.
    """
    check_space(space, F)
    rows = check_rows(space, row_selection, "row_selection")
    rest = [i for i in range(space.N) if i not in set(rows)]
    return _chart_of_rows(
        space, _svd(F.F[rows]), F.F[rest], WrongChartError,
        "selected rows give a singular block; plane not in that chart",
    )
