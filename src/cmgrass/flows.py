"""Gibbons-Hermsen Hamiltonians tr(Y^k v a w) and their flows.

Closed-form trajectories exist whenever the needed matrix exponential is
elementary: scalar a (a gauge flow shifting the diagonal of X), nilpotent a of
index 2 (polynomial exponential, exact), and the general numeric case.  An RK4
integrator of the equations of motion serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import linalg
from .cmspace import CMPoint, Quadruple, gauge_fix
from .errors import NotNilpotent, UnsupportedExactExponential
from .poly import Poly
from .scalar import Scalar, ZERO, ONE, sc


@dataclass(frozen=True)
class FlowSpec:
    k: int
    alpha: tuple
    t: Scalar

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("flow index k must be >= 0")


def hamiltonian(q: Quadruple, k: int, alpha) -> Scalar:
    """J_{k, a} = tr(Y^k v a w)."""
    m = linalg.mmul(linalg.mpow(linalg.mat(q.Y), k),
                    linalg.mmul(linalg.mat(q.v),
                                linalg.mmul(linalg.mat(alpha), linalg.mat(q.w))))
    return linalg.trace(m) if q.n else ZERO


# ---------------------------------------------------------------------------
# closed-form flows


def _is_scalar_matrix(a):
    r = len(a)
    c = a[0][0]
    for i in range(r):
        for j in range(r):
            want = c if i == j else ZERO
            if not a[i][j] == want:
                return None
    return c


def _is_nilpotent2(a) -> bool:
    return linalg.mat_is_zero(linalg.mmul(a, a))


def flow_closed(p: CMPoint, k: int, alpha, t) -> CMPoint:
    """Exact trajectory on the chart where Y = diag(lambda).

    v_i(t) = v_i exp(lambda_i^k a t), w_i(t) = exp(-lambda_i^k a t) w_i and the
    diagonal of X moves linearly; Y is fixed.  Exact mode handles scalar a
    (pure gauge, only alpha_i moves) and nilpotent a of index 2; anything else
    needs numeric mode.
    """
    a = [[sc(e) for e in row] for row in alpha]
    t = sc(t)
    exact = (p.is_exact and t.is_exact
             and all(e.is_exact for row in a for e in row))
    lam = list(p.lam)
    csc = _is_scalar_matrix(a)
    if csc is not None and csc.is_exact and exact:
        # exp(lambda^k c t) is a torus gauge factor: only the X-diagonal moves
        alpha_new = [p.alpha[i] - csc * sc(k) * lam[i] ** max(k - 1, 0) * t
                     if k >= 1 else p.alpha[i] for i in range(p.n)]
        return gauge_fix(p.n, p.r, lam, alpha_new, [list(v) for v in p.vrow],
                         [list(w) for w in p.wcol])
    if exact and _is_nilpotent2(a):
        exps = []
        for i in range(p.n):
            s = lam[i] ** k * t
            e = [[(ONE if x == y else ZERO) + a[x][y] * s
                  for y in range(p.r)] for x in range(p.r)]
            einv = [[(ONE if x == y else ZERO) - a[x][y] * s
                     for y in range(p.r)] for x in range(p.r)]
            exps.append((e, einv))
    elif not exact:
        exps = []
        anp = linalg.to_numpy(a)
        for i in range(p.n):
            s = (lam[i] ** k * t).to_complex()
            exps.append((linalg.from_numpy(expm(s * anp)),
                         linalg.from_numpy(expm(-s * anp))))
    else:
        raise UnsupportedExactExponential(
            "exact closed-form flow needs scalar or index-2 nilpotent alpha")
    alpha_new = []
    vrow_new = []
    wcol_new = []
    for i in range(p.n):
        e, einv = exps[i]
        vi = [list(p.vrow[i])]
        wi = [[x] for x in p.wcol[i]]
        viawi = linalg.mmul(vi, linalg.mmul(a, wi))[0][0]
        rate = sc(k) * lam[i] ** max(k - 1, 0) * viawi if k >= 1 else ZERO
        alpha_new.append(p.alpha[i] + rate * t)
        vrow_new.append(linalg.mmul(vi, e)[0])
        wcol_new.append([row[0] for row in linalg.mmul(einv, wi)])
    return gauge_fix(p.n, p.r, lam, alpha_new, vrow_new, wcol_new)


def flow_scalar(q: Quadruple, p: Poly) -> Quadruple:
    """Action of the scalar loop exp(p(z)) : X -> X - p'(Y), rest fixed."""
    dp = p.derivative()
    Y = linalg.mat(q.Y)
    # p'(Y) by Horner
    acc = linalg.zeros(q.n, q.n)
    for c in reversed(dp.coeffs):
        acc = linalg.mmul(acc, Y)
        for i in range(q.n):
            acc[i][i] = acc[i][i] + c
    return Quadruple(n=q.n, r=q.r, X=linalg.msub(linalg.mat(q.X), acc),
                     Y=q.Y, v=q.v, w=q.w)


def flow_nilpotent(q: Quadruple, k: int, alpha, t) -> Quadruple:
    """Flow for alpha^2 = 0 on arbitrary Y: v a w is a constant of motion."""
    a = [[sc(e) for e in row] for row in alpha]
    if not _is_nilpotent2(a):
        raise NotNilpotent("alpha^2 != 0")
    t = sc(t)
    Y = linalg.mat(q.Y)
    v = linalg.mat(q.v)
    w = linalg.mat(q.w)
    vaw = linalg.mmul(v, linalg.mmul(a, w))
    dX = linalg.zeros(q.n, q.n)
    for j in range(k):
        dX = linalg.madd(dX, linalg.mmul(linalg.mpow(Y, k - 1 - j),
                                         linalg.mmul(vaw, linalg.mpow(Y, j))))
    yk = linalg.mpow(Y, k)
    v_new = linalg.madd(v, linalg.mscale(linalg.mmul(yk, linalg.mmul(v, a)), t))
    w_new = linalg.msub(w, linalg.mscale(linalg.mmul(a, linalg.mmul(w, yk)), t))
    X_new = linalg.madd(linalg.mat(q.X), linalg.mscale(dX, t))
    return Quadruple(n=q.n, r=q.r, X=X_new, Y=q.Y, v=v_new, w=w_new)


# ---------------------------------------------------------------------------
# numeric oracle


def flow_numeric(q: Quadruple, k: int, alpha, t, steps: int = 10000) -> Quadruple:
    """Classical RK4 integration of the equations of motion (oracle only).

    dX = sum_j Y^{k-1-j} (v a w) Y^j (zero for k = 0), dY = 0, dv = Y^k v a,
    dw = -a w Y^k.  Y is constant and stays out of the state, which is one
    flat complex vector

        s = (vec X, vec v, 1, vec w, 1),   length n^2 + 2 n r + 2,

    with row-major vec, so that vec(A M B) = kron(A, B^T) vec M.  The two
    constant 1 entries make the outer product u = (vec v, 1) (x) (vec w, 1)
    hold v (x) w, v and w at once, and every operator is folded into one
    matrix F, built before the loop, with s' = F vec u:

        vec dX = sum_j kron(Y^{k-1-j}, (Y^j)^T) vec(v a w)   (the v (x) w block),
        vec dv = kron(Y^k, a^T) vec v                        (the v (x) 1 block),
        vec dw = -kron(a, (Y^k)^T) vec w                     (the 1 (x) w block),

    and zero rows for the 1 entries, which therefore stay exactly 1.  Each of
    the four stages is one outer product and one matvec; the step count and
    step rule are fixed, and no exponential or power of the step map is used.
    """
    n, r = q.n, q.r
    a = linalg.to_numpy([[sc(e) for e in row] for row in alpha])
    Y = linalg.to_numpy(q.Y)
    ypows = [np.eye(n, dtype=complex)]
    for _ in range(k):
        ypows.append(ypows[-1] @ Y)
    yk = ypows[k]
    nx, nv = n * n, n * r
    m = nv + 1
    F = np.zeros((nx + 2 * m, m, m), dtype=complex)
    # F[(i, l), (p, b), (c, o)] = sum_j (Y^{k-1-j})_{ip} a_bc (Y^j)_{ol}
    right = np.array(ypows[:k], dtype=complex).reshape(k, n, n)
    F[:nx, :nv, :nv] = np.einsum("jip,bc,jol->ilpbco", right[::-1], a,
                                 right).reshape(nx, nv, nv)
    F[nx:nx + nv, :nv, nv] = np.kron(yk, a.T)
    F[nx + m:nx + m + nv, nv, :nv] = -np.kron(a, yk.T)
    F = F.reshape(nx + 2 * m, m * m)

    dot = np.dot

    def rhs(s):
        u = s[nx:]
        return dot(F, (u[:m, None] * u[m:]).ravel())

    one = np.ones(1, dtype=complex)
    s = np.concatenate((linalg.to_numpy(q.X).ravel(),
                        linalg.to_numpy(q.v).ravel(), one,
                        linalg.to_numpy(q.w).ravel(), one))
    h = sc(t).to_complex() / steps
    h2, h6 = 0.5 * h, h / 6.0
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs(s + h2 * k1)
        k3 = rhs(s + h2 * k2)
        k4 = rhs(s + h * k3)
        s = s + h6 * (k1 + 2 * (k2 + k3) + k4)
    return Quadruple(n=n, r=r, X=linalg.from_numpy(s[:nx].reshape(n, n)),
                     Y=linalg.from_numpy(Y),
                     v=linalg.from_numpy(s[nx:nx + nv].reshape(n, r)),
                     w=linalg.from_numpy(s[nx + m:-1].reshape(r, n)))


# ---------------------------------------------------------------------------
# Poisson bracket oracle


def poisson_bracket(q: Quadruple, spec1, spec2, h: float = 1e-4) -> Scalar:
    """Finite-difference Poisson bracket of two Hamiltonians at q.

    The pairing tr(dY ^ dX + dw ^ dv) makes (X_ij, Y_ji) and (v_ia, w_ai)
    canonically conjugate; the bracket is assembled from central differences
    with step h.  All 2 (2n^2 + 2nr) perturbed copies of (X, Y, v, w) are
    stacked and each Hamiltonian is evaluated on the stack at once.
    """
    n, r = q.n, q.r
    nx, nv = n * n, n * r
    base = np.concatenate([linalg.to_numpy(m).ravel()
                           for m in (q.X, q.Y, q.v, q.w)])
    N = base.size
    # row c moves coordinate c by +h, row N + c moves it by -h
    shift = h * np.eye(N)
    pts = np.concatenate((base + shift, base - shift))
    Ys = pts[:, nx:2 * nx].reshape(-1, n, n)
    vs = pts[:, 2 * nx:2 * nx + nv].reshape(-1, n, r)
    ws = pts[:, 2 * nx + nv:].reshape(-1, r, n)

    def grads(spec):
        k, a = spec
        a = linalg.to_numpy([[sc(e) for e in row] for row in a])
        # J does not read X: the rows that move X give partials of exactly 0
        f = np.trace(np.linalg.matrix_power(Ys, k) @ vs @ a @ ws,
                     axis1=1, axis2=2)
        g = (f[:N] - f[N:]) / (2 * h)
        return (g[:nx].reshape(n, n), g[nx:2 * nx].reshape(n, n),
                g[2 * nx:2 * nx + nv].reshape(n, r),
                g[2 * nx + nv:].reshape(r, n))

    dX1, dY1, dv1, dw1 = grads(spec1)
    dX2, dY2, dv2, dw2 = grads(spec2)
    # {F, G} = sum dF/dY_ji dG/dX_ij - dF/dX_ij dG/dY_ji + (w, v analogue);
    # with this orientation {J_{k,a}, J_{l,b}} = J_{k+l,[a,b]}
    val = (np.sum(dY1.T * dX2 - dX1 * dY2.T)
           + np.sum(dw1.T * dv2 - dv1 * dw2.T))
    return Scalar.numeric(val)
