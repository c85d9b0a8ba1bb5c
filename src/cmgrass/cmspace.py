"""Quadruples (X, Y; v, w), the moment fiber, canonical coordinates and the
bispectral involution.

The ambient space holds n x n matrices X, Y together with v (n x r) and
w (r x n).  Points of the quotient space are represented either as raw
quadruples or, on the chart where Y is diagonalizable with distinct
eigenvalues, as gauge-fixed canonical coordinates (lambda_i, alpha_i, v_i, w_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (NonDiagonalExact, RepeatedEigenvalues, RepeatedPositions,
                     SingularMatrix)
from .scalar import Scalar, ZERO, ONE, sc, tolerance


@dataclass(frozen=True)
class Quadruple:
    """Raw point of the ambient space; fiber membership is checkable, not enforced."""

    n: int
    r: int
    X: tuple
    Y: tuple
    v: tuple
    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "X", _freeze(self.X, self.n, self.n))
        object.__setattr__(self, "Y", _freeze(self.Y, self.n, self.n))
        object.__setattr__(self, "v", _freeze(self.v, self.n, self.r))
        object.__setattr__(self, "w", _freeze(self.w, self.r, self.n))

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for m in (self.X, self.Y, self.v, self.w)
                   for row in m for e in row)

    def __eq__(self, other):
        if not isinstance(other, Quadruple):
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r) and all(
            linalg.mat_eq(list(map(list, a)), list(map(list, b)))
            for a, b in ((self.X, other.X), (self.Y, other.Y),
                         (self.v, other.v), (self.w, other.w)))

    def to_numeric(self) -> "Quadruple":
        """The same point with every entry a numeric (complex) scalar."""
        return Quadruple(n=self.n, r=self.r, X=_numeric(self.X),
                         Y=_numeric(self.Y), v=_numeric(self.v),
                         w=_numeric(self.w))


def _numeric(m):
    return [[x.to_numeric() for x in row] for row in m]


def _freeze(m, rows, cols):
    mm = tuple(tuple(sc(e) for e in row) for row in m)
    if len(mm) != rows or any(len(row) != cols for row in mm):
        raise ValueError(f"expected a {rows}x{cols} matrix")
    return mm


@dataclass(frozen=True)
class CMPoint:
    """Canonical coordinates: sorted distinct lambda_i, alpha_i, gauge-fixed (v_i, w_i).

    Invariants: v_i . w_i = -1, the first nonzero entry of each v_i is 1, and
    the lambda_i are sorted lexicographically by (Re, Im).
    """

    n: int
    r: int
    lam: tuple
    alpha: tuple
    vrow: tuple
    wcol: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(sc(x) for x in self.lam))
        object.__setattr__(self, "alpha", tuple(sc(x) for x in self.alpha))
        object.__setattr__(self, "vrow", tuple(tuple(sc(x) for x in v) for v in self.vrow))
        object.__setattr__(self, "wcol", tuple(tuple(sc(x) for x in w) for w in self.wcol))
        if not (len(self.lam) == len(self.alpha) == len(self.vrow)
                == len(self.wcol) == self.n):
            raise ValueError("length mismatch in CMPoint data")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.lam[i] == self.lam[j]:
                    raise RepeatedPositions(
                        f"lambda_{i} and lambda_{j} coincide")
        for i in range(self.n):
            dot = ZERO
            for a in range(self.r):
                dot = dot + self.vrow[i][a] * self.wcol[i][a]
            if not dot == sc(-1):
                raise ValueError(f"v_{i} . w_{i} = {dot!r}, expected -1")

    @property
    def is_exact(self) -> bool:
        return (all(x.is_exact for x in self.lam)
                and all(x.is_exact for x in self.alpha)
                and all(x.is_exact for v in self.vrow for x in v)
                and all(x.is_exact for w in self.wcol for x in w))

    def __eq__(self, other):
        if not isinstance(other, CMPoint):
            return NotImplemented
        if (self.n, self.r) != (other.n, other.r):
            return False
        return (all(a == b for a, b in zip(self.lam, other.lam))
                and all(a == b for a, b in zip(self.alpha, other.alpha))
                and all(a == b for va, vb in zip(self.vrow, other.vrow)
                        for a, b in zip(va, vb))
                and all(a == b for wa, wb in zip(self.wcol, other.wcol)
                        for a, b in zip(wa, wb)))

    def to_numeric(self) -> "CMPoint":
        """The same point with every coordinate a numeric (complex) scalar."""
        return CMPoint(n=self.n, r=self.r,
                       lam=[x.to_numeric() for x in self.lam],
                       alpha=[x.to_numeric() for x in self.alpha],
                       vrow=_numeric(self.vrow), wcol=_numeric(self.wcol))


def gauge_fix(n, r, lam, alpha, vrow, wcol) -> CMPoint:
    """Sort by (Re, Im) of lambda and scale each (v_i, w_i) pair canonically."""
    data = sorted(zip(lam, alpha, vrow, wcol), key=lambda t: sc(t[0]).sort_key())
    lam_s, alpha_s, v_s, w_s = [], [], [], []
    for l, a, v, w in data:
        v = [sc(x) for x in v]
        w = [sc(x) for x in w]
        pivot = next((x for x in v if not x.is_zero()), None)
        if pivot is None:
            raise ValueError("zero internal vector v_i cannot be gauge-fixed")
        inv = pivot.inverse()
        v = [x * inv for x in v]
        w = [x * pivot for x in w]
        lam_s.append(l)
        alpha_s.append(a)
        v_s.append(v)
        w_s.append(w)
    return CMPoint(n=n, r=r, lam=tuple(lam_s), alpha=tuple(alpha_s),
                   vrow=tuple(v_s), wcol=tuple(w_s))


# ---------------------------------------------------------------------------
# moment map and group action


def moment_residual(q: Quadruple):
    """[X, Y] + vw + I; identically zero on the moment fiber."""
    X, Y = linalg.mat(q.X), linalg.mat(q.Y)
    comm = linalg.msub(linalg.mmul(X, Y), linalg.mmul(Y, X))
    res = linalg.madd(comm, linalg.mmul(linalg.mat(q.v), linalg.mat(q.w)))
    for i in range(q.n):
        res[i][i] = res[i][i] + ONE
    return res


def on_fiber(q: Quadruple) -> bool:
    return linalg.mat_is_zero(moment_residual(q))


def gl_conjugate(g, q: Quadruple) -> Quadruple:
    """(g X g^-1, g Y g^-1; g v, w g^-1)."""
    g = linalg.mat(g)
    try:
        ginv = linalg.inverse(g)
    except SingularMatrix:
        raise SingularMatrix("conjugating matrix is singular")
    return Quadruple(
        n=q.n, r=q.r,
        X=linalg.mmul(linalg.mmul(g, linalg.mat(q.X)), ginv),
        Y=linalg.mmul(linalg.mmul(g, linalg.mat(q.Y)), ginv),
        v=linalg.mmul(g, linalg.mat(q.v)),
        w=linalg.mmul(linalg.mat(q.w), ginv))


# ---------------------------------------------------------------------------
# charts


def from_cd_coords(p: CMPoint) -> Quadruple:
    """Quadruple with Y = diag(lambda): X_ii = alpha_i, X_ij = v_i w_j / (lambda_i - lambda_j)."""
    n, r = p.n, p.r
    X = linalg.zeros(n, n)
    for i in range(n):
        X[i][i] = p.alpha[i]
        for j in range(n):
            if i != j:
                X[i][j] = _pair(p.vrow[i], p.wcol[j]) / (p.lam[i] - p.lam[j])
    Y = linalg.zeros(n, n)
    for i in range(n):
        Y[i][i] = p.lam[i]
    v = [list(p.vrow[i]) for i in range(n)]
    w = [[p.wcol[i][a] for i in range(n)] for a in range(r)]
    return Quadruple(n=n, r=r, X=X, Y=Y, v=v, w=w)


def as_quadruple(P) -> Quadruple:
    """The quadruple of a point given in (c) coordinates or as a quadruple."""
    if isinstance(P, CMPoint):
        return from_cd_coords(P)
    if isinstance(P, Quadruple):
        return P
    raise TypeError("expected a CMPoint or Quadruple")


def from_cprime_coords(x, alpha, vrow, wcol) -> Quadruple:
    """Chart with X diagonal: Y_ii = alpha_i, Y_ij = -v_i w_j / (x_i - x_j)."""
    n = len(x)
    r = len(vrow[0]) if n else 0
    xs = [sc(t) for t in x]
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise RepeatedPositions(f"x_{i} and x_{j} coincide")
    X = linalg.zeros(n, n)
    Y = linalg.zeros(n, n)
    for i in range(n):
        X[i][i] = xs[i]
        Y[i][i] = sc(alpha[i])
        for j in range(n):
            if i != j:
                Y[i][j] = -_pair(vrow[i], wcol[j]) / (xs[i] - xs[j])
    v = [list(map(sc, vi)) for vi in vrow]
    w = [[sc(wcol[i][a]) for i in range(n)] for a in range(r)]
    return Quadruple(n=n, r=r, X=X, Y=Y, v=v, w=w)


def _pair(vrow, wcol) -> Scalar:
    acc = ZERO
    for a, b in zip(vrow, wcol):
        acc = acc + sc(a) * sc(b)
    return acc


def canonicalize(q: Quadruple) -> CMPoint:
    """Gauge-fixed canonical coordinates of a fiber point with semisimple Y.

    Exact mode requires Y to be diagonal already (eigen-decomposition over the
    Gaussian rationals is not generally possible); numeric mode diagonalizes.
    """
    if q.is_exact:
        for i in range(q.n):
            for j in range(q.n):
                if i != j and not q.Y[i][j].is_zero():
                    raise NonDiagonalExact(
                        "exact canonicalize needs a diagonal Y")
        lam = [q.Y[i][i] for i in range(q.n)]
        _check_distinct(lam)
        alpha = [q.X[i][i] for i in range(q.n)]
        vrow = [list(q.v[i]) for i in range(q.n)]
        wcol = [[q.w[a][i] for a in range(q.r)] for i in range(q.n)]
        return gauge_fix(q.n, q.r, lam, alpha, vrow, wcol)
    Ynp = linalg.to_numpy(q.Y)
    evals, evecs = np.linalg.eig(Ynp)
    _check_distinct([Scalar.numeric(e) for e in evals])
    g = np.linalg.inv(evecs)
    qd = gl_conjugate(linalg.from_numpy(g), q)
    lam = [qd.Y[i][i] for i in range(q.n)]
    alpha = [qd.X[i][i] for i in range(q.n)]
    vrow = [list(qd.v[i]) for i in range(q.n)]
    wcol = [[qd.w[a][i] for a in range(q.r)] for i in range(q.n)]
    return gauge_fix(q.n, q.r, lam, alpha, vrow, wcol)


def _check_distinct(lam):
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            if lam[i] == lam[j]:
                raise RepeatedEigenvalues("Y has repeated eigenvalues")


# ---------------------------------------------------------------------------
# involution and rank embedding


def bisp_involution(q: Quadruple) -> Quadruple:
    """b(X, Y; v, w) = (-Y^t, -X^t; -w^t, -v^t); an involution preserving the fiber."""
    Xt = linalg.transpose(linalg.mat(q.X))
    Yt = linalg.transpose(linalg.mat(q.Y))
    vt = linalg.transpose(linalg.mat(q.v))
    wt = linalg.transpose(linalg.mat(q.w))
    return Quadruple(n=q.n, r=q.r,
                     X=linalg.mneg(Yt), Y=linalg.mneg(Xt),
                     v=linalg.mneg(wt), w=linalg.mneg(vt))


def embed_rank(q: Quadruple) -> Quadruple:
    """Inclusion into rank r+1: zero column appended to v, zero row to w."""
    v = [list(row) + [ZERO] for row in q.v]
    w = [list(row) for row in q.w] + [[ZERO] * q.n]
    return Quadruple(n=q.n, r=q.r + 1, X=q.X, Y=q.Y, v=v, w=w)
