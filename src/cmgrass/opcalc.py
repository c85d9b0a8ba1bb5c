"""Dressing operators, intertwiners and membership tests for operator modules.

The K-operator of a point conjugates the bare exponential kernel to its Baker
kernel; sandwiching an operator between two K-operators decides membership in
D(U, V) and produces the intertwiner on the other variable.  A separate,
fully exact jet test decides D.C[z] <= W directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from . import linalg
from .cmspace import Quadruple, as_quadruple, bisp_involution, from_cd_coords
from .errors import NotDifferential, UnsupportedPoleLocus
from .grass import GrPoint, _beta_source, stationary_baker, laurent_expand, \
    _apply_condition
from .pdo import MatPDO, DEFAULT_DEPTH, binom
from .poly import Poly, RatFun, P_ONE, R_ZERO, R_ONE
from .scalar import Scalar, ZERO, ONE, sc


@dataclass(frozen=True)
class KOperator:
    """I + (strictly negative orders), tagged with its source point."""

    op: MatPDO
    source: object = None

    def __post_init__(self):
        ident = MatPDO.identity(self.op.rows, depth=self.op.depth,
                                var=self.op.var)
        if any(k >= 0 for k in self.op.terms if k != 0):
            raise ValueError("K-operator has positive orders")
        if not linalg.mat_eq(self.op.coeff(0), ident.coeff(0)):
            raise ValueError("K-operator order-0 part is not the identity")


def _resolvent_x(M):
    """(xI + M)^{-1} as a rational-function matrix in the operator variable."""
    n = len(M)
    mat = [[Poly.var().scale(ONE if i == j else ZERO) + Poly.const(M[i][j])
            for j in range(n)] for i in range(n)]
    detp, adjp = linalg.det_adjugate(mat)
    return [[RatFun(adjp[i][j], detp) for j in range(n)] for i in range(n)]


def kw(P, depth: int = DEFAULT_DEPTH) -> KOperator:
    """I + w (xI + X)^{-1} (D - Y)^{-1} v, truncated below -depth."""
    q = as_quadruple(P)
    r, n = q.r, q.n
    terms = {0: linalg.identity(r, one=R_ONE, zero=R_ZERO)}
    if n:
        res = _resolvent_x([[q.X[i][j] for j in range(n)] for i in range(n)])
        wres = linalg.mmul([[RatFun.of(e) for e in row] for row in q.w], res)
        ypow = linalg.identity(n, one=R_ONE, zero=R_ZERO)
        yrat = [[RatFun.of(e) for e in row] for row in q.Y]
        vrat = [[RatFun.of(e) for e in row] for row in q.v]
        for m in range(depth):
            coef = linalg.mmul(wres, linalg.mmul(ypow, vrat))
            terms[-m - 1] = coef
            ypow = linalg.mmul(ypow, yrat)
    return KOperator(op=MatPDO(r, r, terms, depth=depth, var="x"), source=P)


def kbw(P, depth: int = DEFAULT_DEPTH) -> KOperator:
    """I + v^t (xI - Y^t)^{-1} (D + X^t)^{-1} w^t, truncated below -depth."""
    q = as_quadruple(P)
    r, n = q.r, q.n
    terms = {0: linalg.identity(r, one=R_ONE, zero=R_ZERO)}
    if n:
        yt = linalg.transpose(linalg.mat(q.Y))
        res = _resolvent_x([[-yt[i][j] for j in range(n)] for i in range(n)])
        vt = linalg.transpose(linalg.mat(q.v))
        wt = linalg.transpose(linalg.mat(q.w))
        vres = linalg.mmul([[RatFun.of(e) for e in row] for row in vt], res)
        mxt = linalg.mneg(linalg.transpose(linalg.mat(q.X)))
        xpow = linalg.identity(n, one=R_ONE, zero=R_ZERO)
        xrat = [[RatFun.of(e) for e in row] for row in mxt]
        wtr = [[RatFun.of(e) for e in row] for row in wt]
        for m in range(depth):
            coef = linalg.mmul(vres, linalg.mmul(xpow, wtr))
            terms[-m - 1] = coef
            xpow = linalg.mmul(xpow, xrat)
    return KOperator(op=MatPDO(r, r, terms, depth=depth, var="x"), source=P)


def kop_of(W: GrPoint, depth: int = DEFAULT_DEPTH) -> KOperator:
    """K-operator of a base point (identity) or of a point built by beta."""
    prov = W.provenance
    if isinstance(prov, tuple) and prov and prov[0] == "beta":
        return kw(prov[1], depth)
    if not W.sites:
        return KOperator(op=MatPDO.identity(W.r, depth=depth, var="x"),
                         source=None)
    raise ValueError("K-operator available only for base and beta-image points")


def theta(D: MatPDO, U: GrPoint, V: GrPoint,
          depth: int = DEFAULT_DEPTH) -> MatPDO:
    """The x-side intertwiner K_U b(D) K_V^{-1}, if it is differential.

    D must be a differential operator in z with polynomial coefficients, of
    shape (U width) x (V width).  Raises NotDifferential with the deepest
    offending order and coefficient otherwise.
    """
    if D.var != "z":
        raise ValueError("D must be an operator in z")
    if (D.rows, D.cols) != (U.r, V.r):
        raise ValueError("operator shape does not match the two points")
    bd = D.b_involution().rename("x")
    # work with a margin: composing with an order-m factor costs m orders of
    # exactness at the truncation boundary
    margin = max(bd.order() or 0, 0)
    work = depth + margin
    ku = kop_of(U, work)
    kv = kop_of(V, work)
    cand = ku.op.mul(bd, depth=work).mul(kv.op.invert(depth=work), depth=work)
    bad = sorted(k for k in cand.terms if -depth <= k < 0)
    if bad:
        raise NotDifferential("sandwiched operator keeps negative orders",
                              order=bad[0], coefficient=cand.terms[bad[0]])
    return MatPDO(cand.rows, cand.cols,
                  {k: m for k, m in cand.terms.items() if k >= 0},
                  depth=depth, var="x")


def b_map(D: MatPDO, U: GrPoint, V: GrPoint,
          depth: int = DEFAULT_DEPTH) -> MatPDO:
    """Matrix transpose of the intertwiner, read as an operator in z."""
    return theta(D, U, V, depth=depth).transpose().rename("z")


# ---------------------------------------------------------------------------
# exact witness operators


def latt_witness(P, pvec) -> MatPDO:
    """Exactly differential column operator with leading coefficient pvec.

    With g the characteristic polynomial of -X, the resolvent identity
    (D + X^t)^{-1} g(D) = adj(D + X^t) removes every negative order, so
    G := g(D) I + v^t (xI - Y^t)^{-1} adj(D + X^t) w^t is differential; the
    returned operator is G composed with multiplication by pvec(x).
    """
    q = as_quadruple(P)
    r, n = q.r, q.n
    ps = [p if isinstance(p, Poly) else Poly.const(sc(p)) for p in pvec]
    if len(ps) != r:
        raise ValueError(f"need {r} polynomial entries")
    # g(mu) = det(mu I + X) and adj(mu I + X^t), coefficient-wise in mu
    xt = linalg.transpose(linalg.mat(q.X))
    mat = [[Poly.var().scale(ONE if i == j else ZERO) + Poly.const(xt[i][j])
            for j in range(n)] for i in range(n)]
    gpoly, adj = linalg.det_adjugate(mat) if n else (P_ONE, [])
    terms = {}
    for k in range(gpoly.degree() + 1):
        c = gpoly.coeff(k)
        if not c.is_zero():
            terms[k] = linalg.mscale(
                linalg.identity(r, one=R_ONE, zero=R_ZERO), RatFun.of(c))
    if n:
        yt = linalg.transpose(linalg.mat(q.Y))
        res = _resolvent_x([[-yt[i][j] for j in range(n)] for i in range(n)])
        vres = linalg.mmul(
            [[RatFun.of(e) for e in row]
             for row in linalg.transpose(linalg.mat(q.v))], res)
        wt = [[RatFun.of(e) for e in row]
              for row in linalg.transpose(linalg.mat(q.w))]
        maxdeg = max(p.degree() for row in adj for p in row)
        for k in range(maxdeg + 1):
            ak = [[RatFun.of(adj[i][j].coeff(k)) for j in range(n)]
                  for i in range(n)]
            coef = linalg.mmul(vres, linalg.mmul(ak, wt))
            if not linalg.mat_is_zero(coef):
                terms[k] = linalg.madd(terms[k], coef) if k in terms else coef
    G = MatPDO(r, r, terms, depth=DEFAULT_DEPTH, var="x")
    pop = MatPDO(r, 1, {0: [[RatFun(p)] for p in ps]},
                 depth=DEFAULT_DEPTH, var="x")
    return G.mul(pop)


# ---------------------------------------------------------------------------
# direct membership in D(C[z], W)


def d_membership_direct(D: MatPDO, W: GrPoint) -> bool:
    """Exact decision of D.C[z] <= W for a differential column (or row) D.

    The Laurent window of D.p at a site depends only on the jet of p there up
    to a computable order, so checking the shifted monomials (z - lam)^m for
    m up to that order is complete.
    """
    if any(k < 0 for k in D.terms):
        raise ValueError("membership test requires a differential operator")
    col = D
    if col.cols != 1:
        if col.rows == 1:
            col = col.transpose()
        else:
            raise ValueError("expected a single-column or single-row operator")
    if col.rows != W.r:
        raise ValueError("operator width does not match the point")
    order = col.order()
    if order is None:
        return True
    # coefficient poles must sit at the sites
    pole_depth = {}
    for m in col.terms.values():
        for row in m:
            for e in row:
                if e.is_zero() or e.is_poly():
                    continue
                rem = e
                for s in W.sites:
                    po = e.pole_order_at(s.lam)
                    if po > 0:
                        key = s.lam.sort_key()
                        pole_depth[key] = max(pole_depth.get(key, 0), po)
                        clear = RatFun((Poly.var() - Poly.const(s.lam)) ** po)
                        rem = rem * clear
                if not rem.is_poly():
                    raise UnsupportedPoleLocus(
                        "coefficient has a pole away from the sites")
    for s in W.sites:
        ej = pole_depth.get(s.lam.sort_key(), 0)
        jmax = order + ej + s.pole_order + s.window_top
        for mtest in range(jmax + 1):
            p = (Poly.var() - Poly.const(s.lam)) ** mtest
            f = col.apply_to_polyvec([p])
            for e in f:
                if not e.is_zero() and e.pole_order_at(s.lam) > s.pole_order:
                    return False
            jet = laurent_expand(f, s.lam, -s.pole_order, s.window_top)
            for cond in s.conditions:
                if not _apply_condition(cond, jet.coeffs, s.pole_order,
                                        W.r).is_zero():
                    return False
    return True


# ---------------------------------------------------------------------------
# exact evaluation of both sides of the intertwining identity


def _psi_x_derivative(q: Quadruple, x0: Scalar, j: int):
    """d^j/dx^j of the stationary Baker function at x = x0, rational in z."""
    r, n = q.r, q.n
    if j == 0:
        return stationary_baker(q, x0)
    zero = linalg.zeros(r, r, zero=R_ZERO)
    if n == 0:
        return zero
    xIX = [[(x0 if i == k else ZERO) + q.X[i][k] for k in range(n)]
           for i in range(n)]
    xinv = linalg.inverse(xIX)
    power = xinv
    for _ in range(j):
        power = linalg.mmul(power, xinv)
    sign = sc((-1) ** j * factorial(j))
    wm = linalg.mscale(linalg.mmul(linalg.mat(q.w), power), sign)
    zmat = [[Poly.var().scale(ONE if i == k else ZERO) - Poly.const(q.Y[i][k])
             for k in range(n)] for i in range(n)]
    detp, adjp = linalg.det_adjugate(zmat)
    zres = [[RatFun(adjp[i][k], detp) for k in range(n)] for i in range(n)]
    left = linalg.mmul([[RatFun.of(e) for e in row] for row in wm], zres)
    return linalg.mmul(left, [[RatFun.of(e) for e in row] for row in q.v])


def theta_side_at(th: MatPDO, V: GrPoint, x0) -> list:
    """Theta . psi_V with the exponential stripped, at a sample x value.

    Theta = sum C_k(x) D_x^k acts on psi~ e^{xz} as
    sum C_k(x) (D_x + z)^k psi~ times the exponential.
    """
    x0 = sc(x0)
    prov = V.provenance
    if isinstance(prov, tuple) and prov and prov[0] == "beta":
        q = from_cd_coords(prov[1])
    elif not V.sites:
        q = Quadruple(n=0, r=V.r, X=[], Y=[], v=[], w=[[] for _ in range(V.r)])
    else:
        raise ValueError("evaluation needs a base or beta-image point")
    dcache = {}

    def dpsi(j):
        if j not in dcache:
            dcache[j] = _psi_x_derivative(q, x0, j)
        return dcache[j]

    out = linalg.zeros(th.rows, V.r, zero=R_ZERO)
    for k, m in th.terms.items():
        ck = [[RatFun.of(e.eval(x0)) for e in row] for row in m]
        acc = linalg.zeros(V.r, V.r, zero=R_ZERO)
        for j in range(k + 1):
            c = RatFun.of(sc(binom(k, j))) * RatFun(Poly.monomial(j, ONE))
            acc = linalg.madd(acc, linalg.mscale(dpsi(k - j), c))
        out = linalg.madd(out, linalg.mmul(ck, acc))
    return out


def d_side_at(D: MatPDO, U: GrPoint, x0) -> list:
    """psi_U star D with the exponential stripped, at a sample x value.

    Entries of D act on the transposed Baker function by z-differentiation
    shifted by x: (D_z + x) replaces D_z under the exponential.
    """
    x0 = sc(x0)
    prov = U.provenance
    if isinstance(prov, tuple) and prov and prov[0] == "beta":
        psi = stationary_baker(prov[1], x0)
    elif not U.sites:
        psi = linalg.identity(U.r, one=R_ONE, zero=R_ZERO)
    else:
        raise ValueError("evaluation needs a base or beta-image point")
    psit = linalg.transpose(psi)
    dt = D.transpose()  # cols x rows, entries unchanged
    out = linalg.zeros(dt.rows, U.r, zero=R_ZERO)
    for k, m in dt.terms.items():
        # (D_z + x0)^k h = sum_j C(k, j) x0^{k-j} h^(j)
        hder = [psit]
        for _ in range(k):
            hder.append([[e.derivative() for e in row] for row in hder[-1]])
        acc = linalg.zeros(len(psit), U.r, zero=R_ZERO)
        for j in range(k + 1):
            c = sc(binom(k, j)) * x0 ** (k - j)
            if not c.is_zero():
                acc = linalg.madd(acc, linalg.mscale(hder[j], RatFun.of(c)))
        out = linalg.madd(out, linalg.mmul(m, acc))
    return linalg.transpose(out)
