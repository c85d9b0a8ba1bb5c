"""Rational Grassmannian points as local Laurent-condition systems.

A point is a width-r space of rational row vectors cut out, at finitely many
sites, by linear conditions on a window of Laurent coefficients.  This module
builds such points from canonical phase-space coordinates, evaluates Baker
functions (moving and stationary), handles the Gr(r, 2r) cell examples,
z-stability, interleaving of width-2 rows into scalar series, and the bounded
search for the leading-coefficient lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cmspace import CMPoint, Quadruple, as_quadruple
from .errors import (DegenerateCell, NotInBetaImage, OutsideBigCell,
                     SingularJet, SingularMatrix, SpectrumMismatch,
                     UnsupportedCell, UnsupportedRank)
from .laurent import laurent_expand
from .loopgroup import GammaJet
from .poly import Poly, RatFun, P_ONE, R_ZERO, R_ONE
from .scalar import Scalar, ZERO, ONE, sc


@dataclass(frozen=True)
class Site:
    """Conditions at one point: linear functionals on the Laurent window.

    The window covers coefficients c_k for -pole_order <= k <= window_top of a
    width-r row; a functional is stored flattened, with the coefficient of
    c_k[a] at index (k + pole_order) * r + a.
    """

    lam: Scalar
    pole_order: int
    window_top: int
    conditions: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", sc(self.lam))
        object.__setattr__(self, "conditions",
                           tuple(tuple(sc(c) for c in cond)
                                 for cond in self.conditions))

    def window_width(self) -> int:
        return self.pole_order + self.window_top + 1


@dataclass(frozen=True)
class GrPoint:
    r: int
    sites: tuple
    provenance: tuple = ("custom", None)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        for s in self.sites:
            want = s.window_width() * self.r
            for cond in s.conditions:
                if len(cond) != want:
                    raise ValueError(
                        f"functional length {len(cond)}, expected {want}")

    def codimension(self) -> int:
        return sum(len(s.conditions) for s in self.sites)


def base_point(r: int) -> GrPoint:
    """The unconstrained point: all of the polynomial rows."""
    return GrPoint(r=r, sites=(), provenance=("custom", "base"))


def qden(W: GrPoint) -> Poly:
    """The monic polynomial with a root of order m_j at each site."""
    p = P_ONE
    for s in W.sites:
        p = p * (Poly.var() - Poly.const(s.lam)) ** s.pole_order
    return p


def _apply_condition(cond, coeffs, pole_order: int, r: int) -> Scalar:
    """coeffs[k + pole_order] is the width-r row of c_k."""
    acc = ZERO
    for idx, c in enumerate(cond):
        if c.is_zero():
            continue
        k, a = divmod(idx, r)
        acc = acc + c * coeffs[k][a]
    return acc


# ---------------------------------------------------------------------------
# the map from phase-space points


def beta(P: CMPoint) -> GrPoint:
    """Condition system of the space attached to a canonical point.

    At each lambda_i (simple pole, window top 0): the residue must lie on the
    line through v_i (r - 1 functionals), and (c_0 + alpha_i c_{-1}) . w_i = 0.
    """
    r = P.r
    sites = []
    for i in range(P.n):
        conds = []
        v = P.vrow[i]
        piv = next(a for a in range(r) if not v[a].is_zero())
        for a in range(r):
            if a == piv:
                continue
            # c_{-1}[a] - v[a]/v[piv] * c_{-1}[piv] = 0
            cond = [ZERO] * (2 * r)
            cond[a] = ONE
            cond[piv] = -(v[a] / v[piv])
            conds.append(tuple(cond))
        cond = [ZERO] * (2 * r)
        for a in range(r):
            cond[a] = P.alpha[i] * P.wcol[i][a]
            cond[r + a] = P.wcol[i][a]
        conds.append(tuple(cond))
        sites.append(Site(lam=P.lam[i], pole_order=1, window_top=0,
                          conditions=tuple(conds)))
    return GrPoint(r=r, sites=tuple(sites), provenance=("beta", P))


def member(f, W: GrPoint) -> bool:
    """Exact membership of a width-r row of rational functions."""
    fs = [RatFun.of(x) for x in f]
    if len(fs) != W.r:
        raise ValueError(f"row width {len(fs)}, expected {W.r}")
    qd = RatFun(qden(W))
    for g in fs:
        if not (g * qd).is_poly():
            return False
    for s in W.sites:
        jet = laurent_expand(fs, s.lam, -s.pole_order, s.window_top)
        if jet.pole_exceeded:
            return False
        for cond in s.conditions:
            if not _apply_condition(cond, jet.coeffs, s.pole_order, W.r).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# Baker functions


def _beta_source(W: GrPoint) -> CMPoint:
    prov = W.provenance
    if not (isinstance(prov, tuple) and len(prov) == 2 and prov[0] == "beta"):
        raise ValueError("operation requires a point built by beta()")
    return prov[1]


def _rat_const_mat(m):
    return [[RatFun.of(e) for e in row] for row in m]


def baker(W: GrPoint, j: GammaJet):
    """Reduced Baker function at a loop jet: an r x r rational matrix in z.

    Uses the transported quadruple v_i g_i^{-1}, g_i w_i and the matrix
    X(g); fails with OutsideBigCell when X(g) is singular.
    """
    P = _beta_source(W)
    if j.r != P.r or j.n != P.n or any(x != y for x, y in zip(j.lams, P.lam)):
        raise SpectrumMismatch("jet spectrum does not match the point")
    n, r = P.n, P.r
    ident = linalg.identity(r, one=R_ONE, zero=R_ZERO)
    if n == 0:
        return ident
    vg = []  # n x r, rows v_i g_i^{-1}
    wg_cols = []  # columns g_i w_i
    gpg = []  # scalars v_i g_i^{-1} g'_i w_i
    for i in range(n):
        g = linalg.mat(j.values[i])
        gp = linalg.mat(j.derivs[i])
        ginv = linalg.inverse(g)
        vi = [list(P.vrow[i])]
        wi = [[x] for x in P.wcol[i]]
        vg.append(linalg.mmul(vi, ginv)[0])
        wg_cols.append([row[0] for row in linalg.mmul(g, wi)])
        gpg.append(linalg.mmul(vi, linalg.mmul(ginv,
                                               linalg.mmul(gp, wi)))[0][0])
    Xg = linalg.zeros(n, n)
    for i in range(n):
        Xg[i][i] = P.alpha[i] - gpg[i]
        for k in range(n):
            if k != i:
                dot = ZERO
                for a in range(r):
                    dot = dot + vg[i][a] * wg_cols[k][a]
                Xg[i][k] = dot / (P.lam[i] - P.lam[k])
    detx = linalg.det(Xg)
    if detx.is_zero():
        raise OutsideBigCell("X(g) is singular", det=detx)
    xinv = linalg.inverse(Xg)
    wg = [[wg_cols[i][a] for i in range(n)] for a in range(r)]  # r x n
    M = linalg.mmul(wg, xinv)  # r x n
    psi = [row[:] for row in ident]
    for i in range(n):
        pole = RatFun(P_ONE, Poly.var() - Poly.const(P.lam[i]))
        for a in range(r):
            for b in range(r):
                c = M[a][i] * vg[i][b]
                if not c.is_zero():
                    psi[a][b] = psi[a][b] + RatFun.of(c) * pole
    return psi


def psi_rows_in_W(psi, j: GammaJet, W: GrPoint) -> bool:
    """Jet-level check that the rows of psi * g satisfy W's conditions.

    Only the value and derivative of g enter: at each site the product's
    residue is psi_{-1} g and its constant term psi_0 g + psi_{-1} g'.
    Requires simple-pole sites with window top 0 (the beta-image shape).
    """
    r = W.r
    for idx, s in enumerate(W.sites):
        if s.pole_order != 1 or s.window_top != 0:
            raise ValueError("jet-level check needs windows [-1, 0]")
        g = linalg.mat(j.values[idx])
        gp = linalg.mat(j.derivs[idx])
        for a in range(r):
            jet = laurent_expand(psi[a], s.lam, -1, 0)
            if jet.pole_exceeded:
                return False
            c_m1 = linalg.mmul([list(jet.coeff(-1))], g)[0]
            c_0 = [x + y for x, y in
                   zip(linalg.mmul([list(jet.coeff(0))], g)[0],
                       linalg.mmul([list(jet.coeff(-1))], gp)[0])]
            for cond in s.conditions:
                if not _apply_condition(cond, [c_m1, c_0], 1, r).is_zero():
                    return False
    return True


def is_normalized(psi) -> bool:
    """psi = I + O(z^{-1}): off-identity parts decay at infinity."""
    r = len(psi)
    for a in range(r):
        for b in range(r):
            e = psi[a][b] - (R_ONE if a == b else R_ZERO)
            if not e.is_zero() and e.num.degree() >= e.den.degree():
                return False
    return True


def _rat_inverse_linear(M):
    """(t I + M)^{-1} over rational functions of the variable t."""
    n = len(M)
    mat = [[Poly.var().scale(ONE if i == j else ZERO) + Poly.const(M[i][j])
            for j in range(n)] for i in range(n)]
    detp, adjp = linalg.det_adjugate(mat)
    return detp, [[RatFun(adjp[i][j], detp) for j in range(n)]
                  for i in range(n)]


def stationary_baker(P, x):
    """I + w (xI + X)^{-1} (zI - Y)^{-1} v as a rational matrix in z."""
    q = as_quadruple(P)
    x = sc(x)
    ident = linalg.identity(q.r, one=R_ONE, zero=R_ZERO)
    if q.n == 0:
        return ident
    xIX = [[(x if i == j else ZERO) + q.X[i][j] for j in range(q.n)]
           for i in range(q.n)]
    detx = linalg.det(xIX)
    if detx.is_zero():
        raise OutsideBigCell("xI + X is singular", det=detx)
    wX = linalg.mmul(linalg.mat(q.w), linalg.inverse(xIX))  # r x n
    _, zres = _rat_inverse_linear([[-q.Y[i][j] for j in range(q.n)]
                                         for i in range(q.n)])
    mid = linalg.mmul(_rat_const_mat(wX), zres)
    psi = linalg.madd(ident, linalg.mmul(mid, _rat_const_mat(q.v)))
    return psi


def stationary_baker_in_x(P, z0):
    """The same Baker function viewed as a rational matrix in x at fixed z."""
    q = as_quadruple(P)
    z0 = sc(z0)
    ident = linalg.identity(q.r, one=R_ONE, zero=R_ZERO)
    if q.n == 0:
        return ident
    zIY = [[(z0 if i == j else ZERO) - q.Y[i][j] for j in range(q.n)]
           for i in range(q.n)]
    try:
        zinv = linalg.inverse(zIY)
    except SingularMatrix:
        raise SpectrumMismatch("z sample lies in the spectrum of Y")
    _, xres = _rat_inverse_linear([[q.X[i][j] for j in range(q.n)]
                                         for i in range(q.n)])
    mid = linalg.mmul(_rat_const_mat(linalg.mat(q.w)), xres)
    tail = linalg.mmul(mid, _rat_const_mat(linalg.mmul(zinv, linalg.mat(q.v))))
    return linalg.madd(ident, tail)


def psi2_det(P, x):
    """Determinant form of the stationary Baker function, width 1 only."""
    q = as_quadruple(P)
    if q.r != 1:
        raise UnsupportedRank("determinant formula requires width 1")
    x = sc(x)
    if q.n == 0:
        return R_ONE
    xIX = [[(x if i == j else ZERO) + q.X[i][j] for j in range(q.n)]
           for i in range(q.n)]
    detx = linalg.det(xIX)
    if detx.is_zero():
        raise OutsideBigCell("xI + X is singular", det=detx)
    # det(I - (zI - Y)^{-1} (xI + X)^{-1}) = det(zI - Y - C) / det(zI - Y)
    xinv = linalg.inverse(xIX)
    num = [[Poly([-q.Y[i][j] - xinv[i][j], ONE if i == j else ZERO])
            for j in range(q.n)] for i in range(q.n)]
    den = [[Poly([-q.Y[i][j], ONE if i == j else ZERO])
            for j in range(q.n)] for i in range(q.n)]
    return RatFun(linalg.det(num), linalg.det(den))


def big_cell_indicator(P, x):
    """det(xI + X): vanishes exactly where the stationary Baker function fails."""
    q = as_quadruple(P)
    x = sc(x)
    if q.n == 0:
        return ONE
    xIX = [[(x if i == j else ZERO) + q.X[i][j] for j in range(q.n)]
           for i in range(q.n)]
    return linalg.det(xIX)


# ---------------------------------------------------------------------------
# Gr(r, 2r) cells


@dataclass(frozen=True)
class CellPoint:
    """Conditions f_{-1} A + f_0 B = 0 on rows with at most a simple pole at 0."""

    A: tuple
    B: tuple

    def __post_init__(self):
        object.__setattr__(self, "A",
                           tuple(tuple(sc(e) for e in row) for row in self.A))
        object.__setattr__(self, "B",
                           tuple(tuple(sc(e) for e in row) for row in self.B))
        r = len(self.A)
        block = [list(ra) + list(rb) for ra, rb in zip(self.A, self.B)]
        if linalg.rank(linalg.transpose(block)) != r:
            raise DegenerateCell("(A | B) does not have full rank")

    @property
    def r(self) -> int:
        return len(self.A)


def cell_grpoint(c: CellPoint) -> GrPoint:
    """The condition system of a cell: one site at 0, window [-1, 0]."""
    r = c.r
    conds = []
    for j in range(r):
        cond = [ZERO] * (2 * r)
        for a in range(r):
            cond[a] = c.A[a][j]
            cond[r + a] = c.B[a][j]
        conds.append(tuple(cond))
    site = Site(lam=ZERO, pole_order=1, window_top=0, conditions=tuple(conds))
    return GrPoint(r=r, sites=(site,), provenance=("cell", c))


def cell_baker(c: CellPoint, jet0):
    """Baker function of a cell from the 1-jet (g(0), g'(0)) of the loop at 0."""
    g0, gp0 = jet0
    g0 = [[sc(e) for e in row] for row in g0]
    gp0 = [[sc(e) for e in row] for row in gp0]
    r = c.r
    try:
        g0inv = linalg.inverse(g0)
    except SingularMatrix:
        raise SingularJet("loop value at 0 is singular")
    gg = linalg.mmul(g0inv, gp0)
    A = linalg.mat(c.A)
    B = linalg.mat(c.B)
    try:
        binv = linalg.inverse(B)
        b_invertible = True
    except SingularMatrix:
        b_invertible = False
    if b_invertible:
        brace = linalg.madd(gg, linalg.mmul(A, binv))
        try:
            core = linalg.inverse(brace)
        except SingularMatrix:
            raise OutsideBigCell("g(0)^{-1}g'(0) + AB^{-1} is singular",
                                 det=linalg.det(brace))
    else:
        try:
            ainv = linalg.inverse(A)
        except SingularMatrix:
            raise DegenerateCell("neither A nor B is invertible")
        bp = linalg.mmul(B, ainv)
        brace = linalg.madd(linalg.identity(r), linalg.mmul(gg, bp))
        try:
            core = linalg.mmul(bp, linalg.inverse(brace))
        except SingularMatrix:
            raise OutsideBigCell("I + g(0)^{-1}g'(0) BA^{-1} is singular",
                                 det=linalg.det(brace))
    coef = linalg.mmul(g0, linalg.mmul(core, g0inv))
    pole = RatFun(P_ONE, Poly.var())
    psi = linalg.identity(r, one=R_ONE, zero=R_ZERO)
    for a in range(r):
        for b in range(r):
            if not coef[a][b].is_zero():
                psi[a][b] = psi[a][b] - RatFun.of(coef[a][b]) * pole
    return psi


def cell_to_point(c: CellPoint) -> Quadruple:
    """The quadruple whose image has the same conditions as the cell.

    Invertible B gives (AB^{-1}, 0; I, -I); rank-one B (after normalizing
    A = I) gives the n = 1 quadruple when the scalar b a is nonzero; B = 0 is
    the base point.
    """
    r = c.r
    A = linalg.mat(c.A)
    B = linalg.mat(c.B)
    try:
        binv = linalg.inverse(B)
    except SingularMatrix:
        binv = None
    if binv is not None:
        X = linalg.mmul(A, binv)
        return Quadruple(n=r, r=r, X=X, Y=linalg.zeros(r, r),
                         v=linalg.identity(r),
                         w=linalg.mneg(linalg.identity(r)))
    try:
        ainv = linalg.inverse(A)
    except SingularMatrix:
        raise UnsupportedCell("neither A nor B is invertible")
    bp = linalg.mmul(B, ainv)
    rk = linalg.rank(bp)
    if rk == 0:
        return Quadruple(n=0, r=r, X=[], Y=[], v=[],
                         w=[[] for _ in range(r)])
    if rk != 1:
        raise UnsupportedCell("B has rank >= 2 but is not invertible")
    i0, j0 = next((i, j) for i in range(r) for j in range(r)
                  if not bp[i][j].is_zero())
    a_col = [bp[i][j0] for i in range(r)]
    b_row = [bp[i0][j] / bp[i0][j0] for j in range(r)]
    ba = ZERO
    for t in range(r):
        ba = ba + b_row[t] * a_col[t]
    if ba.is_zero():
        raise NotInBetaImage("z-stable cell: b a = 0")
    alpha = ba.inverse()
    v = [b_row]
    w = [[-(alpha * a_col[t])] for t in range(r)]
    return Quadruple(n=1, r=r, X=[[alpha]], Y=[[ZERO]], v=v, w=w)


# ---------------------------------------------------------------------------
# z-stability


def z_stable(W: GrPoint) -> bool:
    """True iff multiplication by z maps the cut-out space into itself.

    On each window the multiplication acts by (c_k) -> (lam c_k + c_{k-1});
    stability holds iff this map sends the kernel of the condition system into
    itself, site by site.
    """
    r = W.r
    for s in W.sites:
        if not s.conditions:
            continue
        width = s.window_width()
        cmat = [list(cond) for cond in s.conditions]
        kern = linalg.kernel_basis(cmat)
        for u in kern:
            coeffs = [[u[k * r + a] for a in range(r)] for k in range(width)]
            shifted = []
            for k in range(width):
                row = [s.lam * coeffs[k][a]
                       + (coeffs[k - 1][a] if k > 0 else ZERO)
                       for a in range(r)]
                shifted.append(row)
            for cond in s.conditions:
                if not _apply_condition(cond, shifted, s.pole_order, r).is_zero():
                    return False
    return True


# ---------------------------------------------------------------------------
# interleaving width-2 rows into scalar Laurent series


def interleave(f):
    """(f0, f1) -> f0(u^2) + u f1(u^2) in the fine variable u."""
    f0, f1 = (RatFun.of(x) for x in f)
    return f0.subs_square() + RatFun.var() * f1.subs_square()


def deinterleave(h):
    """Inverse of interleave: split a scalar rational function by parity."""
    h = RatFun.of(h)
    dn = Poly(tuple(c if i % 2 == 0 else -c
                    for i, c in enumerate(h.den.coeffs)))
    num = h.num * dn
    den, den_odd = (h.den * dn).even_decimate()
    if not den_odd.is_zero():
        raise ValueError("denominator did not become even")
    even, odd = num.even_decimate()
    return [RatFun(even, den), RatFun(odd, den)]


# ---------------------------------------------------------------------------
# order-2 pole ansatz


def stationary_ansatz_order2(W: GrPoint, xs):
    """Try psi = (I + A/z + B/z^2) e^{xz} against an order-2 site at 0.

    Returns a per-x list of reports; each is solvable with a witness (A, B) or
    marked unsolvable.
    """
    if len(W.sites) != 1:
        raise ValueError("ansatz needs a single site")
    s = W.sites[0]
    if not s.lam.is_zero() or s.pole_order != 2 or s.window_top != 0:
        raise ValueError("ansatz needs one site at 0 with window [-2, 0]")
    r = W.r
    half = sc(Fraction(1, 2))
    reports = []
    for x in xs:
        x = sc(x)
        ok = True
        A = [[ZERO] * r for _ in range(r)]
        B = [[ZERO] * r for _ in range(r)]
        for i in range(r):
            # unknowns: A[i][:] then B[i][:]
            rows = []
            rhs = []
            for cond in s.conditions:
                row = [ZERO] * (2 * r)
                const = ZERO
                for a in range(r):
                    cm2 = cond[a]
                    cm1 = cond[r + a]
                    c0 = cond[2 * r + a]
                    # c_{-2} = B, c_{-1} = A + xB, c_0 = I + xA + x^2/2 B
                    row[a] = row[a] + cm1 + c0 * x
                    row[r + a] = (row[r + a] + cm2 + cm1 * x
                                  + c0 * half * x * x)
                    if a == i:
                        const = const + c0
                rows.append(row)
                rhs.append(-const)
            sol = linalg.solve_general(rows, rhs)
            if sol is None:
                ok = False
                break
            A[i] = sol[:r]
            B[i] = sol[r:]
        reports.append({"x": x, "solvable": ok,
                        "A": A if ok else None, "B": B if ok else None})
    return reports


def order2_example_point() -> GrPoint:
    """Width-2 point with an order-2 pole at 0 and no stationary Baker function.

    Conditions: first entries of c_{-2} and c_{-1} vanish, and both entries of
    c_0 vanish.
    """
    r = 2
    width = 3 * r
    conds = []
    for idx in (0, 2, 4, 5):  # c_{-2}[0], c_{-1}[0], c_0[0], c_0[1]
        cond = [ZERO] * width
        cond[idx] = ONE
        conds.append(tuple(cond))
    site = Site(lam=ZERO, pole_order=2, window_top=0, conditions=tuple(conds))
    return GrPoint(r=r, sites=(site,), provenance=("custom", "order2-example"))


# ---------------------------------------------------------------------------
# tau polynomial


def tau32(t1, t2, t3, t4) -> Scalar:
    """The quintic t1^5 - 4 t2 t1^3 - 12 t3 t1^2 + (12 t2^2 + 24 t4) t1 - 24 t2 t3."""
    t1, t2, t3, t4 = sc(t1), sc(t2), sc(t3), sc(t4)
    return (t1 ** 5 - sc(4) * t2 * t1 ** 3 - sc(12) * t3 * t1 ** 2
            + (sc(12) * t2 ** 2 + sc(24) * t4) * t1 - sc(24) * t2 * t3)


# ---------------------------------------------------------------------------
# worked width-2 lattice example


def lattice_example_W() -> GrPoint:
    """Width-2 point whose rows look like (0, c)/z + (c, d) + O(z)."""
    r = 2
    conds = [
        (ONE, ZERO, ZERO, ZERO),          # c_{-1}[0] = 0
        (ZERO, ONE, -ONE, ZERO),          # c_{-1}[1] - c_0[0] = 0
    ]
    site = Site(lam=ZERO, pole_order=1, window_top=0, conditions=tuple(conds))
    return GrPoint(r=r, sites=(site,), provenance=("custom", "lattice-example-W"))


def lattice_example_V() -> GrPoint:
    """z times lattice_example_W: polynomial rows with f_0(0) = 0, f_1(0) = f_0'(0)."""
    r = 2
    conds = [
        (ONE, ZERO, ZERO, ZERO),          # c_0[0] = 0
        (ZERO, ONE, -ONE, ZERO),          # c_0[1] - c_1[0] = 0
    ]
    site = Site(lam=ZERO, pole_order=0, window_top=1, conditions=tuple(conds))
    return GrPoint(r=r, sites=(site,), provenance=("custom", "lattice-example-V"))


# ---------------------------------------------------------------------------
# bounded lattice computation


@dataclass(frozen=True)
class LatticeResult:
    """Bounded description of the operators mapping polynomials into W.

    ``operators`` are maps order -> width-r row of numerator polynomials; the
    true coefficient rows are these divided by ``denominator``.  ``generators``
    is the canonical generating set (over polynomials) of the module spanned by
    all numerator leading rows within the bounds.
    """

    r: int
    order_bound: int
    degree_bound: int
    denominator: Poly
    operators: tuple
    generators: tuple


def lattice_basis(W: GrPoint, order_bound: int, degree_bound: int) -> LatticeResult:
    """Search D(C[z], W) within order/degree bounds by exact linear algebra.

    An operator is sum_k (q_k(z)/qden) D^k with deg q_k <= degree_bound; the
    membership constraints are evaluated on the per-site test polynomials
    (z - lam)^m, which determine the windows completely.
    """
    r, K, d = W.r, order_bound, degree_bound
    qd = qden(W)
    nunk = r * (K + 1) * (d + 1)

    def uidx(a, k, m):
        return (a * (K + 1) + k) * (d + 1) + m

    rows = []
    for s in W.sites:
        lam, mj, dj = s.lam, s.pole_order, s.window_top
        jmax = K + mj + dj
        for mtest in range(jmax + 1):
            p = (Poly.var() - Poly.const(lam)) ** mtest
            ders = [p]
            for _ in range(K):
                ders.append(ders[-1].derivative())
            window = {}
            for k in range(K + 1):
                if ders[k].is_zero():
                    continue
                for mp in range(d + 1):
                    fn = RatFun(Poly.monomial(mp, ONE) * ders[k], qd)
                    window[(k, mp)] = fn.laurent_at(lam, -mj, dj)
            for cond in s.conditions:
                row = [ZERO] * nunk
                for (k, mp), lau in window.items():
                    for a in range(r):
                        acc = ZERO
                        for kk in range(-mj, dj + 1):
                            c = cond[(kk + mj) * r + a]
                            if not c.is_zero():
                                acc = acc + c * lau[kk + mj]
                        if not acc.is_zero():
                            row[uidx(a, k, mp)] = row[uidx(a, k, mp)] + acc
                rows.append(row)

    def kernel_with_max_order(kmax):
        # the kernel on the columns of order <= kmax, padded with zeros
        cols = [uidx(a, k, mp) for a in range(r) for k in range(kmax + 1)
                for mp in range(d + 1)]
        if rows:
            basis = linalg.kernel_basis([[row[j] for j in cols]
                                         for row in rows])
        else:
            basis = linalg.identity(len(cols))
        padded = []
        for u in basis:
            v = [ZERO] * nunk
            for j, x in zip(cols, u):
                v[j] = x
            padded.append(v)
        return padded

    def vec_to_rows(u):
        out = {}
        for k in range(K + 1):
            row = [Poly(tuple(u[uidx(a, k, mp)] for mp in range(d + 1)))
                   for a in range(r)]
            if any(not p.is_zero() for p in row):
                out[k] = tuple(row)
        return out

    full = kernel_with_max_order(K)
    operators = tuple(vec_to_rows(u) for u in full
                      if any(not x.is_zero() for x in u))
    lead = []
    for k in range(K + 1):
        for u in full if k == K else kernel_with_max_order(k):
            row = [Poly(tuple(u[uidx(a, k, mp)] for mp in range(d + 1)))
                   for a in range(r)]
            if any(not p.is_zero() for p in row):
                lead.append(row)
    gens = poly_hnf(lead)
    return LatticeResult(r=r, order_bound=K, degree_bound=d, denominator=qd,
                         operators=operators, generators=tuple(
                             tuple(row) for row in gens))


def poly_hnf(rows):
    """Canonical (Hermite-style) generators of the row module over polynomials.

    Gaussian elimination over the polynomial ring with monic pivots, entries
    above each pivot reduced modulo it; the result depends only on the module.
    """
    work = [list(r) for r in rows if any(not p.is_zero() for p in r)]
    if not work:
        return []
    width = len(work[0])
    out = []
    for col in range(width):
        cand = [r for r in work if not r[col].is_zero()]
        rest = [r for r in work if r[col].is_zero()]
        if not cand:
            work = rest
            continue
        while len(cand) > 1:
            cand.sort(key=lambda r: r[col].degree())
            piv = cand[0]
            new = [piv]
            for r in cand[1:]:
                qq = r[col] // piv[col]
                red = [a - qq * b for a, b in zip(r, piv)]
                if red[col].is_zero():
                    if any(not p.is_zero() for p in red):
                        rest.append(red)
                else:
                    new.append(red)
            cand = new
        piv = cand[0]
        inv = piv[col].leading().inverse()
        piv = [p.scale(inv) for p in piv]
        out.append((col, piv))
        work = rest
    gens = []
    for i, (col, row) in enumerate(out):
        for jcol, jrow in out[i + 1:]:
            qq = row[jcol] // jrow[jcol]
            row = [a - qq * b for a, b in zip(row, jrow)]
        gens.append(row)
    return gens


# ---------------------------------------------------------------------------
# bounded vector-space comparisons (used to certify W = L_W within bounds)


def bounded_numerators(W: GrPoint, deg_bound: int):
    """Basis of {polynomial rows q, deg <= bound : q / qden lies in W}."""
    r = W.r
    qd = qden(W)
    nunk = r * (deg_bound + 1)
    rows = []
    for s in W.sites:
        window = {}
        for a in range(r):
            for mp in range(deg_bound + 1):
                fn = RatFun(Poly.monomial(mp, ONE), qd)
                window[mp] = fn.laurent_at(s.lam, -s.pole_order, s.window_top)
        for cond in s.conditions:
            row = [ZERO] * nunk
            for a in range(r):
                for mp in range(deg_bound + 1):
                    acc = ZERO
                    for kk in range(-s.pole_order, s.window_top + 1):
                        c = cond[(kk + s.pole_order) * r + a]
                        if not c.is_zero():
                            acc = acc + c * window[mp][kk + s.pole_order]
                    row[a * (deg_bound + 1) + mp] = acc
            rows.append(row)
    if not rows:
        basis = [[ONE if i == j else ZERO for i in range(nunk)]
                 for j in range(nunk)]
    else:
        basis = linalg.kernel_basis(rows)
    out = []
    for u in basis:
        out.append([Poly(tuple(u[a * (deg_bound + 1) + mp]
                               for mp in range(deg_bound + 1)))
                    for a in range(r)])
    return out


def module_numerators(gens, r: int, deg_bound: int):
    """All z^j multiples of the generator rows with degrees within the bound."""
    out = []
    for g in gens:
        topdeg = max((p.degree() for p in g if not p.is_zero()), default=-1)
        if topdeg < 0:
            continue
        for j in range(deg_bound - topdeg + 1):
            out.append([Poly.monomial(j, ONE) * p for p in g])
    return out


def row_span_equal(rows1, rows2, r: int, deg_bound: int) -> bool:
    """Equality of the coefficient spans of two sets of bounded poly rows."""
    def flatten(rows):
        vecs = []
        for row in rows:
            v = []
            for p in row:
                v.extend(p.coeff(m) for m in range(deg_bound + 1))
            vecs.append(v)
        return vecs

    v1 = flatten(rows1)
    v2 = flatten(rows2)
    if not v1 and not v2:
        return True
    if not v1 or not v2:
        return all(all(x.is_zero() for x in v) for v in v1 + v2)
    r1, _ = linalg.row_reduce(v1)
    r2, _ = linalg.row_reduce(v2)
    if len(r1) != len(r2):
        return False
    return all(all(x == y for x, y in zip(a, b)) for a, b in zip(r1, r2))
