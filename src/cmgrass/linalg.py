"""Dense matrix helpers.

Matrices are plain tuples-of-tuples (or lists-of-lists) of Scalar, Poly (ring
operations only) or RatFun entries.  When every entry is an exact Scalar,
``mmul``, ``det``, ``solve`` and ``row_reduce`` (hence ``inverse``, ``rank``,
``kernel_basis`` and ``solve_general``) work on one integer form
``(A + iB)/d`` with ``d > 0``: integer dot products, fraction-free
Gauss-Jordan over Z[i], and elimination with primitive rows.  Each output
entry is reduced to its canonical triple once, at the end, so the results
equal those of the generic path.  Any Poly, RatFun or numeric entry takes the
generic path, which applies Python operators entry by entry.  numpy appears
only in the ``to_numpy``/``from_numpy`` bridges of the numeric oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from .errors import SingularMatrix
from .scalar import Scalar, ZERO, ONE, sc, _reduced


def mat(rows):
    return [list(r) for r in rows]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def zeros(n, m, zero=ZERO):
    return [[zero for _ in range(m)] for _ in range(n)]


def identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(a):
    n, m = shape(a)
    return [[a[i][j] for i in range(n)] for j in range(m)]


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mneg(a):
    return [[-x for x in r] for r in a]


def mscale(a, c):
    return [[x * c for x in r] for r in a]


def mmul(a, b):
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise ValueError(f"matmul shapes {shape(a)} x {shape(b)}")
    da = _denominator(a)
    db = da and _denominator(b)
    if db:
        return _gaussian_mmul(_gaussian(a, da), _gaussian(b, db))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_eq(a, b) -> bool:
    if shape(a) != shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for r in a for x in r)


def trace(a):
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def mpow(a, k: int):
    n = len(a)
    out = identity(n)
    base = a
    while k:
        if k & 1:
            out = mmul(out, base)
        base = mmul(base, base)
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# Gaussian elimination over a field (Scalar or RatFun entries)


def solve(a, b):
    """Solve a x = b for square a; b is n x m.  Raises SingularMatrix."""
    n, _ = shape(a)
    m = shape(b)[1]
    da = _denominator(a)
    db = da and _denominator(b)
    if db:
        return _gaussian_solve(_gaussian(a, da), _gaussian(b, db))
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise SingularMatrix("singular matrix in solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _inv_entry(aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + m] for row in aug]


def _inv_entry(x):
    if isinstance(x, Scalar):
        return x.inverse()
    from .poly import R_ONE
    return R_ONE / x


def inverse(a):
    n = len(a)
    if n == 0:
        return []
    da = _denominator(a)
    if da:
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        return _gaussian_solve(_gaussian(a, da),
                               (unit, [[0] * n for _ in range(n)], 1))
    one = _one_like(a[0][0])
    return solve(a, identity(n, one=one, zero=a[0][0] - a[0][0]))


def _one_like(x):
    """The unit of the ring of x: Scalar, Poly or RatFun."""
    if isinstance(x, Scalar):
        return ONE
    from .poly import RatFun, Poly
    if isinstance(x, RatFun):
        return RatFun.of(1)
    if isinstance(x, Poly):
        return Poly.const(1)
    raise TypeError(f"no unit for {type(x)}")


def rank(a) -> int:
    rr, _ = row_reduce([list(r) for r in a])
    return len(rr)


def row_reduce(rows):
    """Reduced echelon form over a field; returns (nonzero_rows, pivot_cols)."""
    d = _denominator(rows)
    if d:
        return _gaussian_row_reduce(_gaussian(rows, d))
    rows = [list(r) for r in rows]
    m = len(rows[0]) if rows else 0
    pivots = []
    lead = 0
    out = []
    for col in range(m):
        piv = None
        for r in range(lead, len(rows)):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = _inv_entry(rows[lead][col])
        rows[lead] = [x * inv for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows[:lead], pivots


def solve_general(a, b):
    """Particular solution x of a x = b (a: n x m, b: length-n vector).

    Free variables are set to zero; returns None when inconsistent.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    if n == 0:
        return [ZERO] * m
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = row_reduce(aug)
    if m in pivots:
        return None
    x = [a[0][0] - a[0][0] for _ in range(m)]
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return x


def kernel_basis(a):
    """Basis of the right null space of the n x m matrix a (entries: a field)."""
    n, m = shape(a)
    if n == 0:
        return [[ONE if i == j else ZERO for i in range(m)] for j in range(m)]
    red, pivots = row_reduce(a)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m
        v[f] = _one_like(a[0][0])
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Determinant and adjugate over a commutative ring (Faddeev-LeVerrier)


def det_adjugate(a):
    """(det, adjugate) of a square matrix over a commutative Q-algebra.

    Faddeev-LeVerrier: only ring operations plus division by small integers,
    so it applies verbatim to Poly and RatFun entries.
    """
    n = len(a)
    if n == 0:
        return ONE, []
    one = _one_like(a[0][0])
    zero = a[0][0] - a[0][0]
    m_k = zeros(n, n, zero=zero)
    c = one  # c_n
    for k in range(1, n + 1):
        m_k = mmul(a, m_k)
        for i in range(n):
            m_k[i][i] = m_k[i][i] + c
        am = mmul(a, m_k)
        c = -_int_div(trace(am), k)  # c_{n-k}
    d = c if n % 2 == 0 else -c
    adj = m_k if n % 2 == 1 else mneg(m_k)
    return d, adj


def det(a):
    d = _denominator(a)
    if d:
        return _gaussian_det(_gaussian(a, d))
    return det_adjugate(a)[0]


def _int_div(x, k: int):
    if isinstance(x, Scalar):
        return x / sc(k)
    from .poly import RatFun, Poly
    if isinstance(x, RatFun):
        return x / RatFun.of(k)
    if isinstance(x, Poly):
        return x.scale(sc(Fraction(1, k)))
    raise TypeError(f"cannot divide {type(x)} by integer")


# ---------------------------------------------------------------------------
# Exact kernels on (A + iB)/d.  A Gaussian integer x + iy is the int pair
# (x, y); a row is a pair (real parts, imaginary parts) of int lists.


def _denominator(a):
    """The lcm d of the entry denominators, or None unless every entry is an
    exact Scalar.  Checks only: the integer form is built by _gaussian."""
    if not any(a):
        return None
    d = 1
    for row in a:
        for x in row:
            if type(x) is not Scalar or x.val is not None:
                return None
            if d % x.d:
                d = lcm(d, x.d)
    return d


def _gaussian(a, d):
    """(A, B, d) with a == (A + iB)/d, for d = _denominator(a)."""
    re, im = [], []
    for row in a:
        rr, ri = [], []
        for x in row:
            s = d // x.d
            rr.append(x.a * s)
            ri.append(x.b * s)
        re.append(rr)
        im.append(ri)
    return re, im, d


def _gaussian_mmul(fa, fb):
    (a, b, d), (c, e, f) = fa, fb
    den = d * f
    ct = list(zip(*c))
    et = list(zip(*e))
    return [[_reduced(sum(map(mul, ar, cc)) - sum(map(mul, br, ec)),
                      sum(map(mul, ar, ec)) + sum(map(mul, br, cc)), den)
             for cc, ec in zip(ct, et)] for ar, br in zip(a, b)]


def _fraction_free(rows, n):
    """Fraction-free Gauss-Jordan on the first n columns of Gaussian rows.

    At step k every row other than the pivot row becomes
    (p * row - f * pivot_row) / prev, an exact division in Z[i], where p is
    the pivot, f the row's entry in column k and prev the previous pivot.
    The first n columns would end as p_last * I, so only the columns past k
    are updated.  The last pivot is det(P a) for the row permutation P, and
    the trailing columns end as p_last * a^{-1} b.  Returns (rows, p_last,
    sign of P), or None when a is singular.
    """
    sign = 1
    qr, qi = 1, 0
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][0][k] or rows[r][1][k]),
                   None)
        if piv is None:
            return None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        kr, ki = rows[k]
        pr, pi = kr[k], ki[k]
        nq = qr * qr + qi * qi
        tail = range(k + 1, len(kr))
        for r in range(len(rows)):
            if r == k:
                continue
            xr, xi = rows[r]
            fr, fi = xr[k], xi[k]
            for j in tail:
                # u = p x_j - f k_j, then u / q = u conj(q) / |q|^2
                ur = pr * xr[j] - pi * xi[j] - fr * kr[j] + fi * ki[j]
                ui = pr * xi[j] + pi * xr[j] - fr * ki[j] - fi * kr[j]
                xr[j] = (ur * qr + ui * qi) // nq
                xi[j] = (ui * qr - ur * qi) // nq
        qr, qi = pr, pi
    return rows, (qr, qi), sign


def _gaussian_det(form):
    re, im, d = form
    n = len(re)
    done = _fraction_free(list(zip(re, im)), n)
    if done is None:
        return ZERO
    _, (pr, pi), sign = done
    return _reduced(sign * pr, sign * pi, d ** n)


def _gaussian_solve(fa, fb):
    (a, b, d), (c, e, f) = fa, fb
    n = len(a)
    rows = [(ra + rc, ia + ie) for ra, ia, rc, ie in zip(a, b, c, e)]
    done = _fraction_free(rows, n)
    if done is None:
        raise SingularMatrix("singular matrix in solve")
    rows, (pr, pi), _ = done
    # x = (d / f) (P a_int)^{-1} P c_int = d * tail / (f * p)
    nq = (pr * pr + pi * pi) * f
    return [[_reduced(d * (x * pr + y * pi), d * (y * pr - x * pi), nq)
             for x, y in zip(xr[n:], xi[n:])] for xr, xi in rows]


def _gaussian_row_reduce(form):
    """RREF by Gauss-Jordan over Z[i] with primitive rows.

    A row r is replaced by p * r - f * pivot_row only where its entry f in
    the pivot column is nonzero, then divided by its integer content.  Each
    pivot row is first divided by a gcd over Z[i] of its entries: a
    Gaussian factor left in it would multiply into every row it eliminates
    and compound from pivot to pivot (past 10^5 bits on a 44 x 32 lattice
    system).  The pivot rows are divided by their pivots at the end.
    """
    re, im, _ = form
    rows = [_primitive(r, i) for r, i in zip(re, im)]
    nrows, m = len(rows), len(re[0])
    pivots = []
    lead = 0
    for col in range(m):
        piv = next((r for r in range(lead, nrows)
                    if rows[r][0][col] or rows[r][1][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        rows[lead] = kr, ki = _gaussian_primitive(*rows[lead])
        pr, pi = kr[col], ki[col]
        for r in range(nrows):
            xr, xi = rows[r]
            fr, fi = xr[col], xi[col]
            if r == lead or not (fr or fi):
                continue
            rows[r] = _primitive(
                [pr * x - pi * y - fr * u + fi * v
                 for x, y, u, v in zip(xr, xi, kr, ki)],
                [pr * y + pi * x - fr * v - fi * u
                 for x, y, u, v in zip(xr, xi, kr, ki)])
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    out = []
    for (xr, xi), col in zip(rows, pivots):
        pr, pi = xr[col], xi[col]
        nq = pr * pr + pi * pi
        out.append([_reduced(x * pr + y * pi, y * pr - x * pi, nq)
                    for x, y in zip(xr, xi)])
    return out, pivots


def _primitive(re, im):
    """The Gaussian row (re, im) divided by the gcd of all its parts."""
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def _gaussian_primitive(re, im):
    """The Gaussian row (re, im) divided by a gcd over Z[i] of its entries."""
    gr = gi = 0
    for x, y in zip(re, im):
        if x or y:
            gr, gi = _gaussian_gcd(x, y, gr, gi)
            if gr * gr + gi * gi == 1:
                return re, im
    n = gr * gr + gi * gi
    if n > 1:
        return ([(x * gr + y * gi) // n for x, y in zip(re, im)],
                [(y * gr - x * gi) // n for x, y in zip(re, im)])
    return re, im


def _gaussian_gcd(ar, ai, br, bi):
    """A gcd of a = ar + i ai and b = br + i bi, by Euclid over Z[i]."""
    while br or bi:
        # q is a / b = a conj(b) / |b|^2 rounded to the nearest parts
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


# ---------------------------------------------------------------------------
# numpy bridges (numeric mode only)


def to_numpy(a) -> np.ndarray:
    n, m = shape(a)
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            out[i, j] = a[i][j].to_complex()
    return out


def from_numpy(arr: np.ndarray):
    return [[Scalar.numeric(arr[i, j]) for j in range(arr.shape[1])]
            for i in range(arr.shape[0])]
