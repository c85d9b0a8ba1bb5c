"""Dense matrix helpers.

Matrices are plain tuples-of-tuples (or lists-of-lists) whose entries support
field arithmetic through Python operators: Scalar, Poly (ring ops only) and
RatFun all qualify.  Nothing here is numpy-backed except the explicit
``to_numpy``/``from_numpy`` bridges used by the numeric-mode oracles.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SingularMatrix
from .scalar import Scalar, ZERO, ONE, sc


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
