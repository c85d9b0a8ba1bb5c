"""Truncated matrix pseudo-differential operators.

A MatPDO is a finite sum  sum_k  C_k(t) D^k  with rational-function matrix
coefficients written on the *left* of the powers of D, where D = d/dt and t is
the operator's variable label ("x" or "z").  Orders below -depth are dropped;
every operation keeps all coefficients of orders >= -depth exact.

Composition uses the (generalized) Leibniz rule

    D^k a(t) = sum_{j>=0} C(k, j) a^(j)(t) D^{k-j} ,

a finite sum for k >= 0 and a truncated series for k < 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .errors import (NonPolynomialCoefficient, NotUnitriangular, ShapeMismatch)
from .poly import Poly, RatFun, R_ONE, R_ZERO
from .scalar import sc

DEFAULT_DEPTH = 8


def binom(k: int, j: int) -> Fraction:
    """Generalized binomial coefficient C(k, j) for integer k (possibly < 0)."""
    if j < 0:
        return Fraction(0)
    if k >= 0:
        return Fraction(math.comb(k, j)) if j <= k else Fraction(0)
    num = 1
    for i in range(j):
        num *= (k - i)
    return Fraction(num, math.factorial(j))


class MatPDO:
    """Matrix pseudo-differential operator, truncated below ``-depth``."""

    __slots__ = ("rows", "cols", "depth", "var", "terms")

    def __init__(self, rows, cols, terms=None, depth=DEFAULT_DEPTH, var="x"):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.rows = rows
        self.cols = cols
        self.depth = depth
        self.var = var
        clean = {}
        for k, m in (terms or {}).items():
            if k < -depth:
                continue
            mm = [[RatFun.of(e) for e in row] for row in m]
            if linalg.shape(mm) != (rows, cols):
                raise ShapeMismatch(
                    f"coefficient of order {k} has shape {linalg.shape(mm)}, "
                    f"expected {(rows, cols)}")
            if not linalg.mat_is_zero(mm):
                clean[k] = mm
        self.terms = clean

    # ---------------------------------------------------------------- factories

    @staticmethod
    def identity(n, depth=DEFAULT_DEPTH, var="x") -> "MatPDO":
        return MatPDO(n, n, {0: linalg.identity(n, one=R_ONE, zero=R_ZERO)},
                      depth=depth, var=var)

    @staticmethod
    def from_matrix(m, order=0, depth=DEFAULT_DEPTH, var="x") -> "MatPDO":
        """Operator with a single term  m * D^order."""
        r, c = linalg.shape(m)
        return MatPDO(r, c, {order: m}, depth=depth, var=var)

    # ---------------------------------------------------------------- queries

    def coeff(self, k: int):
        if k in self.terms:
            return self.terms[k]
        return linalg.zeros(self.rows, self.cols, zero=R_ZERO)

    def orders(self):
        return sorted(self.terms)

    def order(self) -> int:
        """Highest order present (None for the zero operator)."""
        return max(self.terms) if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms

    def is_differential(self, depth=None) -> bool:
        """True iff every coefficient of orders -1 .. -depth vanishes.

        Certification only reaches the truncation order; the caller is expected
        to report the depth alongside the verdict.
        """
        d = self.depth if depth is None else min(depth, self.depth)
        return all(k >= 0 for k in self.terms if k >= -d)

    # ---------------------------------------------------------------- ring ops

    def _check_var(self, other: "MatPDO"):
        if self.var != other.var:
            raise ValueError(f"operator variables differ: {self.var} vs {other.var}")

    def __add__(self, other: "MatPDO") -> "MatPDO":
        self._check_var(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("operator addition shape mismatch")
        depth = min(self.depth, other.depth)
        terms = {k: [row[:] for row in m] for k, m in self.terms.items()}
        for k, m in other.terms.items():
            terms[k] = linalg.madd(terms[k], m) if k in terms else m
        return MatPDO(self.rows, self.cols, terms, depth=depth, var=self.var)

    def __neg__(self) -> "MatPDO":
        return MatPDO(self.rows, self.cols,
                      {k: linalg.mneg(m) for k, m in self.terms.items()},
                      depth=self.depth, var=self.var)

    def __sub__(self, other: "MatPDO") -> "MatPDO":
        return self + (-other)

    def mul(self, other: "MatPDO", depth=None) -> "MatPDO":
        """Composition self . other, truncated below -depth."""
        self._check_var(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot compose {(self.rows, self.cols)} with "
                f"{(other.rows, other.cols)}")
        d = min(self.depth, other.depth) if depth is None else depth
        out = {}
        for l, b in other.terms.items():
            # successive entrywise derivatives of b, computed on demand
            derivs = [b]
            for k, a in self.terms.items():
                jmax = k if k >= 0 else k + l + d
                j = 0
                while j <= jmax:
                    if k + l - j < -d:
                        break
                    while len(derivs) <= j:
                        derivs.append([[e.derivative() for e in row]
                                       for row in derivs[-1]])
                    c = binom(k, j)
                    if c != 0:
                        prod = linalg.mmul(a, derivs[j])
                        if c != 1:
                            cc = RatFun.of(sc(c))
                            prod = linalg.mscale(prod, cc)
                        key = k + l - j
                        out[key] = linalg.madd(out[key], prod) if key in out else prod
                    j += 1
        return MatPDO(self.rows, other.cols, out, depth=d, var=self.var)

    def __mul__(self, other):
        if isinstance(other, MatPDO):
            return self.mul(other)
        return NotImplemented

    def scale(self, c) -> "MatPDO":
        cc = RatFun.of(c)
        return MatPDO(self.rows, self.cols,
                      {k: linalg.mscale(m, cc) for k, m in self.terms.items()},
                      depth=self.depth, var=self.var)

    # ---------------------------------------------------------------- transposes

    def transpose(self) -> "MatPDO":
        """Matrix transpose; entries untouched."""
        return MatPDO(self.cols, self.rows,
                      {k: linalg.transpose(m) for k, m in self.terms.items()},
                      depth=self.depth, var=self.var)

    def star_mul(self, other: "MatPDO", depth=None) -> "MatPDO":
        """The opposite-ring matrix product  self * other := (other^t self^t)^t."""
        return other.transpose().mul(self.transpose(), depth=depth).transpose()

    def b_involution(self) -> "MatPDO":
        """Entrywise anti-automorphism exchanging the variable and D.

        b(p(t) D^k) = t^k p(D); defined for polynomial coefficients of
        nonnegative order only.  No matrix transpose is taken.
        """
        for k, m in self.terms.items():
            if k < 0:
                raise NonPolynomialCoefficient(
                    f"b of a negative-order term D^{k} leaves the polynomial ring")
            for row in m:
                for e in row:
                    if not e.is_poly():
                        raise NonPolynomialCoefficient(
                            "b requires polynomial coefficients")
        out = {}
        for k, m in self.terms.items():
            for i in range(self.rows):
                for j in range(self.cols):
                    p = m[i][j].as_poly()
                    for mdeg, c in enumerate(p.coeffs):
                        if c.is_zero():
                            continue
                        tgt = out.setdefault(
                            mdeg, linalg.zeros(self.rows, self.cols, zero=R_ZERO))
                        mono = RatFun(Poly.monomial(k, c))
                        tgt[i][j] = tgt[i][j] + mono
        return MatPDO(self.rows, self.cols, out, depth=self.depth, var=self.var)

    def rename(self, var: str) -> "MatPDO":
        return MatPDO(self.rows, self.cols, self.terms, depth=self.depth, var=var)

    # ---------------------------------------------------------------- inversion

    def invert(self, depth=None) -> "MatPDO":
        """Inverse of I + (strictly negative orders), order by order.

        With K = I + sum_{k<0} A_k D^k and B = sum_{m>=0} B_m D^{-m}, the
        order -m part of K B = I gives B_0 = I and

            B_m = - sum_{k<0, j>=0} C(k, j) A_k B_{m+k-j}^(j) ,

        where m + k - j runs over 0 .. m-1, so each B_m needs only the earlier
        ones and their derivatives, which are kept per order.
        """
        d = self.depth if depth is None else depth
        if self.rows != self.cols:
            raise ShapeMismatch("only square operators can be inverted")
        ident = linalg.identity(self.rows, one=R_ONE, zero=R_ZERO)
        if any(k > 0 for k in self.terms):
            raise NotUnitriangular("positive orders present")
        if not linalg.mat_eq(self.coeff(0), ident):
            raise NotUnitriangular("order-0 part is not the identity")
        a = {k: m for k, m in self.terms.items() if -d <= k < 0}
        derivs = {0: [ident]}  # derivs[m][j] = B_m^(j), for the nonzero B_m
        for m in range(1, d + 1):
            acc = None
            for k, ak in a.items():
                for j in range(m + k + 1):
                    bs = derivs.get(m + k - j)
                    if bs is None:
                        continue
                    while len(bs) <= j:
                        bs.append([[e.derivative() for e in row] for row in bs[-1]])
                    prod = linalg.mmul(ak, bs[j])
                    c = binom(k, j)
                    if c != 1:
                        prod = linalg.mscale(prod, RatFun.of(sc(c)))
                    acc = prod if acc is None else linalg.madd(acc, prod)
            if acc is not None and not linalg.mat_is_zero(acc):
                derivs[m] = [linalg.mneg(acc)]
        return MatPDO(self.rows, self.cols, {-m: bs[0] for m, bs in derivs.items()},
                      depth=d, var=self.var)

    # ---------------------------------------------------------------- action

    def apply_to_polyvec(self, pvec):
        """Apply a differential operator to a column of polynomials.

        ``pvec`` is a list of Poly of length self.cols; the result is a list of
        RatFun of length self.rows.
        """
        if any(k < 0 for k in self.terms):
            raise ValueError("only differential operators act on polynomials")
        ps = [p if isinstance(p, Poly) else Poly.const(sc(p)) for p in pvec]
        if len(ps) != self.cols:
            raise ShapeMismatch("vector length does not match operator width")
        out = [R_ZERO for _ in range(self.rows)]
        for k, m in self.terms.items():
            dvec = ps
            for _ in range(k):
                dvec = [p.derivative() for p in dvec]
            for i in range(self.rows):
                for j in range(self.cols):
                    if not m[i][j].is_zero() and not dvec[j].is_zero():
                        out[i] = out[i] + m[i][j] * RatFun(dvec[j])
        return out

    # ---------------------------------------------------------------- comparison

    def eq_through(self, other: "MatPDO", depth=None) -> bool:
        """Equality of all coefficients of orders >= -depth."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        d = min(self.depth, other.depth) if depth is None else depth
        ks = {k for k in self.terms if k >= -d} | {k for k in other.terms if k >= -d}
        return all(linalg.mat_eq(self.coeff(k), other.coeff(k)) for k in ks)

    def __eq__(self, other):
        if not isinstance(other, MatPDO):
            return NotImplemented
        return self.eq_through(other)

    def __hash__(self):
        raise TypeError("MatPDO is not hashable")

    def __repr__(self):
        parts = []
        for k in sorted(self.terms, reverse=True):
            parts.append(f"D^{k}: {self.terms[k]!r}")
        body = "; ".join(parts) if parts else "0"
        return (f"MatPDO({self.rows}x{self.cols}, var={self.var}, "
                f"depth={self.depth}, {body})")
