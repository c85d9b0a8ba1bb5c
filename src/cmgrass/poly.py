"""Dense univariate polynomials and reduced rational functions over Scalar."""

from __future__ import annotations

from .scalar import Scalar, ZERO, ONE, sc


class Poly:
    """Polynomial with Scalar coefficients, ascending order, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [sc(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    # ------------------------------------------------------------ constructors

    @staticmethod
    def const(c) -> "Poly":
        return Poly([sc(c)])

    @staticmethod
    def var() -> "Poly":
        return Poly([ZERO, ONE])

    @staticmethod
    def monomial(k: int, c=ONE) -> "Poly":
        return Poly([ZERO] * k + [sc(c)])

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = Poly.const(1)
        for r in roots:
            p = p * Poly([-sc(r), ONE])
        return p

    # ------------------------------------------------------------ basic queries

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(c.val is None for c in self.coeffs)

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def leading(self) -> Scalar:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = sc(c)
        return Poly([a * c for a in self.coeffs])

    def __pow__(self, k: int):
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "Poly"):
        """Exact field division with remainder."""
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [ZERO] * max(0, self.degree() - other.degree() + 1)
        rem = list(self.coeffs)
        dlead = other.leading()
        inv = dlead.inverse()
        dd = other.degree()
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            f = rem[-1] * inv
            q[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd, by Euclid on monic remainders (no division by a leading
        coefficient inside the loop)."""
        a, b = self, _as_poly(other)
        if a.degree() == 0 or b.degree() == 0:
            return P_ONE
        b = b.monic()
        while not b.is_zero():
            a, b = b, (a % b).monic()
        return a.monic()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    # ------------------------------------------------------------ calculus & composition

    def derivative(self) -> "Poly":
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def eval(self, x) -> Scalar:
        x = sc(x)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def shift(self, lam) -> "Poly":
        """p(z + lam) via Horner."""
        lam = sc(lam)
        out = Poly()
        zpluslam = Poly([lam, ONE])
        for c in reversed(self.coeffs):
            out = out * zpluslam + Poly.const(c)
        return out

    def compose_square(self) -> "Poly":
        """p(z^2): spread coefficients over even indices."""
        out = [ZERO] * (2 * len(self.coeffs))
        for k, c in enumerate(self.coeffs):
            out[2 * k] = c
        return Poly(out)

    def even_decimate(self):
        """Split p = e(z^2) + z*o(z^2); returns (e, o)."""
        return (Poly(self.coeffs[0::2]), Poly(self.coeffs[1::2]))

    # ------------------------------------------------------------ comparison

    def __eq__(self, other) -> bool:
        try:
            other = _as_poly(other)
        except TypeError:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"{c!r}*z^{k}" if k else f"{c!r}")
        return "Poly(" + " + ".join(terms) + ")"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(sc(x))


P_ZERO = Poly()
P_ONE = Poly.const(1)


def series_div(num, den, order: int):
    """First ``order + 1`` coefficients of the power series num/den; den[0] != 0."""
    d0 = den[0]
    inv = d0.inverse()
    out = []
    for j in range(order + 1):
        acc = num[j] if j < len(num) else ZERO
        for i in range(max(0, j - len(den) + 1), j):
            acc = acc - den[j - i] * out[i]
        out.append(acc * inv)
    return out


class RatFun:
    """Reduced rational function num/den with monic denominator.

    Exact-mode values are kept fully reduced (gcd 1), so structural equality of
    the reduced forms is decidable; numeric-mode equality falls back on
    cross-multiplication with the global tolerance.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        num = _as_poly(num)
        den = P_ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), P_ONE
        elif (reduce and num.degree() > 0 and den.degree() > 0
              and num.is_exact() and den.is_exact()):
            g = num.gcd(den)
            if g.degree() > 0:
                num = num // g
                den = den // g
        if not den.is_zero() and not den.leading().is_one():
            lead = den.leading().inverse()
            num, den = num.scale(lead), den.scale(lead)
        self.num = num
        self.den = den

    # ------------------------------------------------------------ constructors

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c))

    @staticmethod
    def var() -> "RatFun":
        return RatFun(Poly.var())

    @staticmethod
    def of(x) -> "RatFun":
        if isinstance(x, RatFun):
            return x
        if isinstance(x, Poly):
            return RatFun(x)
        return RatFun(Poly.const(sc(x)))

    # ------------------------------------------------------------ queries

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree() == 0

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError("not a polynomial")
        return self.num

    def is_exact(self) -> bool:
        return self.num.is_exact() and self.den.is_exact()

    # ------------------------------------------------------------ arithmetic

    # Exact values are reduced with monic denominators, so sums and products
    # reduce by gcds of the factors (Henrici; Knuth, TAOCP 2, 4.5.1) and the
    # result is built with reduce=False.  Numeric values take the plain
    # formulas, which __init__ does not reduce.

    def __add__(self, other):
        other = RatFun.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not (self.is_exact() and other.is_exact()):
            return RatFun(a * d + c * b, b * d)
        if c.is_zero():
            return self
        if a.is_zero():
            return other
        if b == d:
            g = b
        elif b.degree() == 0 or d.degree() == 0:
            g = P_ONE
        else:
            g = b.gcd(d)
        if g.degree() == 0:
            return RatFun(a * d + c * b, b * d, reduce=False)
        b1, d1 = b // g, d // g
        t = a * d1 + c * b1
        g2 = t.gcd(g)
        if g2.degree() > 0:
            t, g = t // g2, g // g2
        return RatFun(t, b1 * d1 * g, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-RatFun.of(other))

    def __rsub__(self, other):
        return RatFun.of(other) + (-self)

    def __mul__(self, other):
        other = RatFun.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not (self.is_exact() and other.is_exact()):
            return RatFun(a * c, b * d)
        if a.is_zero() or c.is_zero():
            return R_ZERO
        if d.degree() > 0 and a.degree() > 0:
            g = a.gcd(d)
            if g.degree() > 0:
                a, d = a // g, d // g
        if b.degree() > 0 and c.degree() > 0:
            g = c.gcd(b)
            if g.degree() > 0:
                c, b = c // g, b // g
        return RatFun(a * c, b * d, reduce=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFun.of(other)
        if other.is_zero():
            raise ZeroDivisionError("rational function division by zero")
        if not (self.is_exact() and other.is_exact()):
            return RatFun(self.num * other.den, self.den * other.num)
        return self * RatFun(other.den, other.num, reduce=False)

    def __rtruediv__(self, other):
        return RatFun.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFun(self.den, self.num, reduce=False) ** (-k)
        return RatFun(self.num ** k, self.den ** k, reduce=False)

    def derivative(self) -> "RatFun":
        n, d = self.num, self.den
        if not self.is_exact():
            return RatFun(n.derivative() * d - n * d.derivative(), d * d)
        if d.degree() == 0:
            return RatFun(n.derivative())
        # with g = gcd(d, d'), s = d/g and t = d'/g, the reduced form of
        # (n/d)' is (n' s - n t) / (s d): no prime factor of s d divides it
        dd = d.derivative()
        g = d.gcd(dd)
        s, t = d // g, dd // g
        return RatFun(n.derivative() * s - n * t, s * d, reduce=False)

    def eval(self, x) -> Scalar:
        x = sc(x)
        d = self.den.eval(x)
        if d.is_zero():
            raise ZeroDivisionError(f"pole at {x!r}")
        return self.num.eval(x) / d

    def subs_square(self) -> "RatFun":
        """f(z^2); coprime num and den stay coprime."""
        return RatFun(self.num.compose_square(), self.den.compose_square(),
                      reduce=False)

    # ------------------------------------------------------------ local expansions

    def pole_order_at(self, lam) -> int:
        """Order of the pole at lam (<= 0 if regular)."""
        lam = sc(lam)
        return _vanishing_order(self.den, lam) - _vanishing_order(self.num, lam)

    def laurent_at(self, lam, k_min: int, k_max: int):
        """Coefficients of (z - lam)^k for k_min <= k <= k_max."""
        lam = sc(lam)
        if self.is_zero():
            return [ZERO] * (k_max - k_min + 1)
        n = self.num.shift(lam)
        d = self.den.shift(lam)
        vn = _vanishing_order(n, ZERO)
        vd = _vanishing_order(d, ZERO)
        shift = vn - vd  # lowest possible order of f at lam
        top = k_max - shift
        if top < 0:
            return [ZERO] * (k_max - k_min + 1)
        t = series_div([c for c in n.coeffs[vn:]], [c for c in d.coeffs[vd:]], top)
        out = []
        for k in range(k_min, k_max + 1):
            idx = k - shift
            out.append(t[idx] if 0 <= idx <= top else ZERO)
        return out

    def expand_at_infinity(self, k_max: int):
        """Expansion f = sum c_j z^{-j}; returns {order j >= -deg(poly part): c_{-j}}.

        Keys are powers of z (positive for the polynomial part, negative for the
        tail), down to order -k_max.
        """
        q, r = self.num.divmod(self.den)
        out = {}
        for k, c in enumerate(q.coeffs):
            if not c.is_zero():
                out[k] = c
        # r/den = sum_{j>=1} t_j z^{-j}: reverse coefficients and series-divide
        if not r.is_zero():
            dd = self.den.degree()
            rn = [r.coeff(dd - j) for j in range(1, dd + 1 + k_max)]
            dn = [self.den.coeff(dd - j) for j in range(0, dd + 1)]
            t = series_div(rn, dn, k_max - 1)
            for j in range(1, k_max + 1):
                c = t[j - 1]
                if not c.is_zero():
                    out[-j] = c
        return out

    # ------------------------------------------------------------ comparison

    def __eq__(self, other) -> bool:
        try:
            other = RatFun.of(other)
        except TypeError:
            return NotImplemented
        if self.is_exact() and other.is_exact():
            return self.num == other.num and self.den == other.den
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_poly():
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


def _vanishing_order(p: Poly, lam: Scalar) -> int:
    """Multiplicity of lam as a root of p (0 if p(lam) != 0); p must be nonzero."""
    if p.is_zero():
        raise ValueError("vanishing order of the zero polynomial")
    if not lam.is_zero():
        p = p.shift(lam)
    k = 0
    while p.coeff(k).is_zero():
        k += 1
    return k


R_ZERO = RatFun(Poly())
R_ONE = RatFun(P_ONE)
