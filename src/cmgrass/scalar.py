"""Scalars over the Gaussian rationals, with a floating complex fallback.

Every value in the toolkit is built from :class:`Scalar`.  A scalar is either

* *exact*: an element ``(a + b i) / d`` of Q(i), stored as one canonical
  integer triple ``(a, b, d)`` with ``d > 0`` and ``gcd(a, b, d) = 1`` (zero
  is ``(0, 0, 1)``).  Every field operation costs one three-argument
  ``math.gcd``, and equality is equality of triples; ``re`` and ``im`` give
  the parts as :class:`fractions.Fraction`; or
* *numeric*: a complex double, compared up to the global tolerance
  ``|a - b| <= eps * max(1, |a|, |b|)``.

Mixing the two modes coerces to numeric.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

EXACT = "exact"
NUMERIC = "numeric"

_EPS = 1e-9


def set_tolerance(eps: float) -> None:
    """Set the global numeric comparison tolerance."""
    global _EPS
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    _EPS = float(eps)


def tolerance() -> float:
    return _EPS


def _reduced(a: int, b: int, d: int) -> "Scalar":
    """The exact scalar (a + b i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return Scalar(a // g, b // g, d // g)
    return Scalar(a, b, d)


class Scalar:
    """An element of Q(i) (exact mode) or C-as-doubles (numeric mode)."""

    __slots__ = ("a", "b", "d", "val")

    def __init__(self, a=None, b=None, d=None, val=None):
        # exact: the canonical triple (a, b, d) and val is None;
        # numeric: val is complex and the triple is None
        self.a = a
        self.b = b
        self.d = d
        self.val = val

    # ---------------------------------------------------------------- factories

    @staticmethod
    def exact(re, im=0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return Scalar(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q  # lcm: gcd(a, b, d) = 1 already
        return Scalar(re.numerator * (d // p), im.numerator * (d // q), d)

    @staticmethod
    def numeric(z) -> "Scalar":
        return Scalar(val=complex(z))

    @property
    def mode(self) -> str:
        return NUMERIC if self.val is not None else EXACT

    @property
    def is_exact(self) -> bool:
        return self.val is None

    @property
    def re(self):
        """Real part as a Fraction (None in numeric mode)."""
        return None if self.val is not None else Fraction(self.a, self.d)

    @property
    def im(self):
        """Imaginary part as a Fraction (None in numeric mode)."""
        return None if self.val is not None else Fraction(self.b, self.d)

    # ---------------------------------------------------------------- conversion

    def to_complex(self) -> complex:
        if self.val is not None:
            return self.val
        return complex(self.a / self.d, self.b / self.d)

    def to_numeric(self) -> "Scalar":
        return self if self.val is not None else Scalar(val=self.to_complex())

    def sort_key(self):
        """Lexicographic (Re, Im) key; exact keys stay exact."""
        if self.is_exact:
            return (self.re, self.im)
        return (Fraction(self.val.real).limit_denominator(10**12),
                Fraction(self.val.imag).limit_denominator(10**12))

    # ---------------------------------------------------------------- predicates

    def is_zero(self) -> bool:
        if self.val is None:
            return self.a == 0 and self.b == 0
        return abs(self.val) <= _EPS

    def is_one(self) -> bool:
        if self.val is None:
            return self.a == 1 and self.b == 0 and self.d == 1
        return (self - ONE).is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    # ---------------------------------------------------------------- arithmetic

    def __add__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        if self.val is None and other.val is None:
            if not other.a and not other.b:
                return self
            if not self.a and not self.b:
                return other
            d, q = self.d, other.d
            if d == q:
                if d == 1:
                    return Scalar(self.a + other.a, self.b + other.b, 1)
                return _reduced(self.a + other.a, self.b + other.b, d)
            return _reduced(self.a * q + other.a * d, self.b * q + other.b * d,
                            d * q)
        return Scalar(val=self.to_complex() + other.to_complex())

    __radd__ = __add__

    def __neg__(self):
        if self.val is None:
            return Scalar(-self.a, -self.b, self.d)
        return Scalar(val=-self.val)

    def __sub__(self, other):
        return self + (-sc(other))

    def __rsub__(self, other):
        return sc(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        if self.val is None and other.val is None:
            a, b, c, e = self.a, self.b, other.a, other.b
            d = self.d * other.d
            if d == 1:
                return Scalar(a * c - b * e, a * e + b * c, 1)
            return _reduced(a * c - b * e, a * e + b * c, d)
        return Scalar(val=self.to_complex() * other.to_complex())

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.val is None:
            a, b, d = self.a, self.b, self.d
            n = a * a + b * b
            if n == 0:
                raise ZeroDivisionError("exact scalar division by zero")
            return _reduced(a * d, -b * d, n)
        if self.val == 0:
            raise ZeroDivisionError("numeric scalar division by zero")
        return Scalar(val=1.0 / self.val)

    def __truediv__(self, other):
        return self * sc(other).inverse()

    def __rtruediv__(self, other):
        return sc(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        if self.val is None:
            return Scalar(self.a, -self.b, self.d)
        return Scalar(val=self.val.conjugate())

    def __abs__(self) -> float:
        return abs(self.to_complex())

    # ---------------------------------------------------------------- comparison

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            try:
                other = sc(other)
            except TypeError:
                return NotImplemented
        if self.val is None and other.val is None:
            return self.a == other.a and self.b == other.b and self.d == other.d
        a, b = self.to_complex(), other.to_complex()
        return abs(a - b) <= _EPS * max(1.0, abs(a), abs(b))

    def __hash__(self):
        if self.val is not None:
            raise TypeError("numeric scalars are not hashable")
        return hash((self.re, self.im))

    # ---------------------------------------------------------------- display

    def __repr__(self):
        if self.val is None:
            re, im = self.re, self.im
            if im == 0:
                return str(re)
            if re == 0:
                return f"{im}i"
            sign = "+" if im > 0 else "-"
            return f"({re}{sign}{abs(im)}i)"
        return repr(self.val)


def sc(x) -> Scalar:
    """Coerce ints, Fractions, floats, complexes or (re, im) pairs to Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.exact(x)
    if isinstance(x, (float, complex)):
        return Scalar(val=complex(x))
    if isinstance(x, tuple) and len(x) == 2:
        return Scalar.exact(x[0], x[1])
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar.exact(0)
ONE = Scalar.exact(1)
I = Scalar.exact(0, 1)
