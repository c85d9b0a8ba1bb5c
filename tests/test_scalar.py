import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmgrass.scalar import Scalar, sc, set_tolerance, tolerance, ZERO, ONE


def test_exact_field_arithmetic():
    a = Scalar.exact(Fraction(3, 2), Fraction(1, 3))
    b = Scalar.exact(Fraction(-1, 4), Fraction(2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert a - a == ZERO
    assert (a / a).is_one()


def test_exact_division_is_exact():
    a = Scalar.exact(1, 3)  # 1 + 3i
    inv = ONE / a
    assert (a * inv).is_one()
    assert inv.is_exact


def test_mixing_modes_coerces_to_numeric():
    a = Scalar.exact(Fraction(1, 2))
    b = Scalar.numeric(0.5)
    assert not (a + b).is_exact
    assert a + b == sc(1.0)


def test_numeric_tolerance_comparison():
    old = tolerance()
    try:
        set_tolerance(1e-9)
        assert Scalar.numeric(1.0) == Scalar.numeric(1.0 + 1e-12)
        assert Scalar.numeric(1.0) != Scalar.numeric(1.0 + 1e-6)
        # relative scaling: large values compare up to eps * magnitude
        assert Scalar.numeric(1e6) == Scalar.numeric(1e6 + 1e-4)
    finally:
        set_tolerance(old)


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        set_tolerance(0)


def test_sort_key_orders_by_real_then_imaginary():
    xs = [sc(2), Scalar.exact(1, 1), Scalar.exact(1, -1), sc(0)]
    srt = sorted(xs, key=lambda s: s.sort_key())
    assert srt == [sc(0), Scalar.exact(1, -1), Scalar.exact(1, 1), sc(2)]


def test_power_and_negation():
    a = Scalar.exact(0, 1)  # i
    assert a ** 2 == sc(-1)
    assert a ** 4 == ONE
    assert -a == Scalar.exact(0, -1)


def test_sc_coercions():
    assert sc(3) == Scalar.exact(3)
    assert sc(Fraction(2, 5)) == Scalar.exact(Fraction(2, 5))
    assert not sc(0.25 + 1j).is_exact
    s = sc(7)
    assert sc(s) is s


# ---------------------------------------------------------------------------
# properties of the exact integer-triple core

PROPS = settings(max_examples=100, deadline=None, derandomize=True)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
exact = st.builds(Scalar.exact, rationals, rationals)
nonzero = exact.filter(lambda x: not x.is_zero())


def _canonical(x):
    assert x.is_exact and x.d > 0
    assert math.gcd(x.a, x.b, x.d) == 1
    if x.is_zero():
        assert (x.a, x.b, x.d) == (0, 0, 1)


def _pair(x):
    return (x.re, x.im)


@PROPS
@given(exact, exact, exact)
def test_exact_field_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert (a - a) == ZERO and (a + (-a)).is_zero()
    for x in (a + b, a - b, a * b, -a, a * c - b):
        _canonical(x)


@PROPS
@given(nonzero, exact)
def test_exact_inverse(a, b):
    inv = a.inverse()
    _canonical(inv)
    assert (a * inv).is_one()
    assert (b / a) * a == b


@PROPS
@given(exact, exact)
def test_exact_parts_match_fraction_pairs(a, b):
    (p, q), (r, s) = _pair(a), _pair(b)
    assert _pair(a + b) == (p + r, q + s)
    assert _pair(a - b) == (p - r, q - s)
    assert _pair(a * b) == (p * r - q * s, p * s + q * r)
    if not b.is_zero():
        n = r * r + s * s
        assert _pair(b.inverse()) == (r / n, -s / n)
    assert _pair(a.conjugate()) == (p, -q)
    assert a.to_complex() == complex(float(p), float(q))
    assert hash(a) == hash((p, q))
    assert Scalar.exact(p, q) == a
    assert sc((p, q)) == a
    assert a.is_one() == ((p, q) == (1, 0))
