import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmgrass.poly import Poly, RatFun, series_div, P_ONE
from cmgrass.scalar import Scalar, sc, ONE


def test_poly_ring_axioms_random():
    rng = random.Random(11)

    def rpoly():
        return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 5))])

    for _ in range(20):
        a, b, c = rpoly(), rpoly(), rpoly()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_divmod_and_gcd():
    a = Poly([1, 0, 1]) * Poly([2, 1])     # (z^2+1)(z+2)
    b = Poly([1, 0, 1]) * Poly([-1, 1])    # (z^2+1)(z-1)
    q, r = a.divmod(b)
    assert q * b + r == a
    g = a.gcd(b)
    assert g.monic() == Poly([1, 0, 1])


def test_derivative_leibniz():
    a = Poly([1, 2, 3])
    b = Poly([0, 1, 0, 4])
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_eval_and_from_roots():
    p = Poly.from_roots([sc(1), sc(2), sc(-3)])
    assert p.eval(sc(1)).is_zero()
    assert p.eval(sc(2)).is_zero()
    assert not p.eval(sc(0)).is_zero()
    assert p.degree() == 3
    assert p.leading() == ONE


def test_ratfun_field_and_cancellation():
    f = RatFun(Poly([0, 1]), Poly([1, 1]))      # z/(1+z)
    g = RatFun(Poly([1]), Poly([0, 1]))         # 1/z
    assert (f * g) / g == f
    assert f - f == RatFun.of(0)
    h = RatFun(Poly([0, 0, 1]), Poly([0, 1]))   # z^2/z = z
    assert h.is_poly()
    assert h.as_poly() == Poly([0, 1])


def test_ratfun_derivative_quotient_rule():
    f = RatFun(Poly([1, 1]), Poly([0, 0, 1]))   # (1+z)/z^2
    g = RatFun(Poly([2, 0, 1]), Poly([1, 1]))
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_pole_order_and_laurent_window():
    f = RatFun(Poly([1]), Poly([0, 0, 1]))      # 1/z^2
    assert f.pole_order_at(sc(0)) == 2
    assert f.pole_order_at(sc(1)) == 0
    lau = f.laurent_at(sc(0), -2, 1)
    assert lau[0] == ONE and lau[1].is_zero()
    # shifted point: 1/(z-1) + 3
    g = RatFun(Poly([1]), Poly([-1, 1])) + RatFun.of(3)
    lau = g.laurent_at(sc(1), -1, 0)
    assert lau[0] == ONE and lau[1] == sc(3)


def test_series_div_matches_geometric():
    # 1/(1-z) = 1 + z + z^2 + ...
    cs = series_div([ONE], [ONE, sc(-1)], 5)
    assert all(c == ONE for c in cs)


def test_expand_at_infinity():
    # z/(z-1) = 1 + 1/z + 1/z^2 + ...
    f = RatFun(Poly([0, 1]), Poly([-1, 1]))
    cs = f.expand_at_infinity(3)
    assert cs[0] == ONE and cs[-1] == ONE and cs[-2] == ONE


def test_even_decimate_and_subs_square():
    p = Poly([1, 2, 3, 4])
    e, o = p.even_decimate()
    assert e == Poly([1, 3]) and o == Poly([2, 4])
    f = RatFun(Poly([1, 1]), Poly([0, 1]))
    h = f.subs_square()
    # f(u^2) evaluated at u=2 equals f(4)
    assert h.eval(sc(2)) == f.eval(sc(4))


def test_poly_shift():
    p = Poly([1, 1])  # 1 + z
    q = p.shift(sc(2))
    assert q.eval(sc(0)) == p.eval(sc(2))


# ---------------------------------------------------------------------------
# Henrici-reduced RatFun arithmetic against full reduction

PROPS = settings(max_examples=80, deadline=None, derandomize=True)

coeffs = st.builds(Scalar.exact,
                   st.fractions(min_value=-4, max_value=4, max_denominator=3),
                   st.integers(min_value=-2, max_value=2))
polys = st.lists(coeffs, max_size=3).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
# denominators share the factor c, so the sum and product gcds are nontrivial
pairs = st.builds(lambda c, e1, e2, n1, n2: (RatFun(n1, c * e1), RatFun(n2, c * e2)),
                  nonzero_polys, nonzero_polys, nonzero_polys, polys, polys)


def _reduced(f):
    assert f.den.leading() == ONE
    assert f.num.gcd(f.den) == P_ONE or f.num.is_zero()


def _same(f, g):
    return f.num.coeffs == g.num.coeffs and f.den.coeffs == g.den.coeffs


@PROPS
@given(pairs)
def test_ratfun_ops_match_full_reduction(fg):
    f, g = fg
    (n1, d1), (n2, d2) = (f.num, f.den), (g.num, g.den)
    cases = [(f + g, RatFun(n1 * d2 + n2 * d1, d1 * d2)),
             (f - g, RatFun(n1 * d2 - n2 * d1, d1 * d2)),
             (f * g, RatFun(n1 * n2, d1 * d2)),
             (f.derivative(), RatFun(n1.derivative() * d1 - n1 * d1.derivative(),
                                     d1 * d1))]
    if not g.is_zero():
        cases.append((f / g, RatFun(n1 * d2, d1 * n2)))
    for got, want in cases:
        _reduced(got)
        assert _same(got, want)
        assert got == want


def test_ratfun_cancelling_cases():
    x = Poly.var()
    one = P_ONE
    f = RatFun(one, x - one)
    assert _same(f - f, RatFun.of(0))
    assert (f - f).den == P_ONE
    g = RatFun(x, x * x - one) * RatFun(x - one)
    assert _same(g, RatFun(x, x + one))
    h = RatFun(one, x - one) + RatFun(one, x + one)     # 2x/(x^2-1)
    assert _same(h, RatFun(x.scale(2), x * x - one))
    k = RatFun(x, x - one) + RatFun(-one, x - one)      # 1
    assert _same(k, RatFun.of(1))


def test_ratfun_exact_equality_is_structural():
    x = Poly.var()
    f = RatFun(x.scale(2), x * x - P_ONE)
    assert f == RatFun(x.scale(4), (x * x - P_ONE).scale(2))
    assert f != RatFun(x, x * x - P_ONE)
    # numeric values still compare by cross-multiplication
    num = RatFun(Poly([Scalar.numeric(0.0), Scalar.numeric(2.0)]),
                 Poly([Scalar.numeric(-1.0), Scalar.numeric(0.0),
                       Scalar.numeric(1.0)]))
    assert num == f
