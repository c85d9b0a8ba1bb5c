import random

import pytest
from hypothesis import given, settings, strategies as st

from cmgrass import opcalc, randpoints
from cmgrass.errors import NonPolynomialCoefficient, NotUnitriangular
from cmgrass.pdo import MatPDO
from cmgrass.poly import Poly, RatFun, R_ONE, R_ZERO
from cmgrass.scalar import sc


def sop(terms, depth=8, var="x"):
    """Scalar (1x1) operator from {order: coercible-to-RatFun}."""
    return MatPDO(1, 1, {k: [[RatFun.of(v)]] for k, v in terms.items()},
                  depth=depth, var=var)


X = sop({0: Poly([0, 1])})     # multiplication by x
D = sop({1: 1})                # d/dx
DINV = sop({-1: 1})            # d^{-1}


def test_commutator_d_x():
    # D x - x D = 1
    left = D.mul(X) - X.mul(D)
    assert left == sop({0: 1})


def test_negative_order_leibniz():
    # d^{-1} x = x d^{-1} - d^{-2} (generalized Leibniz, truncated)
    got = DINV.mul(X)
    want = sop({-1: Poly([0, 1]), -2: -1})
    assert got == want


def test_mul_associative_sample():
    a = sop({1: Poly([0, 1]), 0: 2})
    b = sop({-1: Poly([1, 1])})
    c = sop({2: 1, -2: Poly([0, 0, 1])})
    # truncation is exact well above the boundary; compare high orders only
    lhs = a.mul(b).mul(c)
    rhs = a.mul(b.mul(c))
    assert lhs.eq_through(rhs, depth=4)


def test_transpose_antihomomorphism():
    m1 = MatPDO(2, 2, {1: [[RatFun.of(Poly([0, 1])), R_ONE],
                           [R_ZERO, R_ONE]]}, depth=6)
    m2 = MatPDO(2, 2, {0: [[R_ONE, RatFun.of(2)],
                           [R_ZERO, R_ONE]], -1: [[R_ONE, R_ZERO],
                                                  [R_ONE, R_ONE]]}, depth=6)
    # star is the opposite product: (m1 * m2)^t = m2^t star m1^t entries-wise
    lhs = m1.mul(m2).transpose()
    rhs = m2.transpose().star_mul(m1.transpose())
    assert lhs == rhs


def test_b_involution_swaps_symbols():
    # b(x) = d, b(d) = x, and b is an involution on polynomial operators
    assert X.b_involution() == D
    assert D.b_involution() == X
    a = sop({2: Poly([1, 0, 3]), 0: Poly([0, 5])})
    assert a.b_involution().b_involution() == a


def test_b_involution_antimultiplicative():
    a = sop({1: Poly([2, 1])})
    b = sop({0: Poly([0, 1]), 2: 3})
    assert a.mul(b).b_involution() == \
        b.b_involution().mul(a.b_involution())


def test_b_involution_rejects_nonpolynomial():
    bad = sop({0: RatFun(Poly([1]), Poly([0, 1]))})
    with pytest.raises(NonPolynomialCoefficient):
        bad.b_involution()
    with pytest.raises(NonPolynomialCoefficient):
        DINV.b_involution()


def test_invert_neumann():
    k = sop({0: 1, -1: RatFun(Poly([1]), Poly([0, 1]))})
    kinv = k.invert()
    prod = k.mul(kinv)
    ident = sop({0: 1})
    assert prod.eq_through(ident, depth=7)


def test_invert_requires_unit_leading_part():
    with pytest.raises(NotUnitriangular):
        sop({0: 2, -1: 1}).invert()
    with pytest.raises(NotUnitriangular):
        sop({1: 1, 0: 1}).invert()


def test_apply_to_polyvec():
    op = MatPDO(2, 1, {1: [[R_ONE], [R_ZERO]],
                       0: [[R_ZERO], [RatFun.of(Poly([0, 1]))]]}, depth=6)
    out = op.apply_to_polyvec([Poly([0, 0, 1])])  # p = x^2
    assert out[0] == RatFun.of(Poly([0, 2]))      # p' = 2x
    assert out[1] == RatFun.of(Poly([0, 0, 0, 1]))  # x * p


def test_order_and_is_differential():
    assert D.order() == 1
    assert sop({}).order() is None
    assert D.is_differential()
    assert not DINV.is_differential()


def _neumann(k, depth):
    """I + sum_j (-N)^j through depth, N the negative-order part of k."""
    n = MatPDO(k.rows, k.cols, {o: m for o, m in k.terms.items() if o < 0},
               depth=depth, var=k.var)
    out = power = MatPDO.identity(k.rows, depth=depth, var=k.var)
    for _ in range(depth):
        power = power.mul(-n, depth=depth)
        out = out + power
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 5))
def test_invert_matches_neumann_on_kw(seed, n, r, depth):
    p = randpoints.rand_cmpoint(random.Random(seed), n, r)
    k = opcalc.kw(p, depth=depth).op
    kinv = k.invert()
    assert kinv.eq_through(_neumann(k, depth), depth=depth)
    ident = MatPDO.identity(r, depth=depth)
    assert k.mul(kinv).eq_through(ident, depth=depth)
    assert kinv.mul(k).eq_through(ident, depth=depth)
