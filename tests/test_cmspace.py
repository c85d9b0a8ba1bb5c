import random

import pytest

from cmgrass import linalg, randpoints as rp
from cmgrass.cmspace import (CMPoint, Quadruple, bisp_involution, canonicalize,
                             embed_rank, from_cd_coords, from_cprime_coords,
                             gauge_fix, gl_conjugate, moment_residual, on_fiber)
from cmgrass.errors import RepeatedPositions
from cmgrass.scalar import Scalar, sc


def test_canonical_chart_lands_on_fiber():
    rng = random.Random(1)
    for _ in range(25):
        p = rp.rand_cmpoint(rng, rng.randint(1, 5), rng.randint(1, 3))
        q = from_cd_coords(p)
        assert on_fiber(q)
        res = moment_residual(q)
        assert linalg.mat_is_zero(res)


def test_to_numeric_keeps_the_point():
    p = rp.rand_cmpoint(random.Random(2), 3, 2)
    q = from_cd_coords(p)
    pn, qn = p.to_numeric(), q.to_numeric()
    assert p.is_exact and not pn.is_exact and pn == p
    assert q.is_exact and not qn.is_exact and qn == q
    assert all(x.val is not None for m in (qn.X, qn.Y, qn.v, qn.w)
               for row in m for x in row)
    assert from_cd_coords(pn) == qn


def test_cmpoint_rejects_repeated_positions():
    with pytest.raises(RepeatedPositions):
        CMPoint(n=2, r=1, lam=[1, 1], alpha=[0, 0],
                vrow=[[1], [1]], wcol=[[-1], [-1]])


def test_cmpoint_enforces_pairing():
    with pytest.raises(ValueError):
        CMPoint(n=1, r=1, lam=[0], alpha=[0], vrow=[[1]], wcol=[[1]])


def test_gauge_fix_sorts_and_scales():
    from fractions import Fraction
    p = gauge_fix(2, 2, [sc(3), sc(0)], [sc(1), sc(2)],
                  [[sc(2), sc(0)], [sc(0), sc(5)]],
                  [[sc(Fraction(-1, 2)), sc(7)],
                   [sc(1), sc(Fraction(-1, 5))]])
    assert p.lam[0] == sc(0) and p.lam[1] == sc(3)
    for i in range(2):
        piv = next(a for a in range(2) if not p.vrow[i][a].is_zero())
        assert p.vrow[i][piv].is_one()
        dot = p.vrow[i][0] * p.wcol[i][0] + p.vrow[i][1] * p.wcol[i][1]
        assert dot == sc(-1)


def test_canonicalize_round_trip():
    rng = random.Random(2)
    for _ in range(15):
        p = rp.rand_cmpoint(rng, rng.randint(1, 4), rng.randint(1, 3))
        assert canonicalize(from_cd_coords(p)) == p


def test_canonicalize_is_gauge_invariant():
    # exact canonicalize needs a diagonal Y, so conjugate by a diagonal torus
    # element (general conjugation is exercised in numeric mode below)
    rng = random.Random(3)
    p = rp.rand_cmpoint(rng, 3, 2)
    q = from_cd_coords(p)
    g = [[sc(2) if i == j == 0 else (sc(-3) if i == j else sc(0))
          for j in range(3)] for i in range(3)]
    assert canonicalize(gl_conjugate(g, q)) == p
    gnum = linalg.from_numpy(linalg.to_numpy(rp.rand_invertible(rng, 3)))
    qnum = Quadruple(n=3, r=2,
                     X=linalg.from_numpy(linalg.to_numpy(q.X)),
                     Y=linalg.from_numpy(linalg.to_numpy(q.Y)),
                     v=linalg.from_numpy(linalg.to_numpy(q.v)),
                     w=linalg.from_numpy(linalg.to_numpy(q.w)))
    assert canonicalize(gl_conjugate(gnum, qnum)) == p


def test_cprime_chart_lands_on_fiber():
    rng = random.Random(4)
    x = [sc(0), sc(1), sc(3)]
    alpha = [rp.rand_scalar(rng) for _ in range(3)]
    vrow = [[sc(1)], [sc(1)], [sc(1)]]
    wcol = [[sc(-1)], [sc(-1)], [sc(-1)]]
    q = from_cprime_coords(x, alpha, vrow, wcol)
    assert on_fiber(q)


def test_bisp_involution_squares_to_identity_and_preserves_fiber():
    rng = random.Random(5)
    for _ in range(10):
        q = rp.rand_quadruple(rng, rng.randint(1, 4), rng.randint(1, 3))
        qb = bisp_involution(q)
        assert on_fiber(qb)
        assert bisp_involution(qb) == q


def test_embed_rank_preserves_fiber_and_widens():
    rng = random.Random(6)
    q = rp.rand_quadruple(rng, 3, 2)
    q2 = embed_rank(q)
    assert q2.r == 3 and q2.n == 3
    assert on_fiber(q2)
