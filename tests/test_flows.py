import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmgrass import flows, linalg, randpoints as rp
from cmgrass.cmspace import canonicalize, from_cd_coords
from cmgrass.errors import NotNilpotent, UnsupportedExactExponential
from cmgrass.poly import Poly
from cmgrass.scalar import Scalar, sc


def _close(q1, q2, tol):
    for a, b in ((q1.X, q2.X), (q1.Y, q2.Y), (q1.v, q2.v), (q1.w, q2.w)):
        if abs(linalg.to_numpy(a) - linalg.to_numpy(b)).max() > tol:
            return False
    return True


def test_hamiltonian_value():
    p = rp.rand_cmpoint(random.Random(0), 2, 2)
    q = from_cd_coords(p)
    # J_{0, I} = tr(v w) = sum v_i . w_i = -n on the gauge-fixed chart
    val = flows.hamiltonian(q, 0, linalg.identity(2))
    assert val == sc(-2)


def test_scalar_alpha_flow_moves_only_alpha():
    rng = random.Random(1)
    p = rp.rand_cmpoint(rng, 3, 2)
    c = sc(Fraction(3, 2))
    a = [[c, sc(0)], [sc(0), c]]
    t = sc(Fraction(1, 3))
    k = 2
    out = flows.flow_closed(p, k, a, t)
    assert out.lam == p.lam
    assert out.vrow == p.vrow and out.wcol == p.wcol
    for i in range(3):
        want = p.alpha[i] - c * sc(k) * p.lam[i] * t
        assert out.alpha[i] == want


def test_nilpotent_flow_exact_vs_direct_and_rk4():
    rng = random.Random(2)
    for _ in range(5):
        p = rp.rand_cmpoint(rng, rng.randint(1, 3), rng.randint(2, 3))
        k = rng.randint(1, 3)
        a = rp.rand_nilpotent(rng, p.r)
        t = sc(Fraction(rng.randint(-2, 2), 3))
        closed = from_cd_coords(flows.flow_closed(p, k, a, t))
        direct = flows.flow_nilpotent(from_cd_coords(p), k, a, t)
        assert canonicalize(closed) == canonicalize(direct)
        rk4 = flows.flow_numeric(from_cd_coords(p), k, a, t, steps=2000)
        assert _close(direct, rk4, 1e-7)


def test_flow_group_law():
    rng = random.Random(3)
    p = rp.rand_cmpoint(rng, 2, 2)
    a = rp.rand_nilpotent(rng, 2)
    t1, t2 = sc(Fraction(1, 2)), sc(Fraction(1, 3))
    one_step = flows.flow_closed(p, 2, a, t1 + t2)
    two_step = flows.flow_closed(flows.flow_closed(p, 2, a, t1), 2, a, t2)
    assert one_step == two_step


def test_unsupported_exact_exponential():
    p = rp.rand_cmpoint(random.Random(4), 2, 2)
    generic = [[sc(1), sc(1)], [sc(0), sc(2)]]  # neither scalar nor nilpotent
    with pytest.raises(UnsupportedExactExponential):
        flows.flow_closed(p, 1, generic, sc(1))


def test_numeric_fallback_for_generic_alpha():
    rng = random.Random(5)
    p = rp.rand_cmpoint(rng, 2, 2)
    generic = [[sc(1), sc(1)], [sc(0), sc(2)]]
    t = 0.3
    closed = flows.flow_closed(p, 1, generic, t)
    rk4 = flows.flow_numeric(from_cd_coords(p), 1, generic, t, steps=4000)
    assert canonicalize(rk4) == closed


def test_flow_nilpotent_rejects_non_nilpotent():
    q = rp.rand_quadruple(random.Random(6), 2, 2)
    with pytest.raises(NotNilpotent):
        flows.flow_nilpotent(q, 1, [[sc(1), sc(0)], [sc(0), sc(1)]], sc(1))


def test_flow_scalar_linear_exponent():
    q = rp.rand_quadruple(random.Random(7), 3, 2)
    out = flows.flow_scalar(q, Poly([0, 1]))  # p(z) = z
    want = linalg.msub(linalg.mat(q.X), linalg.identity(3))
    assert linalg.mat_eq(linalg.mat(out.X), want)
    assert out.Y == q.Y and out.v == q.v and out.w == q.w


def test_poisson_structure_constants():
    rng = random.Random(8)
    q = rp.rand_quadruple(rng, 2, 2)
    for k, l in ((1, 1), (1, 2), (2, 1)):
        a = rp.rand_alpha(rng, 2)
        b = rp.rand_alpha(rng, 2)
        comm = linalg.msub(linalg.mmul(a, b), linalg.mmul(b, a))
        got = flows.poisson_bracket(q, (k, a), (l, b))
        want = flows.hamiltonian(q, k + l, comm)
        scale = max(1.0, abs(want.to_complex()))
        assert abs(got.to_complex() - want.to_complex()) <= 1e-6 * scale


def test_commuting_hamiltonians_same_alpha():
    rng = random.Random(9)
    q = rp.rand_quadruple(rng, 2, 2)
    a = rp.rand_alpha(rng, 2)
    got = flows.poisson_bracket(q, (1, a), (2, a))
    assert abs(got.to_complex()) <= 1e-6


# ---------------------------------------------------------------------------
# the flat-state RK4 and the stacked finite differences against the
# straightforward loops they replace


def _rk4_reference(q, k, alpha, t, steps):
    """Tuple-per-stage RK4 on (X, v, w), one matrix product at a time."""
    a = linalg.to_numpy([[sc(e) for e in row] for row in alpha])
    Y = linalg.to_numpy(q.Y)
    yk = np.linalg.matrix_power(Y, k)
    ypows = [np.linalg.matrix_power(Y, j) for j in range(max(k, 1))]

    def rhs(state):
        X_, v_, w_ = state
        vaw = v_ @ a @ w_
        dX = np.zeros_like(X_)
        for j in range(k):
            dX += ypows[k - 1 - j] @ vaw @ ypows[j]
        return (dX, yk @ v_ @ a, -(a @ w_ @ yk))

    dt = sc(t).to_complex() / steps
    state = tuple(linalg.to_numpy(m) for m in (q.X, q.v, q.w))
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(tuple(s + 0.5 * dt * d for s, d in zip(state, k1)))
        k3 = rhs(tuple(s + 0.5 * dt * d for s, d in zip(state, k2)))
        k4 = rhs(tuple(s + dt * d for s, d in zip(state, k3)))
        state = tuple(s + dt / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
                      for s, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4))
    return state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 3), st.integers(1, 50), st.booleans())
def test_flow_numeric_matches_tuple_rk4(seed, n, r, k, steps, exact):
    rng = random.Random(seed)
    q = rp.rand_quadruple(rng, n, r)
    alpha = rp.rand_alpha(rng, r)
    # v and w grow like exp(|Y|^k |a| |t|); keep that below e^2 so that the
    # comparison measures the arithmetic, not cancellation in a huge state
    rate = (max(1.0, np.linalg.norm(linalg.to_numpy(q.Y), 2)) ** k
            * np.linalg.norm(linalg.to_numpy(alpha), 2))
    t = sc(Fraction(rng.randint(-20, 20), 10 * max(1, math.ceil(rate))))
    if not exact:
        q = q.to_numeric()
        alpha = [[x.to_numeric() for x in row] for row in alpha]
        t = t.to_numeric()
    got = flows.flow_numeric(q, k, alpha, t, steps=steps)
    want = _rk4_reference(q, k, alpha, t, steps)
    assert got.Y == q.to_numeric().Y
    scale = max(np.abs(m).max() for m in want)
    for m, ref in zip((got.X, got.v, got.w), want):
        assert np.abs(linalg.to_numpy(m) - ref).max() <= 1e-12 * scale
    if k == 0:
        assert np.array_equal(linalg.to_numpy(got.X), linalg.to_numpy(q.X))


def _bracket_reference(q, spec1, spec2, h=1e-4):
    """Central differences one coordinate at a time."""
    X, Y, v, w = (linalg.to_numpy(m) for m in (q.X, q.Y, q.v, q.w))

    def ham(k, a):
        return np.trace(np.linalg.matrix_power(Y, k) @ v @ a @ w)

    def grads(k, a):
        a = linalg.to_numpy([[sc(e) for e in row] for row in a])
        out = tuple(np.zeros_like(m) for m in (X, Y, v, w))
        for arr, d in zip((X, Y, v, w), out):
            for idx in np.ndindex(arr.shape):
                old = arr[idx]
                arr[idx] = old + h
                fp = ham(k, a)
                arr[idx] = old - h
                fm = ham(k, a)
                arr[idx] = old
                d[idx] = (fp - fm) / (2 * h)
        return out

    dX1, dY1, dv1, dw1 = grads(*spec1)
    dX2, dY2, dv2, dw2 = grads(*spec2)
    val = 0j
    for i in range(q.n):
        for j in range(q.n):
            val += dY1[j, i] * dX2[i, j] - dX1[i, j] * dY2[j, i]
        for b in range(q.r):
            val += dw1[b, i] * dv2[i, b] - dv1[i, b] * dw2[b, i]
    return val


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_poisson_bracket_matches_coordinate_loop(seed, n, r, k, l):
    rng = random.Random(seed)
    q = rp.rand_quadruple(rng, n, r)
    a = rp.rand_alpha(rng, r)
    b = rp.rand_alpha(rng, r)
    got = flows.poisson_bracket(q, (k, a), (l, b)).to_complex()
    want = _bracket_reference(q, (k, a), (l, b))
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
