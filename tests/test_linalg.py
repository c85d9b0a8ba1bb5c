import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmgrass import linalg
from cmgrass.errors import SingularMatrix
from cmgrass.poly import Poly
from cmgrass.scalar import Scalar, sc, ZERO, ONE


def _rand_mat(rng, n, m=None):
    m = n if m is None else m
    return [[Scalar.exact(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                          Fraction(rng.randint(-1, 1)))
             for _ in range(m)] for _ in range(n)]


def test_det_matches_numpy():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = _rand_mat(rng, n)
        exact = linalg.det(a).to_complex()
        ref = np.linalg.det(linalg.to_numpy(a))
        assert abs(exact - ref) < 1e-8 * max(1.0, abs(ref))


def test_adjugate_identity():
    rng = random.Random(6)
    for _ in range(8):
        n = rng.randint(1, 4)
        a = _rand_mat(rng, n)
        d, adj = linalg.det_adjugate(a)
        prod = linalg.mmul(a, adj)
        want = linalg.mscale(linalg.identity(n), d)
        assert linalg.mat_eq(prod, want)


def test_polynomial_adjugate():
    # works generically over the polynomial ring
    a = [[Poly([1, 1]), Poly([0, 1])], [Poly([2]), Poly([1])]]
    d, adj = linalg.det_adjugate(a)
    prod = linalg.mmul(a, adj)
    for i in range(2):
        for j in range(2):
            assert prod[i][j] == (d if i == j else Poly())


def test_inverse_and_singular():
    rng = random.Random(7)
    a = _rand_mat(rng, 3)
    while linalg.det(a).is_zero():
        a = _rand_mat(rng, 3)
    inv = linalg.inverse(a)
    assert linalg.mat_eq(linalg.mmul(a, inv), linalg.identity(3))
    with pytest.raises(SingularMatrix):
        linalg.inverse([[sc(1), sc(2)], [sc(2), sc(4)]])
    assert linalg.inverse([]) == []


def test_kernel_basis():
    a = [[sc(1), sc(2), sc(3)], [sc(2), sc(4), sc(6)]]
    ker = linalg.kernel_basis(a)
    assert len(ker) == 2
    for u in ker:
        for row in a:
            acc = ZERO
            for c, x in zip(row, u):
                acc = acc + c * x
            assert acc.is_zero()


def test_rank_and_row_reduce():
    a = [[sc(1), sc(2)], [sc(2), sc(4)], [sc(0), sc(1)]]
    assert linalg.rank(a) == 2


def test_solve_general():
    a = [[sc(1), sc(2)], [sc(2), sc(4)]]
    x = linalg.solve_general(a, [sc(3), sc(6)])
    assert x is not None
    assert (a[0][0] * x[0] + a[0][1] * x[1]) == sc(3)
    assert linalg.solve_general(a, [sc(3), sc(7)]) is None


def test_trace_and_mpow():
    a = [[sc(1), sc(2)], [sc(3), sc(4)]]
    assert linalg.trace(a) == sc(5)
    assert linalg.mat_eq(linalg.mpow(a, 0), linalg.identity(2))
    assert linalg.mat_eq(linalg.mpow(a, 3),
                         linalg.mmul(a, linalg.mmul(a, a)))


# ---------------------------------------------------------------------------
# Exact (A + iB)/d kernels against the generic field elimination

def _ref_solve(a, b):
    """The generic Gauss-Jordan solve, entry by entry on Scalars."""
    n = len(a)
    m = len(b[0])
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
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + m] for row in aug]


def _ref_row_reduce(rows):
    """The generic reduced echelon form, entry by entry on Scalars."""
    rows = [list(r) for r in rows]
    m = len(rows[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(m):
        piv = None
        for r in range(lead, len(rows)):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = rows[lead][col].inverse()
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


def _ref_kernel(a):
    red, pivots = _ref_row_reduce(a)
    basis = []
    for f in range(len(a[0])):
        if f in pivots:
            continue
        v = [ZERO] * len(a[0])
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def _ref_mmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
            for row in a]


def _canonical(m):
    """Every entry is an exact Scalar in canonical triple form."""
    return all(type(x) is Scalar and x.val is None and x.d > 0
               and gcd(x.a, x.b, x.d) == 1 for row in m for x in row)


KERNELS = settings(max_examples=60, deadline=None, derandomize=True)
_DENS = st.sampled_from([1, 1, 2, 3, 4, 6, 9])


@st.composite
def _entries(draw, gauss):
    if draw(st.integers(0, 3)) == 0:
        return ZERO
    re = Fraction(draw(st.integers(-6, 6)), draw(_DENS))
    im = Fraction(draw(st.integers(-4, 4)), draw(_DENS)) if gauss else 0
    return Scalar.exact(re, im)


@st.composite
def _matrices(draw, n=None, m=None):
    """Real or Gaussian matrices, some with a zero row or column, a repeated
    or scaled row (rank-deficient, singular when square) or swapped rows."""
    n = draw(st.integers(1, 6)) if n is None else n
    m = draw(st.integers(1, 8)) if m is None else m
    gauss = draw(st.booleans())
    a = [[draw(_entries(gauss)) for _ in range(m)] for _ in range(n)]
    defect = draw(st.sampled_from(["none", "zero_row", "zero_col", "dup_row",
                                   "swap"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if defect == "zero_row":
        a[i] = [ZERO] * m
    elif defect == "zero_col":
        c = draw(st.integers(0, m - 1))
        for row in a:
            row[c] = ZERO
    elif defect == "dup_row" and i != j:
        f = draw(_entries(gauss))
        a[i] = [f * x for x in a[j]]
    elif defect == "swap":
        a[i], a[j] = a[j], a[i]
    return a


@st.composite
def _square_systems(draw):
    n = draw(st.integers(1, 6))
    return draw(_matrices(n, n)), draw(_matrices(n, draw(st.integers(1, 4))))


@KERNELS
@given(_matrices())
def test_row_reduce_matches_generic(a):
    red, pivots = linalg.row_reduce(a)
    assert (red, pivots) == _ref_row_reduce(a)
    assert _canonical(red)
    assert linalg.rank(a) == len(pivots)
    ker = linalg.kernel_basis(a)
    assert ker == _ref_kernel(a) and _canonical(ker)


@KERNELS
@given(_matrices(), st.data())
def test_solve_general_and_mmul_match_generic(a, data):
    b = data.draw(_matrices(len(a[0])))
    prod = linalg.mmul(a, b)
    assert prod == _ref_mmul(a, b) and _canonical(prod)
    rhs = [row[0] for row in data.draw(_matrices(len(a), 1))]
    red, pivots = _ref_row_reduce([row + [y] for row, y in zip(a, rhs)])
    x = linalg.solve_general(a, rhs)
    if len(a[0]) in pivots:
        assert x is None
    else:
        assert _canonical([x])
        for row, y in zip(a, rhs):
            assert sum((c * t for c, t in zip(row, x)), ZERO) == y


@KERNELS
@given(_square_systems())
def test_solve_matches_generic(system):
    a, b = system
    try:
        want = _ref_solve(a, b)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, b)
        with pytest.raises(SingularMatrix):
            linalg.inverse(a)
        return
    got = linalg.solve(a, b)
    assert got == want and _canonical(got)
    inv = linalg.inverse(a)
    assert _canonical(inv)
    assert linalg.mmul(a, inv) == linalg.identity(len(a))


@KERNELS
@given(_square_systems(), st.data())
def test_det_matches_faddeev_leverrier(system, data):
    a, _ = system
    d = linalg.det(a)
    assert d == linalg.det_adjugate(a)[0] and _canonical([[d]])
    n = len(a)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    swapped = list(a)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert linalg.det(swapped) == (d if i == j else -d)


def test_numeric_and_mixed_matrices_take_the_generic_path():
    rng = random.Random(11)
    exact = _rand_mat(rng, 3)
    while linalg.det(exact).is_zero():
        exact = _rand_mat(rng, 3)
    numeric = [[x.to_numeric() for x in row] for row in exact]
    mixed = [list(row) for row in exact]
    mixed[1][2] = mixed[1][2].to_numeric()
    ref = linalg.to_numpy(exact)
    # every numeric entry a generic elimination touches turns numeric; the
    # exact kernels would return exact entries only
    for a, spread in ((numeric, all), (mixed, any)):
        assert linalg._denominator(a) is None
        for out, want in ((linalg.mmul(a, a), ref @ ref),
                          (linalg.inverse(a), np.linalg.inv(ref)),
                          (linalg.row_reduce(a)[0], np.eye(3)),
                          ([[linalg.det(a)]], [[np.linalg.det(ref)]])):
            assert spread(not x.is_exact for row in out for x in row)
            assert np.allclose(linalg.to_numpy(out), want)
    # an exact operand next to a numeric one takes the generic path as well
    for out, want in ((linalg.mmul(exact, numeric), ref @ ref),
                      (linalg.mmul(numeric, exact), ref @ ref),
                      (linalg.solve(exact, numeric), np.eye(3))):
        assert all(not x.is_exact for row in out for x in row)
        assert np.allclose(linalg.to_numpy(out), want)
