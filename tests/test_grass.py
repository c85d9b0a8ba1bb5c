import random
from fractions import Fraction

import pytest

from cmgrass import grass, linalg, loopgroup, randpoints as rp
from cmgrass.cmspace import CMPoint, bisp_involution, from_cd_coords
from cmgrass.errors import (NotInBetaImage, OutsideBigCell, SpectrumMismatch,
                            UnsupportedRank)
from cmgrass.poly import Poly, RatFun
from cmgrass.scalar import Scalar, sc, ONE, ZERO

P0 = CMPoint(n=1, r=1, lam=[0], alpha=[0], vrow=[[1]], wcol=[[-1]])
W0 = grass.beta(P0)


def test_beta_conditions_single_width_one():
    # single site at 0, pole order 1, two-coefficient window, one condition
    assert len(W0.sites) == 1
    s = W0.sites[0]
    assert s.pole_order == 1 and s.window_top == 0
    assert W0.codimension() == 1


def test_member_examples():
    # W0 = {pole order <= 1 at 0, constant Laurent coefficient zero}
    z = Poly.var()
    assert grass.member([RatFun(Poly([1]), z)], W0)          # 1/z
    assert grass.member([RatFun(z)], W0)                     # z
    assert not grass.member([RatFun(Poly([1]))], W0)         # 1
    assert not grass.member([RatFun(Poly([1]), z * z)], W0)  # 1/z^2
    assert grass.member([RatFun(Poly([0, 0, 1]), z)], W0)    # z^2/z = z


def test_base_point_accepts_everything():
    B = grass.base_point(2)
    assert grass.member([RatFun(Poly([1, 2])), RatFun(Poly([5]))], B)
    assert not grass.member([RatFun(Poly([1]), Poly([0, 1])),
                             RatFun(Poly())], B)  # poles not allowed


def test_stationary_baker_example():
    # n=1, lam=0, alpha=0: psi = 1 - 1/(x z)
    psi = grass.stationary_baker(P0, sc(2))
    want = RatFun.of(1) - RatFun(Poly([Fraction(1, 2)]), Poly.var())
    assert psi[0][0] == want


def test_stationary_baker_outside_big_cell():
    with pytest.raises(OutsideBigCell):
        grass.stationary_baker(P0, sc(0))


def test_baker_rows_and_normalization():
    rng = random.Random(1)
    done = 0
    while done < 12:
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        W = grass.beta(p)
        j = rp.rand_jet(rng, list(p.lam), r)
        try:
            psi = grass.baker(W, j)
        except OutsideBigCell:
            continue
        assert grass.is_normalized(psi)
        assert grass.psi_rows_in_W(psi, j, W)
        done += 1


def test_baker_spectrum_mismatch():
    j = loopgroup.jet_identity([sc(5)], 1)
    with pytest.raises(SpectrumMismatch):
        grass.baker(W0, j)


def test_psi2_det_agrees_with_resolvent_route():
    rng = random.Random(2)
    done = 0
    while done < 10:
        p = rp.rand_cmpoint(rng, rng.randint(1, 5), 1)
        x = rp.rand_scalar(rng)
        try:
            psi1 = grass.stationary_baker(p, x)
            psi2 = grass.psi2_det(p, x)
        except OutsideBigCell:
            continue
        assert psi1[0][0] == psi2
        done += 1


def test_psi2_det_rejects_width_above_one():
    p = rp.rand_cmpoint(random.Random(3), 1, 2)
    with pytest.raises(UnsupportedRank):
        grass.psi2_det(p, sc(1))


def test_big_cell_indicator_matches_failure():
    assert grass.big_cell_indicator(P0, sc(0)).is_zero()
    assert not grass.big_cell_indicator(P0, sc(1)).is_zero()


def test_bispectral_symmetry():
    rng = random.Random(4)
    done = 0
    while done < 8:
        r = rng.randint(1, 2)
        p = rp.rand_cmpoint(rng, rng.randint(1, 3), r)
        q = from_cd_coords(p)
        x0 = rp.rand_scalar(rng)
        try:
            lhs = grass.stationary_baker(bisp_involution(q), x0)
            rhs = grass.stationary_baker_in_x(q, x0)
        except (OutsideBigCell, SpectrumMismatch):
            continue
        for i in range(r):
            for j in range(r):
                assert lhs[i][j] == rhs[j][i]
        done += 1


# ---------------------------------------------------------------------------
# cells


def test_cell_baker_B_identity_formula():
    # B = I, constant jet (g0, 0): psi = I - g0 (g0^{-1} g0' + A)^{-1} z^{-1} g0^{-1}
    A = [[sc(2), sc(0)], [sc(1), sc(3)]]
    c = grass.CellPoint(A=A, B=linalg.identity(2))
    psi = grass.cell_baker(c, (linalg.identity(2), linalg.zeros(2, 2)))
    Ainv = linalg.inverse(A)
    zinv = RatFun(Poly([1]), Poly.var())
    for i in range(2):
        for j in range(2):
            want = (RatFun.of(1) if i == j else RatFun.of(0)) \
                - RatFun.of(Ainv[i][j]) * zinv
            assert psi[i][j] == want


def test_cell_rank_one_matches_point_baker():
    c = grass.CellPoint(A=linalg.identity(2), B=[[sc(1), sc(0)], [sc(0), sc(0)]])
    q = grass.cell_to_point(c)
    assert q.n == 1 and q.r == 2
    # jet of e^{xz} at the single eigenvalue: (I, xI)
    for xv in (sc(1), sc(3)):
        jet = (linalg.identity(2), linalg.mscale(linalg.identity(2), xv))
        pc = grass.cell_baker(c, jet)
        ps = grass.stationary_baker(q, xv)
        for i in range(2):
            for j in range(2):
                assert pc[i][j] == ps[i][j]


def test_cell_rank_one_nilpotent_is_x_independent_and_stable():
    c = grass.CellPoint(A=linalg.identity(2), B=[[sc(0), sc(1)], [sc(0), sc(0)]])
    jets = [(linalg.identity(2), linalg.mscale(linalg.identity(2), sc(x)))
            for x in (1, 7)]
    p1 = grass.cell_baker(c, jets[0])
    p2 = grass.cell_baker(c, jets[1])
    for i in range(2):
        for j in range(2):
            assert p1[i][j] == p2[i][j]
    assert grass.z_stable(grass.cell_grpoint(c))
    with pytest.raises(NotInBetaImage):
        grass.cell_to_point(c)


def test_cell_zero_B_gives_empty_point():
    c = grass.CellPoint(A=linalg.identity(2), B=linalg.zeros(2, 2))
    q = grass.cell_to_point(c)
    assert q.n == 0


# ---------------------------------------------------------------------------
# stability, interleaving, lattice, tau


def test_z_stable_examples():
    assert grass.z_stable(grass.base_point(2))
    assert grass.z_stable(grass.lattice_example_W())
    assert grass.z_stable(grass.lattice_example_V())
    assert not grass.z_stable(W0)


def test_interleave_round_trip_and_shift():
    f = [RatFun(Poly([1, 2]), Poly([0, 0, 1])), RatFun(Poly([3]), Poly([0, 1]))]
    h = grass.interleave(f)
    back = grass.deinterleave(h)
    assert back[0] == f[0] and back[1] == f[1]
    # width-2 shift by z corresponds to multiplication by the square
    zf = [RatFun(Poly.var()) * x for x in f]
    assert grass.interleave(zf) == RatFun(Poly([0, 0, 1])) * h


def test_example_W_and_V_membership():
    z = Poly.var()
    W = grass.lattice_example_W()
    V = grass.lattice_example_V()
    # (1, 1/z) and (0, 1) span the pole parts allowed in the first example
    assert grass.member([RatFun(Poly([1])), RatFun(Poly([1]), z)], W)
    assert grass.member([RatFun(Poly()), RatFun(Poly([1]))], W)
    assert not grass.member([RatFun(Poly([1]), z), RatFun(Poly())], W)
    # (z, 1) and (0, z) generate the second example
    assert grass.member([RatFun(z), RatFun(Poly([1]))], V)
    assert grass.member([RatFun(Poly()), RatFun(z)], V)
    assert not grass.member([RatFun(Poly([1])), RatFun(Poly())], V)


def test_lattice_example_V_generators():
    res = grass.lattice_basis(grass.lattice_example_V(), 2, 3)
    z = Poly.var()
    assert len(res.generators) == 2
    assert list(res.generators[0]) == [z, Poly([1])]
    assert list(res.generators[1]) == [Poly(), z]


def test_lattice_beta_image_width_one():
    res = grass.lattice_basis(W0, 2, 3)
    assert res.denominator == Poly.var()
    assert len(res.generators) == 1
    assert list(res.generators[0]) == [Poly.var()]


def test_lattice_operators_actually_map_into_W():
    res = grass.lattice_basis(W0, 2, 3)
    z = Poly.var()
    for op in res.operators:
        for p in (Poly([1]), z, Poly([2, 0, 3])):
            ders = {0: p, 1: p.derivative(), 2: p.derivative().derivative()}
            acc = RatFun.of(0)
            for k, row in op.items():
                acc = acc + RatFun(row[0] * ders[k], res.denominator)
            assert grass.member([acc], W0)


def _padded_lattice_basis(W, order_bound, degree_bound):
    """lattice_basis with the kernels of order <= kmax taken on the full
    column set, the higher orders zeroed by appended unit rows."""
    r, K, d = W.r, order_bound, degree_bound
    qd = grass.qden(W)
    nunk = r * (K + 1) * (d + 1)

    def uidx(a, k, m):
        return (a * (K + 1) + k) * (d + 1) + m

    rows = []
    for s in W.sites:
        lam, mj, dj = s.lam, s.pole_order, s.window_top
        for mtest in range(K + mj + dj + 1):
            ders = [(Poly.var() - Poly.const(lam)) ** mtest]
            for _ in range(K):
                ders.append(ders[-1].derivative())
            window = {}
            for k in range(K + 1):
                if ders[k].is_zero():
                    continue
                for mp in range(d + 1):
                    fn = RatFun(Poly.monomial(mp, ONE) * ders[k], qd)
                    window[(k, mp)] = fn.laurent_at(lam, -mj, dj)
            for cond in s.conditions:
                row = [ZERO] * nunk
                for (k, mp), lau in window.items():
                    for a in range(r):
                        acc = ZERO
                        for kk in range(-mj, dj + 1):
                            acc = acc + cond[(kk + mj) * r + a] * lau[kk + mj]
                        row[uidx(a, k, mp)] = row[uidx(a, k, mp)] + acc
                rows.append(row)

    def kernel_with_max_order(kmax):
        extra = []
        for a in range(r):
            for k in range(kmax + 1, K + 1):
                for mp in range(d + 1):
                    e = [ZERO] * nunk
                    e[uidx(a, k, mp)] = ONE
                    extra.append(e)
        sys_rows = rows + extra
        if not sys_rows:
            return [[ONE if i == j else ZERO for i in range(nunk)]
                    for j in range(nunk)]
        return linalg.kernel_basis(sys_rows)

    def order_row(u, k):
        return [Poly(tuple(u[uidx(a, k, mp)] for mp in range(d + 1)))
                for a in range(r)]

    operators = []
    for u in kernel_with_max_order(K):
        op = {k: tuple(order_row(u, k)) for k in range(K + 1)
              if any(not p.is_zero() for p in order_row(u, k))}
        if op:
            operators.append(op)
    lead = [order_row(u, k) for k in range(K + 1)
            for u in kernel_with_max_order(k)
            if any(not p.is_zero() for p in order_row(u, k))]
    return tuple(operators), tuple(tuple(row) for row in grass.poly_hnf(lead))


def _lattice_cases():
    rng = random.Random(606)
    for make in (grass.lattice_example_W, grass.lattice_example_V):
        site = make().sites[0]
        for _ in range(4):
            yield grass.GrPoint(
                r=2, sites=(grass.Site(lam=rp.rand_scalar(rng),
                                       pole_order=site.pole_order,
                                       window_top=site.window_top,
                                       conditions=site.conditions),),
                provenance=("custom", make.__name__))
    for n in (1, 2):
        for r in (1, 2):
            for _ in range(2):
                yield grass.beta(rp.rand_cmpoint(rng, n, r))


def test_lattice_basis_matches_padded_kernels():
    rng = random.Random(607)
    for W in _lattice_cases():
        # a degree bound below deg qden often leaves no operator at all
        for K, d in ((rng.randint(0, 3), rng.randint(0, 3)),
                     (rng.randint(1, 3), 3)):
            res = grass.lattice_basis(W, K, d)
            assert (res.operators, res.generators) == \
                _padded_lattice_basis(W, K, d)


def test_poly_hnf_canonical():
    z = Poly.var()
    rows = [[z * z, z], [z, Poly([1])]]
    gens = grass.poly_hnf(rows)
    assert gens == [[z, Poly([1])]]


def test_order2_ansatz_has_no_solution():
    W = grass.order2_example_point()
    reports = grass.stationary_ansatz_order2(W, [sc(1), sc(2), sc(-3)])
    assert all(not rep["solvable"] for rep in reports)


def test_order2_ansatz_solvable_control_case():
    # a point with unconstrained order-2 site admits the ansatz trivially
    site = grass.Site(lam=sc(0), pole_order=2, window_top=0, conditions=())
    W = grass.GrPoint(r=1, sites=(site,))
    reports = grass.stationary_ansatz_order2(W, [sc(1)])
    assert all(rep["solvable"] for rep in reports)


def test_tau_values():
    assert grass.tau32(1, 0, 0, 0) == sc(1)
    assert grass.tau32(0, Fraction(7, 2), 0, 0).is_zero()
    t1, t3 = sc(2), sc(Fraction(1, 3))
    assert grass.tau32(t1, 0, t3, 0) == t1 ** 5 - sc(12) * t3 * t1 ** 2


def _schur_32_oracle(t):
    """-24 s_{(3,2)} with h_m read off the series exp(-sum t_k z^k)."""
    N = 5
    h = [Fraction(1)] + [Fraction(0)] * N
    c = [Fraction(0)] + [-Fraction(x) for x in t] + [Fraction(0)] * (N - 4)
    for m in range(1, N + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += k * c[k] * h[m - k]
        h[m] = acc / m
    return -24 * (h[3] * h[2] - h[4] * h[1])


def test_tau_against_jacobi_trudi_oracle():
    rng = random.Random(5)
    for _ in range(25):
        t = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        assert grass.tau32(*t) == sc(_schur_32_oracle(t))
