"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Tolerances are pinned per criterion; everything else is exact arithmetic.
The printed report bypasses pytest capture so the lines always appear.
"""

import random
import sys
from fractions import Fraction

import pytest

from cmgrass import flows, grass, linalg, loopgroup, opcalc, randpoints as rp
from cmgrass.cmspace import (CMPoint, Quadruple, bisp_involution, canonicalize,
                             from_cd_coords, on_fiber)
from cmgrass.errors import NotDifferential, OutsideBigCell
from cmgrass.pdo import MatPDO
from cmgrass.poly import Poly, RatFun
from cmgrass.scalar import Scalar, sc, set_tolerance, tolerance


REPORT = {}


def _report(num: int, ok: bool, detail: str = ""):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    REPORT[num] = line
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {detail}"


P0 = CMPoint(n=1, r=1, lam=[0], alpha=[0], vrow=[[1]], wcol=[[-1]])
W0 = grass.beta(P0)
BASE1 = grass.base_point(1)


def test_criterion_01_moment_fiber():
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        p = rp.rand_cmpoint(rng, rng.randint(1, 5), rng.randint(1, 3))
        q = from_cd_coords(p)
        if not (q.is_exact and on_fiber(q)):
            ok = False
            break
    _report(1, ok, "200 exact points, [X,Y]+vw = -I")


def test_criterion_02_poisson_relations():
    rng = random.Random(102)
    tol = 1e-6
    worst = 0.0
    ok = True
    for _ in range(20):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        q = from_cd_coords(rp.rand_cmpoint(rng, n, r))
        a = rp.rand_alpha(rng, r)
        b = rp.rand_alpha(rng, r)
        comm = linalg.msub(linalg.mmul(a, b), linalg.mmul(b, a))
        for k in range(4):
            for l in range(4):
                got = flows.poisson_bracket(q, (k, a), (l, b)).to_complex()
                want = flows.hamiltonian(q, k + l, comm).to_complex()
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                if err > tol:
                    ok = False
    _report(2, ok, f"k,l <= 3, 20 triples, rel err <= {worst:.2e} (tol 1e-6)")


def test_criterion_03_flow_consistency():
    rng = random.Random(103)
    old = tolerance()
    ok = True
    try:
        set_tolerance(1e-8)
        for _ in range(20):
            n = rng.randint(1, 3)
            r = rng.randint(2, 3)
            p = rp.rand_cmpoint(rng, n, r).to_numeric()
            k = rng.randint(1, 2)
            a = [[x.to_numeric() for x in row] for row in rp.rand_alpha(rng, r)]
            t = Scalar.numeric(rng.uniform(-0.1, 0.1))
            closed = flows.flow_closed(p, k, a, t)
            rk4 = flows.flow_numeric(from_cd_coords(p), k, a, t, steps=10000)
            if canonicalize(rk4) != closed:
                ok = False
    finally:
        set_tolerance(old)
    # exact nilpotent closed form
    for _ in range(5):
        r = rng.randint(2, 3)
        p = rp.rand_cmpoint(rng, rng.randint(1, 3), r)
        a = rp.rand_nilpotent(rng, r)
        t = sc(Fraction(rng.randint(-2, 2), 3))
        closed = from_cd_coords(flows.flow_closed(p, 2, a, t))
        direct = flows.flow_nilpotent(from_cd_coords(p), 2, a, t)
        if canonicalize(closed) != canonicalize(direct):
            ok = False
    _report(3, ok, "20 numeric points vs RK4 at 1e-8; nilpotent exact")


def test_criterion_04_right_action():
    rng = random.Random(104)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        j1 = rp.rand_jet(rng, list(p.lam), r)
        j2 = rp.rand_jet(rng, list(p.lam), r)
        lhs = loopgroup.act(loopgroup.act(p, j1), j2)
        rhs = loopgroup.act(p, loopgroup.jet_mul(j1, j2))
        if lhs != rhs:
            ok = False
        for i in range(n):
            dot = sum((lhs.vrow[i][a] * lhs.wcol[i][a] for a in range(r)),
                      sc(0))
            if dot != sc(-1):
                ok = False
    _report(4, ok, "act.act = act(jet_mul), 50 exact cases; pairing kept")


def test_criterion_05_scalar_subgroup():
    rng = random.Random(105)
    ok = True
    # p(z) = z: X moves by -I exactly
    for _ in range(5):
        q = rp.rand_quadruple(rng, rng.randint(1, 4), rng.randint(1, 3))
        moved = flows.flow_scalar(q, Poly([0, 1]))
        want = linalg.msub(linalg.mat(q.X), linalg.identity(q.n))
        if not linalg.mat_eq(linalg.mat(moved.X), want):
            ok = False
    # general p: agrees with the loop-jet action of the scalar factor
    for _ in range(10):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        pol = rp.rand_poly(rng, rng.randint(1, 3))
        vals = [linalg.identity(r) for _ in range(n)]
        ders = [linalg.mscale(linalg.identity(r),
                              pol.derivative().eval(lam)) for lam in p.lam]
        j = loopgroup.GammaJet(r=r, lams=list(p.lam), values=vals,
                               derivs=ders)
        if loopgroup.act(p, j) != canonicalize(
                flows.flow_scalar(from_cd_coords(p), pol)):
            ok = False
    _report(5, ok, "linear exponent exact; general p matches jet action")


def test_criterion_06_baker_validity():
    rng = random.Random(106)
    ok = True
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        W = grass.beta(p)
        j = rp.rand_jet(rng, list(p.lam), r)
        try:
            psi = grass.baker(W, j)
        except OutsideBigCell:
            continue
        if not (grass.is_normalized(psi) and grass.psi_rows_in_W(psi, j, W)):
            ok = False
        done += 1
    _report(6, ok, "50 cases: rows satisfy conditions at jet level; I+O(1/z)")


def test_criterion_07_equivariance():
    rng = random.Random(107)
    ok = True
    done = 0
    while done < 20:
        n = rng.randint(1, 2)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        gamma = rp.rand_jet(rng, list(p.lam), r)
        g = rp.rand_jet(rng, list(p.lam), r)
        try:
            lhs = grass.baker(grass.beta(p),
                              loopgroup.jet_mul(g, loopgroup.jet_inverse(gamma)))
            rhs = grass.baker(grass.beta(loopgroup.act(p, gamma)), g)
        except OutsideBigCell:
            continue
        if any(lhs[i][k] != rhs[i][k] for i in range(r) for k in range(r)):
            ok = False
        done += 1
    _report(7, ok, "baker(W, g gamma^-1) = baker(W.gamma, g), 20 exact cases")


def test_criterion_08_determinant_formula():
    rng = random.Random(108)
    ok = True
    done = 0
    while done < 20:
        n = rng.randint(1, 6)
        p = rp.rand_cmpoint(rng, n, 1)
        x = rp.rand_scalar(rng)
        try:
            psi1 = grass.stationary_baker(p, x)
            psi2 = grass.psi2_det(p, x)
        except OutsideBigCell:
            continue
        if psi1[0][0] != psi2:
            ok = False
        done += 1
    _report(8, ok, "width 1, n <= 6, 20 exact rational identities")


def test_criterion_09_bispectrality():
    rng = random.Random(109)
    ok = True
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        p = rp.rand_cmpoint(rng, n, r)
        q = from_cd_coords(p)
        qb = bisp_involution(q)
        if bisp_involution(qb) != q:
            ok = False
        x0 = rp.rand_scalar(rng)
        try:
            lhs = grass.stationary_baker(qb, x0)
            rhs = grass.stationary_baker_in_x(q, x0)
        except OutsideBigCell:
            continue
        if any(lhs[i][j] != rhs[j][i] for i in range(r) for j in range(r)):
            ok = False
        done += 1
    for _ in range(5):
        p = rp.rand_cmpoint(rng, rng.randint(1, 2), rng.randint(1, 2))
        lhs = opcalc.kbw(p, depth=8).op
        rhs = opcalc.kw(bisp_involution(from_cd_coords(p)), depth=8).op
        if lhs != rhs:
            ok = False
    _report(9, ok, "wave-function symmetry, involution order 2, kernels depth 8")


def test_criterion_10_cell_examples():
    ok = True
    # B = I: psi = I - g0 (g0^{-1} g0' + A)^{-1} z^{-1} g0^{-1}
    A = [[sc(2), sc(0)], [sc(1), sc(3)]]
    c = grass.CellPoint(A=A, B=linalg.identity(2))
    psi = grass.cell_baker(c, (linalg.identity(2), linalg.zeros(2, 2)))
    Ainv = linalg.inverse(A)
    zinv = RatFun(Poly([1]), Poly.var())
    for i in range(2):
        for j in range(2):
            want = (RatFun.of(1) if i == j else RatFun.of(0)) \
                - RatFun.of(Ainv[i][j]) * zinv
            if psi[i][j] != want:
                ok = False
    # B = ab with ba != 0 matches the one-site point's wave function
    c1 = grass.CellPoint(A=linalg.identity(2),
                         B=[[sc(2), sc(4)], [sc(1), sc(2)]])  # a=(2,1) b=(1,2)
    q1 = grass.cell_to_point(c1)
    for xv in (sc(1), sc(-2)):
        jet = (linalg.identity(2), linalg.mscale(linalg.identity(2), xv))
        pc = grass.cell_baker(c1, jet)
        ps = grass.stationary_baker(q1, xv)
        if any(pc[i][j] != ps[i][j] for i in range(2) for j in range(2)):
            ok = False
    # ba = 0: x-independent wave function and a z-stable condition system
    c0 = grass.CellPoint(A=linalg.identity(2),
                         B=[[sc(0), sc(1)], [sc(0), sc(0)]])
    jets = [(linalg.identity(2), linalg.mscale(linalg.identity(2), sc(x)))
            for x in (1, 9)]
    pa = grass.cell_baker(c0, jets[0])
    pb = grass.cell_baker(c0, jets[1])
    if any(pa[i][j] != pb[i][j] for i in range(2) for j in range(2)):
        ok = False
    if not grass.z_stable(grass.cell_grpoint(c0)):
        ok = False
    _report(10, ok, "B=I formula; rank-one matches point; ba=0 stable case")


def test_criterion_11_lattice_example():
    res = grass.lattice_basis(grass.lattice_example_V(), 2, 3)
    z = Poly.var()
    ok = (len(res.generators) == 2
          and list(res.generators[0]) == [z, Poly([1])]
          and list(res.generators[1]) == [Poly(), z])
    _report(11, ok, "bounded search returns exactly (z,1), (0,z)")


def test_criterion_12_witness_operators():
    rng = random.Random(112)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        p = rp.rand_cmpoint(rng, n, r)
        pv = [rp.rand_poly(rng, rng.randint(0, 3)) for _ in range(r)]
        if all(q.is_zero() for q in pv):
            pv[0] = Poly([1])
        T = opcalc.latt_witness(p, pv)
        if not T.is_differential() or T.order() != n:
            ok = False
        for a in range(r):
            if T.coeff(n)[a][0] != RatFun(pv[a]):
                ok = False
        if not opcalc.d_membership_direct(T, grass.beta(p)):
            ok = False
    _report(12, ok, "20 cases: differential, leading coeff p, membership")


def _sop(terms, depth=8):
    return MatPDO(1, 1, {k: [[RatFun.of(v)]] for k, v in terms.items()},
                  depth=depth, var="z")


def _rowop(t0, t1, depth=8):
    orders = set(t0) | set(t1)
    return MatPDO(1, 2, {k: [[RatFun.of(t0.get(k, Poly())),
                              RatFun.of(t1.get(k, Poly()))]]
                         for k in orders}, depth=depth, var="z")


def test_criterion_13_membership_cross_check():
    z = Poly.var()
    one = Poly([1])
    # width-1 target: single site at 0, constant coefficient must vanish
    lib1 = [
        (_sop({0: z}), True), (_sop({0: z * z}), True),
        (_sop({1: z}), True), (_sop({2: z}), True),
        (_sop({1: z * z, 0: Poly([0, 3])}), True),
        (_sop({0: one}), False), (_sop({1: one}), False),
        (_sop({2: one}), False), (_sop({1: z, 0: one}), False),
        (_sop({0: z * z + one}), False),
    ]
    # width-2 target: no residue in the second slot, values coupled 1:5
    P2 = CMPoint(n=1, r=2, lam=[0], alpha=[0], vrow=[[1, 0]], wcol=[[-1, 5]])
    W1 = grass.beta(P2)
    lib2 = [
        (_rowop({0: z}, {0: z}), True),
        (_rowop({0: Poly([5])}, {0: one}), True),
        (_rowop({1: Poly([0, 5])}, {1: z}), True),
        (_rowop({0: Poly([5, 1])}, {0: one}), True),
        (_rowop({1: z}, {0: z * z}), True),
        (_rowop({0: one}, {0: one}), False),
        (_rowop({}, {0: one}), False),
        (_rowop({0: one}, {}), False),
        (_rowop({0: z}, {0: one}), False),
        (_rowop({1: one}, {1: z}), False),
    ]
    ok = True
    count = 0
    for W, lib in ((W0, lib1), (W1, lib2)):
        base = grass.base_point(1)
        for D, want in lib:
            jet_route = opcalc.d_membership_direct(D, W)
            try:
                opcalc.theta(D, base, W, depth=8)
                op_route = True
            except NotDifferential:
                op_route = False
            if not (jet_route == op_route == want):
                ok = False
            count += 1
    # the worked intertwiner: D = z maps to d/dx + 1/x
    th = opcalc.theta(_sop({0: z}), BASE1, W0, depth=8)
    if (th.coeff(1)[0][0] != RatFun.of(1)
            or th.coeff(0)[0][0] != RatFun(Poly([1]), Poly.var())
            or th.order() != 1):
        ok = False
    count += 1
    _report(13, ok, f"{count}-case library, jet route == operator route")


def test_criterion_14_tau_identities():
    rng = random.Random(114)
    ok = grass.tau32(1, 0, 0, 0) == sc(1)
    for t2 in [Fraction(k, 3) for k in range(-6, 7)]:
        if not grass.tau32(0, t2, 0, 0).is_zero():
            ok = False
    for _ in range(15):
        t1 = rp.rand_scalar(rng, gauss=False)
        t3 = rp.rand_scalar(rng, gauss=False)
        if grass.tau32(t1, 0, t3, 0) != t1 ** 5 - sc(12) * t3 * t1 ** 2:
            ok = False

    def schur_32(t):
        N = 5
        h = [Fraction(1)] + [Fraction(0)] * N
        c = [Fraction(0)] + [-Fraction(x) for x in t]
        for m in range(1, N + 1):
            acc = Fraction(0)
            for k in range(1, min(m, 4) + 1):
                acc += k * c[k] * h[m - k]
            h[m] = acc / m
        return -24 * (h[3] * h[2] - h[4] * h[1])

    for _ in range(25):
        t = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        if grass.tau32(*t) != sc(schur_32(t)):
            ok = False
    _report(14, ok, "polynomial identities + independent Schur oracle")


def test_criterion_15_outside_big_cell():
    rng = random.Random(115)
    W = grass.order2_example_point()
    xs = [sc(Fraction(k, 2)) for k in range(1, 11)]
    reports = grass.stationary_ansatz_order2(W, xs)
    ok = len(reports) == 10 and all(not rep["solvable"] for rep in reports)
    # no nonempty beta image has an x-independent stationary wave function
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        p = rp.rand_cmpoint(rng, n, r)
        try:
            a = grass.stationary_baker(p, sc(1))
            b = grass.stationary_baker(p, sc(2))
        except OutsideBigCell:
            continue
        if all(a[i][j] == b[i][j] for i in range(r) for j in range(r)):
            ok = False
        done += 1
    _report(15, ok, "order-2 ansatz unsolvable at 10 x; beta images x-dependent")


def test_criterion_16_stability_and_lattice():
    def w_equals_lattice(W, K=2, D=3):
        res = grass.lattice_basis(W, K, D)
        num = grass.bounded_numerators(W, D)
        mod = grass.module_numerators(res.generators, W.r, D)
        return grass.row_span_equal(num, mod, W.r, D)

    c0 = grass.CellPoint(A=linalg.identity(2),
                         B=[[sc(0), sc(1)], [sc(0), sc(0)]])
    stable_examples = [grass.base_point(1), grass.base_point(2),
                       grass.lattice_example_W(), grass.lattice_example_V(),
                       grass.cell_grpoint(c0)]
    ok = all(grass.z_stable(W) for W in stable_examples)
    ok = ok and all(w_equals_lattice(W) for W in stable_examples)
    # among beta images only the empty (base) point is z-stable
    rng = random.Random(116)
    for _ in range(10):
        p = rp.rand_cmpoint(rng, rng.randint(1, 3), rng.randint(1, 2))
        if grass.z_stable(grass.beta(p)):
            ok = False
    empty = CMPoint(n=0, r=2, lam=[], alpha=[], vrow=[], wcol=[])
    ok = ok and grass.z_stable(grass.beta(empty))
    _report(16, ok, "z-stable examples satisfy W = L_W; base point only")
