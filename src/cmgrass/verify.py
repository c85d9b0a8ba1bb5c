"""Self-contained verification suites with machine-readable reports.

Each suite returns a list of case records ``{"name", "passed", ...}``; failed
cases carry a replayable counterexample payload (serialized inputs).  The
random stream is a seeded :class:`random.Random`, so any report reproduces
from its printed seed.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from . import flows, grass, linalg, loopgroup, opcalc, randpoints as rp, serialize
from .cmspace import (CMPoint, bisp_involution, canonicalize, from_cd_coords,
                      moment_residual, on_fiber)
from .errors import OutsideBigCell
from .pdo import MatPDO
from .poly import Poly, RatFun
from .scalar import Scalar, sc

SUITES = ("moment", "flows", "action", "baker", "bispectral", "lattice",
          "tau", "cells")

__all__ = ["SUITES", "run_suites", "run_suite"]


def _case(name, passed, payload=None):
    rec = {"name": name, "passed": bool(passed)}
    if payload is not None and not passed:
        rec["counterexample"] = payload
    return rec


def _mat_close(a, b, tol=0.0):
    if tol == 0.0:
        return linalg.mat_eq(a, b)
    an = linalg.to_numpy(a)
    bn = linalg.to_numpy(b)
    return bool(abs(an - bn).max() <= tol)


# ---------------------------------------------------------------------------
# suites


def suite_moment(rng, cases=25):
    out = []
    for t in range(cases):
        n = rng.randint(1, 5)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        q = from_cd_coords(p)
        out.append(_case(f"fiber[{t}] n={n} r={r}", on_fiber(q),
                         serialize.to_json(p)))
    return out


def suite_flows(rng, cases=6):
    out = []
    for t in range(cases):
        n = rng.randint(1, 3)
        r = rng.randint(2, 3)
        p = rp.rand_cmpoint(rng, n, r)
        k = rng.randint(1, 3)
        a = rp.rand_nilpotent(rng, r)
        tt = Scalar.exact(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        closed = from_cd_coords(flows.flow_closed(p, k, a, tt))
        direct = flows.flow_nilpotent(from_cd_coords(p), k, a, tt)
        ok = canonicalize(direct) == canonicalize(closed)
        out.append(_case(f"nilpotent-closed[{t}]", ok, serialize.to_json(p)))
    # scalar loop exp(p(z)): X shifts by -p'(Y)
    p = rp.rand_cmpoint(rng, 3, 2)
    q = from_cd_coords(p)
    moved = flows.flow_scalar(q, Poly([0, 1]))  # p(z) = z
    want = linalg.msub(linalg.mat(q.X), linalg.identity(q.n))
    out.append(_case("scalar-loop-z", _mat_close(linalg.mat(moved.X), want)))
    # Poisson structure constant, numeric central differences
    q2 = from_cd_coords(rp.rand_cmpoint(rng, 2, 2))
    a = rp.rand_alpha(rng, 2)
    b = rp.rand_alpha(rng, 2)
    comm = linalg.msub(linalg.mmul(a, b), linalg.mmul(b, a))
    pb = flows.poisson_bracket(q2, (1, a), (1, b))
    want = flows.hamiltonian(q2, 2, comm)
    err = abs(pb.to_complex() - want.to_complex())
    out.append(_case("poisson-structure", err < 1e-5, {"err": err}))
    return out


def suite_action(rng, cases=12):
    out = []
    for t in range(cases):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        j1 = rp.rand_jet(rng, list(p.lam), r)
        j2 = rp.rand_jet(rng, list(p.lam), r)
        lhs = loopgroup.act(loopgroup.act(p, j1), j2)
        rhs = loopgroup.act(p, loopgroup.jet_mul(j1, j2))
        out.append(_case(f"composition[{t}]", lhs == rhs, {
            "point": serialize.to_json(p), "jet1": serialize.to_json(j1),
            "jet2": serialize.to_json(j2)}))
        out.append(_case(f"fiber-preserved[{t}]",
                         on_fiber(from_cd_coords(loopgroup.act(p, j1)))))
    return out


def suite_baker(rng, cases=10):
    out = []
    for t in range(cases):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        W = grass.beta(p)
        j = rp.rand_jet(rng, list(p.lam), r)
        try:
            psi = grass.baker(W, j)
        except OutsideBigCell:
            out.append(_case(f"baker[{t}] (outside big cell)", True))
            continue
        ok = grass.is_normalized(psi) and grass.psi_rows_in_W(psi, j, W)
        out.append(_case(f"baker[{t}] n={n} r={r}", ok, {
            "point": serialize.to_json(p), "jet": serialize.to_json(j)}))
    # r = 1 determinant route agrees with the resolvent route
    for t in range(5):
        n = rng.randint(1, 4)
        p = rp.rand_cmpoint(rng, n, 1)
        x = rp.rand_scalar(rng)
        try:
            psi1 = grass.stationary_baker(p, x)
            psi2 = grass.psi2_det(p, x)
        except OutsideBigCell:
            out.append(_case(f"det-route[{t}] (outside big cell)", True))
            continue
        out.append(_case(f"det-route[{t}]", psi1[0][0] == psi2,
                         serialize.to_json(p)))
    # equivariance: the Baker function of the moved point at the loop g equals
    # the Baker function of the original point at g gamma^{-1}
    for t in range(5):
        n = rng.randint(1, 2)
        r = rng.randint(1, 3)
        p = rp.rand_cmpoint(rng, n, r)
        gamma = rp.rand_jet(rng, list(p.lam), r)
        j = rp.rand_jet(rng, list(p.lam), r)
        try:
            lhs = grass.baker(grass.beta(p),
                              loopgroup.jet_mul(j, loopgroup.jet_inverse(gamma)))
            rhs = grass.baker(grass.beta(loopgroup.act(p, gamma)), j)
        except OutsideBigCell:
            out.append(_case(f"equivariance[{t}] (outside big cell)", True))
            continue
        ok = all(lhs[i][k] == rhs[i][k] for i in range(r) for k in range(r))
        out.append(_case(f"equivariance[{t}]", ok, {
            "point": serialize.to_json(p), "loop-jet": serialize.to_json(gamma)}))
    return out


def suite_bispectral(rng, cases=8, depth=6):
    out = []
    for t in range(cases):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        p = rp.rand_cmpoint(rng, n, r)
        q = from_cd_coords(p)
        qb = bisp_involution(q)
        out.append(_case(f"involution-squared[{t}]",
                         bisp_involution(qb) == q))
        x0 = rp.rand_scalar(rng)
        try:
            lhs = grass.stationary_baker(qb, x0)
            rhs = grass.stationary_baker_in_x(q, x0)
        except OutsideBigCell:
            out.append(_case(f"symmetry[{t}] (outside big cell)", True))
            continue
        ok = all(lhs[i][j] == rhs[j][i] for i in range(r) for j in range(r))
        out.append(_case(f"symmetry[{t}]", ok, serialize.to_json(p)))
    for t in range(3):
        p = rp.rand_cmpoint(rng, rng.randint(1, 2), rng.randint(1, 2))
        lhs = opcalc.kbw(p, depth=depth).op
        rhs = opcalc.kw(bisp_involution(from_cd_coords(p)), depth=depth).op
        out.append(_case(f"kernel-b[{t}]", lhs == rhs, serialize.to_json(p)))
    return out


def suite_lattice(rng):
    out = []
    V = grass.lattice_example_V()
    res = grass.lattice_basis(V, 2, 3)
    want = [[Poly([0, 1]), Poly([1])], [Poly(), Poly([0, 1])]]
    ok = (len(res.generators) == 2
          and all(res.generators[i][j] == want[i][j]
                  for i in range(2) for j in range(2)))
    out.append(_case("example-V-generators", ok))
    for t in range(4):
        p = rp.rand_cmpoint(rng, rng.randint(1, 2), rng.randint(1, 2))
        pv = [Poly([1]) for _ in range(p.r)]
        G = opcalc.latt_witness(p, pv)
        ok = G.is_differential()
        out.append(_case(f"witness-differential[{t}]", ok,
                         serialize.to_json(p)))
    return out


def suite_tau(rng):
    out = []
    out.append(_case("tau(1,0,0,0)=1", grass.tau32(1, 0, 0, 0) == sc(1)))
    ok = all(grass.tau32(0, Fraction(t2, 3), 0, 0).is_zero()
             for t2 in range(-6, 7))
    out.append(_case("tau(0,t2,0,0)=0", ok))
    ok = True
    for _ in range(10):
        t1 = rp.rand_scalar(rng, gauss=False)
        t3 = rp.rand_scalar(rng, gauss=False)
        want = t1 ** 5 - sc(12) * t3 * t1 ** 2
        if not grass.tau32(t1, 0, t3, 0) == want:
            ok = False
    out.append(_case("tau(t1,0,t3,0)=t1^5-12t3t1^2", ok))
    return out


def suite_cells(rng, cases=8):
    out = []
    for t in range(cases):
        r = rng.randint(1, 3)
        A = [[rp.rand_scalar(rng) for _ in range(r)] for _ in range(r)]
        B = linalg.identity(r)
        try:
            c = grass.CellPoint(A=A, B=B)
        except Exception:
            continue
        g0 = linalg.identity(r)
        gp0 = linalg.zeros(r, r)
        try:
            psi = grass.cell_baker(c, (g0, gp0))
        except OutsideBigCell:
            out.append(_case(f"cell[{t}] (outside big cell)", True))
            continue
        q = grass.cell_to_point(c)
        psi2 = grass.stationary_baker(q, 0)
        ok = all(psi[i][j] == psi2[i][j] for i in range(r) for j in range(r))
        out.append(_case(f"cell-vs-point[{t}] r={r}", ok, {
            "A": [[serialize.to_json(e) for e in row] for row in c.A]}))
    # x-independent stationary wave function on the ba = 0 rank-one cell
    c = grass.CellPoint(A=[[1, 0], [0, 1]], B=[[0, 1], [0, 0]])
    g = lambda x: ([[1, 0], [0, 1]], [[x, 0], [0, x]])
    p1 = grass.cell_baker(c, g(1))
    p2 = grass.cell_baker(c, g(5))
    ok = all(p1[i][j] == p2[i][j] for i in range(2) for j in range(2))
    out.append(_case("rank-one-ba0-x-independent", ok))
    out.append(_case("rank-one-ba0-z-stable",
                     grass.z_stable(grass.cell_grpoint(c))))
    return out


_RUNNERS = {
    "moment": suite_moment,
    "flows": suite_flows,
    "action": suite_action,
    "baker": suite_baker,
    "bispectral": suite_bispectral,
    "lattice": suite_lattice,
    "tau": suite_tau,
    "cells": suite_cells,
}


def run_suite(name: str, rng: random.Random):
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _RUNNERS[name](rng)


def run_suites(names=None, seed: int = 0) -> dict:
    """Run the requested suites (all by default) and build the report."""
    names = list(names or SUITES)
    if names == ["all"]:
        names = list(SUITES)
    report = {"seed": seed, "suites": {}, "passed": True}
    for name in names:
        rng = random.Random(seed * 0x10001 + zlib.crc32(name.encode()))
        cases = run_suite(name, rng)
        ok = all(c["passed"] for c in cases)
        report["suites"][name] = {"passed": ok, "cases": cases}
        report["passed"] = report["passed"] and ok
    return report
