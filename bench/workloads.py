"""The benchmark's workloads: seeded inputs, the tasks and their oracles.

A workload is a fixed schedule of task slots.  One *pass* fills every slot
with fresh inputs drawn from ``random.Random(f"{workload}:{seed}:{pass}")``,
so a run is a whole number of passes and every run holds the same mix of
task kinds and sizes; only the random entries change with the seed.  The
slot counts are odd and the slots are chosen so that the median task falls
inside a cluster of slots of similar cost, not in a gap between two: there
the median would jump between runs.

Each task receives its inputs as JSON text, decodes the toolkit values with
``cmgrass.serialize``, computes, checks the result by an independent route
and encodes its outputs the same way.  A task returns ``(ok, outputs)``.
Modules are called through their attributes so that the tracer's wrappers,
installed on the modules, see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from cmgrass import (cmspace, flows, grass, linalg, loopgroup, opcalc,
                     randpoints as rp, serialize)
from cmgrass.errors import NotDifferential, OutsideBigCell
from cmgrass.grass import GrPoint, Site
from cmgrass.pdo import MatPDO
from cmgrass.poly import Poly, RatFun
from cmgrass.scalar import Scalar

# ---------------------------------------------------------------------------
# JSON codec: toolkit values go through serialize.to_json / from_json, the
# functions under serialize.dumps / loads; RatFun and Poly results, which
# serialize has no tag for, are written coefficient-wise as the CLI does.


def encode(x):
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [encode(y) for y in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, RatFun):
        return {"num": encode(x.num), "den": encode(x.den)}
    if isinstance(x, Poly):
        return {"poly": [serialize.to_json(c) for c in x.coeffs]}
    return serialize.to_json(x)


def decode(x):
    if isinstance(x, list):
        return [decode(y) for y in x]
    if isinstance(x, dict):
        if "type" in x:
            return serialize.from_json(x)
        return {k: decode(v) for k, v in x.items()}
    return x


def run_task(task, text: str):
    """Decode, compute, check, encode: the timed unit of every workload."""
    ok, outputs = task(**decode(json.loads(text)))
    return ok, json.dumps(encode(outputs), sort_keys=True)


def _numeric_point(p):
    return cmspace.CMPoint(n=p.n, r=p.r,
                           lam=[x.to_numeric() for x in p.lam],
                           alpha=[x.to_numeric() for x in p.alpha],
                           vrow=[[x.to_numeric() for x in v] for v in p.vrow],
                           wcol=[[x.to_numeric() for x in w] for w in p.wcol])


def _numeric_matrix(m):
    return [[x.to_numeric() for x in row] for row in m]


def _all_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# bispectral-library: K-operators, Neumann inverse and theta beside the jet
# membership test, over a library of z-operators for each point.

# (n, r, depth, operator kinds); every point also gets one "kcheck" task.
# The two (1, 1, 3) points make the cluster of ~70 ms tasks that holds the
# median.
# "member*" operators are s(z) u D^k with s vanishing at the spectrum, the
# others are e_a, e_a D and (z - mu) e_a with w_1[a] != 0 and mu off the
# spectrum; by the conditions of beta(P) the former lie in D(C[z], W) and the
# latter do not.
BISPECTRAL_POINTS = (
    (1, 1, 3, ("member", "member_d", "constant", "constant_d", "linear")),
    (1, 1, 3, ("member", "member_d", "constant", "constant_d", "linear")),
    (1, 1, 4, ("member", "constant", "constant_d", "linear")),
    (1, 1, 5, ("constant_d",)),
    (1, 2, 3, ("member", "constant", "linear")),
    (2, 1, 3, ("constant", "linear")),
    (2, 2, 3, ()),
)


def _library_operator(kind, p, depth, rng):
    r = p.r
    a = next(i for i in range(r) if not p.wcol[0][i].is_zero())
    unit = [Poly([1]) if i == a else Poly() for i in range(r)]
    if kind.startswith("member"):
        s = Poly.from_roots(p.lam)
        row = []
        for _ in range(r):
            c = rp.rand_scalar(rng)
            while c.is_zero():
                c = rp.rand_scalar(rng)
            row.append(s.scale(c))
    elif kind.startswith("constant"):
        row = unit
    else:  # linear
        mu = Poly.const(p.lam[0] + Scalar.exact(1))
        row = [(Poly.var() - mu) * e for e in unit]
    order = 1 if kind.endswith("_d") else 0
    op = MatPDO(1, r, {order: [[RatFun(e) for e in row]]}, depth=depth,
                var="z")
    return op, kind.startswith("member")


def bispectral_pass(rng):
    tasks = []
    for n, r, depth, kinds in BISPECTRAL_POINTS:
        p = rp.rand_cmpoint(rng, n, r)
        tasks.append(("kcheck", {"point": p, "depth": depth}))
        for kind in kinds:
            op, member = _library_operator(kind, p, depth, rng)
            tasks.append(("operator", {"point": p, "op": op, "depth": depth,
                                       "member": member}))
    return tasks


def kcheck_task(point, depth):
    """K . K^-1 = I through depth, and kbw(P) = kw(b(P))."""
    k = opcalc.kw(point, depth)
    kinv = k.op.invert(depth=depth)
    ok = k.op.mul(kinv, depth=depth) == MatPDO.identity(point.r, depth=depth)
    kb = opcalc.kbw(point, depth)
    kwb = opcalc.kw(cmspace.bisp_involution(cmspace.from_cd_coords(point)),
                    depth)
    return ok and kb.op == kwb.op, {"inverse": kinv, "kbw": kb.op}


def operator_task(point, op, depth, member):
    """theta(D) is differential iff the jet route says D.C[z] <= W."""
    W = grass.beta(point)
    jet_route = opcalc.d_membership_direct(op, W)
    try:
        out = {"theta": opcalc.theta(op, grass.base_point(1), W, depth=depth)}
        op_route = True
    except NotDifferential as err:
        out = {"order": err.order}
        op_route = False
    return op_route == jet_route == member, out


# ---------------------------------------------------------------------------
# grass-waves: many small distinct exact points; field linear algebra over
# Scalar dominates and no work is shared between tasks.

# (kind, n, r); a lattice slot names the example in place of n.
# Weighted by time, the fiber, lattice and r = 1 equivariance slots hold
# most of a pass, so linalg over Scalar takes about two thirds of it and
# RatFun reduction (gcd included) about an eighth, by cProfile over three
# seeds.  Bakers of r >= 2, psi2 at n >= 3 and bisym at n >= 2 spend most
# of their time in Poly and RatFun and are kept out.  The median falls among
# the ~15 ms fiber(3, *), psi2(2, 1) and equivariance(2, 1) slots and the
# 90th percentile among the five ~140 ms slots at the top.
GRASS_SLOTS = (
    ("baker", 1, 1), ("baker", 1, 2), ("baker", 2, 1), ("baker", 3, 1),
    ("baker", 5, 1),
    ("equivariance", 1, 1), ("equivariance", 1, 2), ("equivariance", 2, 1),
    ("equivariance", 3, 1), ("equivariance", 5, 1), ("equivariance", 5, 1),
    ("psi2", 1, 1), ("psi2", 2, 1),
    ("fiber", 1, 2), ("fiber", 1, 3), ("fiber", 2, 1), ("fiber", 2, 2),
    ("fiber", 3, 1), ("fiber", 3, 2), ("fiber", 3, 3), ("fiber", 4, 1),
    ("fiber", 4, 3), ("fiber", 5, 2), ("fiber", 5, 3),
    ("lattice", "V", 2), ("lattice", "W", 2), ("lattice", "V", 2),
    ("bisym", 1, 2), ("bisym", 1, 3),
)

_LATTICE_EXAMPLES = {"V": grass.lattice_example_V, "W": grass.lattice_example_W}


def _off_spectrum(rng, lams):
    x = rp.rand_scalar(rng)
    while any(x == lam for lam in lams):
        x = rp.rand_scalar(rng)
    return x


def grass_pass(rng):
    tasks = []
    for kind, n, r in GRASS_SLOTS:
        if kind == "lattice":
            site = _LATTICE_EXAMPLES[n]().sites[0]
            W = GrPoint(r=r, sites=(Site(lam=rp.rand_scalar(rng),
                                         pole_order=site.pole_order,
                                         window_top=site.window_top,
                                         conditions=site.conditions),),
                        provenance=("custom", f"lattice-example-{n}"))
            tasks.append((kind, {"W": W}))
            continue
        p = rp.rand_cmpoint(rng, n, r)
        if kind == "baker":
            inputs = {"point": p, "jet": rp.rand_jet(rng, list(p.lam), r)}
        elif kind == "equivariance":
            inputs = {"point": p, "gamma": rp.rand_jet(rng, list(p.lam), r),
                      "g": rp.rand_jet(rng, list(p.lam), r)}
        elif kind == "psi2":
            inputs = {"point": p, "x": rp.rand_scalar(rng)}
        elif kind == "fiber":
            inputs = {"point": p, "g": rp.rand_invertible(rng, n)}
        else:  # bisym
            inputs = {"point": p, "x": _off_spectrum(rng, p.lam)}
        tasks.append((kind, inputs))
    return tasks


def baker_task(point, jet):
    """Rows of psi g satisfy W's conditions and psi = I + O(1/z)."""
    W = grass.beta(point)
    try:
        psi = grass.baker(W, jet)
    except OutsideBigCell:
        # baker(W, j) is the stationary function of P.j^-1 at x = 0
        moved = loopgroup.act(point, loopgroup.jet_inverse(jet))
        return grass.big_cell_indicator(moved, Scalar.exact(0)).is_zero(), {}
    ok = grass.is_normalized(psi) and grass.psi_rows_in_W(psi, jet, W)
    return ok, {"psi": psi}


def equivariance_task(point, gamma, g):
    """baker(W, g gamma^-1) = baker(W.gamma, g)."""
    sides = []
    for make in (lambda: grass.baker(grass.beta(point), loopgroup.jet_mul(
                     g, loopgroup.jet_inverse(gamma))),
                 lambda: grass.baker(grass.beta(loopgroup.act(point, gamma)),
                                     g)):
        try:
            sides.append(make())
        except OutsideBigCell:
            sides.append(None)
    lhs, rhs = sides
    if lhs is None or rhs is None:
        return lhs is None and rhs is None, {}
    return _all_equal(lhs, rhs), {"psi": lhs}


def psi2_task(point, x):
    """The width-1 determinant route equals the stationary Baker function."""
    try:
        psi = grass.stationary_baker(point, x)
        det = grass.psi2_det(point, x)
    except OutsideBigCell:
        return grass.big_cell_indicator(point, x).is_zero(), {}
    return psi[0][0] == det, {"psi": det}


def fiber_task(point, g):
    """The chart, GL(n) conjugation and b stay on the moment fiber."""
    q = cmspace.from_cd_coords(point)
    moved = cmspace.gl_conjugate(g, q)
    ok = (cmspace.on_fiber(q) and cmspace.on_fiber(moved)
          and cmspace.on_fiber(cmspace.bisp_involution(moved))
          and cmspace.canonicalize(q) == point)
    return ok, {"moved": moved}


def lattice_task(W):
    """Generators (z - lam, 1), (0, z - lam); W is z-stable and W = L_W."""
    res = grass.lattice_basis(W, 2, 3)
    t = Poly.var() - Poly.const(W.sites[0].lam)
    want = ((t, Poly([1])), (Poly(), t))
    ok = (tuple(tuple(row) for row in res.generators) == want
          and grass.z_stable(W)
          and grass.row_span_equal(
              grass.bounded_numerators(W, 3),
              grass.module_numerators(res.generators, W.r, 3), W.r, 3))
    return ok, {"generators": res.generators}


def bisym_task(point, x):
    """psi_{b(P)}(x, z) = psi_P(z, x)^t, and b is an involution."""
    q = cmspace.from_cd_coords(point)
    qb = cmspace.bisp_involution(q)
    ok = cmspace.bisp_involution(qb) == q
    try:
        lhs = grass.stationary_baker(qb, x)
    except OutsideBigCell:
        return ok and grass.big_cell_indicator(qb, x).is_zero(), {}
    rhs = grass.stationary_baker_in_x(q, x)
    return ok and _all_equal(lhs, linalg.transpose(rhs)), {"psi": lhs}


# ---------------------------------------------------------------------------
# flows-numeric: numeric mode at tolerance 1e-8, closed form against RK4 and
# the finite-difference bracket against J_{k+l,[a,b]}.

RK4_STEPS = 1000
BRACKET_TOL = 1e-6
BRACKET_PAIRS = ((0, 2), (1, 1), (2, 3))
# The flow moves v_i and w_i by exp(+-lam_i^k t alpha), which stretches them
# by up to exp(g) with g = |lam_i|^k |t| |alpha|_2; |t| <= 0.1 is scaled down
# so that g <= MAX_GROWTH.  From g of about 10, |v_i| |w_i| passes 1e8 and
# rounding alone moves v_i . w_i more than 1e-8 from -1, so the CMPoint check
# in flow_closed and canonicalize rejects a point computed to 1e-15: that
# check's tolerance does not scale with |v_i| |w_i| (pinned as an expected
# failure in test_smoke.py).  Below 8 the rounding stays under 1e-10.
MAX_GROWTH = 8.0
FLOW_SLOTS = tuple((n, r, k) for n in (1, 2, 3) for r in (2, 3)
                   for k in (1, 2)) + ((2, 2, 1),)


def flows_pass(rng):
    tasks = []
    for n, r, k in FLOW_SLOTS:
        p = rp.rand_cmpoint(rng, n, r)
        alpha = _numeric_matrix(rp.rand_alpha(rng, r))
        beta = _numeric_matrix(rp.rand_alpha(rng, r))
        rate = (max(abs(lam.to_complex()) ** k for lam in p.lam)
                * np.linalg.norm(linalg.to_numpy(alpha), 2))
        tmax = 0.1 if rate * 0.1 <= MAX_GROWTH else MAX_GROWTH / rate
        tasks.append(("flow", {
            "point": _numeric_point(p), "k": k, "alpha": alpha, "beta": beta,
            "t": Scalar.numeric(rng.uniform(-1.0, 1.0) * tmax)}))
    return tasks


def flow_task(point, k, alpha, beta, t):
    """RK4 lands on the closed form; {J_{k,a}, J_{l,b}} = J_{k+l,[a,b]}."""
    q = cmspace.from_cd_coords(point)
    closed = flows.flow_closed(point, k, alpha, t)
    rk4 = flows.flow_numeric(q, k, alpha, t, steps=RK4_STEPS)
    ok = cmspace.canonicalize(rk4) == closed
    comm = linalg.msub(linalg.mmul(alpha, beta), linalg.mmul(beta, alpha))
    brackets = []
    for kk, ll in BRACKET_PAIRS:
        got = flows.poisson_bracket(q, (kk, alpha), (ll, beta)).to_complex()
        want = flows.hamiltonian(q, kk + ll, comm).to_complex()
        ok = ok and abs(got - want) <= BRACKET_TOL * max(1.0, abs(want))
        brackets.append(Scalar.numeric(got))
    return ok, {"closed": closed, "brackets": brackets}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_pass: object      # rng -> [(kind, inputs)]
    tasks: dict            # kind -> task function
    tolerance: float = None  # numeric tolerance set in the child, if any


WORKLOADS = {
    "bispectral-library": Workload(
        bispectral_pass, {"kcheck": kcheck_task, "operator": operator_task}),
    "grass-waves": Workload(
        grass_pass, {"baker": baker_task, "equivariance": equivariance_task,
                     "psi2": psi2_task, "fiber": fiber_task,
                     "lattice": lattice_task, "bisym": bisym_task}),
    "flows-numeric": Workload(flows_pass, {"flow": flow_task}, tolerance=1e-8),
}


def build_pass(name: str, seed: int, index: int):
    """Inputs of one pass as (kind, JSON text) pairs."""
    rng = random.Random(f"{name}:{seed}:{index}")
    return [(kind, json.dumps(encode(inputs)))
            for kind, inputs in WORKLOADS[name].make_pass(rng)]
