"""Command-line interface.

Subcommands: ``verify`` (property suites), ``point`` (construction and maps on
phase-space points), ``baker`` (stationary wave functions), ``flow``
(Hamiltonian trajectories), ``tau`` (the degree-5 tau polynomial),
``lattice`` (bounded lattice bases), ``ansatz`` (the order-2 pole ansatz), and
``bispect`` (bispectrality checks).  All payloads use the JSON schemas of
:mod:`cmgrass.serialize`.  Exit codes: 0 success, 1 verification failure or
structured domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import flows, grass, opcalc, serialize, verify
from .cmspace import (CMPoint, Quadruple, bisp_involution, canonicalize,
                      embed_rank, from_cd_coords, moment_residual)
from .errors import CMGrassError, OutsideBigCell
from .pdo import DEFAULT_DEPTH
from .poly import Poly
from .scalar import Scalar, sc, set_tolerance


def _parse_scalar(text):
    """Accept '3/2', '1+2i' (rational parts), or a float-looking string."""
    s = str(text).strip().replace(" ", "")
    try:
        if s.endswith("i") or s.endswith("j"):
            body = s[:-1]
            for cut in range(len(body) - 1, 0, -1):
                if body[cut] in "+-" and body[cut - 1] not in "+-/e":
                    return Scalar.exact(Fraction(body[:cut]),
                                        Fraction(body[cut:] or 1))
            return Scalar.exact(0, Fraction(body if body not in ("", "+", "-")
                                            else body + "1"))
        return Scalar.exact(Fraction(s))
    except (ValueError, ZeroDivisionError):
        return Scalar.numeric(complex(s))


def _load_payload(path):
    if path == "-" or path is None:
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(data, args):
    text = json.dumps(data, indent=2)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _load_point(args):
    obj = serialize.from_json(_load_payload(args.infile))
    if args.mode == "numeric":
        obj = obj.to_numeric()
    return obj


def _ratmat_json(m):
    return [[{"num": [serialize._scalar(c) for c in e.num.coeffs],
              "den": [serialize._scalar(c) for c in e.den.coeffs]}
             for e in row] for row in m]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    suites = args.suite or ["all"]
    report = verify.run_suites(suites, seed=args.seed)
    report["mode"] = args.mode
    print(f"seed: {args.seed}")
    for name, s in report["suites"].items():
        status = "PASS" if s["passed"] else "FAIL"
        print(f"{name}: {status} ({len(s['cases'])} cases)")
        if not s["passed"]:
            for c in s["cases"]:
                if not c["passed"]:
                    print(f"  FAIL {c['name']}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    print("overall:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def cmd_point(args) -> int:
    sub = args.action
    if sub == "new":
        raw = _load_payload(args.infile)
        p = CMPoint(n=raw["n"], r=raw["r"],
                    lam=[_parse_scalar(x) for x in raw["lambda"]],
                    alpha=[_parse_scalar(x) for x in raw["alpha"]],
                    vrow=[[_parse_scalar(x) for x in v] for v in raw["vrow"]],
                    wcol=[[_parse_scalar(x) for x in w] for w in raw["wcol"]])
        _emit(serialize.to_json(p), args)
        return 0
    obj = _load_point(args)
    if sub == "moment":
        q = obj if isinstance(obj, Quadruple) else from_cd_coords(obj)
        res = moment_residual(q)
        _emit([[serialize._scalar(e) for e in row] for row in res], args)
        return 0
    if sub == "canon":
        q = obj if isinstance(obj, Quadruple) else from_cd_coords(obj)
        _emit(serialize.to_json(canonicalize(q)), args)
        return 0
    if sub == "b":
        q = obj if isinstance(obj, Quadruple) else from_cd_coords(obj)
        _emit(serialize.to_json(bisp_involution(q)), args)
        return 0
    if sub == "embed":
        q = obj if isinstance(obj, Quadruple) else from_cd_coords(obj)
        _emit(serialize.to_json(embed_rank(q)), args)
        return 0
    raise AssertionError(sub)


def cmd_baker(args) -> int:
    p = _load_point(args)
    x = _parse_scalar(args.x)
    try:
        if args.psi2:
            f = grass.psi2_det(p, x)
            psi = [[f]]
        else:
            psi = grass.stationary_baker(p, x)
    except OutsideBigCell as e:
        _emit({"error": "OutsideBigCell",
               "det": serialize._scalar(e.det)
               if getattr(e, "det", None) is not None else None}, args)
        return 1
    out = {"psi": _ratmat_json(psi)}
    if args.z:
        samples = []
        for ztext in args.z:
            z0 = _parse_scalar(ztext)
            samples.append({"z": serialize._scalar(z0),
                            "value": [[serialize._scalar(e.eval(z0))
                                       for e in row] for row in psi]})
        out["samples"] = samples
    _emit(out, args)
    return 0


def cmd_flow(args) -> int:
    p = _load_point(args)
    if isinstance(p, Quadruple):
        p = canonicalize(p)
    alpha = [[_parse_scalar(x) for x in row] for row in json.loads(args.alpha)]
    t = _parse_scalar(args.t)
    moved = flows.flow_closed(p, args.k, alpha, t)
    _emit(serialize.to_json(moved), args)
    return 0


def cmd_tau(args) -> int:
    val = grass.tau32(*(_parse_scalar(t) for t in args.t))
    _emit(serialize._scalar(val), args)
    return 0


def cmd_lattice(args) -> int:
    if args.example:
        W = (grass.lattice_example_W() if args.example == "W"
             else grass.lattice_example_V())
    else:
        W = serialize.from_json(_load_payload(args.infile))
    res = grass.lattice_basis(W, args.order_bound, args.degree_bound)
    _emit({"r": res.r, "order_bound": res.order_bound,
           "degree_bound": res.degree_bound,
           "denominator": [serialize._scalar(c)
                           for c in res.denominator.coeffs],
           "generators": [[[serialize._scalar(c) for c in e.coeffs]
                           for e in row] for row in res.generators]}, args)
    return 0


def cmd_ansatz(args) -> int:
    if args.example:
        W = grass.order2_example_point()
    else:
        W = serialize.from_json(_load_payload(args.infile))
    xs = [_parse_scalar(x) for x in (args.x or ["1", "2"])]
    reports = grass.stationary_ansatz_order2(W, xs)
    out = [{"x": serialize._scalar(rep["x"]), "solvable": rep["solvable"]}
           for rep in reports]
    _emit(out, args)
    return 0


def cmd_bispect(args) -> int:
    p = _load_point(args)
    if isinstance(p, Quadruple):
        p = canonicalize(p)
    depth = args.depth
    checks = {}
    lhs = opcalc.kbw(p, depth=depth).op
    rhs = opcalc.kw(bisp_involution(from_cd_coords(p)), depth=depth).op
    checks["kernel_b"] = bool(lhs == rhs)
    x0 = _parse_scalar(args.x)
    try:
        a = grass.stationary_baker(bisp_involution(from_cd_coords(p)), x0)
        b = grass.stationary_baker_in_x(p, x0)
        checks["stationary_symmetry"] = bool(
            all(a[i][j] == b[j][i] for i in range(p.r) for j in range(p.r)))
    except OutsideBigCell:
        checks["stationary_symmetry"] = "outside-big-cell"
    _emit(checks, args)
    return 0 if all(v is True or v == "outside-big-cell"
                    for v in checks.values()) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cmgrass")

    def common(p):
        p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json-out", dest="json_out", default=None)

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run property suites")
    common(p)
    p.add_argument("--suite", action="append",
                   help=f"suite name ({', '.join(verify.SUITES)}) or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("point", help="construct and transform points")
    common(p)
    p.add_argument("action",
                   choices=("new", "canon", "moment", "b", "embed"))
    p.add_argument("--in", dest="infile", default="-")
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("baker", help="stationary wave function")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--x", required=True)
    p.add_argument("--z", action="append", help="sample value(s) of z")
    p.add_argument("--psi2", action="store_true",
                   help="width-1 determinant route")
    p.set_defaults(func=cmd_baker)

    p = sub.add_parser("flow", help="closed-form Hamiltonian flow")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True,
                   help="JSON matrix of scalar strings")
    p.add_argument("--t", required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("tau", help="degree-5 tau polynomial")
    common(p)
    p.add_argument("t", nargs=4)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("lattice", help="bounded lattice basis")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--example", choices=("W", "V"))
    p.add_argument("--order-bound", type=int, default=2)
    p.add_argument("--degree-bound", type=int, default=3)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("ansatz", help="order-2 pole ansatz")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--example", action="store_true")
    p.add_argument("--x", action="append")
    p.set_defaults(func=cmd_ansatz)

    p = sub.add_parser("bispect", help="bispectrality checks")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--x", default="1")
    p.set_defaults(func=cmd_bispect)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol is not None:
        set_tolerance(args.tol)
    try:
        return args.func(args)
    except CMGrassError as e:
        _emit({"error": type(e).__name__, "message": str(e)}, args)
        return 1
    except KeyError as e:
        print(f"error: missing field {e.args[0]!r}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
