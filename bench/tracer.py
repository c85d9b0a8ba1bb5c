"""Span tracing of the cmgrass layers, done from outside the package.

Every public function of a layer module, and every public method of a class
defined there, is replaced by a wrapper that records a span
``(name, start, end, parent, task)``.  The replacement is made at every
binding site: ``opcalc`` imports ``stationary_baker`` by name and ``pdo``
calls ``linalg.mmul`` through the module, so each loaded ``cmgrass`` module
whose globals hold a wrapped function gets the wrapper too.

``poly`` is traced only at ``Poly.gcd`` and ``RatFun.__init__`` (the
reduction), and ``scalar`` not at all: their arithmetic runs tens of
thousands of times per task and a wrapper would distort every self time.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import importlib
import inspect
import pstats
import sys
from time import perf_counter

LAYERS = ("opcalc", "pdo", "linalg", "laurent", "grass", "loopgroup",
          "cmspace", "flows", "serialize")
POLY_TARGETS = (("Poly", "gcd"), ("RatFun", "__init__"))
# operators MatPDO.invert and theta reach through + and -
PDO_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__")


def targets():
    """(span name, owner, attribute, function) of every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"cmgrass.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", mod, name, obj))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.__func__ if isinstance(member, staticmethod) else member
                    public = not attr.startswith("_") or (
                        layer == "pdo" and attr in PDO_OPERATORS)
                    if public and inspect.isfunction(fn):
                        out.append((f"{layer}.{name}.{attr}", obj, attr, fn))
    poly = importlib.import_module("cmgrass.poly")
    for cls, attr in POLY_TARGETS:
        owner = getattr(poly, cls)
        out.append((f"poly.{cls}.{attr}", owner, attr, vars(owner)[attr]))
    return out


class Tracer:
    """Collects spans in memory while installed; ``task`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.task = -1
        self.den_deg_max = 0
        self.rk4_steps = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        after = {"poly.RatFun.__init__": self._after_ratfun,
                 "flows.flow_numeric": self._after_rk4}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1,
                              self.task)
            if after:
                after(fn, args, kwargs)
            return out

        return wrapper

    def _after_ratfun(self, fn, args, kwargs):
        self.den_deg_max = max(self.den_deg_max, args[0].den.degree())

    def _after_rk4(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.rk4_steps += bound.arguments["steps"]

    def install(self):
        wrappers = {}
        for name, owner, attr, fn in targets():
            member = vars(owner)[attr]
            wrapped = self._wrap(name, fn)
            wrappers[id(fn)] = wrapped
            self._undo.append((owner, attr, member))
            setattr(owner, attr, staticmethod(wrapped)
                    if isinstance(member, staticmethod) else wrapped)
        # binding sites: names imported into other modules' globals
        for modname, mod in list(sys.modules.items()):
            if not (modname == "cmgrass" or modname.startswith("cmgrass.")
                    or modname == "workloads"):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, member in reversed(self._undo):
            setattr(owner, attr, member)
        self._undo.clear()

    # -----------------------------------------------------------------------

    def by_name(self):
        """name -> [calls, self seconds] over all spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, task in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _parent, _task), inner in zip(spans, child):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0 - inner
        return out

    def write(self, path):
        """Spans as gzip CSV: name,start,end,parent,task (times in s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,task\n")
            for name, t0, t1, parent, task in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{task}\n")


def layer_metrics(stats, tracer, scale):
    """The per-layer metrics (without setup, scalar, serialize bytes, trace).

    Self times are multiplied by ``scale``.
    """
    def total(prefix, field):
        out = sum(v[field] for k, v in stats.items()
                  if k == prefix or k.startswith(prefix + "."))
        return out * scale if field else out

    m = {}
    for layer in ("opcalc", "linalg", "laurent", "grass", "loopgroup",
                  "cmspace", "flows", "serialize"):
        m[f"{layer}.calls"] = (total(layer, 0), "count")
        m[f"{layer}.self_s"] = (total(layer, 1), "s")
    m["pdo.mul_calls"] = (total("pdo.MatPDO.mul", 0), "count")
    m["pdo.mul_s"] = (total("pdo.MatPDO.mul", 1), "s")
    m["pdo.invert_s"] = (total("pdo.MatPDO.invert", 1), "s")
    m["pdo.self_s"] = (total("pdo", 1), "s")
    m["poly.gcd_calls"] = (total("poly.Poly.gcd", 0), "count")
    m["poly.gcd_s"] = (total("poly.Poly.gcd", 1), "s")
    m["poly.ratfun_calls"] = (total("poly.RatFun.__init__", 0), "count")
    m["poly.ratfun_s"] = (total("poly.RatFun.__init__", 1), "s")
    m["poly.den_deg_max"] = (tracer.den_deg_max, "degree")
    for fn in ("solve", "det_adjugate", "kernel_basis"):
        m[f"linalg.{fn}_s"] = (total(f"linalg.{fn}", 1), "s")
    m["flows.rk4_steps"] = (tracer.rk4_steps, "count")
    return m


def profile_counts(run):
    """cProfile ncalls of every traced callable while ``run()`` executes."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for name, _owner, _attr, fn in targets():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = stats[key][1] if key in stats else 0
    return out
