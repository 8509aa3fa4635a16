"""Outside-in tracer for the liftgeo package.

It wraps named public functions of each ``liftgeo`` module and replaces
every binding of the original function object in every loaded ``liftgeo.*``
module (modules do ``from .connection import christoffel``, so patching only
the defining module would miss most calls).  Nothing in ``src/`` changes.

Each wrapped call records its count, inclusive time (outermost calls only,
so recursion is not counted twice) and self time (duration minus the time
covered by nested wrapped calls).  Calls outside the polynomial core also
record a span ``(op, span, parent, name, start, end, self)``; the polynomial
core is too hot for per-call spans (over a million ``p_mul`` calls per
sweep), so it keeps counts and times only.  Spans stay in memory until the
process writes its trace file.
"""

from __future__ import annotations

import cProfile
import hashlib
import importlib
import pstats
import sys
import time

# (module, function) pairs; the module name is also the layer name
TARGETS = (
    ("_poly", "p_mul"), ("_poly", "p_pow"), ("_poly", "p_gcd"), ("_poly", "f_make"),
    ("expr", "simplify"), ("expr", "differentiate"), ("expr", "substitute"),
    ("expr", "is_identically_zero"), ("expr", "parse"),
    ("geometry", "inverse"), ("geometry", "determinant"),
    ("geometry", "parse_metric_document"),
    ("connection", "christoffel"), ("connection", "riemann"),
    ("lifts", "lift_metric"), ("lifts", "lift_connection"),
    ("harmonicity", "harmonicity_residuals"), ("harmonicity", "lifted_harmonicity"),
    ("oracle", "finite_difference_check"), ("oracle", "reconcile_with_paper"),
    ("cli", "main"),
)

_LEAF_LAYER = "_poly"


def target_name(module: str, func: str) -> str:
    return f"{module}.{func}"


class _Stats:
    __slots__ = ("calls", "primitive", "active", "total_s", "self_s",
                 "canonical", "decided", "by_dim", "keys")

    def __init__(self):
        self.calls = 0
        self.primitive = 0  # calls made while no call of the same function is active
        self.active = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.canonical = 0  # simplify: input already equals its result
        self.decided = 0  # is_identically_zero: verdict is not "unknown"
        self.by_dim = {}  # inverse, christoffel: calls per metric size
        self.keys = set()  # inverse, christoffel: distinct input metrics

    def as_dict(self) -> dict:
        return {
            "calls": self.calls, "primitive": self.primitive,
            "total_s": self.total_s, "self_s": self.self_s,
            "canonical": self.canonical, "decided": self.decided,
            "by_dim": {str(k): v for k, v in self.by_dim.items()},
            "distinct": len(self.keys),
        }


def _metric_key(metric) -> str:
    return hashlib.sha1(repr(metric).encode()).hexdigest()


class Tracer:
    """Wraps TARGETS in the loaded liftgeo modules; install() then uninstall()."""

    def __init__(self):
        self.stats = {target_name(m, f): _Stats() for m, f in TARGETS}
        self.spans = []
        self._stack = []  # frames: [span_id, child_time]
        self._next_span = 1
        self._op = None
        self._originals = {}  # name -> original function
        self._patched = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        importlib.import_module("liftgeo.cli")  # loads every liftgeo module
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "liftgeo" or name.startswith("liftgeo."))]
        for module_name, func_name in TARGETS:
            home = sys.modules[f"liftgeo.{module_name}"]
            original = getattr(home, func_name)
            name = target_name(module_name, func_name)
            self._originals[name] = original
            wrapper = self._wrap(name, original, module_name == _LEAF_LAYER)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def begin_op(self, op_id: str):
        self._op = op_id

    def _wrap(self, name, fn, leaf):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            stats.calls += 1
            if stats.active == 0:
                stats.primitive += 1
            stats.active += 1
            if leaf:
                span_id = 0
            else:
                span_id = self._next_span
                self._next_span += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.active -= 1
                duration = end - start
                own = duration - frame[1]
                stats.self_s += own
                if stats.active == 0:
                    stats.total_s += duration
                if stack:
                    stack[-1][1] += duration
                if not leaf:
                    self.spans.append((self._op, span_id, parent, name, start, end, own))
            if hook is not None:
                h0 = clock()
                hook(stats, args, result)
                if stack:  # keep inspection time out of the caller's self time
                    stack[-1][1] += clock() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {
            "stats": {name: s.as_dict() for name, s in self.stats.items()},
            "spans": [list(s) for s in self.spans],
        }

    # -- cProfile cross-check ---------------------------------------------

    def profile_check(self, profiler: cProfile.Profile) -> list:
        """Compare wrapper counts with cProfile's for every target.

        Returns one row per target: name, wrapper total and primitive
        calls, cProfile total and primitive calls.  A binding the tracer
        missed shows as a cProfile count above the wrapper's.
        """
        by_code = pstats.Stats(profiler).stats  # (file, line, name) -> (cc, nc, ...)
        rows = []
        for name, original in self._originals.items():
            code = original.__code__
            cc, nc = by_code.get((code.co_filename, code.co_firstlineno, code.co_name),
                                 (0, 0))[:2]
            s = self.stats[name]
            rows.append([name, s.calls, s.primitive, nc, cc])
        return rows


def _hook_simplify(stats, args, result):
    if args and args[0] == result:
        stats.canonical += 1


def _hook_zero(stats, args, result):
    if result.kind != "unknown":
        stats.decided += 1


def _hook_metric(stats, args, result):
    metric = args[0]
    stats.by_dim[metric.dim] = stats.by_dim.get(metric.dim, 0) + 1
    stats.keys.add(_metric_key(metric))


_HOOKS = {
    "expr.simplify": _hook_simplify,
    "expr.is_identically_zero": _hook_zero,
    "geometry.inverse": _hook_metric,
    "connection.christoffel": _hook_metric,
}
