"""Spans around calls into each module's public functions.

``install`` wraps the functions named in ``METRICS`` and rebinds every
name that refers to them: the defining module's and each ``from . import``
copy in the other modules and in the package namespace, so calls between
modules are seen as well as calls from the benchmark. Spans stay in memory until
the worker ends. Nothing in the package itself is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# The traced functions, as <module>.<function>, and the per-layer metrics
# reported for each, in BENCHMARK.json order. Every name of a work count
# (the metrics other than s, self_s and calls) has a counter in WORK.
METRICS = (
    ("compop.transform_profile", ("s", "calls")),
    ("compop.log_berezin_compop", ("s", "self_s", "calls")),
    ("funcspace.log_abs", ("s", "calls", "points")),
    ("compop.pullback_measure", ("s", "atoms")),
    ("compop.classify_compop", ("s", "self_s", "calls")),
    ("carleson.classify_carleson", ("s", "self_s", "calls", "atoms_in")),
    ("measures.ball_mass_many", ("s", "calls", "centres")),
    ("measures.discretize", ("s", "atoms")),
    ("measures.averaging_sequence", ("s",)),
    ("geometry.make_lattice", ("s", "calls", "centres")),
    ("quadrature.integrate_gaussian", ("s", "calls", "points")),
    ("quadrature.sup_field_norm", ("s", "points")),
    ("funcspace.fock_sobolev_norm", ("s", "self_s", "calls")),
)

# Work done by one call, from (args, kwargs, result).
WORK = {
    "funcspace.log_abs": lambda a, k, r: len(a[1] if len(a) > 1 else k["pts"]),
    "compop.pullback_measure": lambda a, k, r: len(r),
    "carleson.classify_carleson": lambda a, k, r: _atoms_in(a[0] if a else k["mu"]),
    "measures.ball_mass_many": lambda a, k, r: len(r),
    "measures.discretize": lambda a, k, r: len(r),
    "geometry.make_lattice": lambda a, k, r: len(r),
}
# These take a ScalarField first; its integrand evaluations are counted by
# wrapping the field's ``evaluate`` before the call is handed on.
FIELD_POINTS = ("quadrature.integrate_gaussian", "quadrature.sup_field_norm")


def metric_names() -> list:
    return [(f"{key}.{what}", "s" if what in ("s", "self_s") else "count")
            for key, whats in METRICS for what in whats]


def _atoms_in(mu) -> int:
    """Atoms of an input measure; a density has none."""
    return len(mu) if hasattr(mu, "weights") else 0


class Tracer:
    """Records spans as [name, start, end, parent index, phase, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = "setup"

    def wrap(self, key: str, fn):
        work = WORK.get(key)
        counts_field = key in FIELD_POINTS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.phase, 0]
            if counts_field:
                field = args[0]
                inner = field.evaluate

                def evaluate(pts):
                    span[5] += len(pts)
                    return inner(pts)

                args = (dataclasses.replace(field, evaluate=evaluate),) + args[1:]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for key, _ in METRICS:
            mod_name, name = key.split(".")
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], name)
            wrapper = self.wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per-layer totals over all spans, and the pass-phase self time.

        Inclusive time sums each call's span; self time subtracts the
        spans of the wrapped calls made directly inside it.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0}
        totals = {}
        pass_self = 0.0
        for i, (name, start, end, parent, phase, work) in enumerate(self.spans):
            t = totals.setdefault(name, dict(empty))
            own = end - start - child_time[i]
            t["s"] += end - start
            t["self_s"] += own
            t["calls"] += 1
            t["work"] += work
            if phase == "pass":
                pass_self += own
        metrics = {}
        for key, whats in METRICS:
            t = totals.get(key, empty)
            for what in whats:
                metrics[f"{key}.{what}"] = t[what] if what in t else t["work"]
        return {"metrics": metrics, "pass_self_s": pass_self}

    @staticmethod
    def span_cost(calls: int = 20_000) -> float:
        """Seconds one traced call adds to a direct call, timed on a no-op."""

        def noop():
            return None

        traced = Tracer().wrap("noop", noop)
        clock = time.perf_counter
        t = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t
        t = clock()
        for _ in range(calls):
            traced()
        return max(0.0, (clock() - t - bare) / calls)

    def span_records(self) -> list:
        keys = ("name", "start", "end", "parent", "phase", "work")
        return [dict(zip(keys, span)) for span in self.spans]
