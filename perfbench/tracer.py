"""Spans around hbspace's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function, in every `hbspace` module
namespace that binds it, and each traced method on its class, with a wrapper
that records a span: name, start, end, parent and an optional count.  Calls
between hbspace modules go through those namespaces, so internal calls get
spans too.  `restore` puts every original back.  Spans stay in memory until
the caller writes them out.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the durations of the root spans.
"""

import functools
import sys
import time

import numpy as np


# A count function sees the traced function, its arguments and its result.

def _size(fn, args, kwargs, result):
    return int(np.size(result))


def _one(fn, args, kwargs, result):
    return 1


def _witnesses(fn, args, kwargs, result):
    return len(result.infinite_witnesses)


def _lambdas(fn, args, kwargs, result):
    """The number of probe points in the (level, points) list log_radial_points returns."""
    return sum(int(np.size(lams)) for _, lams in result)


# (span name, module, attributes, (count name, count fn) or None, parent scope or None).
# An attribute "Class.method" is patched on the class, "*.method" on every class of the
# module that defines the method; a scoped span is recorded only under a parent of that name.
# Several entries may share a span name: the probe points kernel_ratio_scan makes are
# counted on its call to log_radial_points, whose self time stays in kernel_ratio_scan's.
# measures.l2mu_norm covers the L2(mu) norm at every level: the function, the measure's
# method and the per-component `l2` that kernel_ratio_scan calls for atoms and rays.
TARGETS = [
    ("cli.main", "hbspace.cli", ["main"], None, None),
    ("scenarios.build", "hbspace.scenarios", ["build"], None, None),
    ("scenarios.run_scenario", "hbspace.scenarios", ["run_scenario"], None, None),
    ("analyzers.verdicts", "hbspace.analyzers",
     ["direct_carleson_verdict", "reverse_carleson_verdict", "norm_equivalence_verdict"],
     None, None),
    ("analyzers.reverse_inf_scan", "hbspace.analyzers", ["reverse_inf_scan"], None, None),
    ("analyzers.carleson_sup_scan", "hbspace.analyzers", ["carleson_sup_scan"], None, None),
    ("analyzers.a2_check", "hbspace.analyzers", ["a2_check"],
     ("infinite_witnesses", _witnesses), None),
    ("analyzers.kernel_ratio_scan", "hbspace.analyzers", ["kernel_ratio_scan"], None, None),
    ("analyzers.kernel_ratio_scan", "hbspace.analyzers", ["log_radial_points"],
     ("lambdas", _lambdas), {"analyzers.kernel_ratio_scan"}),
    ("analyzers.corona_check", "hbspace.analyzers", ["corona_check"], None, None),
    ("analyzers.ess_inf_weighted", "hbspace.analyzers", ["ess_inf_weighted"], None, None),
    ("analyzers.symbol_reverse_feasibility", "hbspace.analyzers",
     ["symbol_reverse_feasibility"], None, None),
    ("measures.batch_window_masses", "hbspace.measures", ["DiskMeasure.batch_window_masses"],
     ("arcs", _size), None),
    ("measures.weighted", "hbspace.measures", ["DiskMeasure.weighted"], None, None),
    ("measures.arc_integral", "hbspace.measures", ["*.arc_integral"],
     ("arcs", _size), {"analyzers.a2_check"}),
    ("measures.l2mu_norm", "hbspace.measures", ["l2mu_norm", "DiskMeasure.l2_norm", "*.l2"],
     None, None),
    ("space.pythagorean_mate", "hbspace.space", ["pythagorean_mate"], ("calls", _one), None),
    ("space.classify_extremeness", "hbspace.space", ["classify_extremeness"], None, None),
    ("space.hb_norm_squared", "hbspace.space", ["hb_norm_squared"], ("calls", _one), None),
    ("space.taylor_b_over_a", "hbspace.space", ["taylor_b_over_a"], None, None),
    ("space.rational_falpha_decompose", "hbspace.space", ["rational_falpha_decompose"],
     None, None),
    ("functions.fejer_riesz", "hbspace.functions", ["fejer_riesz"], None, None),
    ("functions.outer_from_log_modulus", "hbspace.functions", ["outer_from_log_modulus"],
     None, None),
    ("circle.coanalytic_apply", "hbspace.circle", ["coanalytic_apply"], ("points", _size), None),
    ("circle.analytic_mul", "hbspace.circle", ["analytic_mul"], None, None),
]


def _layer_metrics():
    """(metric name, span name, "s" or "count") of every span-based per-layer metric."""
    out = []
    for name, _, _, count, _ in TARGETS:
        if (f"{name}.self_s", name, "s") not in out:
            out.append((f"{name}.self_s", name, "s"))
        if count is not None:
            out.append((f"{name}.{count[0]}", name, "count"))
    return out


def layer_metric_names():
    """(metric name, unit) of every span-based per-layer metric, in TARGETS order."""
    return [(metric, unit) for metric, _, unit in _layer_metrics()]


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.counts = [], [], [], [], []
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(0)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; the benchmark's own spans use this."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None, scope=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if scope is not None and (not stack or tracer.names[stack[-1]] not in scope):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.counts[idx] = count(fn, args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Wrap every target; the package and its modules must already be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hbspace" or key.startswith("hbspace."))]
        for name, module_name, attrs, count, scope in TARGETS:
            module = sys.modules[module_name]
            count_fn = None if count is None else count[1]
            for attr in attrs:
                owner, _, method = attr.rpartition(".")
                if not owner:
                    original = getattr(module, attr)
                    wrapper = self.wrap(original, name, count_fn, scope)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
                    continue
                classes = ([c for c in vars(module).values()
                            if isinstance(c, type) and c.__module__ == module_name
                            and method in vars(c)]
                           if owner == "*" else [getattr(module, owner)])
                for cls in classes:
                    self._patch(cls, method, self.wrap(vars(cls)[method], name, count_fn, scope))
        return self

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------------

    def self_times(self):
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def totals(self):
        """{span name: (total self time, total count)} over every recorded span."""
        out = {}
        for name, own, count in zip(self.names, self.self_times(), self.counts):
            t, c = out.get(name, (0.0, 0))
            out[name] = (t + own, c + count)
        return out

    def to_json(self):
        return {"spans": [
            {"name": n, "start": s, "end": e, "parent": p, "count": c}
            for n, s, e, p, c in zip(self.names, self.starts, self.ends, self.parents,
                                     self.counts)]}

    @classmethod
    def from_json(cls, doc):
        tracer = cls()
        for span in doc["spans"]:
            tracer.names.append(span["name"])
            tracer.starts.append(span["start"])
            tracer.ends.append(span["end"])
            tracer.parents.append(span["parent"])
            tracer.counts.append(span["count"])
        return tracer


def layer_metrics(tracers, rounds):
    """Per-round self times and counts of every TARGETS span, summed over `tracers`."""
    totals = {}
    for tracer in tracers:
        for name, (t, c) in tracer.totals().items():
            t0, c0 = totals.get(name, (0.0, 0))
            totals[name] = (t0 + t, c0 + c)
    out = {}
    for metric, name, unit in _layer_metrics():
        t, c = totals.get(name, (0.0, 0))
        out[metric] = (t if unit == "s" else c) / rounds
    return out
