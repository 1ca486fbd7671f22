"""Spans around the public functions of each veerpoly module.

The wrappers are installed from outside the program: every module of
the package that binds a traced function, under any name (``from ...
import`` included), gets the wrapper in its place, so each call is
recorded once whichever module makes it.  Spans are kept in memory.
"""

import functools
import json
import math
import sys
import time

from workloads import WORKLOADS

ALL = frozenset(WORKLOADS)
CENSUS = frozenset(("census_scan", "census_verify"))
POLYS = frozenset(("census_verify", "fill_bundles"))
FILL = frozenset(("fill_bundles",))


def _matrix_cells(args, kwargs, result):
    """m x n of the integer matrix smith_normal_form receives."""
    a = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    return len(a) * ncols


def _residual_cells(args, kwargs, result):
    residual = result[0]
    return len(residual) * len(residual[0]) if residual else 0


def _nonzero(args, kwargs, result):
    return 0 if result.is_zero() else 1


# Traced function -> (workloads that must call it, per-layer metrics
# reported for it), in BENCHMARK.json order.  A class is traced at its
# __init__.
TRACED = {
    "census_io.parse_taut_sig": (ALL, ("calls", "self_s")),
    "taut.derive_coorientation": (ALL, ("self_s",)),
    "taut.edge_corner_cycles": (ALL, ("self_s",)),
    "taut.edge_orientation_data": (ALL, ("self_s",)),
    "taut.build_double_cover": (CENSUS, ("calls", "self_s")),
    "homology.smith_normal_form": (ALL, ("calls", "self_s", "cells")),
    "homology.dual_spanning_tree": (ALL, ("self_s",)),
    "homology.face_cocycle": (ALL, ("self_s",)),
    "invariants.Analysis": (ALL, ("calls", "per_entry", "self_s")),
    "invariants.build_taut_matrix": (POLYS, ("self_s",)),
    "invariants.build_alexander_matrix": (POLYS, ("self_s",)),
    "invariants.unit_pivot_reduce": (POLYS, ("self_s", "residual_cells")),
    "invariants.fitting_gcd": (POLYS, ("calls", "self_s")),
    "invariants.verify_identities": (frozenset(("census_verify",)),
                                     ("self_s",)),
    "laurent.maximal_minor_gcd_bruteforce": (POLYS, ("self_s",)),
    "laurent.determinant": (POLYS, ("calls", "self_s", "nonzero",
                                    "useful_ratio")),
    "laurent.gcd": (POLYS, ("calls", "self_s")),
    "laurent.exact_div": (POLYS, ("calls", "self_s")),
    "laurent.specialize": (POLYS, ("calls", "self_s")),
    "filling.vertex_links": (FILL, ("calls", "self_s")),
    "filling.filled_homology": (FILL, ("self_s",)),
    "filling.predict_filled_alexander": (FILL, ("self_s",)),
    "cli.entry_record": (CENSUS, ("samples", "p50_ms", "p95_ms", "self_s")),
    "cli.main": (ALL, ("self_s",)),
}

# Shape counters: traced function -> (stat, amount added per call).
COUNTERS = {
    "homology.smith_normal_form": ("cells", _matrix_cells),
    "invariants.unit_pivot_reduce": ("residual_cells", _residual_cells),
    "laurent.determinant": ("nonzero", _nonzero),
}

_UNIT_AND_BETTER = {
    "self_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p95_ms": ("ms", "lower"),
    "per_entry": ("ratio", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "samples": ("count", "higher"),
}


def per_layer_metrics():
    """[(name, unit, better)] of every per-layer metric."""
    return [("%s.%s" % (fn, stat),) + _UNIT_AND_BETTER.get(
                stat, ("count", "lower"))
            for fn, (_, stats) in TRACED.items() for stat in stats] + \
        [("trace.overhead_ratio", "ratio", "lower")]


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tracer:
    """Installs span wrappers and collects the spans of one traced pass.

    request is the signature of the entry being processed; a
    ``cli.entry_record`` span sets it from its argument."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.request = None
        self.counters = {}
        self._restore = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.request = None
        self.counters = {"%s.%s" % (name, stat): 0
                         for name, (stat, _) in COUNTERS.items()}

    def install(self):
        """Wrap every traced function at each name that binds it."""
        import veerpoly.cli  # noqa: F401  (loads every module)
        mods = [mod for name, mod in sys.modules.items()
                if name.startswith("veerpoly.")]
        for name in TRACED:
            modname, attr = name.split(".")
            target = getattr(sys.modules["veerpoly." + modname], attr)
            if isinstance(target, type):
                self._patch(target, "__init__", name)
                continue
            for mod in mods:
                for var, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, var, name)
        self.reset()

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name))

    def _wrapper(self, fn, name):
        tracer = self
        sets_request = name == "cli.entry_record"
        counter = COUNTERS.get(name)
        key = counter and "%s.%s" % (name, counter[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sets_request:
                tracer.request = args[0]
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((span_id, name, start, end,
                                     parent[0] if parent else None,
                                     tracer.request, frame[1]))
            if counter is not None:
                tracer.counters[key] += counter[1](args, kwargs, result)
            return result
        return wrapper

    def layer_stats(self, entries):
        """Per-layer metrics of the collected spans, except
        trace.overhead_ratio; entries is the number of entries the pass
        handled."""
        calls = {name: 0 for name in TRACED}
        self_s = {name: 0.0 for name in TRACED}
        record_ms = []
        for _, name, start, end, _, _, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            if name == "cli.entry_record":
                record_ms.append(1000 * (end - start))
        record_ms.sort()
        stats = {}
        for name in TRACED:
            stats[name + ".calls"] = calls[name]
            stats[name + ".self_s"] = self_s[name]
        stats.update(self.counters)
        det_calls = calls["laurent.determinant"]
        stats["laurent.determinant.useful_ratio"] = \
            stats["laurent.determinant.nonzero"] / det_calls \
            if det_calls else 0.0
        stats["invariants.Analysis.per_entry"] = \
            calls["invariants.Analysis"] / entries
        stats["cli.entry_record.samples"] = len(record_ms)
        stats["cli.entry_record.p50_ms"] = _percentile(record_ms, 0.50)
        stats["cli.entry_record.p95_ms"] = _percentile(record_ms, 0.95)
        return stats

    def write(self, path):
        """Write the collected spans as JSON lines: a header naming the
        fields, then one list per span, times in seconds from the first
        span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "request"]) + "\n")
            for span_id, name, start, end, parent, request, _ in \
                    sorted(self.spans):
                fh.write(json.dumps([span_id, name, start - t0, end - t0,
                                     parent, request]) + "\n")
