"""Per-layer spans recorded from outside ratdyn.

``Tracer.install()`` wraps the public entry points of every layer module:
public module functions (in every ratdyn module that imported them by
name) and the public and arithmetic methods of the classes each module
defines (once, on the class).  ``__eq__``, ``__hash__`` and ordering are
left alone: they run inside dict lookups, and wrapping them would time
the tracer more than the program.  Each call appends a span (name, start,
end, parent) to in-memory columns; ``report()`` derives self times (a
span's duration minus its children's) and the metrics, and ``dump()``
writes the spans out.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "polynomials", "ratmaps", "bipolys", "factoring", "numberfields", "series",
    "places", "orbifolds", "mobius", "classify", "decompose",
    "curves", "search", "parser", "cli",
)

# metric name -> attribute path inside the layer module
ENTRY_POINTS = {
    "polynomials.gcd": "UniPoly.gcd",
    "polynomials.divmod": "UniPoly.__divmod__",
    "polynomials.mul": "UniPoly.__mul__",
    "polynomials.resultant": "UniPoly.resultant",
    "ratmaps.init": "RatMap.__init__",
    "ratmaps.compose": "RatMap.compose",
    "bipolys.resultant_x": "resultant_x",
    "bipolys.gcd_x": "gcd_x",
    "factoring.factor_univariate": "factor_univariate",
    "factoring.factor_bivariate": "factor_bivariate",
    "numberfields.kp_gcd": "kp_gcd",
    "places.image_place": "image_place",
    "places.preimage_places": "preimage_places",
    "places.fiber_partition": "fiber_partition",
    "orbifolds.pullback": "pullback",
    "mobius.conjugacy_transporters": "conjugacy_transporters",
    "classify.maximal_orbifold": "maximal_orbifold",
    "decompose.all_left_factors": "all_left_factors",
    "decompose.left_divide": "left_divide",
    "curves.implicitize": "implicitize",
    "curves.is_invariant": "is_invariant",
}

MEMOISED = (
    "factoring.factor_univariate",
    "places.image_place",
    "places.preimage_places",
    "places.fiber_partition",
    "mobius.conjugacy_transporters",
    "classify.maximal_orbifold",
)

FUNNEL = ("search.left_factors", "search.transporters", "search.candidates", "search.curves", "search.yield")

# search entry points that open a funnel; the counters below count only
# inside them
SEARCH_ROOTS = ("search.find_invariant_curves", "search.commuting_route")
FUNNEL_SOURCES = {
    "decompose.all_left_factors": "search.left_factors",
    "mobius.conjugacy_transporters": "search.transporters",
    "curves.implicitize": "search.candidates",
}

_METHODS = {
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    "__divmod__", "__floordiv__", "__mod__",
}


class Tracer:
    def __init__(self):
        self.names = []  # span name index -> "layer.attr"
        self.name_col = array("l")
        self.parent_col = array("l")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack = [-1]
        self.seen = {}  # memoised entry -> set of argument tuples
        self.repeats = {}
        self.funnel = dict.fromkeys(FUNNEL[:-1], 0)
        self.search_depth = 0
        self._undo = []

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        wrapped = span
        if name in MEMOISED:
            wrapped = self._repeat_counter(span, name)
        if name in FUNNEL_SOURCES:
            wrapped = self._funnel_counter(wrapped, FUNNEL_SOURCES[name])
        if name in SEARCH_ROOTS:
            wrapped = self._search_root(wrapped)
        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        wrapped.__wrapped__ = fn
        return wrapped

    def _repeat_counter(self, inner, name):
        seen = self.seen.setdefault(name, set())
        self.repeats[name] = [0, 0]
        tally = self.repeats[name]

        def counted(*args, **kwargs):
            key = (args, tuple(sorted(kwargs.items())))
            tally[0] += 1
            if key in seen:
                tally[1] += 1
            else:
                seen.add(key)
            return inner(*args, **kwargs)

        return counted

    def _funnel_counter(self, inner, counter):
        funnel = self.funnel

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self.search_depth:
                funnel[counter] += 1 if counter == "search.candidates" else len(out)
            return out

        return counted

    def _search_root(self, inner):
        funnel = self.funnel

        def root(*args, **kwargs):
            self.search_depth += 1
            try:
                out = inner(*args, **kwargs)
            finally:
                self.search_depth -= 1
            if not self.search_depth:
                funnel["search.curves"] += len(out.curves)
            return out

        return root

    def install(self):
        """Wrap every layer's entry points."""
        modules = {layer: importlib.import_module(f"ratdyn.{layer}") for layer in LAYERS}
        named = {}
        for metric, path in ENTRY_POINTS.items():
            layer = metric.split(".")[0]
            named[(layer, path)] = metric
        everywhere = [m for n, m in sys.modules.items() if n == "ratdyn" or n.startswith("ratdyn.")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrapper(obj, named.get((layer, attr), f"{layer}.{attr}"))
                    for other in everywhere:
                        for a, v in list(vars(other).items()):
                            if v is obj:
                                self._set(other, a, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, named)
        return self

    def _wrap_class(self, layer, cls, named):
        by_fn = {}
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _METHODS:
                continue
            fn = val.__func__ if isinstance(val, staticmethod) else val
            if not inspect.isfunction(fn):
                continue
            path = f"{cls.__name__}.{attr}"
            key = id(fn)
            if key not in by_fn:
                by_fn[key] = self._wrapper(fn, named.get((layer, path), f"{layer}.{path}"))
            w = by_fn[key]
            self._set(cls, attr, staticmethod(w) if isinstance(val, staticmethod) else w)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def report(self):
        """Per-layer metrics of everything recorded so far."""
        n = len(self.name_col)
        dur = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent_col[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_col[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for entry in ENTRY_POINTS:
            out[f"{entry}.calls"] = 0
            out[f"{entry}.self_s"] = 0.0
        for k, name in enumerate(self.names):
            layer = name.split(".")[0]
            out[f"{layer}.calls"] += calls[k]
            out[f"{layer}.self_s"] += self_s[k]
            if name in ENTRY_POINTS:
                out[f"{name}.calls"] += calls[k]
                out[f"{name}.self_s"] += self_s[k]
        for entry in MEMOISED:
            total, repeated = self.repeats.get(entry, (0, 0))
            out[f"{entry}.repeat_ratio"] = repeated / total if total else 0.0
        out.update(self.funnel)
        cand = self.funnel["search.candidates"]
        out["search.yield"] = self.funnel["search.curves"] / cand if cand else 0.0
        return out

    def dump(self, path: Path):
        """Write the spans: a JSON header with the span names, and the four
        columns (name index, parent span, start, end) as raw machine arrays,
        one after another, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name_col),
            "columns": [["name", self.name_col.typecode], ["parent", self.parent_col.typecode],
                        ["start", self.start_col.typecode], ["end", self.end_col.typecode]],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with gzip.open(path.with_suffix(".bin.gz"), "wb", compresslevel=1) as fh:
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                fh.write(col.tobytes())
