"""Span tracing of the library's layers from outside the library.

`Tracer.install()` wraps the public functions and methods of every layer
module and rebinds each wrapper at every module namespace that holds the
original, since `from .x import f` copies the reference.  Methods are
patched on their class, which every importer shares.  Each call records a
span (name id, parent span, start ns, end ns) in one flat in-memory array;
a few wrappers also count sizes (terms in and out, pairs kept, paths and
cylinders produced).  `uninstall()` restores every binding.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of its functions.
The trivial graph accessors in COUNT_ONLY are counted without a span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("scalars", "graph", "paths", "ckalg", "bimodule", "nest", "cocycle", "cli")

# Operator and constructor methods that count as public work.
DUNDERS = {
    "__init__": "init",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__neg__": "neg",
}

# Private cli helpers that hold the JSON load and emit costs.
EXTRA = {"cli": ("_load_json", "_emit")}

# Graph accessors are called millions of times and do almost nothing: they
# are counted, not spanned, so their time stays in the caller's self time.
COUNT_ONLY = {
    "graph.underlying",
    "graph.Graph.in_edges",
    "graph.Graph.out_edges",
    "graph.Graph.edge",
    "graph.Graph.range_of",
    "graph.Graph.source_of",
    "graph.OrderedGraph.pos",
    "paths.path_range",
    "paths.path_source",
}


def _sized(x):
    try:
        return len(x)
    except TypeError:
        return 0


# name -> (counter, function of (args, kwargs, result) giving the increment)
HOOKS = {
    "ckalg.AlgElement.init": (
        ("terms_in", lambda a, kw, r: _sized(a[2] if len(a) > 2 else kw.get("terms", ()))),
        ("terms_out", lambda a, kw, r: len(a[0].terms)),
    ),
    "ckalg.mono_product": (("kept", lambda a, kw, r: r is not None),),
    "paths.continuations": (("paths_out", lambda a, kw, r: len(r)),),
    "bimodule.SpectrumSet.from_cylinders": (
        ("cyl_in", lambda a, kw, r: _sized(a[2] if len(a) > 2 else kw.get("cylinders", ()))),
        ("cyl_out", lambda a, kw, r: len(r)),
    ),
}


class Tracer:
    def __init__(self, package_name="ckcalc"):
        self.package = package_name
        self.names = []
        self.spans = array("q")
        self.stack = [-1]
        self.counters = {}
        self.counted = {}
        self._plan = None
        self._saved = []

    # -- installation ---------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._count(fn, name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        nid = self._name_id(name)
        hooks = HOOKS.get(name, ())
        counters = self.counters
        for key, _ in hooks:
            counters.setdefault("%s.%s" % (name, key), 0)

        if hooks:
            def wrapper(*args, **kwargs):
                idx = len(spans) >> 2
                spans.extend((nid, stack[-1], clock(), 0))
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[(idx << 2) + 3] = clock()
                    stack.pop()
                for key, count in hooks:
                    counters["%s.%s" % (name, key)] += count(args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                idx = len(spans) >> 2
                spans.extend((nid, stack[-1], clock(), 0))
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[(idx << 2) + 3] = clock()
                    stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _count(self, fn, name):
        counted = self.counted
        counted[name] = 0

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _build_plan(self):
        """Decide every (namespace, attribute, original, wrapper) rebinding."""
        mods = {n: m for n, m in sys.modules.items()
                if n == self.package or n.startswith(self.package + ".")}
        by_id = {}
        class_patches = []
        for layer in LAYERS:
            mod = mods["%s.%s" % (self.package, layer)]
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if inspect.isfunction(obj) and public and obj.__module__ == mod.__name__:
                    if id(obj) not in by_id:
                        by_id[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (layer, attr)))
                elif inspect.isclass(obj) and public and obj.__module__ == mod.__name__:
                    class_patches.extend(self._class_plan(layer, obj))
        plan = list(class_patches)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    plan.append((mod, attr, obj, hit[1]))
        return plan

    def _class_plan(self, layer, cls):
        out = []
        done = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            label = DUNDERS.get(attr, attr)
            name = "%s.%s.%s" % (layer, cls.__name__, label)
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                wrapped = done.get(id(fn)) or self._wrap(fn, name)
                done[id(fn)] = wrapped
                out.append((cls, attr, raw, type(raw)(wrapped)))
            elif inspect.isfunction(raw):
                wrapped = done.get(id(raw)) or self._wrap(raw, name)
                done[id(raw)] = wrapped
                out.append((cls, attr, raw, wrapped))
        return out

    def install(self):
        if self._plan is None:
            self._plan = self._build_plan()
        for target, attr, _orig, wrapped in self._plan:
            setattr(target, attr, wrapped)

    def uninstall(self):
        for target, attr, orig, _wrapped in self._plan:
            setattr(target, attr, orig)

    # -- analysis -------------------------------------------------------

    def span_count(self):
        return len(self.spans) >> 2

    def aggregate(self):
        """Per-name calls and self ns, plus self ns of loaders and serializers
        running under cli.main."""
        spans = self.spans
        n = len(spans) >> 2
        child = array("q", bytes(8 * n))
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        nnames = len(self.names)
        calls = [0] * nnames
        self_ns = [0] * nnames
        main_ids = {i for i, nm in enumerate(self.names) if nm == "cli.main"}
        load_ids = {i for i, nm in enumerate(self.names)
                    if nm.endswith("_from_json_obj") or nm == "cli._load_json"}
        ser_ids = {i for i, nm in enumerate(self.names)
                   if nm.endswith("_to_json_obj") or nm == "cli._emit"}
        under_main = bytearray(n)
        load_ns = ser_ns = 0
        for i in range(n):
            nid = spans[4 * i]
            parent = spans[4 * i + 1]
            own = spans[4 * i + 3] - spans[4 * i + 2] - child[i]
            calls[nid] += 1
            self_ns[nid] += own
            if parent >= 0 and (under_main[parent] or spans[4 * parent] in main_ids):
                under_main[i] = 1
                if nid in load_ids:
                    load_ns += own
                elif nid in ser_ids:
                    ser_ns += own
        per_name = {nm: (c, 0) for nm, c in self.counted.items()}
        for nid, nm in enumerate(self.names):
            c, s = per_name.get(nm, (0, 0))
            per_name[nm] = (c + calls[nid], s + self_ns[nid])
        return per_name, load_ns, ser_ns

    def write(self, path):
        """Spans as raw little-endian int64 quadruples, names alongside."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(str(path) + ".names.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name_id", "parent", "start_ns", "end_ns"],
                       "names": self.names}, fh)
