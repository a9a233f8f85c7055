"""Run-time tracing of the lrpairs layers from outside the package.

``Tracer.install`` wraps the public functions of the modules named in
``LAYERS`` at every place they are bound (the defining module, every other
lrpairs module that imported them by name, and the package namespace), plus
the few public methods listed in ``METHODS``.  Each wrapped call records one
span (name, start, end, parent) in memory.  ``Tracer.uninstall`` puts every
original object back.

Ring arithmetic (the ``RingElem`` operators) runs millions of times per run,
so it is not recorded as spans: each outermost operator call is counted and
its duration is added to the enclosing span's ``ring_s`` field.  Operators
are leaves (they call no wrapped function), so that time is part of the
enclosing span's covered time, exactly as a child span would be.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ring", "matrix", "tableaux", "realize", "generic", "extract", "cli")

# ``minor`` is the whole body of ``det`` and ``minor_order``; as a span of
# its own it would take all of their time into a metric nobody reads.
SKIP = {("matrix", "minor")}

METHODS = (
    ("generic", "MatrixPair", "invariants"),
    ("generic", "MatrixPair", "product"),
    ("generic", "GroupElement", "compose"),
    ("generic", "GroupElement", "is_invertible_over_ring"),
)

# RingElem operator -> counter it feeds.  Negation is additive.
RING_OPS = {
    "__add__": "ring.add_calls", "__radd__": "ring.add_calls",
    "__sub__": "ring.add_calls", "__rsub__": "ring.add_calls",
    "__neg__": "ring.add_calls",
    "__mul__": "ring.mul_calls", "__rmul__": "ring.mul_calls",
    "__pow__": "ring.mul_calls",
    "__truediv__": "ring.div_calls", "__rtruediv__": "ring.div_calls",
}

# span record fields
NAME, START, END, PARENT, RING_S = range(5)


class Tracer:
    """Spans and counters of one traced pass.

    ``spans`` holds ``[name, start, end, parent_index, ring_s]`` lists in
    start order; ``parent_index`` is -1 for a span opened outside any other.
    ``kept`` holds whatever the after-hooks keep for measuring later.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.kept = []
        self.ring_s = 0.0
        self._stack = []
        self._patches = []
        self._in_ring = [False]

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(self, out)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _ring_op(self, counter, fn):
        spans = self.spans
        stack = self._stack
        in_ring = self._in_ring
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            if in_ring[0]:
                # e.g. __rsub__ calling __sub__: timed by the outer call
                return fn(*args)
            in_ring[0] = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                in_ring[0] = False
                counters[counter] += 1
                self.ring_s += dt
                if stack:
                    spans[stack[-1]][RING_S] += dt

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self, after_hooks=None):
        """Wrap every public function of ``LAYERS`` at every import site.

        ``after_hooks`` maps a span name such as ``"matrix.minor_order_table"``
        to ``hook(tracer, result)``, called after the span closes."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after_hooks = after_hooks or {}
        modules = {layer: sys.modules["lrpairs." + layer] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or (layer, attr) in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span(name, obj, after_hooks.get(name)))
        sites = list(modules.values()) + [sys.modules["lrpairs"]]
        for site in sites:
            for key, val in list(vars(site).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(site, key, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{meth}"
            self._patch(cls, meth, self._span(name, vars(cls)[meth],
                                              after_hooks.get(name)))
        ring_cls = modules["ring"].RingElem
        for op, counter in RING_OPS.items():
            self._patch(ring_cls, op, self._ring_op(counter, vars(ring_cls)[op]))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ring_s"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def still_wrapped():
    """Names of lrpairs objects that are still tracer wrappers."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "lrpairs" and not modname.startswith("lrpairs."):
            continue
        for key, val in vars(mod).items():
            if getattr(val, "__wrapped_by_tracer__", False):
                found.append(f"{modname}.{key}")
            if inspect.isclass(val):
                found += [f"{modname}.{key}.{k}" for k, v in vars(val).items()
                          if getattr(v, "__wrapped_by_tracer__", False)]
    return found


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the part of it covered by child spans,
    minus the ring-operator time recorded directly under it."""
    children = defaultdict(list)
    for idx, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [rec[END] - rec[START]
            - _covered(children.get(idx, ()), rec[START], rec[END])
            - rec[RING_S]
            for idx, rec in enumerate(spans)]


def aggregate(spans):
    """{span name: (calls, total self seconds, total inclusive seconds)}."""
    out = {}
    for rec, own in zip(spans, self_times(spans)):
        calls, self_s, incl_s = out.get(rec[NAME], (0, 0.0, 0.0))
        out[rec[NAME]] = (calls + 1, self_s + own, incl_s + rec[END] - rec[START])
    return out


def inclusive_under(spans, name, ancestor):
    """Total duration of ``name`` spans that have an ``ancestor`` span above."""
    total = 0.0
    for rec in spans:
        if rec[NAME] != name:
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        if p >= 0:
            total += rec[END] - rec[START]
    return total
