"""Tracing of reptheory from outside the program.

Tracer wraps the public functions, the public methods and properties and
the arithmetic operators of the classes of the nine reptheory modules
(the layers), and rebinds every name that refers to an original
function, including names bound by ``from ... import`` in consumer
modules and in the package namespace. Nothing in the program changes on
disk; install() patches and uninstall() restores.

While installed, each call that crosses from one layer into another
opens a frame. A call into the same layer only counts. On exit a frame
adds its duration minus the time of its child frames to the layer's self
time. Calls into ``exact`` (Cyclotomic arithmetic, millions per job) are
aggregated into counts and self time only; every other crossing call,
and every job, is kept as a span (id, parent id, job id, layer, name,
start, end) in memory and written out by write().
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from time import perf_counter

PACKAGE = "reptheory"
LAYERS = ("exact", "linalg", "permgroup", "chartab", "symgrp", "rootsys",
          "quiverrep", "gl2fq", "cli")
AGGREGATED = ("exact",)
BENCH = "bench"

# Operators wrapped besides public names; other dunders are left alone.
_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
            "__eq__", "__hash__", "__str__", "__getitem__")

# Sizes summed alongside the call counts: name -> f(args, result).
_SIZES = {
    "linalg:rref": ("linalg.rref.cells", lambda args, res: args[0].rows * args[0].cols),
    "permgroup:PermGroup.__init__": ("permgroup.elements", lambda args, res: len(args[0].elements)),
    "rootsys:weyl_elements": ("rootsys.weyl_elements", lambda args, res: len(res) if res else 0),
    "cli:main": ("cli.out_bytes", lambda args, res: len(sys.stdout.getvalue().encode())
                 if hasattr(sys.stdout, "getvalue") else 0),
}

# Reported call counts: metric -> wrapped names whose calls it sums.
CALL_METRICS = {
    "exact.new.calls": ["Cyclotomic.__init__"],
    "exact.mul.calls": ["Cyclotomic.__mul__", "Cyclotomic.__rmul__"],
    "exact.add.calls": ["Cyclotomic.__add__", "Cyclotomic.__radd__"],
    "exact.conjugate.calls": ["Cyclotomic.conjugate"],
    "exact.inverse.calls": ["Cyclotomic.inverse"],
    "exact.reduced.calls": ["Cyclotomic.reduced"],
    "exact.json.calls": ["cyclotomic_to_json", "cyclotomic_from_json"],
    "linalg.rref.calls": ["rref"],
    "linalg.matmul.calls": ["Matrix.__mul__"],
    "linalg.det.calls": ["det"],
    "permgroup.groups.calls": ["PermGroup.__init__"],
    "symgrp.frobenius_character.calls": ["frobenius_character"],
    "symgrp.u_character.calls": ["u_character"],
    "chartab.inner_product.calls": ["inner_product"],
    "chartab.verify_table.calls": ["verify_table"],
    "gl2fq.inner_product.calls": ["GL2Table.inner_product"],
    "rootsys.reflect.calls": ["reflect"],
    "rootsys.classify.calls": ["classify"],
    "quiverrep.reflect_sink.calls": ["reflect_sink"],
    "quiverrep.reflect_source.calls": ["reflect_source"],
    "quiverrep.hom_dim.calls": ["hom_dim"],
}
SIZE_METRICS = [metric for metric, _ in _SIZES.values()]


def _public(name):
    return not name.startswith("_") or name in _DUNDERS


class Tracer:
    def __init__(self):
        self.counts = {}
        self.sizes = dict.fromkeys(SIZE_METRICS, 0)
        self.self_time = dict.fromkeys(LAYERS + (BENCH,), 0.0)
        self.spans = []
        self._ids = itertools.count(1)
        # frame: [layer, child time, span id, job id]
        self.stack = [[BENCH, 0.0, 0, 0]]
        self._patches = self._plan()

    # -- patch plan ------------------------------------------------------------

    def _plan(self):
        """List of (owner, attribute, original, wrapper) covering every
        binding of a wrapped callable in the package's loaded modules."""
        patches = []
        wrapper_of = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    patches += self._plan_class(layer, obj)
                elif callable(obj):
                    wrapper_of[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}:{name}"))
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapper_of.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, name, obj, hit[1]))
        return patches

    def _plan_class(self, layer, cls):
        patches = []
        for name, raw in list(vars(cls).items()):
            if not _public(name):
                continue
            key = f"{layer}:{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                patches.append((cls, name, raw, staticmethod(self._wrap(raw.__func__, layer, key))))
            elif isinstance(raw, property):
                patches.append((cls, name, raw, property(self._wrap(raw.fget, layer, key))))
            elif callable(raw) and not isinstance(raw, type):
                patches.append((cls, name, raw, self._wrap(raw, layer, key)))
        return patches

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, layer, key):
        counts = self.counts
        counts.setdefault(key, 0)
        self_time = self.self_time
        stack = self.stack
        spans = self.spans
        ids = self._ids
        keep = layer not in AGGREGATED
        size = _SIZES.get(key)
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            counts[key] += 1
            parent = stack[-1]
            if parent[0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0, next(ids) if keep else 0, parent[3]]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dur = t1 - t0
                    parent[1] += dur
                    self_time[layer] += dur - frame[1]
                    if keep:
                        spans.append((frame[2], parent[2], frame[3], layer, key, t0, t1))
            if size is not None:
                sizes[size[0]] += size[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- jobs ------------------------------------------------------------------------

    def run_job(self, job_id, label, fn):
        """Run fn() under a job span with the wrappers installed."""
        parent = self.stack[-1]
        frame = [BENCH, 0.0, next(self._ids), job_id]
        self.stack.append(frame)
        self.install()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.uninstall()
            self.stack.pop()
            parent[1] += t1 - t0
            self.self_time[BENCH] += (t1 - t0) - frame[1]
            self.spans.append((frame[2], parent[2], job_id, BENCH, f"job:{label}", t0, t1))

    # -- results ---------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: self time, named call counts, sizes."""
        out = {}
        for layer in LAYERS + (BENCH,):
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        for metric, names in CALL_METRICS.items():
            layer = metric.split(".")[0]
            total = sum(self.counts.get(f"{layer}:{n}", 0) for n in names)
            out[metric] = (total, "count")
        for metric in SIZE_METRICS:
            unit = "bytes" if metric.endswith("bytes") else "count"
            out[metric] = (self.sizes[metric], unit)
        return out

    def write(self, path, extra):
        record = dict(extra)
        record["counts"] = {k: v for k, v in sorted(self.counts.items()) if v}
        record["self_s"] = self.self_time
        record["span_fields"] = ["id", "parent", "job", "layer", "name", "start", "end"]
        record["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
