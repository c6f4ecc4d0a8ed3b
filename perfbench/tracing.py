"""Spans around dctkit's public functions, patched in from outside.

``Tracer.patched()`` replaces every public function and method of the
layer modules with a wrapper that records a span (name, start, end,
parent) and restores the originals on exit; nothing under ``src/``
changes.  A function is rebound on its defining module and on every
dctkit module that imported the name, so calls between layers are seen.
Spans stay in memory; ``take_pass`` folds them into per-pass totals.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

LAYERS = (
    "exactlin",
    "algebra",
    "repcat",
    "homological",
    "approx",
    "dexact",
    "artheory",
    "workspace",
)

# Dunder methods that do work worth a span; the rest (eq, hash, repr...) do not.
_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__", "__neg__", "__mul__"}

# Span names are "<layer>.<function>" or "<layer>.<Class>.<method>".
EXACTLIN_CALLS = {
    "exactlin." + f
    for f in (
        "rref", "rank", "kernel_basis", "solve", "inverse", "image_basis",
        "canonical_basis", "intersect", "subspace_leq", "quotient",
    )
}
SCANS = {
    "repcat." + f
    for f in ("nontrivial_idempotent", "find_isomorphism", "is_radical_morphism")
}
RESOLUTION_PREFIXES = ("homological.resolution", "homological.syzygy", "homological.ProjResolution.")


def self_times(durations: List[float], parents: List[int]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(durations)
    for dur, parent in zip(durations, parents):
        if parent >= 0:
            covered[parent] += dur
    return [dur - c for dur, c in zip(durations, covered)]


class Tracer:
    """Records spans and counters for the calls made while it is patched in."""

    def __init__(self):
        self.names: List[str] = []  # span-name table, indexed by name id
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        self.clear()

    def clear(self):
        # Compact arrays: a traced pass of family-fields opens about 10^6 spans.
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_first_span: List[int] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.cells: List[int] = []
        self.seen_hom = set()
        self.seen_ext = set()
        self.pinned: List[object] = []

    def begin_task(self):
        """Start of one task: repeat ratios are measured within a task."""
        self.task_first_span.append(len(self.start))
        self.seen_hom = set()
        self.seen_ext = set()
        self.pinned = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, cap_type):
        nid = self._name_id(name, layer)
        hook = self._hook_for(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            if hook is not None:
                hook(args)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except cap_type as exc:
                if not hasattr(exc, "_perfbench_layer"):
                    exc._perfbench_layer = layer
                    tracer.counts[layer + ".cap_exceeded"] += 1
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _hook_for(self, name: str):
        if name in EXACTLIN_CALLS:
            def cells(args):
                m = args[0]
                self.cells.append(m.data.shape[0] * m.data.shape[1])
            return cells
        if name == "exactlin.Matrix.__init__":
            def matrix_new(args):
                self.counts["exactlin.matrix_new"] += 1
            return matrix_new
        if name == "repcat.Morphism.__init__":
            def morphism_new(args):
                self.counts["repcat.morphism_new"] += 1
            return morphism_new
        if name == "repcat.hom_basis":
            def hom_seen(args):
                key = (id(args[0]), id(args[1]))
                self.counts["repcat.hom_basis.calls"] += 1
                if key in self.seen_hom:
                    self.counts["repcat.hom_basis.repeats"] += 1
                else:
                    self.seen_hom.add(key)
                    self.pinned.append(args[:2])
            return hom_seen
        if name == "homological.ext_space":
            def ext_seen(args):
                key = (id(args[0]), id(args[1]), args[2])
                self.counts["homological.ext_space.calls"] += 1
                if key in self.seen_ext:
                    self.counts["homological.ext_space.repeats"] += 1
                else:
                    self.seen_ext.add(key)
                    self.pinned.append(args[:2])
            return ext_seen
        return None

    @contextmanager
    def patched(self, package):
        """Swap in wrappers for every layer's public callables, then restore."""
        from dctkit.errors import CapExceeded

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        undo = []
        try:
            for layer in LAYERS:
                mod = modules[f"{package.__name__}.{layer}"]
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                        continue
                    if isinstance(value, type):
                        self._patch_class(value, layer, CapExceeded, undo)
                    elif callable(value):
                        wrapper = self._wrap(value, layer, f"{layer}.{attr}", CapExceeded)
                        for other in modules.values():
                            if vars(other).get(attr) is value:
                                undo.append((other, attr, value))
                                setattr(other, attr, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _patch_class(self, cls, layer, cap_type, undo):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapper = type(value)(self._wrap(value.__func__, layer, name, cap_type))
            elif callable(value) and not isinstance(value, type):
                wrapper = self._wrap(value, layer, name, cap_type)
            else:
                continue
            undo.append((cls, attr, value))
            setattr(cls, attr, wrapper)

    # -- aggregation ---------------------------------------------------------

    def take_pass(self) -> dict:
        """Fold the recorded spans into totals for one pass, then forget them."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        selfs = self_times(durations, self.parent)
        by_name_self: Dict[str, float] = defaultdict(float)
        by_name_total: Dict[str, float] = defaultdict(float)
        by_name_calls: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            by_name_self[name] += selfs[i]
            by_name_calls[name] += 1
            # Total time excludes nested calls of the same function.
            parent = self.parent[i]
            if parent < 0 or self.span_name[parent] != nid:
                by_name_total[name] += durations[i]
        layer_self: Dict[str, float] = defaultdict(float)
        for name, value in by_name_self.items():
            layer_self[self.layer_of[self._ids[name]]] += value
        summary = {
            "self": dict(by_name_self),
            "total": dict(by_name_total),
            "calls": dict(by_name_calls),
            "layer_self": dict(layer_self),
            "counts": dict(self.counts),
            "cells": list(self.cells),
        }
        self.clear()
        return summary


def write_spans(path, tracer: Tracer) -> None:
    """Write the tracer's spans as numpy arrays; times are seconds from the first.

    Load with ``numpy.load(path)``: ``names``/``layers`` index ``span_name``,
    and ``parent`` is -1 for a span opened directly by the benchmark.
    """
    import numpy as np

    start = np.array(tracer.start, dtype=np.float64)
    t0 = start[0] if len(start) else 0.0
    np.savez(
        path,
        names=np.array(tracer.names),
        layers=np.array(tracer.layer_of),
        span_name=np.array(tracer.span_name, dtype=np.int32),
        start=start - t0,
        end=np.array(tracer.end, dtype=np.float64) - t0,
        parent=np.array(tracer.parent, dtype=np.int32),
        task_first_span=np.array(tracer.task_first_span, dtype=np.int64),
    )


def layer_metrics(passes: List[dict]) -> Dict[str, float]:
    """Per-pass means of the per-layer figures over the traced passes."""
    k = len(passes)

    def per_pass(fn):
        return sum(fn(p) for p in passes) / k

    def self_of(names):
        return lambda p: sum(p["self"].get(n, 0.0) for n in names)

    def calls_of(names):
        return lambda p: sum(p["calls"].get(n, 0) for n in names)

    def count(key):
        return lambda p: p["counts"].get(key, 0)

    def ratio(rep, calls):
        total = sum(p["counts"].get(calls, 0) for p in passes)
        return sum(p["counts"].get(rep, 0) for p in passes) / total if total else 0.0

    cells = sorted(c for p in passes for c in p["cells"] if c)  # non-empty matrices
    resolution_names = {
        n for p in passes for n in p["self"] if n.startswith(RESOLUTION_PREFIXES)
    }
    m = {
        "exactlin.self_s": per_pass(lambda p: p["layer_self"].get("exactlin", 0.0)),
        "exactlin.calls": per_pass(calls_of(EXACTLIN_CALLS)),
        "exactlin.matrix_new": per_pass(count("exactlin.matrix_new")),
        "exactlin.cells_p50": float(statistics.median(cells)) if cells else 0.0,
        "exactlin.cells_max": float(cells[-1]) if cells else 0.0,
        "algebra.build_s": per_pass(lambda p: p["total"].get("algebra.build_algebra", 0.0)),
        "repcat.self_s": per_pass(lambda p: p["layer_self"].get("repcat", 0.0)),
        "repcat.hom_basis.calls": per_pass(count("repcat.hom_basis.calls")),
        "repcat.hom_basis.self_s": per_pass(self_of({"repcat.hom_basis"})),
        "repcat.hom_basis.repeat_ratio": ratio("repcat.hom_basis.repeats", "repcat.hom_basis.calls"),
        "repcat.morphism_new": per_pass(count("repcat.morphism_new")),
        "repcat.scan.calls": per_pass(calls_of(SCANS)),
        "repcat.scan.self_s": per_pass(self_of(SCANS)),
        "repcat.cap_exceeded": per_pass(count("repcat.cap_exceeded")),
        "homological.self_s": per_pass(lambda p: p["layer_self"].get("homological", 0.0)),
        "homological.ext_space.calls": per_pass(count("homological.ext_space.calls")),
        "homological.ext_space.repeat_ratio": ratio(
            "homological.ext_space.repeats", "homological.ext_space.calls"
        ),
        "homological.resolution.self_s": per_pass(self_of(resolution_names)),
        "homological.tau_d.calls": per_pass(calls_of({"homological.tau_d"})),
        "approx.self_s": per_pass(lambda p: p["layer_self"].get("approx", 0.0)),
        "approx.right_minimalize.calls": per_pass(calls_of({"approx.right_minimalize"})),
        "approx.right_minimalize.self_s": per_pass(self_of({"approx.right_minimalize"})),
        "approx.rad_hom_basis.calls": per_pass(calls_of({"approx.rad_hom_basis"})),
        "approx.contains.calls": per_pass(calls_of({"approx.AddCategory.contains"})),
        "approx.cap_exceeded": per_pass(count("approx.cap_exceeded")),
        "dexact.self_s": per_pass(lambda p: p["layer_self"].get("dexact", 0.0)),
        "dexact.build_left_d_exact.self_s": per_pass(self_of({"dexact.build_left_d_exact"})),
        "artheory.self_s": per_pass(lambda p: p["layer_self"].get("artheory", 0.0)),
        "artheory.enumerate.self_s": per_pass(self_of({"artheory.enumerate_indecomposables"})),
        "artheory.cap_exceeded": per_pass(count("artheory.cap_exceeded")),
        "workspace.parse_s": per_pass(lambda p: p["total"].get("workspace.parse", 0.0)),
    }
    return m
