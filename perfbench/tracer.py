"""Outside-in tracer: wraps cohlat's public layer functions without editing them.

Each function named in layers.json is replaced by a wrapper that records a
span (name, start, end, parent) and rebound in every cohlat module that
imported it, so calls between modules go through the wrapper too. Spans stay
in memory; per-layer metrics are computed, and the spans written, only after
the timed part of a run.
"""
import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS_FILE = Path(__file__).with_name("layers.json")
BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# spans that stand for the whole request rather than a layer beneath it
ENTRY_SPANS = {"cli.main"}


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text())


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, as BENCHMARK.json lists them."""
    bench = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span -> function(args, kwargs, result) -> {counter: increment}; called on
# return, outside the span's own interval
COUNTERS = {
    "linalg.howell_form": lambda a, kw, out: {
        "cells": int(np.asarray(_arg(a, kw, 0, "a")).size),
        "calls_k1": int(_arg(a, kw, 1, "k") == 1)},
    "linalg.kernel_basis_modk": lambda a, kw, out: {
        "cells": int(_arg(a, kw, 0, "mat").size)},
    "linalg.ModKSolver.solve_many": lambda a, kw, out: {
        "rows": int(out[0].shape[0])},
    "linalg.row_hnf": lambda a, kw, out: {
        "object_results": int(out[0].dtype == object)},
    "lattices.integral_cocycles": lambda a, kw, out: {
        "unknowns": int(out[0].shape[1])},
    "lattices.coflasque_resolution": lambda a, kw, out: {
        "cover_rank": int(out.cover.rank),
        "kernel_rank": int(out.kernel_lattice.rank)},
}


class Tracer:
    def __init__(self, layers: dict):
        self.layers = layers
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counters = defaultdict(lambda: defaultdict(int))
        # minimal_resolution results seen, and their depth when last seen
        self._complexes = weakref.WeakKeyDictionary()

    def install(self):
        """Wrap every layers.json target and rebind it wherever it is bound."""
        for span, spec in self.layers["spans"].items():
            modname, attr = spec["target"].split(":")
            module = importlib.import_module(modname)
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[fname]
                if isinstance(raw, classmethod):
                    setattr(cls, fname,
                            classmethod(self._wrap(span, raw.__func__)))
                else:
                    setattr(cls, fname, self._wrap(span, raw))
                continue
            original = getattr(module, fname)
            wrapped = self._wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if name != "cohlat" and not name.startswith("cohlat."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, span, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        counter = COUNTERS.get(span)
        if span == "resolution.minimal_resolution":
            counter = self._resolution_hit
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, inc in counter(args, kwargs, out).items():
                    self.counters[span][key] += inc
            return out
        return traced

    def _resolution_hit(self, args, kwargs, cx):
        """A hit neither created nor deepened a complex."""
        depth = len(cx.ranks)
        hit = self._complexes.get(cx) == depth
        self._complexes[cx] = depth
        return {"hits": int(hit)}

    def metrics(self, names, window_start_ns: int, window_end_ns: int
                ) -> dict:
        """The named per-layer metrics over the spans recorded so far.

        Self times and counts cover set-up and the timed part; coverage only
        the timed window.
        """
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        covered = 0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            self_ns[name] += dur - child[i]
            calls[name] += 1
            p = self.parents[i]
            top = p < 0 or self.names[p] in ENTRY_SPANS
            if (top and name not in ENTRY_SPANS
                    and self.starts[i] >= window_start_ns
                    and self.ends[i] <= window_end_ns):
                covered += dur
        out = {
            "resolution.complexes_held": len(self._complexes),
            "trace.coverage": covered / max(1, window_end_ns - window_start_ns),
        }
        for name in names:
            if name in out:
                continue
            span, measure = name.rsplit(".", 1)
            if span not in self.layers["spans"]:
                continue
            if measure == "self_s":
                out[name] = self_ns[span] / 1e9
            elif measure == "calls":
                out[name] = calls[span]
            elif measure == "hit_ratio":
                hits = self.counters[span]["hits"]
                out[name] = hits / calls[span] if calls[span] else 0.0
            else:
                out[name] = self.counters[span][measure]
        return out

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps({"name": self.names[i],
                                     "start_ns": self.starts[i],
                                     "end_ns": self.ends[i],
                                     "parent": self.parents[i]}) + "\n")
