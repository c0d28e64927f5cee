"""Opt-in span tracer for the benchmark's traced runs.

`Tracer.install()` replaces each wrapped public function of bmstab with a
recording wrapper, in every loaded bmstab module that binds the function
(and on the class, for methods).  A wrapper keeps one span (name, start,
end, parent) in memory per call; `write()` saves them as JSON lines when the
run ends.  A span's self time is its duration less the durations of its
direct children; the calls are single-threaded and nested, so the children
never overlap.  Counts that need more than a `len()` (run pairs) are taken
from the recorded arguments after the run, outside every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, post-call counter or None)
_TARGETS = (
    ("bmstab.scenarios", "generate_scenario", "generate", None),
    ("bmstab.vset", "LatticeSet.corner_points", "corner_points", "corners"),
    ("bmstab.minkowski", "convex_combination", "combine", "combine"),
    ("bmstab.minkowski", "deficit", "deficit", None),
    ("bmstab._roots", "nth_root_brackets", "roots", None),
    ("bmstab._hull", "hull_2d", "hull_build", "hull_points"),
    ("bmstab._hull", "hull_3d", "hull_build", "hull_points"),
    ("bmstab._hull", "polygon_area2", "hull_volume", None),
    ("bmstab._hull", "hull_volume6", "hull_volume", None),
    ("bmstab.convexity", "convex_hull", "convex_hull", None),
    ("bmstab.convexity", "lattice_polytope_overlap", "overlap", None),
    ("bmstab.convexity", "Polytope.contains", "contains", None),
    ("bmstab.stability", "hull_distance", "hull_distance", None),
    ("bmstab.stability", "constants", "constants", None),
    ("bmstab.stability", "check_stability", "check", None),
    ("bmstab.stability", "cos_pipeline", "cos", "cos"),
    ("bmstab.cli", "sweep", "sweep", "rows"),
)

# per-layer metric -> (unit, how it is read); "total:x" sums the durations of
# spans named x, "self:x" their self times, "calls:x" counts them, and
# "count:x" reads a counter.
PER_LAYER = {
    "scenarios.generate_s": ("s", "total:generate"),
    "vset.corner_points_s": ("s", "total:corner_points"),
    "vset.corners": ("count", "count:corners"),
    "minkowski.combine_s": ("s", "total:combine"),
    "minkowski.combine_calls": ("count", "calls:combine"),
    "minkowski.run_pairs": ("count", "count:run_pairs"),
    "minkowski.out_cells": ("count", "count:out_cells"),
    "minkowski.deficit_self_s": ("s", "self:deficit"),
    "roots.bracket_s": ("s", "total:roots"),
    "roots.calls": ("count", "calls:roots"),
    "hull.builds": ("count", "calls:hull_build"),
    "hull.points": ("count", "count:hull_points"),
    "hull.build_s": ("s", "total:hull_build"),
    "hull.volume_s": ("s", "total:hull_volume"),
    "convexity.convex_hull_s": ("s", "total:convex_hull"),
    "convexity.overlap_s": ("s", "total:overlap"),
    "convexity.contains_calls": ("count", "calls:contains"),
    "convexity.contains_s": ("s", "total:contains"),
    "stability.hull_distance_self_s": ("s", "self:hull_distance"),
    "stability.constants_s": ("s", "total:constants"),
    "stability.check_self_s": ("s", "self:check"),
    "stability.cos_self_s": ("s", "self:cos"),
    "stability.cos_cell_pairs": ("count", "count:cos_cell_pairs"),
    "stability.cos_inflation_steps": ("count", "count:cos_inflation_steps"),
    "cli.sweep_self_s": ("s", "self:sweep"),
    "cli.rows": ("count", "count:rows"),
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self.enabled = True
        self._stack = []
        self._combined = []      # (A, B) operands of convex_combination

    def install(self):
        """Wrap every target in each bmstab module (or class) binding it."""
        for modname, attr, span, counter in _TARGETS:
            owner = importlib.import_module(modname)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, name)
            wrapper = self._wrap(orig, span, counter)
            if path:
                setattr(owner, name, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if mname == "bmstab" or mname.startswith("bmstab."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, span, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent)
            if counter is not None:
                self._count(counter, args, res)
            return res
        return wrapper

    def _count(self, counter, args, res):
        c = self.counts
        if counter == "corners":
            c["corners"] += len(res)
        elif counter == "hull_points":
            c["hull_points"] += len(args[0])
        elif counter == "combine":
            c["out_cells"] += len(res.cells)
            self._combined.append((args[0], args[1]))
        elif counter == "cos":
            c["cos_cell_pairs"] += len(args[0].cells) * len(args[1].cells)
            c["cos_inflation_steps"] += round(math.log2(res["inflation_c"])) + 1
        elif counter == "rows":
            c["rows"] += res.count("\n") - 1

    def per_layer(self) -> dict:
        """Every PER_LAYER metric, 0 for layers that did not run."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), kids in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - kids
            calls[name] += 1
        counts = dict(self.counts)
        counts["run_pairs"] = self._run_pairs()
        read = {"total": total, "self": own, "calls": calls, "count": counts}
        out = {}
        for metric, (unit, how) in PER_LAYER.items():
            kind, key = how.split(":")
            out[metric] = {"value": read[kind].get(key, 0), "unit": unit}
        return out

    def _run_pairs(self) -> int:
        """Run pairs the fiber-run engine combines: last-axis runs of A times
        runs of B, both on their common lattice."""
        memo = {}

        def runs(E, m):
            key = (id(E), m)
            if key not in memo:
                c = np.array(sorted(E.cells), dtype=np.int64).reshape(-1, E.dim)
                brk = np.ones(len(c), dtype=bool)
                brk[1:] = ((c[1:, :-1] != c[:-1, :-1]).any(axis=1)
                           | (c[1:, -1] != c[:-1, -1] + 1))
                # refining by k turns each run into k^(n-1) runs
                memo[key] = int(brk.sum()) * (m // E.denom) ** (E.dim - 1)
            return memo[key]

        pairs = 0
        for A, B in self._combined:
            m = math.lcm(A.denom, B.denom)
            pairs += runs(A, m) * runs(B, m)
        return pairs

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
