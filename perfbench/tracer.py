"""Layer tracing installed from outside the package.

``Tracer.install()`` wraps every public function, and every public method
of a public class, defined in each permlab layer module, and rebinds each
name wherever a permlab module imported it, so calls between layers pass
through the wrappers too.  Private helpers are not wrapped: their time
counts toward the nearest wrapped caller.  The one exception is a bare
counter on ``jordan._connected_inside``, so that the candidate subsets
``jordan_sets`` scans are counted as they are scanned.

A wrapped call records a span (name, start, end, parent span, request id)
in memory.  ``perms`` functions are called about a million times per
battery run, so they keep aggregate counters only: calls, inclusive and
self seconds.  Self time is a call's duration minus the time spent in
wrapped calls nested inside it; a layer's self time sums over its calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# module -> layer; relations is counted with trees
LAYERS = {
    "perms": "perms",
    "groups": "groups",
    "blocks": "blocks",
    "jordan": "jordan",
    "wreath": "wreath",
    "incidence": "incidence",
    "orders": "orders",
    "trees": "trees",
    "relations": "trees",
    "fixtures": "fixtures",
    "suite": "suite",
    "cli": "cli",
}
LEAF_LAYERS = {"perms"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.self_s: dict[str, float] = defaultdict(float)  # layer -> s
        self.counts: dict[str, int] = defaultdict(int)
        self.request: int | None = None
        self._stack = [[-1, 0.0]]  # [span index, seconds in nested wrapped calls]
        self._seen_results: dict[int, object] = {}
        self._extras = {
            "groups.enumerate_elements": self._materialized,
            "groups.element_set": self._materialized,
            "incidence.matmul": lambda a, k, r: self._count(
                "incidence.matmul.mults", a[0].shape[0] * a[0].shape[1] * a[1].shape[1]
            ),
            "incidence.rank": lambda a, k, r: self._count(
                "incidence.rank.cells", a[0].shape[0] * a[0].shape[1]
            ),
        }

    # ------------------------------------------------------------ counters

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _materialized(self, args, kwargs, result) -> None:
        """Sum sizes of first-seen (cached) enumeration results."""
        if id(result) not in self._seen_results:
            self._seen_results[id(result)] = result  # keeps the id from reuse
            self.counts["groups.elements_materialized"] += len(result)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, layer: str, fn):
        stat = self.stats[name]
        self_s = self.self_s
        stack = self._stack
        spans = None if layer in LEAF_LAYERS else self.spans
        extra = self._extras.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [len(spans) if spans is not None else -1, 0.0]
            if spans is not None:
                spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                self_s[layer] += elapsed - frame[1]
                parent[1] += elapsed
                if spans is not None:
                    spans[frame[0]] = (name, start, end, parent[0], self.request)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return traced

    def _count_candidates(self, module) -> None:
        """Count the subsets jordan_sets actually tests for connectivity.

        jordan_sets calls the private _connected_inside once per candidate
        subset it scans, through the jordan module's global; only that
        binding is replaced, with a bare counter and no span.
        """
        test = module._connected_inside
        counts = self.counts

        def counted(*args):
            counts["jordan.jordan_sets.candidates"] += 1
            return test(*args)

        module._connected_inside = counted

    def install(self) -> None:
        replaced: dict[int, object] = {}
        self._count_candidates(importlib.import_module("permlab.jordan"))
        for module_name, layer in LAYERS.items():
            module = importlib.import_module(f"permlab.{module_name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for method_name, method in list(vars(obj).items()):
                        if method_name.startswith("_") or not inspect.isfunction(method):
                            continue
                        name = f"{module_name}.{method_name}"
                        self._claim(name)
                        setattr(obj, method_name, self._wrap(name, layer, method))
                elif callable(obj):
                    name = f"{module_name}.{attr}"
                    self._claim(name)
                    replaced[id(obj)] = self._wrap(name, layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "permlab" and not module_name.startswith("permlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _claim(self, name: str) -> None:
        if name in self.stats:
            raise RuntimeError(f"two wrapped callables share the name {name}")
        self.stats[name] = [0, 0.0, 0.0]

    # ------------------------------------------------------------- results

    def summary(self) -> dict:
        out = {}
        for name, (calls, seconds, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
            out[f"{name}.self_s"] = own
        for layer in set(LAYERS.values()):
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
