"""Per-layer tracing of the moebius library from outside its source.

`Tracer.install()` replaces every public function of each layer module
with a wrapper that records one span (name, start, end, parent), in every
`moebius.*` namespace that holds the function and in the acceptance-suite
table `checks.CRITERIA`.  Wrappers sit outside `functools.lru_cache`, so
cache hits are spans too.  `Dyadic` construction and ordering comparisons
are counted rather than spanned: there are millions of them.  Spans stay
in memory until `write_spans`; `metrics()` derives the per-layer numbers.
"""

from __future__ import annotations

import array
import inspect
import itertools
import json
import sys
from time import perf_counter_ns

# Bottom-up order of the spanned layers; `dyadic` is counted, not spanned.
LAYERS = ("band", "cluster", "walk", "strings", "equiv", "linalg", "quotient", "render", "checks")

# Private functions spanned because a per-layer count is defined on them.
PRIVATE_TARGETS = {
    "strings": ("_occurrences", "_hom_word_to_rep"),
    "linalg": ("_rref",),
}

# Per-layer count metric -> span name whose calls it counts.
CALL_COUNTS = {
    "band.normal_form.calls": "band.normal_form",
    "band.hom_c_configs.calls": "band.hom_c_configs",
    "cluster.enum.calls": "cluster.enum_in_rect_with_reps",
    "walk.hom_ct_dim.calls": "walk.hom_ct_dim",
    "walk.compose_basic_nonzero.calls": "walk.compose_basic_nonzero",
    "strings.occurrence_scans": "strings._occurrences",
    "strings.overlap.calls": "strings.overlap",
    "strings.decompose.calls": "strings.decompose_rep",
    "strings.decompose.candidates": "strings._hom_word_to_rep",
    "equiv.obj_to_string.calls": "equiv.obj_to_string",
    "linalg.rref_calls": "linalg._rref",
    "quotient.kernel.calls": "quotient.kernel",
    "quotient.cokernel.calls": "quotient.cokernel",
    "quotient.classify.calls": "quotient.classify",
    "quotient.compose.calls": "quotient.compose",
    "render.calls": "render.render",
}

# Hit ratio metric -> (module, cached function).
HIT_RATIOS = {
    "cluster.enum.hit_ratio": ("cluster", "enum_in_rect_with_reps"),
    "walk.hom_ct_dim.hit_ratio": ("walk", "hom_ct_dim"),
}


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "moebius" or name.startswith("moebius."))]


def lru_caches() -> list:
    """Every functools cache object reachable from a moebius module."""
    seen = {}
    for mod in _library_modules():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_info", None)):
                seen[id(val)] = val
    return list(seen.values())


def cache_entries() -> int:
    return sum(c.cache_info().currsize for c in lru_caches())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.nids = array.array("H")
        self.parents = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.counters = {"cluster.levels_scanned": 0, "linalg.rref_cells": 0,
                         "strings.decompose.summands": 0}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._criteria: list | None = None
        self._dyadic_counts = None
        self._caches = {}

    # -- installation ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        nids, parents, starts, ends = self.nids, self.parents, self.starts, self.ends
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counting(self, layer: str, fname: str, fn):
        """Inner wrappers that feed the counters defined on arguments or results."""
        counters = self.counters
        if (layer, fname) == ("linalg", "_rref"):
            def rref(a, *args, **kwargs):
                counters["linalg.rref_cells"] += len(a) * (len(a[0]) if a else 0)
                return fn(a, *args, **kwargs)
            return rref
        if (layer, fname) == ("cluster", "enum_in_rect_with_reps"):
            info = getattr(fn, "cache_info", None)

            def enum(rect, *args, **kwargs):
                before = info().misses if info else None
                try:
                    return fn(rect, *args, **kwargs)
                finally:
                    if info is None or info().misses != before:
                        counters["cluster.levels_scanned"] += rect.max_exp() + 3
            return enum
        if (layer, fname) == ("strings", "decompose_rep"):
            def decompose(*args, **kwargs):
                out = fn(*args, **kwargs)
                counters["strings.decompose.summands"] += len(out)
                return out
            return decompose
        return fn

    def _targets(self):
        for layer in LAYERS:
            mod = sys.modules.get(f"moebius.{layer}")
            if mod is None:  # never imported, so never called
                continue
            for fname, val in sorted(vars(mod).items()):
                public = not fname.startswith("_")
                if fname in PRIVATE_TARGETS.get(layer, ()) or public:
                    if inspect.isclass(val) or not callable(val):
                        continue
                    if getattr(val, "__module__", None) != mod.__name__:
                        continue
                    yield layer, fname, val
            for fname in PRIVATE_TARGETS.get(layer, ()):
                if not callable(getattr(mod, fname, None)):
                    self.missing.append(f"moebius.{layer}.{fname}")

    def install(self):
        import moebius.dyadic

        self._stack = [-1]
        self._caches = {key: getattr(sys.modules[f"moebius.{mod}"], fname, None)
                        for key, (mod, fname) in HIT_RATIOS.items()}
        replace = {}
        for layer, fname, fn in self._targets():
            replace[id(fn)] = self._span_wrapper(self._counting(layer, fname, fn), f"{layer}.{fname}")
        for mod in _library_modules():
            for attr, val in list(vars(mod).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        checks = sys.modules.get("moebius.checks")
        criteria = getattr(checks, "CRITERIA", None)
        if isinstance(criteria, list):
            self._criteria = list(criteria)
            criteria[:] = [(name, replace.get(id(fn), fn)) for name, fn in criteria]
        self._count_dyadic(moebius.dyadic.Dyadic)

    def _count_dyadic(self, cls):
        constructs, compares = itertools.count(), itertools.count()
        self._dyadic_counts = (constructs, compares)

        def counted(fn, tick):
            def method(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
            return method

        ticks = {"__init__": constructs.__next__}
        ticks.update(dict.fromkeys(("__lt__", "__le__", "__gt__", "__ge__"), compares.__next__))
        for name, tick in ticks.items():
            if name not in cls.__dict__:
                self.missing.append(f"moebius.dyadic.Dyadic.{name}")
                continue
            self._patches.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, counted(cls.__dict__[name], tick))

    def uninstall(self):
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()
        if self._criteria is not None:
            sys.modules["moebius.checks"].CRITERIA[:] = self._criteria
        if self._dyadic_counts is not None:
            # next() on a fresh count returns how many ticks came before it
            self.dyadic = tuple(next(c) for c in self._dyadic_counts)
            self._dyadic_counts = None

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, ratios and per-layer self/busy seconds of the recorded spans."""
        n = len(self.nids)
        layer_of_name = [LAYERS.index(name.split(".", 1)[0]) for name in self.names]
        calls = [0] * len(self.names)
        child_ns = [0] * n
        masks = [0] * n  # bit set of the layers open at each span
        self_ns = [0] * len(LAYERS)
        busy_ns = [0] * len(LAYERS)
        nids, parents, starts, ends = self.nids, self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            calls[nids[i]] += 1
            layer = layer_of_name[nids[i]]
            bit = 1 << layer
            if p >= 0:
                child_ns[p] += dur
                above = masks[p]
            else:
                above = 0
            masks[i] = above | bit
            if not above & bit:
                busy_ns[layer] += dur
        for i in range(n):
            self_ns[layer_of_name[nids[i]]] += ends[i] - starts[i] - child_ns[i]

        by_name = dict(zip(self.names, calls))
        out = {"dyadic.constructs": self.dyadic[0], "dyadic.compares": self.dyadic[1]}
        for metric, span in CALL_COUNTS.items():
            out[metric] = by_name.get(span, 0)
        out["cluster.levels_scanned"] = self.counters["cluster.levels_scanned"]
        out["linalg.rref_cells"] = self.counters["linalg.rref_cells"]
        tried = out["strings.decompose.candidates"]
        kept = self.counters["strings.decompose.summands"]
        out["strings.decompose.useful_ratio"] = kept / tried if tried else 0.0
        for metric, cached in self._caches.items():
            info = cached.cache_info() if hasattr(cached, "cache_info") else None
            total = info.hits + info.misses if info else 0
            out[metric] = info.hits / total if total else 0.0
        for k, layer in enumerate(LAYERS):
            if layer == "checks":
                continue
            out[f"{layer}.self_s"] = self_ns[k] / 1e9
            out[f"{layer}.busy_s"] = busy_ns[k] / 1e9
        out["trace.spans"] = n
        return out

    def write_spans(self, path):
        """Header line of JSON (span names, count), then the four arrays raw:
        name id (uint16), parent index (int32, -1 at the root), start and
        end (int64 perf_counter_ns)."""
        header = {"names": self.names, "spans": len(self.nids),
                  "arrays": ["nid:H", "parent:i", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

