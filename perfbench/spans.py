"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` replaces every public function of each layer module with
a wrapper, in every ``fdsrank`` namespace that binds it (so names imported
with ``from .x import y`` are wrapped too). A wrapper records one span per
call: name, start, end, parent span and whether the call raised. Spans stay
in memory; ``layer_metrics`` reduces them to the per-layer figures and
``write`` saves them when the pass ends.

A layer is the module a function is defined in. A call *into* a layer is a
span whose parent is not a span of the same layer; a layer's busy time sums
the outermost spans of the layer, and its self time sums every span of the
layer minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("kernels", "enumeration", "ratlp", "bounds", "invariants", "canonical",
          "constructions", "fds", "cli", "digraph")

NAME, START, END, PARENT, FAILED = range(5)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_work(args, kwargs, counters):
    # family_histograms(w, counts, n_states, ...): bytes are computed, not
    # measured: each system gathers one int64 table row per vertex and
    # writes one int64 map over the states.
    counts = [int(c) for c in _arg(args, kwargs, 1, "counts")]
    n_states = int(_arg(args, kwargs, 2, "n_states"))
    systems = 1
    for c in counts:
        systems *= c
    counters["kernels.systems"] += systems
    counters["kernels.states"] += n_states
    counters["kernels.map_cells"] += systems * n_states
    counters["kernels.bytes_computed"] += systems * n_states * 8 * (len(counts) + 1)


def _lp_rows(args, kwargs, counters):
    counters["ratlp.rows"] += len(_arg(args, kwargs, 1, "rows"))


def _map_array(args, kwargs, counters):
    f = _arg(args, kwargs, 0, "f")
    if getattr(f, "_map", None) is not None:
        counters["fds.map_cache_hits"] += 1
    else:
        counters["fds.states_mapped"] += f.q ** f.n


# counters taken from a call's arguments before it runs
ARG_COUNTERS = {
    "kernels.family_histograms": _kernel_work,
    "ratlp.solve_exact": _lp_rows,
    "ratlp.solve_float": _lp_rows,
    "fds.map_array": _map_array,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._caches: dict[str, list] = {}

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        prefix = package.__name__ + "."
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == package.__name__ or name.startswith(prefix))]
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            self._caches[layer] = [obj for obj in vars(module).values()
                                   if callable(getattr(obj, "cache_info", None))]
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapper)
                            self._restore.append((ns, key, obj))

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._restore):
            setattr(ns, key, obj)
        self._restore.clear()

    def cache_stats(self, layer: str) -> tuple[int, int]:
        """Summed (hits, misses) of the layer's ``lru_cache`` functions."""
        infos = [fn.cache_info() for fn in self._caches.get(layer, [])]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def _wrap(self, name, fn):
        count_args = ARG_COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_args is not None:
                count_args(args, kwargs, counters)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if name == "enumeration.enumerate_stats":
                counters["enumeration.systems_reported"] += result.function_count
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "failed"],
                       "spans": self.spans}, fh)


def layer_metrics(spans: list[list], counters: dict, cache_delta: tuple[int, int]) -> dict:
    """Per-layer figures of one traced pass, keyed as in BENCHMARK.json."""
    durations = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += durations[i]

    def layer_of(i):
        return spans[i][NAME].split(".", 1)[0]

    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    by_name_calls: dict[str, int] = {}
    by_name_busy: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = layer_of(i)
        parent = s[PARENT]
        self_time[layer] += durations[i] - child_time[i]
        by_name_calls[s[NAME]] = by_name_calls.get(s[NAME], 0) + 1
        if parent < 0 or layer_of(parent) != layer:
            calls[layer] += 1
            failed[layer] += s[FAILED]
        # busy time counts only the outermost span of a layer or a name, so a
        # layer re-entered through another layer is not counted twice
        ancestors = []
        while parent >= 0:
            ancestors.append(parent)
            parent = spans[parent][PARENT]
        if all(layer_of(a) != layer for a in ancestors):
            busy[layer] += durations[i]
        if all(spans[a][NAME] != s[NAME] for a in ancestors):
            by_name_busy[s[NAME]] = by_name_busy.get(s[NAME], 0.0) + durations[i]

    def count(key):
        return counters.get(key, 0)

    reported = count("enumeration.systems_reported")
    return {
        "kernels.calls": calls["kernels"],
        "kernels.busy_s": busy["kernels"],
        "kernels.systems": count("kernels.systems"),
        "kernels.states": count("kernels.states"),
        "kernels.map_cells": count("kernels.map_cells"),
        "kernels.bytes_computed": count("kernels.bytes_computed"),
        "enumeration.busy_s": busy["enumeration"],
        "enumeration.self_s": self_time["enumeration"],
        "enumeration.table_cache_hits": cache_delta[0],
        "enumeration.table_cache_misses": cache_delta[1],
        "enumeration.systems_reported": reported,
        "enumeration.swept_share": count("kernels.systems") / reported if reported else 0.0,
        "ratlp.calls": calls["ratlp"],
        "ratlp.busy_s": busy["ratlp"],
        "ratlp.rows": count("ratlp.rows"),
        "bounds.busy_s": busy["bounds"],
        "bounds.self_s": self_time["bounds"],
        "bounds.entropy_calls": by_name_calls.get("bounds.entropy_report", 0),
        "bounds.entropy_busy_s": by_name_busy.get("bounds.entropy_report", 0.0),
        "bounds.code_busy_s": by_name_busy.get("bounds.max_code_size", 0.0),
        "invariants.calls": calls["invariants"],
        "invariants.busy_s": busy["invariants"],
        "canonical.calls": calls["canonical"],
        "canonical.busy_s": busy["canonical"],
        "canonical.failed": failed["canonical"],
        "constructions.busy_s": busy["constructions"],
        "fds.map_array_calls": by_name_calls.get("fds.map_array", 0),
        "fds.map_array_busy_s": by_name_busy.get("fds.map_array", 0.0),
        "fds.states_mapped": count("fds.states_mapped"),
        "fds.map_cache_hits": count("fds.map_cache_hits"),
        "cli.busy_s": busy["cli"],
        "cli.self_s": self_time["cli"],
        "digraph.busy_s": busy["digraph"],
    }
