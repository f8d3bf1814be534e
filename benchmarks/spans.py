"""Span tracing of ptlab's public functions, installed from outside the library.

`Tracer.install()` replaces each traced function at every place a ptlab
module binds it (for example `ptlab.extremal.find_beta_cut` and
`ptlab.recognizers.induced_subgraph`), and wraps the `Graph` constructor,
`Graph.with_toggled` and the `Stream` methods on their classes. Each call
records one span: name, start, end and parent span. Spans stay in memory,
in flat arrays, until `uninstall()`; `save()` writes them out and
`layer_metrics()` turns them into per-layer self times and counts.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the traced wall time
spent inside ptlab.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs traced as module-level functions; the span name
# is "<module>.<attribute>" and the module name is the layer.
FUNCTIONS = {
    "graphs": ["induced_subgraph", "complement", "count_triangles",
               "count_induced_p3", "count_induced_c5", "sample_vertices",
               "gnp", "random_cograph", "flip_pairs", "cycle_graph"],
    "recognizers": ["is_triangle_free", "is_cograph", "is_comparability",
                    "is_perfect", "is_induced_h_free", "is_poset",
                    "check_order_transitivity"],
    "decomposition": ["find_cut", "find_beta_cut", "refine_along_cuts",
                      "distance_to_property"],
    "packing": ["triangles_of", "triangle_packing", "triangle_cover",
                "greedy_c5_packing", "farness_lower_bound",
                "random_tripartite_extract"],
    "gadgets": ["ap3_free_set", "rs_graph", "build_c5_gadget", "build_poset_gadget"],
    "testers": ["universal_tester", "triangle_tester", "induced_p3_tester",
                "run_tester", "estimate_detection", "min_budget_for_detection"],
    "extremal": ["search_min_p3_density", "estimate_f"],
    "pipelines": ["pipeline_hardness", "pipeline_easy", "sampled_c5_packing",
                  "match_gnp_control"],
    "graph_io": ["read_graph", "write_graph", "read_digraph", "write_digraph"],
}

# (module, class, attribute, span name) traced on the class itself
METHODS = [
    ("graphs", "Graph", "__init__", "graphs.graph_init"),
    ("graphs", "Graph", "with_toggled", "graphs.with_toggled"),
    ("graphs", "Digraph", "__init__", "graphs.digraph_init"),
    ("rng", "Stream", "__init__", "rng.stream"),
    ("rng", "Stream", "child", "rng.child"),
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_per_restart"):
        return "1/restart"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.new_generators = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: v for m, v in sys.modules.items()
                   if m == "ptlab" or m.startswith("ptlab.")}
        for layer, attrs in FUNCTIONS.items():
            home = modules["ptlab." + layer]
            for attr in attrs:
                original = home.__dict__[attr]
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for mod in modules.values():
                    for key, value in list(mod.__dict__.items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules["ptlab." + layer], cls_name)
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        stream = modules["ptlab.rng"].Stream
        gen_getter = stream.__dict__["gen"].fget

        def gen(s):
            if s._gen is None:
                self.new_generators += 1
            return gen_getter(s)

        self._set(stream, "gen", property(self._wrap("rng.gen", gen)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), ids=np.asarray(self.ids),
                            parents=np.asarray(self.parents),
                            starts=np.asarray(self.starts), ends=np.asarray(self.ends))

    # --- reduction -----------------------------------------------------------

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer self times and counts. `units` is the work the traced
        rounds finished; in search that is hill-climb restarts, which no
        span sees."""
        ids = np.asarray(self.ids, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        self_time = dur - np.bincount(parents[nested], weights=dur[nested],
                                      minlength=len(dur))
        k = len(self.names)
        self_by = dict(zip(self.names, np.bincount(ids, weights=self_time, minlength=k)))
        calls_by = dict(zip(self.names, np.bincount(ids, minlength=k)))
        parent_ids = np.where(nested, ids[parents], -1)

        def self_s(*names: str) -> float:
            return float(sum(self_by.get(nm, 0.0) for nm in names))

        def layer_s(layer: str) -> float:
            return self_s(*(nm for nm in self.names if nm.startswith(layer + ".")))

        def calls(*names: str) -> int:
            return int(sum(calls_by.get(nm, 0) for nm in names))

        def calls_under(parents_in, names) -> int:
            want = [self.name_ids[nm] for nm in names if nm in self.name_ids]
            under = [self.name_ids[nm] for nm in parents_in if nm in self.name_ids]
            return int(np.count_nonzero(np.isin(ids, want) & np.isin(parent_ids, under)))

        trials = calls("testers.run_tester")
        recognizers = ["recognizers." + fn for fn in FUNCTIONS["recognizers"]]
        qualify = calls_under(["extremal." + fn for fn in FUNCTIONS["extremal"]],
                              ["decomposition.find_beta_cut",
                               "decomposition.distance_to_property"])
        metrics = {
            "graphs.self_s": layer_s("graphs"),
            "graphs.graph_init.calls": calls("graphs.graph_init"),
            "graphs.graph_init.self_s": self_s("graphs.graph_init"),
        }
        for fn in ("induced_subgraph", "with_toggled", "count_induced_p3", "sample_vertices"):
            metrics[f"graphs.{fn}.self_s"] = self_s("graphs." + fn)
        metrics.update({
            "rng.stream.calls": calls("rng.stream"),
            "rng.generator.calls": self.new_generators,
            "rng.self_s": layer_s("rng"),
            "testers.self_s": layer_s("testers"),
            "testers.trial_us": 1e6 * layer_s("testers") / trials if trials else 0.0,
            "recognizers.calls": calls(*recognizers),
            "recognizers.self_s": layer_s("recognizers"),
        })
        for fn in ("is_cograph", "is_comparability", "is_perfect",
                   "is_induced_h_free", "check_order_transitivity"):
            metrics[f"recognizers.{fn}.self_s"] = self_s("recognizers." + fn)
        metrics.update({
            "decomposition.self_s": layer_s("decomposition"),
            "decomposition.find_beta_cut.calls": calls("decomposition.find_beta_cut"),
            "decomposition.find_beta_cut.self_s": self_s("decomposition.find_beta_cut"),
            "decomposition.distance_to_property.self_s":
                self_s("decomposition.distance_to_property"),
            "decomposition.distance.recognizer_calls":
                calls_under(["decomposition.distance_to_property"], recognizers),
            "decomposition.refine_along_cuts.self_s":
                self_s("decomposition.refine_along_cuts"),
            "packing.self_s": layer_s("packing"),
            "packing.triangle_packing.self_s": self_s("packing.triangle_packing"),
            "packing.triangle_cover.self_s": self_s("packing.triangle_cover"),
            "gadgets.self_s": layer_s("gadgets"),
            "extremal.self_s": layer_s("extremal"),
            "extremal.qualify_calls_per_restart": qualify / units if qualify else 0.0,
            "pipelines.self_s": layer_s("pipelines"),
            "graph_io.self_s": layer_s("graph_io"),
        })
        return metrics
