"""Per-layer spans recorded from outside the library.

:meth:`Tracer.install` replaces each traced function, at every module
binding in ``latgraph`` that refers to it, by a wrapper that records a span.
``reconstruct`` calls ``maximal_cliques`` and ``validate_lattice`` through
its own imported names, ``iso`` calls ``build_lattice`` and the oracles
through its own, and ``cli`` through its own, so each of those bindings is
replaced.  The library's files are not touched.

A span is kept in memory as name, start, end, parent, ``ru_maxrss`` at start
and end, and the work sizes read off its arguments or result.  Self time is
a span's duration minus its children's; they nest, because the CLI runs on
one thread.  Small helpers (``predecessors``, ``down_set``, ``divisors``) are
not traced: their time counts toward the traced function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
from collections import defaultdict
from time import perf_counter


def _oracle_edges(args, result) -> dict[str, int]:
    g = getattr(result, "graph", result)  # a DifferenceGraph wraps its graph
    edges = g.edge_count if hasattr(g, "edge_count") else g.arc_count
    return {"power_graphs.oracle_edges": edges}


def _vertices(obj) -> int:
    return obj.node_count if hasattr(obj, "node_count") else obj.vertex_count


def _iso_sizes(kind):
    def sizes(args, result):
        return {"iso.vertices": _vertices(args[0]), f"iso.{kind}.found": int(result.found)}

    return sizes


# (module, function, metric group, sizes(args, result) -> {metric: amount})
TRACED = (
    ("catalog", "parse_group_expr", "catalog.parse_group_expr", None),
    ("catalog", "build_group", "catalog.build_group", None),
    ("catalog", "order16_catalog", "catalog.order16_catalog", None),
    ("group_core", "validate_group", "group_core.validate_group",
     lambda a, r: {"group_core.validate_group.elements": r.order}),
    ("group_core", "cyclic_subgroups", "group_core.cyclic_subgroups", None),
    ("group_core", "generated_subgroup", "group_core.generated_subgroup", None),
    ("group_core", "is_abelian", "group_core.invariants", None),
    ("group_core", "order_statistics", "group_core.invariants", None),
    ("lattice", "build_lattice", "lattice.build_lattice",
     lambda a, r: {"lattice.nodes": r.lattice.node_count,
                   "lattice.covers": len(r.lattice.covers)}),
    ("lattice", "validate_lattice", "lattice.validate_lattice", None),
    ("lattice", "reachability", "lattice.reachability", None),
    ("lattice", "levelize", "lattice.levelize", None),
    ("power_graphs", "epow_oracle", "power_graphs.oracles", _oracle_edges),
    ("power_graphs", "pow_oracle", "power_graphs.oracles", _oracle_edges),
    ("power_graphs", "dirpow_oracle", "power_graphs.oracles", _oracle_edges),
    ("power_graphs", "diff_oracle", "power_graphs.oracles", _oracle_edges),
    ("power_graphs", "maximal_cliques", "power_graphs.maximal_cliques",
     lambda a, r: {"power_graphs.cliques": len(r)}),
    ("reconstruct", "lattice_from_epow", "reconstruct.lattice_from_epow", None),
    ("reconstruct", "epow_from_lattice", "reconstruct.from_lattice", None),
    ("reconstruct", "pow_from_lattice", "reconstruct.from_lattice", None),
    ("reconstruct", "dirpow_from_lattice", "reconstruct.from_lattice", None),
    ("reconstruct", "diff_from_lattice", "reconstruct.from_lattice", None),
    ("reconstruct", "diff_incomparability", "reconstruct.from_lattice", None),
    ("reconstruct", "oracle_labeling", "reconstruct.labeling", None),
    ("reconstruct", "graphs_match_up_to_generator_indices", "reconstruct.match", None),
    ("reconstruct", "digraphs_match_up_to_generator_indices", "reconstruct.match", None),
    ("iso", "labeled_lattice_isomorphism", "iso.lattice", _iso_sizes("lattice")),
    ("iso", "graph_isomorphism", "iso.graph", _iso_sizes("graph")),
    ("iso", "digraph_isomorphism", "iso.digraph", _iso_sizes("digraph")),
    ("iso", "compare_groups", "iso.compare_groups", None),
    ("iso", "isomorphism_classes", "iso.isomorphism_classes",
     lambda a, r: {"iso.census_classes": len(r)}),
    ("cli", "main", "cli.main", None),
)

# exceptions that end a traced call and are counted, by class name
COUNTED_RAISES = {
    ("reconstruct.lattice_from_epow", "NotAnEnhancedPowerGraph"): "reconstruct.refusals",
    ("iso.lattice", "IsoTimeout"): "iso.timeouts",
    ("iso.graph", "IsoTimeout"): "iso.timeouts",
    ("iso.digraph", "IsoTimeout"): "iso.timeouts",
}

# the modules of TRACED, in order: catalog, group_core, ..., iso, cli
LAYERS = tuple(dict.fromkeys(module for module, *_ in TRACED))
ISO_SEARCHES = ("iso.lattice", "iso.graph", "iso.digraph")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    __slots__ = ("name", "start", "end", "parent", "rss_start", "rss_end", "sizes", "raised")

    def __init__(self, name: str, parent: int):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.rss_start = self.rss_end = 0
        self.sizes: dict[str, int] | None = None
        self.raised: str | None = None

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.rss_start = _maxrss_kb()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                span.rss_end = _maxrss_kb()
                stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "latgraph" or name.startswith("latgraph."))
        ]
        for module_name, func_name, group, sizes in TRACED:
            original = getattr(importlib.import_module(f"latgraph.{module_name}"), func_name)
            wrapper = self._wrap(group, original, sizes)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer and per-function metrics from spans as written by
    :meth:`Span.as_dict`: self seconds, call counts, work sizes, counted
    refusals and the rise in peak RSS while each layer was innermost."""
    child_time = [0.0] * len(spans)
    child_rss = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
            child_rss[s["parent"]] += s["rss_end"] - s["rss_start"]
    m: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        for what in ("self_s", "calls", "rss_growth_mb"):
            m[f"{layer}.{what}"] = 0.0
    for counted in COUNTED_RAISES.values():
        m[counted] = 0.0
    census_checks = 0
    for i, s in enumerate(spans):
        group, layer = s["name"], s["name"].split(".")[0]
        self_s = s["end"] - s["start"] - child_time[i]
        m[f"{group}.self_s"] += self_s
        m[f"{group}.calls"] += 1
        m[f"{layer}.self_s"] += self_s
        m[f"{layer}.calls"] += 1
        m[f"{layer}.rss_growth_mb"] += (s["rss_end"] - s["rss_start"] - child_rss[i]) / 1024
        for key, amount in (s["sizes"] or {}).items():
            m[key] += amount
        counted = COUNTED_RAISES.get((group, s["raised"]))
        if counted:
            m[counted] += 1
        if group in ISO_SEARCHES and _has_ancestor(spans, i, "iso.isomorphism_classes"):
            census_checks += 1
    found = sum(m[f"{g}.found"] for g in ISO_SEARCHES)
    searches = sum(m[f"{g}.calls"] for g in ISO_SEARCHES)
    m["iso.found_ratio"] = found / searches if searches else 0.0
    m["iso.census_pair_checks"] = census_checks
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["iso.share"] = m["iso.self_s"] / total if total else 0.0
    return dict(m)


def _has_ancestor(spans: list[dict], i: int, name: str) -> bool:
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False
