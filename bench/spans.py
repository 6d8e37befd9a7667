"""Span tracing from outside the library.

The tracer replaces public functions at the module attributes where their
callers look them up (``symcover.covers.orbits`` is the name
``extremality_report`` resolves, not ``symcover.symmetry.orbits``) with
wrappers that record one span per call: name, start, end, parent span and
op id, plus one optional value (search nodes, footprint count, dedup
outcome).  Spans stay in memory until the run ends.  ``src/`` is never
edited; ``uninstall`` puts every original back.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import symcover.checks
import symcover.cli
import symcover.copies
import symcover.covers
import symcover.search
import symcover.symmetry


def _nodes(result):
    return result.nodes_explored


def _count(result):
    return len(result)


def _found(result):
    return int(bool(result))


# (module, attribute, span name, value of the result recorded on the span)
WRAP_POINTS = (
    (symcover.covers, "footprints_of", "copies.footprints_of", None),
    (symcover.covers, "orbits", "symmetry.orbits", None),
    (symcover.covers, "vertex_representativity", "covers.plain", _nodes),
    (symcover.covers, "symmetric_vertex_representativity",
     "covers.invariant", _nodes),
    (symcover.copies, "enumerate_footprints", "copies.enumerate", _count),
    (symcover.symmetry, "automorphisms", "symmetry.automorphisms", None),
    (symcover.symmetry, "orbits", "symmetry.orbits", None),
    (symcover.checks, "footprints_of", "copies.footprints_of", None),
    (symcover.checks, "contains_copy", "copies.contains_copy", None),
    (symcover.checks, "vertex_representativity", "covers.plain", _nodes),
    (symcover.checks, "symmetric_vertex_representativity",
     "covers.invariant", _nodes),
    (symcover.checks, "orbits", "symmetry.orbits", None),
    (symcover.checks, "automorphisms", "symmetry.automorphisms", None),
    (symcover.checks, "verify_orbit_sum_bound", "checks.orbit_sum", None),
    (symcover.checks, "check_extremal_boundary", "checks.boundary", None),
    (symcover.checks, "check_orbit_density", "checks.density", None),
    (symcover.checks, "check_orbit_pattern_containment",
     "checks.containment", None),
    (symcover.cli, "build_pair_weight", "checks.weights", None),
    (symcover.cli, "weight_orbit", "checks.weights", None),
    (symcover.cli, "verify_weighted_system", "checks.weights", None),
    (symcover.cli, "vertex_representativity", "covers.plain", _nodes),
    (symcover.search, "footprints_of", "copies.footprints_of", None),
    (symcover.search, "contains_copy", "copies.contains_copy", _found),
    (symcover.search, "canonical_graph", "graphs.canonical", None),
    (symcover.search, "vertex_representativity", "covers.plain", _nodes),
    (symcover.search, "symmetric_vertex_representativity",
     "covers.invariant", _nodes),
)

# span fields, kept as lists in this order
NAME, START, END, PARENT, OP, VALUE = range(6)


class Tracer:
    """Collects spans for one run.  Single-threaded by construction: the
    benchmark starts no threads, and the deadline signal handler only reads
    ``innermost``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.originals: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        # a deadline can unwind several spans at once; drop them all
        while self.stack and self.stack.pop() != idx:
            pass

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def span(self, name: str):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, name)

    def _wrap(self, fn, name, value_of):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    self.spans[idx][VALUE] = value_of(result)
                return result
            finally:
                self.close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self.originals:
            return
        for module, attr, name, value_of in WRAP_POINTS:
            fn = getattr(module, attr)
            self.originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, value_of))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals.clear()
        self.stack.clear()



class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def set_value(self, value) -> None:
        self.tracer.spans[self.idx][VALUE] = value

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def dump(path: Path, spans: list[list], extra: dict) -> None:
    """Write the span tree, one list per span in field order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"fields": ["name", "start", "end", "parent", "op", "value"],
           "spans": spans, **extra}
    path.write_text(json.dumps(doc, separators=(",", ":")))


def merge(spans: list[list], child_spans: list[list], op) -> None:
    """Append spans recorded by a child process, renumbering parents and
    tagging them with the parent run's op id."""
    base = len(spans)
    for s in child_spans:
        spans.append([s[NAME], s[START], s[END],
                      s[PARENT] + base if s[PARENT] >= 0 else -1, op,
                      s[VALUE]])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans cut by a deadline end where the unwinding closed them."""
    own = [(s[END] if s[END] is not None else s[START]) - s[START]
           for s in spans]
    for s, d in zip(spans, list(own)):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return own


PER_LAYER_UNITS = {
    "covers.plain_s": "s",
    "covers.plain_nodes": "count",
    "covers.plain_us_per_node": "us",
    "covers.invariant_s": "s",
    "covers.invariant_nodes": "count",
    "covers.budget_stops": "count",
    "symmetry.orbits_s": "s",
    "symmetry.orbits_calls": "count",
    "symmetry.orbits_misses": "count",
    "symmetry.deadline_stops": "count",
    "copies.enumerate_s": "s",
    "copies.enumerate_calls": "count",
    "copies.footprints": "count",
    "copies.cache_hit_ratio": "ratio",
    "copies.contains_copy_s": "s",
    "copies.contains_copy_calls": "count",
    "copies.contains_copy_dup_ratio": "ratio",
    "graphs.canonical_s": "s",
    "graphs.canonical_calls": "count",
    "search.enum_s": "s",
    "search.enum_classes": "count",
    "search.scan_rest_s": "s",
    "checks.orbit_sum_s": "s",
    "checks.boundary_s": "s",
    "checks.density_s": "s",
    "checks.containment_s": "s",
    "checks.weights_s": "s",
    "checks.resolve_calls": "count",
    "checks.resolve_s": "s",
    "cli.startup_s": "s",
    "bench.calib_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
}


def layer_metrics(spans: list[list], stops: dict[str, int]) -> dict:
    """Per-layer table derived from the span tree.  Times are self times
    except ``checks.resolve_s``, which is the whole duration of the cover
    solves issued from inside a check span.  ``stops`` counts deadline
    stops by the layer of the innermost open span."""
    own = self_times(spans)
    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    value_sum: dict[str, int] = {}
    value_n: dict[str, int] = {}
    resolve_calls = 0
    resolve_s = 0.0
    misses = 0
    for s, t in zip(spans, own):
        name = s[NAME]
        time_of[name] = time_of.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if s[VALUE] is not None:
            value_sum[name] = value_sum.get(name, 0) + s[VALUE]
            value_n[name] = value_n.get(name, 0) + 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if name.startswith("covers.") and parent.startswith("checks."):
            resolve_calls += 1
            resolve_s += (s[END] or s[START]) - s[START]
        if name == "symmetry.automorphisms" and parent == "symmetry.orbits":
            misses += 1

    def ratio(num, den):
        return num / den if den else 0.0

    plain_s = time_of.get("covers.plain", 0.0)
    plain_nodes = value_sum.get("covers.plain", 0)
    return {
        "covers.plain_s": plain_s,
        "covers.plain_nodes": plain_nodes,
        "covers.plain_us_per_node": ratio(plain_s * 1e6, plain_nodes),
        "covers.invariant_s": time_of.get("covers.invariant", 0.0),
        "covers.invariant_nodes": value_sum.get("covers.invariant", 0),
        "covers.budget_stops": stops.get("covers", 0),
        "symmetry.orbits_s": (time_of.get("symmetry.orbits", 0.0)
                              + time_of.get("symmetry.automorphisms", 0.0)),
        "symmetry.orbits_calls": calls.get("symmetry.orbits", 0),
        "symmetry.orbits_misses": misses,
        "symmetry.deadline_stops": stops.get("symmetry", 0),
        "copies.enumerate_s": time_of.get("copies.enumerate", 0.0),
        "copies.enumerate_calls": calls.get("copies.enumerate", 0),
        "copies.footprints": value_sum.get("copies.enumerate", 0),
        "copies.cache_hit_ratio": (
            1.0 - ratio(calls.get("copies.enumerate", 0),
                        calls["copies.footprints_of"])
            if "copies.footprints_of" in calls else 0.0),
        "copies.contains_copy_s": time_of.get("copies.contains_copy", 0.0),
        "copies.contains_copy_calls": calls.get("copies.contains_copy", 0),
        "copies.contains_copy_dup_ratio": ratio(
            value_sum.get("copies.contains_copy", 0),
            value_n.get("copies.contains_copy", 0)),
        "graphs.canonical_s": time_of.get("graphs.canonical", 0.0),
        "graphs.canonical_calls": calls.get("graphs.canonical", 0),
        "search.enum_s": time_of.get("search.enum", 0.0),
        "search.enum_classes": value_sum.get("search.enum", 0),
        "search.scan_rest_s": time_of.get("search.scan", 0.0),
        "checks.orbit_sum_s": time_of.get("checks.orbit_sum", 0.0),
        "checks.boundary_s": time_of.get("checks.boundary", 0.0),
        "checks.density_s": time_of.get("checks.density", 0.0),
        "checks.containment_s": time_of.get("checks.containment", 0.0),
        "checks.weights_s": time_of.get("checks.weights", 0.0),
        "checks.resolve_calls": resolve_calls,
        "checks.resolve_s": resolve_s,
    }
