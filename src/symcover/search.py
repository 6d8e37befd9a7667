"""Exhaustive scans over small graph classes.

Generation is isomorph-free at desk scale: each emitted graph is a
canonical representative, deduplicated by canonical form and listed in
graph6 order, so reports are byte-identical across runs.  Scan results are
line-oriented records (canonical graph6 plus verdict) with a summary
document on top; anything appended to a counterexample or classification
list is first re-verified from its serialized form.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .checks import neighborhood_profile
from .copies import contains_copy, footprints_of
from .covers import (extremality_report, vertex_representativity,
                     symmetric_vertex_representativity)
from .errors import PreconditionError, ResourceLimitError, VerificationError
from .graphs import (Graph, bits_of, canonical_graph, emit_graph6, generate,
                     is_connected, parse_graph6)
from .symmetry import is_vertex_transitive

__all__ = [
    "UNCONSTRAINED_CAP",
    "REGULAR_CAP",
    "SearchReport",
    "enum_graphs",
    "find_dense_counterexample",
    "classify_vt_extremal",
    "scan_connected_extremal",
]

UNCONSTRAINED_CAP = 8
REGULAR_CAP = 10


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive scan.

    ``records`` holds one (canonical graph6, verdict) pair per candidate;
    ``classification`` lists the canonical forms the scan set out to
    collect; ``counterexamples`` lists re-verified violations and is
    expected empty.  Everything except ``elapsed_s`` is deterministic.
    """

    kind: str
    params: tuple[tuple[str, str], ...]
    candidate_count: int
    records: tuple[tuple[str, str], ...]
    classification: tuple[str, ...]
    counterexamples: tuple[str, ...]
    elapsed_s: float
    notes: tuple[str, ...] = ()

    def lines(self) -> list[str]:
        return [f"{g6} {verdict}" for g6, verdict in self.records]

    def to_doc(self) -> dict:
        return {
            "scan": self.kind,
            "params": {k: v for k, v in self.params},
            "candidate_count": self.candidate_count,
            "classification": list(self.classification),
            "counterexamples": list(self.counterexamples),
            "records": self.lines(),
            "notes": list(self.notes),
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _require_cap(n: int, cap: int, kind: str) -> None:
    if n > cap:
        raise ResourceLimitError(
            f"{kind} enumeration capped at {cap} vertices", limit=cap)


def enum_graphs(n: int, connected_only: bool = False,
                regular_k: int | None = None) -> tuple[Graph, ...]:
    """Canonical representatives of the graphs on n vertices, optionally
    restricted to connected or k-regular ones, in graph6 order."""
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if regular_k is not None:
        _require_cap(n, REGULAR_CAP, "regular")
        if regular_k < 0:
            raise PreconditionError("regular degree must be nonnegative")
        pool = _regular_graphs(n, regular_k)
    else:
        _require_cap(n, UNCONSTRAINED_CAP, "unconstrained")
        pool = _all_graphs(n)
    if connected_only:
        pool = tuple(g for g in pool if is_connected(g))
    return pool


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0, ()),)
    buckets: dict[tuple, list[Graph]] = {}
    for base in _all_graphs(n - 1):
        base_edges = base.edges()
        for mask in range(1 << (n - 1)):
            extra = [(u, n - 1) for u in range(n - 1) if mask >> u & 1]
            g = Graph(n, base_edges + tuple(extra))
            bucket = buckets.setdefault(_iso_fingerprint(g), [])
            if not any(contains_copy(g, rep) for rep in bucket):
                bucket.append(g)
    return _canonical_reps(buckets)


def _canonical_reps(buckets: dict[tuple, list[Graph]]) -> tuple[Graph, ...]:
    seen: dict[str, Graph] = {}
    for bucket in buckets.values():
        for rep in bucket:
            h = canonical_graph(rep)
            seen.setdefault(emit_graph6(h), h)
    return tuple(seen[key] for key in sorted(seen))


def _complement(g: Graph) -> Graph:
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    return Graph(g.n, edges)


@lru_cache(maxsize=None)
def _regular_graphs(n: int, k: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0, ()),) if k == 0 else ()
    if k >= n or n * k % 2:
        return ()
    if k == 0:
        return (Graph(n, ()),)
    if 2 * k > n - 1:
        seen = {}
        for g in _regular_graphs(n, n - 1 - k):
            h = canonical_graph(_complement(g))
            seen.setdefault(emit_graph6(h), h)
        return tuple(seen[key] for key in sorted(seen))
    return _regular_direct(n, k)


def _iso_fingerprint(g: Graph) -> tuple:
    """Cheap isomorphism-invariant key: sorted vertex triangle counts plus
    sorted common-neighbor counts over edges and over non-edges."""
    n = g.n
    rows = g.rows
    triangles = []
    for v in range(n):
        nb = rows[v]
        triangles.append(sum((rows[u] & nb).bit_count()
                             for u in bits_of(nb)) // 2)
    on_edges = []
    on_gaps = []
    for u in range(n):
        for v in range(u + 1, n):
            c = (rows[u] & rows[v]).bit_count()
            (on_edges if rows[u] >> v & 1 else on_gaps).append(c)
    return (tuple(sorted(triangles)), tuple(sorted(on_edges)),
            tuple(sorted(on_gaps)))


def _regular_direct(n: int, k: int) -> tuple[Graph, ...]:
    """Degree-constrained backtracking.

    Vertices are filled in id order, so every edge goes from the current
    vertex to a higher id; previously untouched neighbors must be taken as
    a consecutive run just past the highest id seen, which breaks the
    relabeling symmetry without losing any isomorphism class (every graph
    admits a discovery-order labeling of this shape, components in
    sequence).  Leaves are grouped by a cheap invariant and deduplicated by
    direct isomorphism tests, so only one representative per class pays for
    canonical labeling.
    """
    rem = [k] * n
    edges: list[tuple[int, int]] = []
    buckets: dict[tuple, list[Graph]] = {}

    def fill(v: int, max_seen: int) -> None:
        while v < n and not rem[v]:
            v += 1
        if v == n:
            g = Graph(n, edges)
            bucket = buckets.setdefault(_iso_fingerprint(g), [])
            # equal orders and edge counts make any embedding a bijection
            if not any(contains_copy(g, rep) for rep in bucket):
                bucket.append(g)
            return
        # u > v can gain one edge from each center v..u-1 and then at most
        # n-1-u more in its own step, n-1-v future edges in all
        for u in range(v + 1, n):
            if rem[u] > n - 1 - v:
                return
        max_seen = max(max_seen, v)
        need = rem[v]
        disc = [u for u in range(v + 1, max_seen + 1) if rem[u]]
        room = n - 1 - max_seen
        for j in range(max(0, need - room), min(need, len(disc)) + 1):
            fresh = list(range(max_seen + 1, max_seen + 1 + (need - j)))
            for subset in combinations(disc, j):
                chosen = list(subset) + fresh
                for u in chosen:
                    rem[u] -= 1
                    edges.append((v, u))
                rem[v] = 0
                fill(v + 1, max_seen + len(fresh))
                rem[v] = need
                for u in chosen:
                    rem[u] += 1
                    edges.pop()

    fill(0, 0)
    return _canonical_reps(buckets)


def _params(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple((key, str(value)) for key, value in kwargs.items())


def _verdict(plain, invariant) -> str:
    return f"plain={plain.value} invariant={invariant.value}"


def _reverify(pattern: Graph, g6: str, verdict: str) -> None:
    """Re-solve both covers, past the report memo, on the host parsed back
    from its record; raise if the verdict changes."""
    fresh = parse_graph6(g6)
    again = _verdict(vertex_representativity(pattern, fresh),
                     symmetric_vertex_representativity(pattern, fresh))
    if again != verdict:
        raise VerificationError(f"{g6}: {verdict}, re-solved {again}")


def find_dense_counterexample(n_max: int, k_range) -> SearchReport:
    """Scan all k-regular graphs, k in k_range, on at most n_max vertices
    for one whose every neighborhood deficiency p satisfies 1 <= p < k/2.
    No graph passes; the counterexample list is expected empty."""
    ks = sorted(set(k_range))
    if any(k < 0 for k in ks):
        raise PreconditionError("degrees must be nonnegative")
    _require_cap(n_max, REGULAR_CAP, "regular")
    start = time.perf_counter()
    records = []
    hits = []
    notes = []
    count = 0
    for k in ks:
        k_count = 0
        for n in range(k + 1, n_max + 1):
            if n * k % 2:
                continue
            for g in _regular_graphs(n, k):
                count += 1
                k_count += 1
                g6 = emit_graph6(g)
                if neighborhood_profile(g).hypothesis_met:
                    again = neighborhood_profile(parse_graph6(g6))
                    if not again.hypothesis_met:
                        raise VerificationError(f"{g6}: dense profile lost")
                    hits.append(g6)
                    records.append((g6, "dense-profile"))
                else:
                    records.append((g6, "hypothesis-failed"))
        notes.append(f"degree {k}: {k_count} graphs scanned")
    return SearchReport(
        kind="dense-neighborhoods",
        params=_params(n_max=n_max, degrees=ks),
        candidate_count=count,
        records=tuple(records),
        classification=(),
        counterexamples=tuple(hits),
        elapsed_s=time.perf_counter() - start,
        notes=tuple(notes),
    )


def classify_vt_extremal(d: int, n_max: int) -> SearchReport:
    """List every connected vertex-transitive host on at most n_max
    vertices whose invariant cover for the d-ray tailed star costs exactly
    (d+2) times the plain cover, both positive."""
    if d < 3:
        raise PreconditionError("tail parameter must be at least 3")
    _require_cap(n_max, REGULAR_CAP, "regular")
    pattern = generate(f"tailed-star:{d}")
    start = time.perf_counter()
    records = []
    hits = []
    count = 0
    for n in range(d + 2, n_max + 1):
        for k in range(1, n):
            if n * k % 2:
                continue
            for g in _regular_graphs(n, k):
                if not is_connected(g) or not is_vertex_transitive(g):
                    continue
                count += 1
                g6 = emit_graph6(g)
                if not footprints_of(pattern, g).footprints:
                    records.append((g6, "no-copies"))
                    continue
                report = extremality_report(pattern, g)
                verdict = _verdict(report.plain, report.invariant)
                if report.is_extremal:
                    _reverify(pattern, g6, verdict)
                    hits.append(g6)
                    records.append((g6, "extremal " + verdict))
                else:
                    records.append((g6, "not-extremal " + verdict))
    return SearchReport(
        kind="vertex-transitive-extremal",
        params=_params(tail=d, n_max=n_max),
        candidate_count=count,
        records=tuple(records),
        classification=tuple(hits),
        counterexamples=(),
        elapsed_s=time.perf_counter() - start,
        notes=(f"{len(hits)} extremal host(s) among {count} connected "
               f"vertex-transitive candidates",),
    )


def scan_connected_extremal(d: int = 3, n_max: int = 7) -> SearchReport:
    """Scan every connected host on at most n_max vertices that contains
    the d-ray tailed star; classify the extremal ones and flag any with a
    plain cover above 1.  The flag list is expected empty."""
    if d < 1:
        raise PreconditionError("tail parameter must be positive")
    _require_cap(n_max, UNCONSTRAINED_CAP, "unconstrained")
    pattern = generate(f"tailed-star:{d}")
    start = time.perf_counter()
    records = []
    hits = []
    violations = []
    count = 0
    for n in range(d + 2, n_max + 1):
        for g in enum_graphs(n, connected_only=True):
            count += 1
            g6 = emit_graph6(g)
            if not footprints_of(pattern, g).footprints:
                records.append((g6, "no-copies"))
                continue
            report = extremality_report(pattern, g)
            verdict = _verdict(report.plain, report.invariant)
            if not report.is_extremal:
                records.append((g6, "not-extremal " + verdict))
                continue
            hits.append(g6)
            if report.plain.value > 1:
                _reverify(pattern, g6, verdict)
                violations.append(g6)
                records.append((g6, "extremal-wide " + verdict))
            else:
                records.append((g6, "extremal " + verdict))
    if hits:
        note = (f"{len(hits)} extremal hit(s); "
                f"{len(violations)} with plain cover above 1")
    else:
        note = "no extremal hit in range; nothing to flag"
    return SearchReport(
        kind="connected-extremal",
        params=_params(tail=d, n_max=n_max),
        candidate_count=count,
        records=tuple(records),
        classification=tuple(hits),
        counterexamples=tuple(violations),
        elapsed_s=time.perf_counter() - start,
        notes=(note,),
    )
