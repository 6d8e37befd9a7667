"""Exhaustive scans over small graph classes.

Graph classes are enumerated by orderly generation (Read, 1978): a graph
is kept only in its canonical labelling, the one whose column-major
adjacency bit string is lexicographically least.  Deleting the last vertex
of such a graph leaves a graph in the same form, so extending every kept
graph on m-1 vertices by every possible last column, and keeping the
children already in that form, reaches every class exactly once; no
isomorphism test between candidates is needed.  Each child is tested on
its adjacency rows, and a Graph is built only for the children kept.
Regular classes skip that test for children whose degree deficit the
vertices still to come cannot fill (degree-bounded orderly generation), or
whose next vertex could take no column.
Classes are listed in graph6 order, so reports are byte-identical across
runs.  Scan results are line-oriented records (canonical graph6 plus
verdict) with a summary document on top; anything appended to a
counterexample or classification list is first re-verified from its
serialized form.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .checks import neighborhood_profile
from .copies import (FOOTPRINT_CAP, enumerate_footprints, footprints_of,
                     # unused: the tracer in bench/spans.py wraps this name
                     contains_copy)
from .covers import (NODE_BUDGET, extremality_report, min_hitting_set,
                     min_orbit_cover,
                     # unused: the tracer in bench/spans.py wraps these names
                     symmetric_vertex_representativity,
                     vertex_representativity)
from .errors import PreconditionError, ResourceLimitError, VerificationError
from .graphs import (Graph, bits_of, canonical_graph, column_bits,
                     emit_graph6, generate, is_connected, lex_min_order,
                     parse_graph6)
from .symmetry import is_vertex_transitive, uncached_orbits

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


def _by_graph6(graphs) -> tuple[Graph, ...]:
    return tuple(sorted(graphs, key=emit_graph6))


def _extend(parents, lo: int, hi: int,
            rest: int | None = None) -> list[Graph]:
    """One orderly-generation step: extend each lex-min labelled parent by
    every last column (its adjacency to the parent's vertices, vertex 0 in
    the highest bit) and keep the children that are still lex-min labelled
    and have every degree in lo..hi (parents' degrees lie in lo-1..hi).

    A lex-min labelling picks a least column at every position, so the new
    column, less its last bit, is at least the parent's last column; the
    columns are tried downward from the largest until they fall below that.

    With ``rest`` given, a child must still grow into a hi-regular graph
    once ``rest`` more vertices come, and two cuts drop those that cannot
    before the lex-min test.  First, the child's degree deficit D, the sum
    of hi - deg over its m+1 vertices, is filled by the rest*hi edge ends of
    the vertices to come less twice the e edges among them, 0 <= e <=
    rest(rest-1)/2, and each of them has at most min(hi, m+1) earlier
    neighbours.  So rest(hi-rest+1) <= D <= rest*min(hi, m+1); as D is the
    parent's deficit plus hi less twice the column's popcount, this is a
    window on the popcount.  (D = rest*hi mod 2 needs no test, as D is
    (m+1)*hi less twice the child's edges and n*hi is even.)  Second, every
    later column cut to the first m positions is at least the new one, so
    each vertex to come has a neighbour no later than the new column's
    first one, p.  The deficit of positions 0..p, less the new edge at p,
    must cover rest: the column may hold no position before the first whose
    prefix deficit exceeds rest.

    With rest >= 1, two more cuts look at the next vertex: its column must
    be at least the new one doubled, and may hold only positions still below
    hi.  Third, the largest column it can take is the child's deficient mask
    (the parent's positions below hi, less those one short that the new
    column fills, then the new vertex); the child is dropped when that mask
    is below the new column doubled.  With rest = 1 the window forces D = hi,
    so the last column can only be that mask and the cut is exact.  Fourth,
    with rest = 2, the two columns to come, cut to the child's positions,
    both hold S2, the positions two short, and split S1, those one short,
    evenly, as both vertices reach hi and share at most one edge.  The later
    column is the larger, so it holds S1's highest position, and the next
    one is at most S2 plus the |S1|/2 highest positions of S1 below its
    highest.
    """
    out = []
    for parent in parents:
        m = parent.n
        floor = column_bits(parent.rows[-1], m - 1) << 1 if m else 0
        short = [0] * (hi + 4)  # short[d]: the positions d below hi
        for u, row in enumerate(parent.rows):
            short[hi - row.bit_count()] |= 1 << (m - 1 - u)
        forced = sum(short[hi - lo + 1:])
        room = sum(short[1:hi - lo + 1])
        deficient = forced | room
        least, most = lo, hi
        if rest is not None:
            prefix = [0, *accumulate(hi - row.bit_count()
                                     for row in parent.rows)]
            need = prefix[-1] + hi  # the child's D is need - 2*popcount
            least = max(lo, (need - rest * min(hi, m + 1) + 1) // 2)
            most = min(hi, (need - rest * (hi - rest + 1)) // 2)
            start = next((u for u in range(m) if prefix[u + 1] > rest), m)
            if forced >> (m - start):
                continue
            room &= (1 << (m - start)) - 1
        sub = room
        while forced | sub >= floor:
            col = forced | sub
            if least <= col.bit_count() <= most and (not rest or (
                    _next_column_fits(col, hi, rest, deficient, short))):
                rows = [*parent.rows, 0]
                for b in bits_of(col):
                    rows[m - 1 - b] |= 1 << m
                    rows[m] |= 1 << (m - 1 - b)
                if lex_min_order(m + 1, rows, first_only=True) is not None:
                    out.append(Graph(m + 1, parent.edges() + tuple(
                        (u, m) for u in bits_of(rows[m]))))
            if not sub:
                break
            sub = (sub - 1) & room
    return out


def _next_column_fits(col: int, hi: int, rest: int, deficient: int,
                      short: list[int]) -> bool:
    """The third and fourth cuts of _extend for a child whose last column
    is ``col``; ``short[d]`` holds the parent's positions d below hi."""
    if deficient & ~(col & short[1]) < col:
        return False
    if rest != 2:
        return True
    pc = col.bit_count()
    s1 = ((short[1] & ~col) | (short[2] & col)) << 1 | (pc == hi - 1)
    s2 = ((short[2] & ~col) | (short[3] & col)) << 1 | (pc == hi - 2)
    for _ in range(s1.bit_count() // 2 - 1):
        s1 &= s1 - 1  # keep the |S1|/2 + 1 highest
    return s2 | (s1 ^ (1 << s1.bit_length() >> 1)) >= col << 1


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0, ()),)
    return _by_graph6(_extend(_all_graphs(n - 1), 0, n - 1))


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
    if 2 * k > n - 1:
        return _by_graph6(canonical_graph(_complement(g))
                          for g in _regular_graphs(n, n - 1 - k))
    # a vertex of the m-vertex level must still reach k from n - m more;
    # _extend also drops children whose deficit those n - m cannot fill
    level = [Graph(0, ())]
    for m in range(1, n + 1):
        level = _extend(level, k - (n - m), k, n - m)
    return _by_graph6(level)


def _params(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple((key, str(value)) for key, value in kwargs.items())


def _verdict(plain, invariant) -> str:
    return f"plain={plain.value} invariant={invariant.value}"


def _reverify(pattern: Graph, g6: str, verdict: str,
              cap: int = FOOTPRINT_CAP,
              node_budget: int = NODE_BUDGET) -> None:
    """Re-derive both covers from the host parsed back from its record,
    past every cache: fresh footprints, a fresh orbit partition and fresh
    cover searches.  Raise if the verdict changes, or if a witness misses
    a fresh footprint, has a size other than its value, or (for the
    invariant cover) is not a union of fresh orbits."""
    fresh = parse_graph6(g6)
    family = enumerate_footprints(pattern, fresh, cap)
    part = uncached_orbits(fresh)
    plain = min_hitting_set(family, fresh.n, node_budget)
    invariant = min_orbit_cover(family, part, node_budget)
    again = _verdict(plain, invariant)
    if again != verdict:
        raise VerificationError(f"{g6}: {verdict}, re-solved {again}")
    for name, sol in (("plain", plain), ("invariant", invariant)):
        marked = set(sol.witness)
        if len(marked) != sol.value or any(marked.isdisjoint(f)
                                           for f in family.footprints):
            raise VerificationError(
                f"{g6}: the {name} witness {sol.witness} misses a "
                f"footprint or differs in size from its value {sol.value}")
    union = set(invariant.witness)
    if any(0 < len(union.intersection(orbit)) < len(orbit)
           for orbit in part.orbits):
        raise VerificationError(
            f"{g6}: the invariant witness {invariant.witness} is not a "
            f"union of orbits")


def _scan_host(pattern: Graph, g: Graph, g6: str, cap: int,
               node_budget: int) -> tuple[str, int | None]:
    """One cover-scan host's record verdict and, if it is extremal (and so
    re-verified from its graph6 record), its plain cover value."""
    if not footprints_of(pattern, g, cap).footprints:
        return "no-copies", None
    report = extremality_report(pattern, g, cap, node_budget)
    verdict = _verdict(report.plain, report.invariant)
    if not report.is_extremal:
        return "not-extremal " + verdict, None
    _reverify(pattern, g6, verdict, cap, node_budget)
    return "extremal " + verdict, report.plain.value


def find_dense_counterexample(n_max: int, k_range) -> SearchReport:
    """Scan all k-regular graphs, k in k_range, on at most n_max vertices
    for one whose every neighborhood deficiency p satisfies 1 <= p < k/2.
    No graph passes; the counterexample list is expected empty.  An empty
    k_range is refused, since it would scan nothing."""
    ks = sorted(set(k_range))
    if not ks:
        raise PreconditionError("the degree range is empty")
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


def classify_vt_extremal(d: int, n_max: int, cap: int = FOOTPRINT_CAP,
                         node_budget: int = NODE_BUDGET) -> SearchReport:
    """List every connected vertex-transitive host on at most n_max
    vertices whose invariant cover for the d-ray tailed star costs exactly
    (d+2) times the plain cover, both positive.  ``cap`` and
    ``node_budget`` bound each host's footprint enumeration and cover
    searches, re-verification included."""
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
            for g in _regular_graphs(n, k):
                if not is_connected(g) or not is_vertex_transitive(g):
                    continue
                count += 1
                g6 = emit_graph6(g)
                verdict, plain = _scan_host(pattern, g, g6, cap, node_budget)
                if plain is not None:
                    hits.append(g6)
                records.append((g6, verdict))
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


def scan_connected_extremal(d: int = 3, n_max: int = 7,
                            cap: int = FOOTPRINT_CAP,
                            node_budget: int = NODE_BUDGET) -> SearchReport:
    """Scan every connected host on at most n_max vertices that contains
    the d-ray tailed star; classify the extremal ones and flag any with a
    plain cover above 1.  The flag list is expected empty.  ``cap`` and
    ``node_budget`` bound each host as in ``classify_vt_extremal``."""
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
            verdict, plain = _scan_host(pattern, g, g6, cap, node_budget)
            if plain is not None:
                hits.append(g6)
                if plain > 1:
                    violations.append(g6)
                    verdict = verdict.replace("extremal", "extremal-wide", 1)
            records.append((g6, verdict))
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
