"""Correctness gate: checks that do not trust the code under test.

Footprints come from the benchmark's own matcher, automorphisms are checked
edge by edge before they are used, graph6 strings are decoded here, and
values are compared with the answers captured at the seed commit
(``expected.json``).  Any mismatch raises ``GateError``; a wrong answer
fails the run and is never counted as merely undecided.
"""
from __future__ import annotations

from fractions import Fraction


class GateError(Exception):
    """An answer disagreed with the expected answer or an independent
    check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def adjacency(graph) -> list[set[int]]:
    """Neighbour sets read from the graph's edge list."""
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def footprints(pattern, host) -> set[frozenset]:
    """Vertex sets of all subgraph copies of ``pattern`` in ``host``:
    backtracking over pattern vertices in breadth-first order, each placed
    next to the image of its first already-placed neighbour."""
    padj = adjacency(pattern)
    hadj = adjacency(host)
    order = [0]
    for v in order:
        order.extend(sorted(padj[v] - set(order)))
    order.extend(v for v in range(pattern.n) if v not in order)
    placed_before = [[u for u in order[:i] if u in padj[v]]
                     for i, v in enumerate(order)]
    image: dict[int, int] = {}
    found: set[frozenset] = set()

    def extend(i: int) -> None:
        if i == len(order):
            found.add(frozenset(image.values()))
            return
        v = order[i]
        back = placed_before[i]
        pool = hadj[image[back[0]]] if back else range(host.n)
        used = set(image.values())
        for x in pool:
            if x in used or any(image[u] not in hadj[x] for u in back):
                continue
            image[v] = x
            extend(i + 1)
            del image[v]

    extend(0)
    return found


def check_hitting(prints: set[frozenset], witness, what: str) -> None:
    chosen = set(witness)
    for f in prints:
        if not f & chosen:
            raise GateError(f"{what} misses the footprint {sorted(f)}")


def check_automorphisms(host, generators) -> None:
    edges = {frozenset(e) for e in host.edges()}
    for p in generators:
        require(sorted(p) == list(range(host.n)),
                f"generator {p} is not a permutation")
        for u, v in host.edges():
            require(frozenset((p[u], p[v])) in edges,
                    f"generator {p} maps edge ({u},{v}) to a non-edge")


def check_invariant(witness, generators) -> None:
    chosen = set(witness)
    for p in generators:
        require({p[v] for v in chosen} == chosen,
                "invariant witness is not fixed by a generator")


def check_report(report, pattern, host, prints, generators, want: dict,
                 exact_witness: bool) -> None:
    """An ``ExtremalityReport`` against the expected values and against
    the independent footprint set and verified generators.  Witnesses are
    compared exactly only where the labelling is the captured one."""
    plain, inv = report.plain, report.invariant
    require(plain.value == want["plain"],
            f"plain value {plain.value}, expected {want['plain']}")
    require(inv.value == want["invariant"],
            f"invariant value {inv.value}, expected {want['invariant']}")
    require(len(set(plain.witness)) == plain.value,
            "plain witness size differs from the plain value")
    require(len(set(inv.witness)) == inv.value,
            "invariant witness size differs from the invariant value")
    check_hitting(prints, plain.witness, "plain witness")
    check_hitting(prints, inv.witness, "invariant witness")
    check_automorphisms(host, generators)
    check_invariant(inv.witness, generators)
    m = pattern.n
    require(plain.value <= inv.value <= m * plain.value,
            "costs violate plain <= invariant <= |V(K)| * plain")
    if exact_witness:
        require(list(plain.witness) == want["witness"],
                f"plain witness {list(plain.witness)}, "
                f"expected {want['witness']}")
        require(list(inv.witness) == want["invariant_witness"],
                "invariant witness differs from the expected one")


def orbit_sums(host, generators, prints, marked) -> list[Fraction]:
    """Per-footprint orbit sums recomputed from verified generators."""
    orbit_of = list(range(host.n))

    def find(v):
        while orbit_of[v] != v:
            orbit_of[v] = orbit_of[orbit_of[v]]
            v = orbit_of[v]
        return v

    for p in generators:
        for v in range(host.n):
            a, b = find(v), find(p[v])
            if a != b:
                orbit_of[max(a, b)] = min(a, b)
    members: dict[int, set[int]] = {}
    for v in range(host.n):
        members.setdefault(find(v), set()).add(v)
    chosen = set(marked)
    sums = []
    for f in prints:
        total = Fraction(0)
        for orbit in members.values():
            if f & orbit:
                total += Fraction(len(f & orbit) * len(orbit & chosen),
                                  len(orbit))
        sums.append(total)
    return sums


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a graph6 string with n < 258048."""
    if text[0] == "~":
        n = 0
        for ch in text[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    bits = []
    for ch in body:
        value = ord(ch) - 63
        bits.extend(value >> (5 - i) & 1 for i in range(6))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    require(len(body) == (n * (n - 1) // 2 + 5) // 6,
            f"graph6 {text!r} has the wrong length")
    return n, edges


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0} if n else set()
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# OEIS counts the scans must reproduce: all connected graphs (A001349) and
# all k-regular graphs, connected or not (A005638, A033483, A165627)
CONNECTED_COUNTS = {5: 21, 6: 112, 7: 853}
REGULAR_COUNTS = {
    3: {4: 1, 6: 2, 8: 6, 10: 21},
    4: {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 60},
    5: {6: 1, 8: 3, 10: 60},
}


def check_scan(scan: str, doc: dict, want: dict) -> None:
    """A scan document against the expected records and the OEIS counts,
    with every record's graph decoded and inspected here."""
    records = doc["records"]
    require(doc["candidate_count"] == want["candidate_count"]
            == len(records),
            f"{scan}: {doc['candidate_count']} candidates, "
            f"expected {want['candidate_count']}")
    require(records == want["records"], f"{scan}: records differ")
    require(doc["classification"] == want["classification"],
            f"{scan}: classification differs")
    require(doc["counterexamples"] == [], f"{scan}: counterexamples found")
    g6s = [line.split(" ", 1)[0] for line in records]
    require(len(set(g6s)) == len(g6s), f"{scan}: duplicate candidates")
    graphs = [decode_graph6(g6) for g6 in g6s]
    if scan == "connected-extremal":
        by_n: dict[int, int] = {}
        for n, edges in graphs:
            require(connected(n, edges), f"{scan}: disconnected candidate")
            by_n[n] = by_n.get(n, 0) + 1
        require(by_n == CONNECTED_COUNTS,
                f"{scan}: counts {by_n}, OEIS A001349 gives "
                f"{CONNECTED_COUNTS}")
    elif scan == "dense":
        by_k: dict[int, dict[int, int]] = {}
        for n, edges in graphs:
            deg = set(degrees(n, edges))
            require(len(deg) == 1, f"{scan}: irregular candidate")
            k = deg.pop()
            by_k.setdefault(k, {})
            by_k[k][n] = by_k[k].get(n, 0) + 1
        require(by_k == REGULAR_COUNTS,
                f"{scan}: counts {by_k}, OEIS gives {REGULAR_COUNTS}")
    else:
        for n, edges in graphs:
            require(connected(n, edges) and len(set(degrees(n, edges))) == 1,
                    f"{scan}: candidate not connected and regular")
