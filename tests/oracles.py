"""Brute-force reference implementations used to pin down expected values.

Everything here favours obviousness over speed: permutations are enumerated
outright, subsets are scanned in ascending size, and no pruning beyond the
definitions is applied.  Keep these functions dumb; the point is that their
correctness can be checked by reading them once.
"""

from __future__ import annotations

from itertools import combinations, permutations

from symcover.graphs import Graph


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps edges onto edges, as tuples."""
    n = g.n
    edges = set(g.edges())
    found = []
    for perm in permutations(range(n)):
        if all(((perm[u], perm[v]) in edges or (perm[v], perm[u]) in edges) == ((u, v) in edges)
               for u in range(n) for v in range(u + 1, n)):
            found.append(perm)
    return found


def generated_group(gens, n: int) -> set[tuple[int, ...]]:
    """Every permutation of range(n) that the generators reach by
    composition, starting from the identity."""
    identity = tuple(range(n))
    group = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                queue.append(q)
    return group


def brute_orbits(g: Graph) -> list[tuple[int, ...]]:
    """Vertex orbits under the full automorphism group, sorted by minimum."""
    perms = brute_automorphisms(g)
    remaining = set(range(g.n))
    out = []
    while remaining:
        v = min(remaining)
        orbit = {perm[v] for perm in perms}
        out.append(tuple(sorted(orbit)))
        remaining -= orbit
    return out


def brute_footprints(pattern: Graph, host: Graph) -> list[frozenset[int]]:
    """Vertex sets of injective edge-preserving maps, via raw enumeration."""
    found = set()
    p_edges = pattern.edges()
    for image in permutations(range(host.n), pattern.n):
        if all(host.rows[image[u]] >> image[v] & 1 for u, v in p_edges):
            found.add(frozenset(image))
    return sorted(found, key=sorted)


def reference_match_order(g: Graph) -> list[int]:
    """The footprint matcher's vertex order by its definition: start at a
    maximum-degree vertex, then always take the vertex with the most
    already-ordered neighbors (degree, then lowest id, as tie breaks)."""
    rows = g.rows
    remaining = set(range(g.n))
    order: list[int] = []
    placed = 0
    while remaining:
        best = max(remaining, key=lambda v: (
            (rows[v] & placed).bit_count(), rows[v].bit_count(), -v))
        order.append(best)
        remaining.discard(best)
        placed |= 1 << best
    return order


def reference_back_edges(g: Graph, order: list[int]) -> list[list[int]]:
    """For each position of ``order``, the earlier positions holding
    neighbors of its vertex, by one adjacency test per pair."""
    return [[j for j in range(idx) if g.has_edge(u, order[j])]
            for idx, u in enumerate(order)]


def brute_min_hitting(family, n: int) -> tuple[int, tuple[int, ...]]:
    """Smallest set meeting every member of `family`, first in lex order."""
    sets = [frozenset(f) for f in family]
    if not sets:
        return 0, ()
    for size in range(n + 1):
        for cand in combinations(range(n), size):
            chosen = set(cand)
            if all(chosen & f for f in sets):
                return size, cand
    raise AssertionError("a family member must be empty")


def brute_min_weighted_hitting(family, costs) -> tuple[int, tuple[int, ...]]:
    """Least total cost of a set of units meeting every member of `family`,
    where unit u costs `costs[u]`; among the cheapest sets, the sorted tuple
    that is first in lex order."""
    sets = [frozenset(f) for f in family]
    units = sorted(costs)
    best = None
    for size in range(len(units) + 1):
        for cand in combinations(units, size):
            if all(not f.isdisjoint(cand) for f in sets):
                key = (sum(costs[u] for u in cand), cand)
                if best is None or key < best:
                    best = key
    if best is None:
        raise AssertionError("a family member must be empty")
    return best


def brute_min_invariant_cover(footprints, orbits) -> tuple[int, tuple[int, ...]]:
    """Smallest union of whole orbits meeting every footprint.

    Returns the total vertex count and the chosen union, scanning orbit
    subsets in ascending total weight.
    """
    sets = [frozenset(f) for f in footprints]
    options = []
    for take in range(len(orbits) + 1):
        for combo in combinations(range(len(orbits)), take):
            union = set()
            for i in combo:
                union |= set(orbits[i])
            options.append((len(union), tuple(sorted(union))))
    options.sort()
    for weight, union in options:
        chosen = set(union)
        if all(chosen & f for f in sets):
            return weight, union
    raise AssertionError("the full vertex set must be a cover")


def reference_cover_setup(set_masks) -> tuple[list[int], list[int]]:
    """The cover search's sets and unit index as its constructor built them
    from raw sets before callers passed them in search order: dedup, sort by
    (size, mask), drop every set that contains another when sizes differ,
    and OR bit i into ``inc[u]`` for every unit u of set i."""
    sets = sorted(set(set_masks), key=lambda s: (s.bit_count(), s))
    if sets and sets[0].bit_count() < sets[-1].bit_count():
        kept = []
        for s in sets:
            if not any(t & s == t for t in kept):
                kept.append(s)
        sets = kept
    units = 0
    for s in sets:
        units |= s
    inc = [0] * units.bit_length()
    for i, s in enumerate(sets):
        for u in range(s.bit_length()):
            if s >> u & 1:
                inc[u] |= 1 << i
    return sets, inc


def reference_pack_bound(sets, costs, live, banned, stop) -> int:
    """The cover search's pack bound as it read set i of the search order
    at bit i of ``live``: pack the lowest live set, price it at the
    cheapest of its units outside ``banned``, drop every live set meeting
    those units, and give ``stop`` once the bound reaches it or a live set
    has no such unit.  Units are summed set by set, with no index."""
    bound = 0
    while live:
        r = sets[(live & -live).bit_length() - 1] & ~banned
        if not r:
            return stop
        bound += min(costs[u] for u in range(r.bit_length()) if r >> u & 1)
        if bound >= stop:
            return stop
        for i, s in enumerate(sets):
            if s & r:
                live &= ~(1 << i)
    return bound


def brute_canonical_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Canonical edge set: the one whose column-major upper-triangle bit
    string is lexicographically smallest over all relabelings."""
    n = g.n
    best = None
    for perm in permutations(range(n)):
        bits = []
        for v in range(n):
            for u in range(v):
                bits.append(g.rows[perm[u]] >> perm[v] & 1)
        if best is None or bits < best:
            best = bits
    edges = []
    i = 0
    for v in range(n):
        for u in range(v):
            if best[i]:
                edges.append((u, v))
            i += 1
    return tuple(sorted(edges))


def brute_graph_classes(n: int) -> int:
    """Number of isomorphism classes on n vertices, by canonicalizing every
    edge mask."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        seen.add(brute_canonical_edges(Graph(n, edges)))
    return len(seen)
