"""Automorphism groups, vertex orbits, and transitivity tests.

Permutations are tuples ``p`` with ``p[v]`` the image of vertex v.  The
group is computed as a stabilizer chain: for each base vertex i we collect
the images of i under automorphisms that fix 0..i-1 pointwise, together
with one witness permutation per image.  The group order is then the
product of the transversal sizes, which stays exact even when the group is
far too large to enumerate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceLimitError, VerificationError
from .graphs import Graph, bits_of

__all__ = [
    "AutomorphismGroup",
    "OrbitPartition",
    "automorphisms",
    "orbits",
    "is_vertex_transitive",
    "ORDER_CAP",
    "ELEMENT_CAP",
    "VERTEX_CAP",
]

ORDER_CAP = 10**9
ELEMENT_CAP = 10**6
VERTEX_CAP = 64


def refine_colors(g: Graph, seed=None) -> tuple[int, ...]:
    """Equitable vertex coloring: start from degrees (or a seed coloring) and
    split classes by the multiset of neighbor colors until stable.  The
    numbering depends only on the isomorphism class, not the labeling."""
    n = g.n
    colors = list(seed) if seed is not None else [g.degree(v) for v in range(n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in bits_of(g.rows[v]))))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return tuple(colors)
        colors = new


def _find_automorphism(g: Graph, colors, color_masks, i: int, c: int):
    """One automorphism fixing vertices 0..i-1 pointwise and sending i to c,
    or None.  Backtracks over the remaining vertices in index order with
    color and adjacency-consistency pruning."""
    n = g.n
    rows = g.rows
    mapping = list(range(i)) + [c] + [-1] * (n - i - 1)
    used = ((1 << i) - 1) | 1 << c

    def extend(v: int) -> bool:
        nonlocal used
        if v == n:
            return True
        cand = color_masks[colors[v]] & ~used
        row_v = rows[v]
        for u in range(v):
            if cand == 0:
                return False
            if row_v >> u & 1:
                cand &= rows[mapping[u]]
            else:
                cand &= ~rows[mapping[u]]
        for x in bits_of(cand):
            mapping[v] = x
            used |= 1 << x
            if extend(v + 1):
                return True
            used &= ~(1 << x)
        mapping[v] = -1
        return False

    if extend(i + 1):
        return tuple(mapping)
    return None


class AutomorphismGroup:
    """Automorphism group of a graph: exact order, generators, and (for
    small groups) the full element list."""

    def __init__(self, n: int, order: int, generators, transversals):
        self.n = n
        self.order = order
        self.generators = generators
        self._transversals = transversals
        self._elements = None

    def elements(self, cap: int = ELEMENT_CAP) -> tuple[tuple[int, ...], ...]:
        """All group elements, materialized once.  Errors above the cap
        rather than returning a partial list."""
        if self.order > cap:
            raise ResourceLimitError(
                f"group of order {self.order} exceeds the element cap {cap}",
                limit=cap,
            )
        if self._elements is None:
            identity = tuple(range(self.n))
            out = []

            def rec(level: int, acc):
                if level == len(self._transversals):
                    out.append(acc)
                    return
                for _, w in self._transversals[level]:
                    if w is None:
                        rec(level + 1, acc)
                    else:
                        rec(level + 1, tuple(acc[w[x]] for x in range(self.n)))

            rec(0, identity)
            if len(out) != self.order:
                raise VerificationError(
                    f"materialized {len(out)} elements of a group of order "
                    f"{self.order}")
            self._elements = tuple(out)
        return self._elements


@lru_cache(maxsize=4096)
def _automorphism_group(g: Graph) -> AutomorphismGroup:
    """The whole group, uncapped: orbits need only its generators."""
    n = g.n
    if n > VERTEX_CAP:
        raise ResourceLimitError(
            f"automorphism engine supports at most {VERTEX_CAP} vertices, "
            f"got {n}", limit=VERTEX_CAP)
    colors = refine_colors(g)
    color_masks: dict[int, int] = {}
    for v, col in enumerate(colors):
        color_masks[col] = color_masks.get(col, 0) | 1 << v
    rows = g.rows
    transversals = []
    generators = []
    order = 1
    for i in range(n):
        level = [(i, None)]
        low = (1 << i) - 1
        for c in range(i + 1, n):
            # c must look exactly like i toward the fixed prefix
            if colors[c] != colors[i] or rows[c] & low != rows[i] & low:
                continue
            w = _find_automorphism(g, colors, color_masks, i, c)
            if w is not None:
                level.append((c, w))
                generators.append(w)
        transversals.append(level)
        order *= len(level)
    return AutomorphismGroup(n, order, tuple(generators), transversals)


def automorphisms(g: Graph, order_cap: int = ORDER_CAP) -> AutomorphismGroup:
    group = _automorphism_group(g)
    if group.order > order_cap:
        raise ResourceLimitError(
            f"automorphism group order {group.order} exceeds the cap "
            f"{order_cap}", limit=order_cap)
    return group


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex orbits of the automorphism group.  Orbits are numbered by
    their smallest member, ascending; ``orbit_of[v]`` is v's orbit id."""

    orbit_of: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    group_order: int
    generators: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    def orbit_mask(self, oid: int) -> int:
        mask = 0
        for v in self.orbits[oid]:
            mask |= 1 << v
        return mask


@lru_cache(maxsize=4096)
def orbits(g: Graph) -> OrbitPartition:
    return _orbit_partition(_automorphism_group(g))


def uncached_orbits(g: Graph) -> OrbitPartition:
    """The orbits recomputed from scratch, past the group and orbit caches,
    so a re-verification does not read back the result it checks."""
    return _orbit_partition(_automorphism_group.__wrapped__(g))


def _orbit_partition(aut: AutomorphismGroup) -> OrbitPartition:
    n = aut.n
    orbit_of = [-1] * n
    orbit_list = []
    for v in range(n):
        if orbit_of[v] != -1:
            continue
        oid = len(orbit_list)
        queue = [v]
        orbit_of[v] = oid
        members = [v]
        while queue:
            x = queue.pop()
            for p in aut.generators:
                y = p[x]
                if orbit_of[y] == -1:
                    orbit_of[y] = oid
                    members.append(y)
                    queue.append(y)
        orbit_list.append(tuple(sorted(members)))
    return OrbitPartition(
        orbit_of=tuple(orbit_of),
        orbits=tuple(orbit_list),
        group_order=aut.order,
        generators=aut.generators,
    )


def is_vertex_transitive(g: Graph) -> bool:
    return g.n == 0 or orbits(g).count == 1
