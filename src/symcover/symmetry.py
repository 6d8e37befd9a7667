"""Automorphism groups, vertex orbits, transitivity and isomorphism tests.

Permutations are tuples ``p`` with ``p[v]`` the image of vertex v.  The
group is computed as a stabilizer chain whose base b_0, b_1, ... is the
vertex order of the footprint matcher: for each b_t we collect the images
of b_t under automorphisms that fix b_0..b_{t-1} pointwise, together with
one witness permutation per image.  The group order is then the product of
the transversal sizes, which stays exact even when the group is far too
large to enumerate.

Witnesses come from the backtracking embedding search of ``copies``, run
with the graph as both pattern and host: b_0..b_{t-1} may map only to
themselves and b_t only to its candidate image, so the pinned vertices are
the first ones placed; every other vertex maps into its ``refine_colors``
class.  The search checks edges alone, which is enough, since an
edge-preserving bijection of a finite graph onto itself is an automorphism.
Each level closes the orbit of b_t under the witnesses it has searched
(Schreier-Sims orbit closure, Sims 1970): an image they already reach gets
a composed witness, which fixes the prefix too, and no search.  The
group's generators are the searched witnesses of every level.

One group is cached per graph, with the orbit partition that ``orbits``
reads.  Its order is exact at any size; only ``elements``, which lists
every permutation, refuses a group above ``ELEMENT_CAP``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .copies import _back_edges, _embed, _match_order
from .errors import ResourceLimitError, VerificationError
from .graphs import Graph, bits_of

__all__ = [
    "AutomorphismGroup",
    "OrbitPartition",
    "automorphisms",
    "orbits",
    "is_vertex_transitive",
    "is_isomorphic",
    "refine_colors",
    "ELEMENT_CAP",
    "VERTEX_CAP",
]

ELEMENT_CAP = 10**6
VERTEX_CAP = 64


def refine_colors(g: Graph) -> tuple[int, ...]:
    """Equitable vertex coloring: start from degrees and split classes by
    the multiset of neighbor colors until stable.  The numbering depends
    only on the isomorphism class, not the labeling."""
    n = g.n
    colors = [g.degree(v) for v in range(n)]
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


class AutomorphismGroup:
    """Automorphism group of a graph: exact order, generators, their orbit
    ``partition``, and up to ``ELEMENT_CAP`` elements the element list.
    Level t of the transversals holds, for each image of the base point b_t,
    one witness that carries b_t there and fixes b_0..b_{t-1}, or None."""

    def __init__(self, n: int, order: int, generators, transversals):
        self.n = n
        self.order = order
        self.generators = generators
        self._transversals = transversals
        self.partition = _orbit_partition(self)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All group elements, built on each call.  Errors above
        ``ELEMENT_CAP`` rather than returning a partial list."""
        if self.order > ELEMENT_CAP:
            raise ResourceLimitError(
                f"group of order {self.order} exceeds the element cap "
                f"{ELEMENT_CAP}", limit=ELEMENT_CAP)
        identity = tuple(range(self.n))
        out = []

        def rec(level: int, acc):
            if level == len(self._transversals):
                out.append(acc)
                return
            for w in self._transversals[level]:
                if w is None:
                    rec(level + 1, acc)
                else:
                    rec(level + 1, tuple(acc[w[x]] for x in range(self.n)))

        rec(0, identity)
        if len(out) != self.order:
            raise VerificationError(
                f"materialized {len(out)} elements of a group of order "
                f"{self.order}")
        return tuple(out)


def _color_search(g: Graph, colors, host_colors):
    """g's match order, back edges, and per position the host color mask."""
    masks: dict[int, int] = {}
    for x, col in enumerate(host_colors):
        masks[col] = masks.get(col, 0) | 1 << x
    order = _match_order(g)
    return order, _back_edges(g, order), [masks[colors[v]] for v in order]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """One embedding search of g into h that keeps each vertex in its
    ``refine_colors`` class, whose numbering is labelling-invariant.  With
    equal edge counts an injective edge-preserving map is an isomorphism."""
    colors, host_colors = refine_colors(g), refine_colors(h)
    if g.edge_count != h.edge_count or sorted(colors) != sorted(host_colors):
        return False
    _, back, elig = _color_search(g, colors, host_colors)
    return _embed(h.rows, back, elig, lambda used, images: True)


@lru_cache(maxsize=4096)
def _automorphism_group(g: Graph) -> AutomorphismGroup:
    """The whole group, uncapped: orbits need only its generators.

    Level t runs one pinned search per candidate image of b_t that the
    level's searched witnesses do not yet reach, and adds each witness it
    finds to the generators.  The searched witnesses of level t move b_t
    across its whole orbit under the stabilizer of the prefix, so with
    the deeper levels' they generate that stabilizer, and those of all
    levels generate the group."""
    n = g.n
    if n > VERTEX_CAP:
        raise ResourceLimitError(
            f"automorphism engine supports at most {VERTEX_CAP} vertices, "
            f"got {n}", limit=VERTEX_CAP)
    colors = refine_colors(g)
    rows = g.rows
    # the base is the match order, so the pinned vertices are a prefix of it
    order, back, elig = _color_search(g, colors, colors)
    found = []

    def leaf(used: int, images) -> bool:
        perm = [0] * n
        for v, x in zip(order, images):
            perm[v] = x
        found.append(tuple(perm))
        return True

    transversals = []
    generators = []
    size = 1
    fixed = 0
    for t, i in enumerate(order):
        level = {i: None}  # image of i -> a witness carrying i there
        searched = []
        for c in bits_of(elig[t] & ~fixed & ~(1 << i)):
            # c must look exactly like i toward the fixed prefix
            if c in level or rows[c] & fixed != rows[i] & fixed:
                continue
            pinned = elig.copy()
            pinned[t] = 1 << c
            if _embed(rows, back, pinned, leaf):
                searched.append(found.pop())
                _close_orbit(level, searched)
        transversals.append(tuple(level.values()))
        generators += searched
        size *= len(level)
        elig[t] = 1 << i
        fixed |= 1 << i
    return AutomorphismGroup(n, size, tuple(generators), transversals)


def _close_orbit(reached: dict, gens) -> None:
    """Extend ``reached``, a map from points to witnesses carrying the base
    point there (None for the base point itself), to its orbit under
    ``gens``: when w carries it to p, the composition s∘w carries it to
    s[p]."""
    queue = list(reached)
    while queue:
        p = queue.pop()
        w = reached[p]
        for s in gens:
            q = s[p]
            if q not in reached:
                reached[q] = s if w is None else tuple(map(s.__getitem__, w))
                queue.append(q)


def automorphisms(g: Graph) -> AutomorphismGroup:
    """The group of g, cached per graph; its order is exact at any size."""
    return _automorphism_group(g)


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex orbits of the automorphism group.  Orbits are numbered by
    their smallest member, ascending; ``orbit_of[v]`` is v's orbit id and
    ``masks[oid]`` the vertex mask of orbit oid."""

    orbit_of: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    group_order: int
    generators: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbits(g: Graph) -> OrbitPartition:
    """The orbit partition stored with g's cached group."""
    return _automorphism_group(g).partition


def uncached_orbits(g: Graph) -> OrbitPartition:
    """The orbits recomputed from scratch, past the group cache, so a
    re-verification does not read back the result it checks."""
    return _automorphism_group.__wrapped__(g).partition


def _orbit_partition(aut: AutomorphismGroup) -> OrbitPartition:
    n = aut.n
    orbit_of = [-1] * n
    masks = []
    for v in range(n):
        if orbit_of[v] != -1:
            continue
        oid = len(masks)
        queue = [v]
        orbit_of[v] = oid
        mask = 1 << v
        while queue:
            x = queue.pop()
            for p in aut.generators:
                y = p[x]
                if orbit_of[y] == -1:
                    orbit_of[y] = oid
                    mask |= 1 << y
                    queue.append(y)
        masks.append(mask)
    return OrbitPartition(
        orbit_of=tuple(orbit_of),
        orbits=tuple(tuple(bits_of(m)) for m in masks),
        group_order=aut.order,
        generators=aut.generators,
        masks=tuple(masks),
    )


def is_vertex_transitive(g: Graph) -> bool:
    return g.n == 0 or orbits(g).count == 1
