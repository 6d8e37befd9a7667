"""Automorphism groups, vertex orbits, transitivity and isomorphism tests.

Permutations are tuples ``p`` with ``p[v]`` the image of vertex v.  The
group is computed as a stabilizer chain whose base b_0, b_1, ... is the
vertex order of the footprint matcher: for each b_t we collect the images
of b_t under automorphisms that fix b_0..b_{t-1} pointwise.  The group
order is then the product of the numbers of images, which stays exact even
when the group is far too large to enumerate.

Witnesses come from the backtracking embedding search of ``copies``, run
with the graph as both pattern and host: b_0..b_{t-1} may map only to
themselves and b_t only to its candidate image, so the pinned vertices are
the first ones placed; every other vertex maps into its ``refine_colors``
class.  The search checks edges alone, which is enough, since an
edge-preserving bijection of a finite graph onto itself is an automorphism.
Each level closes the orbit of b_t under the witnesses it has searched
(Schreier-Sims orbit closure, Sims 1970): an image they already reach needs
no search.  The group's generators are the searched witnesses of every
level, and the same closure, run on the generators, gives the vertex
orbits.

One group is cached per graph: its exact order, its generators and the
orbit partition that ``orbits`` reads.  No element list is kept.  The
same chain, started from a coloring refined from other starting classes,
gives the order of the subgroup that keeps those classes; ``checks``
sizes weight orbits that way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .copies import _back_edges, _embed, _match_order
from .errors import ResourceLimitError
from .graphs import Graph, bits_of

__all__ = [
    "AutomorphismGroup",
    "OrbitPartition",
    "automorphisms",
    "orbits",
    "is_vertex_transitive",
    "is_isomorphic",
    "refine_colors",
    "VERTEX_CAP",
]

VERTEX_CAP = 64


def refine_colors(g: Graph) -> tuple[int, ...]:
    """Equitable vertex coloring: start from degrees and split classes by
    the multiset of neighbor colors until stable.  The numbering depends
    only on the isomorphism class, not the labeling."""
    return _refined(g, [g.degree(v) for v in range(g.n)])


def _refined(g: Graph, colors) -> tuple[int, ...]:
    """The equitable coloring that ``refine_colors`` reaches from the
    starting ``colors`` (any mutually comparable values, one per vertex).
    Every automorphism that keeps the starting colors keeps the result."""
    n = g.n
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
    """Automorphism group of a graph: exact order, generators, and their
    orbit ``partition``."""

    def __init__(self, n: int, order: int, generators):
        self.n = n
        self.order = order
        self.generators = generators
        self.partition = _orbit_partition(self)


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
    """The whole group, uncapped: orbits need only its generators."""
    if g.n > VERTEX_CAP:
        raise ResourceLimitError(
            f"automorphism engine supports at most {VERTEX_CAP} vertices, "
            f"got {g.n}", limit=VERTEX_CAP)
    return AutomorphismGroup(g.n, *_chain(g, refine_colors(g)))


def _chain(g: Graph, colors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The exact order and generators of the group of automorphisms of g
    that keep each vertex in its class of the equitable coloring
    ``colors``.

    Level t runs one pinned search per candidate image of b_t that the
    level's searched witnesses do not yet reach, and adds each witness it
    finds to the generators.  The searched witnesses of level t move b_t
    across its whole orbit under the stabilizer of the prefix, so with
    the deeper levels' they generate that stabilizer, and those of all
    levels generate the group."""
    n = g.n
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

    generators = []
    size = 1
    fixed = 0
    for t, i in enumerate(order):
        reached = 1 << i  # the images of i the level's witnesses reach
        searched = []
        for c in bits_of(elig[t] & ~fixed & ~(1 << i)):
            # c must look exactly like i toward the fixed prefix
            if reached >> c & 1 or rows[c] & fixed != rows[i] & fixed:
                continue
            pinned = elig.copy()
            pinned[t] = 1 << c
            if _embed(rows, back, pinned, leaf):
                searched.append(found.pop())
                reached = _close(reached, searched)
        generators += searched
        size *= reached.bit_count()
        elig[t] = 1 << i
        fixed |= 1 << i
    return size, tuple(generators)


def _close(mask: int, gens) -> int:
    """The vertex mask closed under the permutations ``gens``."""
    queue = list(bits_of(mask))
    while queue:
        p = queue.pop()
        for s in gens:
            q = s[p]
            if not mask >> q & 1:
                mask |= 1 << q
                queue.append(q)
    return mask


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
    """Closes the lowest vertex not yet placed, until every vertex is."""
    orbit_of = [-1] * aut.n
    masks = []
    left = (1 << aut.n) - 1
    while left:
        mask = _close(left & -left, aut.generators)
        for v in bits_of(mask):
            orbit_of[v] = len(masks)
        masks.append(mask)
        left &= ~mask
    return OrbitPartition(
        orbit_of=tuple(orbit_of),
        orbits=tuple(tuple(bits_of(m)) for m in masks),
        group_order=aut.order,
        generators=aut.generators,
        masks=tuple(masks),
    )


def is_vertex_transitive(g: Graph) -> bool:
    return g.n == 0 or orbits(g).count == 1
