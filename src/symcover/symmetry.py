"""Automorphism groups, vertex orbits and transitivity.

Permutations are tuples ``p`` with ``p[v]`` the image of vertex v.  The
group is computed as a stabilizer chain whose base b_0, b_1, ... is the
vertex order of the footprint matcher: for each b_t we collect the images
of b_t under automorphisms that fix b_0..b_{t-1} pointwise.  The group
order is then the product of the numbers of images, which stays exact even
when the group is far too large to enumerate.

Witnesses come from the backtracking embedding search of ``copies``, run
with the graph as both pattern and host: b_0..b_{t-1} may map only to
themselves and b_t only to its candidate image, so the pinned vertices are
the first ones placed; every other vertex maps into its class under
color refinement from the degrees.  The search checks edges alone, which
is enough, since an edge-preserving bijection of a finite graph onto
itself is an automorphism.
Each level closes the orbit of b_t under the witnesses it has searched
(Schreier-Sims orbit closure, Sims 1970): an image they already reach needs
no search.  The group's generators are the searched witnesses of every
level, and the same closure, run on the generators, gives the vertex
orbits.

The orbits need less than the whole chain.  Refinement cannot split an
orbit, so each orbit lies inside one color class; once the witnesses
found so far join every class into one orbit, the orbits are proven, and
the deeper levels, which only the group order needs, are skipped (nauty
and Traces use the same fact, McKay & Piperno 2014).  A discrete
coloring admits only the identity, so the chain then searches nothing.

Two values are cached per graph.  ``orbits`` gives an ``OrbitPartition``:
the witnesses found up to that stop, and the vertex orbits, each kept
once as a vertex mask, with an ``orbits`` view listing them as vertex
tuples for printing.  ``automorphisms`` runs the chain to its end and
gives an ``AutomorphismGroup``, the same partition with all generators
and the exact order.  No element list is kept.  The same chain, started
from a coloring refined from other starting classes, gives the order of
the subgroup that keeps those classes; ``checks`` sizes weight orbits
that way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .copies import _back_edges, _embed, _match_order
from .errors import ResourceLimitError
from .graphs import Graph, bits_of

__all__ = [
    "OrbitPartition",
    "AutomorphismGroup",
    "automorphisms",
    "orbits",
    "is_vertex_transitive",
    "VERTEX_CAP",
]

VERTEX_CAP = 64


def _refined(g: Graph, colors) -> tuple:
    """The equitable coloring reached from the starting ``colors`` (any
    hashable values, one per vertex) by splitting classes by the number of
    neighbors in each class until no class splits.  Every automorphism
    that keeps the starting colors keeps the result.

    Only the partition is read, so the colors are numbered in order of
    first appearance, and a vertex alone in its class is not re-signed:
    nothing can split it."""
    rows = g.rows
    while True:
        cells = _cells(colors)
        masks = list(cells.values())
        palette: dict = {}
        new = [palette.setdefault(
                   (c,) if cells[c] == 1 << v else
                   (c, *[(rows[v] & m).bit_count() for m in masks]),
                   len(palette))
               for v, c in enumerate(colors)]
        if len(palette) == len(cells):
            return tuple(colors)
        colors = new


def _cells(colors) -> dict:
    """Each color's class as a vertex mask, keyed by color."""
    cells: dict = {}
    for v, col in enumerate(colors):
        cells[col] = cells.get(col, 0) | 1 << v
    return cells


@dataclass(frozen=True)
class OrbitPartition:
    """The vertex orbits of a graph's automorphism group, as masks, and
    automorphisms that generate a subgroup with the same orbits.  Orbits
    are numbered by their smallest member, ascending; ``orbit_of[v]`` is
    v's orbit id and ``masks[oid]`` the vertex mask of orbit oid.
    ``orbits`` is the view a report prints: the vertex tuples, in orbit id
    order."""

    generators: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    masks: tuple[int, ...]

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bits_of(m)) for m in self.masks)


@dataclass(frozen=True)
class AutomorphismGroup(OrbitPartition):
    """The orbit partition with generators of the whole group and its
    exact order."""

    order: int


@lru_cache(maxsize=4096)
def _symmetry(g: Graph, whole: bool) -> OrbitPartition:
    """The orbit partition of g, read off the chain until its witnesses
    join each color class into one orbit, or with ``whole`` the group,
    read off the chain to its end.  Uncapped: orbits need only
    generators."""
    if g.n > VERTEX_CAP:
        raise ResourceLimitError(
            f"automorphism engine supports at most {VERTEX_CAP} vertices, "
            f"got {g.n}", limit=VERTEX_CAP)
    colors = _refined(g, [row.bit_count() for row in g.rows])
    cells = _cells(colors).values()
    order = 1
    generators = []
    for size, searched in _chain(g, colors):
        order *= size
        generators += searched
        if not whole and _settled(cells, generators):
            break
    # each orbit closes the lowest vertex not yet placed
    orbit_of = [-1] * g.n
    masks = []
    left = (1 << g.n) - 1
    while left:
        mask = _close(left & -left, generators)
        for v in bits_of(mask):
            orbit_of[v] = len(masks)
        masks.append(mask)
        left &= ~mask
    part = (tuple(generators), tuple(orbit_of), tuple(masks))
    return AutomorphismGroup(*part, order) if whole else OrbitPartition(*part)


def _settled(cells, generators) -> bool:
    """Whether the generators join each class into one orbit.  They keep
    every class, so each orbit of the group lies inside one, and the
    orbits are then exactly the classes."""
    return all(_close(c & -c, generators) == c for c in cells)


def _chain(g: Graph, colors):
    """The stabilizer chain of the group of automorphisms of g that keep
    each vertex in its class of the equitable coloring ``colors``, one
    level at a time: each level that finds a witness yields the size of
    the orbit of b_t its witnesses reach and those witnesses.  The sizes
    multiply to the group's order, and the witnesses generate it.

    Level t runs one pinned search per candidate image of b_t that the
    level's searched witnesses do not yet reach.  The searched witnesses
    of level t move b_t across its whole orbit under the stabilizer of
    the prefix, so with the deeper levels' they generate that stabilizer,
    and those of all levels generate the group; a level that finds none
    fixes b_t.  On a discrete coloring no automorphism but the identity
    keeps the classes, and the chain yields nothing."""
    n = g.n
    cells = _cells(colors)
    if len(cells) == n:
        return
    rows = g.rows
    # the base is the match order, so the pinned vertices are a prefix of
    # it; each position maps only into its vertex's color class
    order = _match_order(g)
    back = _back_edges(g, order)
    elig = [cells[colors[v]] for v in order]
    found = []

    def leaf(used: int, images) -> bool:
        perm = [0] * n
        for v, x in zip(order, images):
            perm[v] = x
        found.append(tuple(perm))
        return True

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
            if _embed(rows, back, pinned, leaf, [-1] * n):
                searched.append(found.pop())
                reached = _close(reached, searched)
        if searched:
            yield reached.bit_count(), searched
        elig[t] = 1 << i
        fixed |= 1 << i


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
    return _symmetry(g, True)


def orbits(g: Graph) -> OrbitPartition:
    """The vertex orbits of g, cached per graph; the chain stops once its
    witnesses join each color class into one orbit."""
    return _symmetry(g, False)


def uncached_orbits(g: Graph) -> OrbitPartition:
    """The orbits recomputed from scratch, past the cache, by the same
    early-stopping chain as ``orbits``, so a re-verification does not read
    back the result it checks."""
    return _symmetry.__wrapped__(g, False)


def is_vertex_transitive(g: Graph) -> bool:
    return g.n == 0 or len(orbits(g).masks) == 1
