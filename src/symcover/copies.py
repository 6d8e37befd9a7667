"""Enumeration of subgraph-copy footprints.

A footprint of a pattern K in a host G is the vertex set of a (not
necessarily induced) subgraph of G isomorphic to K.

The matcher places K's vertices in one fixed order.  Two vertices of K
are twins when they share their open or their closed neighborhood, and
swapping them is an automorphism of K, so of the embeddings that differ
by swaps of twins it keeps only the one whose images increase along each
twin class in that order.  Each copy keeps at least one embedding (one
when the twins generate Aut(K), as for paths on three vertices, stars,
tailed stars and complete graphs), and distinct copies on one vertex set
still collapse to one footprint.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError, ResourceLimitError
from .graphs import Graph, bits_of

__all__ = ["CopyFamily", "enumerate_footprints", "footprints_of",
           "contains_copy", "FOOTPRINT_CAP"]

FOOTPRINT_CAP = 10**6


@dataclass(frozen=True)
class CopyFamily:
    """All footprints of one pattern in one host, sorted, each a sorted
    vertex tuple of size exactly ``pattern_order``."""

    pattern_order: int
    footprints: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for f in self.footprints:
            if len(f) != self.pattern_order:
                raise ValueError(
                    f"footprint {f} has size {len(f)}, "
                    f"expected {self.pattern_order}")

    def __len__(self):
        return len(self.footprints)

    def masks(self) -> tuple[int, ...]:
        out = []
        try:
            for f in self.footprints:
                m = 0
                for v in f:
                    m |= 1 << v
                out.append(m)
        except ValueError:  # a negative shift; no check on the happy path
            raise PreconditionError(
                f"footprint {f} has a negative vertex") from None
        return tuple(out)


def _match_order(g: Graph) -> list[int]:
    """Vertices ordered for the backtracking matcher: start at a
    maximum-degree vertex, then always prefer vertices with the most
    already-ordered neighbors (degree, then id, as tie breaks).

    Each unplaced vertex keeps one packed key, placed neighbors * n**2 +
    degree * n + (n - 1 - v), whose largest value is the next pick; placing
    a vertex bumps the keys of its unplaced neighbors."""
    n = g.n
    rows = g.rows
    nn = n * n
    keys = [row.bit_count() * n + n - 1 - v for v, row in enumerate(rows)]
    order: list[int] = []
    placed = 0
    for _ in range(n):
        best = n - 1 - max(keys) % n
        order.append(best)
        keys[best] = -1
        placed |= 1 << best
        for w in bits_of(rows[best] & ~placed):
            keys[w] += nn
    return order


def _back_edges(g: Graph, order: list[int]) -> list[list[int]]:
    """For each position of ``order``, the earlier positions holding
    neighbors of its vertex, ascending."""
    rows = g.rows
    pos = [0] * g.n
    for idx, u in enumerate(order):
        pos[u] = idx
    back: list[list[int]] = [[] for _ in order]
    for j, u in enumerate(order):
        for w in bits_of(rows[u]):
            if pos[w] > j:
                back[pos[w]].append(j)
    return back


def _twin_order(g: Graph, order: list[int]) -> list[int]:
    """For each position of ``order``, the previous position holding a twin
    of its vertex, or -1.  Twins share their open neighborhood or their
    closed one; swapping two twins is an automorphism, and a vertex has
    twins of at most one kind (an open twin is not adjacent to it, a
    closed twin is)."""
    rows = g.rows
    last: dict[int, int] = {}
    above = []
    for idx, u in enumerate(order):
        j = -1
        # open keys are >= 0 and closed keys < 0, so the kinds never meet
        for key in (rows[u], ~(rows[u] | 1 << u)):
            j = last.get(key, j)
            last[key] = idx
        above.append(j)
    return above


def _embed(hrows, back, elig, leaf, above=None) -> bool:
    """Backtracking embedding search.  Position idx takes an unused host
    vertex of ``elig[idx]`` adjacent to the images of the positions in
    ``back[idx]`` and, when ``above`` names an earlier position
    ``above[idx] >= 0``, above that position's image.  ``leaf(used,
    images)`` runs at each complete embedding (``used`` is the image
    mask); the search stops, returning True, as soon as it returns True.

    ``above`` from ``_twin_order`` keeps, of the embeddings that differ by
    swaps of the pattern's twins, the one whose images increase along each
    twin class: one embedding per copy up to twin swaps."""
    k = len(elig)
    images = [0] * k
    if above is None:
        above = [-1] * k

    def place(idx: int, used: int) -> bool:
        if idx == k:
            return leaf(used, images)
        cand = elig[idx] & ~used
        for j in back[idx]:
            cand &= hrows[images[j]]
            if not cand:
                return False
        j = above[idx]
        if j >= 0:
            cand &= -(2 << images[j])
        while cand:
            low = cand & -cand
            images[idx] = low.bit_length() - 1
            if place(idx + 1, used | low):
                return True
            cand ^= low
        return False

    return place(0, 0)


def _run_matcher(pattern: Graph, host: Graph, *, first_only: bool,
                 cap: int = FOOTPRINT_CAP):
    """The footprint masks of ``pattern`` in ``host``, or a single-element
    set as soon as one embedding exists when ``first_only`` is set."""
    if pattern.n == 0:
        raise PreconditionError("pattern must have at least one vertex")
    results: set[int] = set()
    if pattern.n > host.n:
        return results
    order = _match_order(pattern)
    hrows = host.rows
    # host vertices eligible per pattern vertex, by degree
    elig = []
    for u in order:
        need = pattern.degree(u)
        m = 0
        for x in range(host.n):
            if hrows[x].bit_count() >= need:
                m |= 1 << x
        elig.append(m)

    def leaf(used: int, images) -> bool:
        results.add(used)
        if len(results) > cap:
            raise ResourceLimitError(
                f"footprint count exceeds the cap {cap}", limit=cap)
        return first_only

    _embed(hrows, _back_edges(pattern, order), elig, leaf,
           _twin_order(pattern, order))
    return results


def enumerate_footprints(pattern: Graph, host: Graph,
                         cap: int = FOOTPRINT_CAP) -> CopyFamily:
    """All footprints of ``pattern`` in ``host``, deterministically sorted.

    Raises ResourceLimitError when the number of distinct footprints would
    exceed ``cap``; never returns a truncated family.
    """
    masks = _run_matcher(pattern, host, first_only=False, cap=cap)
    footprints = sorted(tuple(bits_of(m)) for m in masks)
    return CopyFamily(pattern_order=pattern.n, footprints=tuple(footprints))


@lru_cache(maxsize=8192)
def _footprints_cached(pattern: Graph, host: Graph, cap: int) -> CopyFamily:
    return enumerate_footprints(pattern, host, cap)


def footprints_of(pattern: Graph, host: Graph,
                  cap: int = FOOTPRINT_CAP) -> CopyFamily:
    """Cached enumerate_footprints.  The cache is keyed positionally, so
    calls that leave ``cap`` out and calls that pass it share one entry."""
    return _footprints_cached(pattern, host, cap)


def contains_copy(pattern: Graph, host: Graph) -> bool:
    """Whether the host has at least one subgraph copy of the pattern.
    Stops at the first embedding found."""
    return bool(_run_matcher(pattern, host, first_only=True))
