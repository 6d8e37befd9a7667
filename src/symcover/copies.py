"""Enumeration of subgraph-copy footprints.

A footprint of a pattern K in a host G is the vertex set of a (not
necessarily induced) subgraph of G isomorphic to K.  Distinct embeddings
with the same image collapse to one footprint.
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
    already-ordered neighbors (degree, then id, as tie breaks)."""
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


def _back_edges(g: Graph, order: list[int]) -> list[list[int]]:
    """For each position of ``order``, the earlier positions holding
    neighbors of its vertex."""
    return [[j for j in range(idx) if g.has_edge(u, order[j])]
            for idx, u in enumerate(order)]


def _embed(hrows, back, elig, leaf) -> bool:
    """Backtracking embedding search.  Position idx takes an unused host
    vertex of ``elig[idx]`` adjacent to the images of the positions in
    ``back[idx]``.  ``leaf(used, images)`` runs at each complete embedding
    (``used`` is the image mask); the search stops, returning True, as
    soon as it returns True."""
    k = len(elig)
    images = [0] * k

    def place(idx: int, used: int) -> bool:
        if idx == k:
            return leaf(used, images)
        cand = elig[idx] & ~used
        for j in back[idx]:
            cand &= hrows[images[j]]
            if not cand:
                return False
        for x in bits_of(cand):
            images[idx] = x
            if place(idx + 1, used | 1 << x):
                return True
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

    _embed(hrows, _back_edges(pattern, order), elig, leaf)
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
