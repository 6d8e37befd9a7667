"""Shared graph builders for the test suite."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from itertools import combinations

import pytest

from symcover.graphs import Graph, generate, is_connected


def circulant(n: int, steps: tuple[int, ...]) -> Graph:
    edges = set()
    for v in range(n):
        for s in steps:
            u = (v + s) % n
            edges.add((min(v, u), max(v, u)))
    return Graph(n, sorted(edges))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def prism() -> Graph:
    return Graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def cube() -> Graph:
    edges = []
    for v in range(8):
        for bit in range(3):
            u = v ^ (1 << bit)
            if v < u:
                edges.append((v, u))
    return Graph(8, edges)


def frucht() -> Graph:
    """The Frucht graph: cubic on 12 vertices with only the identity as
    automorphism, from its LCF notation [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]."""
    shifts = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    return Graph(12, [(i, (i + 1) % 12) for i in range(12)]
                 + [(i, (i + s) % 12) for i, s in enumerate(shifts)])


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph(n, [(v, v ^ 1 << b) for v in range(n) for b in range(d)
                     if v < v ^ 1 << b])


def kneser(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of n points, adjacent when disjoint."""
    subsets = [set(c) for c in combinations(range(n), k)]
    pairs = combinations(range(len(subsets)), 2)
    return Graph(len(subsets),
                 [(i, j) for i, j in pairs if not subsets[i] & subsets[j]])


def paley(q: int) -> Graph:
    """Paley graph of a prime q = 1 mod 4: adjacent when the difference is
    a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u, v in combinations(range(q), 2)
                     if (v - u) % q in squares])


def random_cubic(rng: random.Random, n: int) -> Graph:
    """Random simple 3-regular graph by the pairing model, redrawn until
    the pairing has no loop or multiple edge."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v))
                 for u, v in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph(n, sorted(edges))


def relabelled(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    """The graph under a random relabelling, with the permutation used."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm), perm


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random connected graph: a random spanning tree plus random extras."""
    while True:
        edges = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u = order[rng.randrange(i)]
            v = order[i]
            edges.add((min(u, v), max(u, v)))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    edges.add((u, v))
        g = Graph(n, sorted(edges))
        if is_connected(g):
            return g


@contextmanager
def frames_left(count: int):
    """Lower the recursion limit to ``count`` frames above the caller's
    depth, and restore it after: a search more than ``count`` levels deep
    that took a frame per level would fail within milliseconds."""
    # frame 0 runs this body and frame 1 the context manager's __enter__
    depth, frame = 0, sys._getframe(2)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + count)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def k5() -> Graph:
    return generate("complete:5")


@pytest.fixture(scope="session")
def triangle() -> Graph:
    return generate("complete:3")
