"""Host and pattern builders for the benchmark instances.

Every builder is deterministic; the only randomness is the explicit
``random.Random`` passed to ``relabelled`` and ``gnp``.
"""
from __future__ import annotations

import random
from itertools import combinations

from symcover import Graph


def circulant(n: int, steps) -> Graph:
    edges = {(min(v, (v + s) % n), max(v, (v + s) % n))
             for v in range(n) for s in steps}
    return Graph(n, sorted(edges))


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph(n, [(v, v ^ 1 << b) for v in range(n) for b in range(d)
                     if v < v ^ 1 << b])


def kneser(n: int, k: int) -> Graph:
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    return Graph(len(subsets),
                 [(i, j) for i, j in combinations(range(len(subsets)), 2)
                  if not subsets[i] & subsets[j]])


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u, v in combinations(range(q), 2)
                     if (v - u) % q in squares])


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                     if rng.random() < p])


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)
