"""Automorphism groups, orbits, and vertex transitivity."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import symcover.symmetry
from conftest import (circulant, cube, hypercube, kneser, paley, petersen,
                      prism, random_cubic, relabelled)
from oracles import brute_automorphisms, brute_orbits, generated_group
from symcover.copies import _match_order
from symcover.graphs import Graph, disjoint_union, generate
from symcover.symmetry import (
    AutomorphismGroup,
    automorphisms,
    is_vertex_transitive,
    orbits,
    uncached_orbits,
)


def is_automorphism(g: Graph, perm) -> bool:
    return g.relabel(perm) == g


def all_small_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


class TestGroupOrder:
    def test_matches_brute_force_on_all_graphs_up_to_4(self):
        for n in range(5):
            for g in all_small_graphs(n):
                assert automorphisms(g).order == len(brute_automorphisms(g))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randrange(5, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = Graph(n, edges)
            assert automorphisms(g).order == len(brute_automorphisms(g))

    def test_named_graphs(self):
        import math
        for n in range(1, 7):
            assert automorphisms(generate(f"complete:{n}")).order == math.factorial(n)
        assert automorphisms(generate("cycle:6")).order == 12
        assert automorphisms(generate("path:4")).order == 2
        assert automorphisms(petersen()).order == 120
        assert automorphisms(cube()).order == 48
        two_k5 = disjoint_union(generate("complete:5"), generate("complete:5"))
        assert automorphisms(two_k5).order == 28800

    def test_large_order_is_exact(self):
        assert automorphisms(generate("complete:13")).order == 6227020800


class TestElements:
    def test_elements_are_exactly_the_automorphisms(self):
        # the group the generators generate; on the last four a level's
        # witnesses reach images it never searched
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        for g in (generate("cycle:5"), generate("tailed-star:3"), prism(),
                  cube(), k33, generate("cycle:8"), circulant(8, (1, 2))):
            group = automorphisms(g)
            elems = generated_group(group.generators, g.n)
            assert len(elems) == group.order
            assert elems == set(brute_automorphisms(g))

    def test_generators_are_automorphisms(self):
        # after Petersen, hosts on which an index-order search ran for minutes
        # the generator counts are pinned: the bench gate walks every edge
        # once per generator, so a chain change that moves them moves the
        # bench too
        rng = random.Random(1)
        for g, order, count in (
            (petersen(), 120, 7),
            (random_cubic(random.Random(3), 60), 1, 0),
            (kneser(8, 3), 40320, 18),
            (relabelled(circulant(32, (1, 4)), rng)[0], 64, 3),
            (relabelled(hypercube(6), rng)[0], 46080, 14),
            (relabelled(circulant(40, (1, 7)), rng)[0], 80, 3),
        ):
            group = automorphisms(g)
            assert group.order == orbits(g).group_order == order
            assert len(group.generators) == count
            assert all(is_automorphism(g, p) for p in group.generators)

    def test_reached_images_are_not_searched(self, monkeypatch):
        # every vertex of C(20;1,3) is an image of the first base point,
        # but the first witnesses found already reach most of them
        g, _ = relabelled(circulant(20, (1, 3)), random.Random(5))
        base = 1 << _match_order(g)[0]
        level0 = []
        embed = symcover.symmetry._embed

        def counting(hrows, back, elig, leaf):
            if elig[0] != base:
                level0.append(elig[0])
            return embed(hrows, back, elig, leaf)

        monkeypatch.setattr(symcover.symmetry, "_embed", counting)
        group = symcover.symmetry._automorphism_group.__wrapped__(g)
        assert group.order == 40
        assert 0 < len(level0) < g.n - 1
        assert all(is_automorphism(g, p) for p in group.generators)


class TestOrbits:
    def test_matches_brute_force_on_all_graphs_up_to_4(self):
        for n in range(5):
            for g in all_small_graphs(n):
                part = orbits(g)
                assert sorted(part.orbits) == brute_orbits(g)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randrange(5, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = Graph(n, edges)
            assert sorted(orbits(g).orbits) == brute_orbits(g)

    def test_partition_structure(self):
        g = generate("tailed-star:4")
        part = orbits(g)
        universe = sorted(v for orbit in part.orbits for v in orbit)
        assert universe == list(range(g.n))
        for oid, orbit in enumerate(part.orbits):
            for v in orbit:
                assert part.orbit_of[v] == oid
            assert part.masks[oid] == sum(1 << v for v in orbit)
        assert part.count == len(part.orbits)

    def test_uncached_orbits_are_rebuilt(self):
        g, _ = relabelled(circulant(20, (1, 3)), random.Random(7))
        part = orbits(g)
        fresh = uncached_orbits(g)
        assert fresh == part
        assert fresh is not part

    def test_tailed_star_orbits(self):
        # center, tail ray, leaf rays, and pendant are all distinguishable
        part = orbits(generate("tailed-star:4"))
        shape = sorted(len(o) for o in part.orbits)
        assert shape == [1, 1, 1, 3]


class TestRelabellingInvariance:
    HOSTS = {
        "C(12;1,5)": (circulant(12, (1, 5)), 768),
        "C(13;1,5)": (circulant(13, (1, 5)), 52),
        "C(20;1,3)": (circulant(20, (1, 3)), 40),
        "C(21;1,2,5)": (circulant(21, (1, 2, 5)), 42),
        "C(24;1,2,7)": (circulant(24, (1, 2, 7)), 48),
        "Q5": (hypercube(5), 3840),
        "Paley(29)": (paley(29), 406),
        "Kneser(7,2)": (kneser(7, 2), 5040),
        "tailed-star:4": (generate("tailed-star:4"), 6),
        "C(20;1,3)+Petersen": (
            disjoint_union(circulant(20, (1, 3)), petersen()), 4800),
    }

    @pytest.mark.parametrize("name", sorted(HOSTS))
    def test_order_and_orbits_follow_the_relabelling(self, name):
        g, order = self.HOSTS[name]
        assert automorphisms(g).order == order
        want = orbits(g).orbits
        rng = random.Random(name)
        for _ in range(3):
            h, perm = relabelled(g, rng)
            assert automorphisms(h).order == order
            moved = sorted(tuple(sorted(perm[v] for v in o)) for o in want)
            assert sorted(orbits(h).orbits) == moved


class TestVertexTransitivity:
    def test_transitive_examples(self):
        assert is_vertex_transitive(generate("cycle:7"))
        assert is_vertex_transitive(generate("complete:4"))
        assert is_vertex_transitive(generate("cocktail:8"))
        assert is_vertex_transitive(petersen())
        assert is_vertex_transitive(prism())
        assert is_vertex_transitive(circulant(8, (2, 3, 4)))

    def test_intransitive_examples(self):
        assert not is_vertex_transitive(generate("path:3"))
        assert not is_vertex_transitive(generate("tailed-star:3"))
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_vertex_transitive(star)
