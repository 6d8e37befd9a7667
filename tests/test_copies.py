"""Footprint enumeration for subgraph copies."""

from __future__ import annotations

import random

import pytest

from conftest import petersen, random_connected_graph
from oracles import (brute_automorphisms, brute_footprints,
                     reference_back_edges, reference_match_order)
from symcover.errors import PreconditionError, ResourceLimitError
from symcover.graphs import Graph, disjoint_union, generate
from symcover.copies import (
    FOOTPRINT_CAP,
    CopyFamily,
    _back_edges,
    _embed,
    _match_order,
    _twin_order,
    contains_copy,
    enumerate_footprints,
    footprints_of,
)
from symcover.symmetry import automorphisms

# patterns with twin classes: vertices that share their open or their
# closed neighborhood, whose swaps the matcher breaks
TWIN_PATTERNS = (
    generate("tailed-star:4"), generate("complete:4"),
    generate("cocktail:6"),
    Graph(5, [(u, v) for u in range(2) for v in range(2, 5)]),  # K(2,3)
    Graph(3), generate("complete:2"),
    disjoint_union(generate("path:3"), Graph(2)),
)


def assert_matches_oracle(pattern: Graph, host: Graph):
    family = enumerate_footprints(pattern, host)
    got = [frozenset(f) for f in family.footprints]
    assert got == brute_footprints(pattern, host)


class TestEnumeration:
    def test_triangle_in_complete_graph(self):
        family = footprints_of(generate("complete:3"), generate("complete:5"))
        assert len(family) == 10
        assert all(len(f) == 3 for f in family.footprints)

    def test_path_footprints_collapse_reversals(self):
        # both traversals of a path leave the same footprint
        family = footprints_of(generate("path:3"), generate("cycle:4"))
        assert len(family) == 4

    def test_no_copies(self):
        family = footprints_of(generate("complete:4"), petersen())
        assert len(family) == 0

    def test_pattern_larger_than_host(self):
        family = footprints_of(generate("complete:4"), generate("complete:3"))
        assert len(family) == 0

    def test_matches_oracle_on_fixed_pairs(self):
        hosts = [generate("cycle:6"), generate("complete:5"),
                 generate("complete:6"), generate("cocktail:6"),
                 generate("tailed-star:4"),
                 Graph(7, [(u, v) for u in range(3) for v in range(3, 7)])]
        patterns = [generate("complete:3"), generate("path:3"),
                    generate("path:4"), generate("cycle:4"),
                    generate("tailed-star:2"), *TWIN_PATTERNS]
        for host in hosts:
            for pattern in patterns:
                assert_matches_oracle(pattern, host)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(23)
        patterns = [generate("complete:3"), generate("tailed-star:3"),
                    generate("cycle:4"), Graph(4, [(0, 1), (1, 2), (1, 3)])]
        for _ in range(30):
            host = random_connected_graph(rng, rng.randrange(4, 8))
            assert_matches_oracle(rng.choice(patterns), host)

    def test_twin_patterns_match_oracle_on_random_hosts(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(3, 8)
            density = rng.random()
            host = Graph(n, [(u, v) for u in range(n)
                             for v in range(u + 1, n)
                             if rng.random() < density])
            assert_matches_oracle(rng.choice(TWIN_PATTERNS), host)

    def test_one_embedding_per_copy_up_to_twin_swaps(self):
        # the twins generate the whole group of the first four patterns;
        # path:4 has no twins, and the swaps within the 4-cycle's two
        # diagonal pairs make 4 of its 8 automorphisms
        host = petersen()
        for spec, kept in (("path:3", 1), ("tailed-star:3", 1),
                           ("complete:3", 1), ("tailed-star:4", 1),
                           ("path:4", 2), ("cycle:4", 2)):
            pattern = generate(spec)
            copies, rest = divmod(_count_embeddings(pattern, host, False),
                                  len(brute_automorphisms(pattern)))
            assert rest == 0
            assert _count_embeddings(pattern, host, True) == copies * kept, \
                spec

    def test_footprints_closed_under_automorphisms(self):
        host = petersen()
        family = footprints_of(generate("tailed-star:3"), host)
        prints = set(family.footprints)
        # closed under the generators is closed under the group
        for perm in automorphisms(host).generators:
            for f in family.footprints:
                assert tuple(sorted(perm[v] for v in f)) in prints

    def test_deterministic_order(self):
        family = footprints_of(generate("complete:3"), generate("complete:5"))
        assert list(family.footprints) == sorted(family.footprints)


def _count_embeddings(pattern: Graph, host: Graph, twins: bool) -> int:
    """Complete embeddings the matcher visits, with or without the
    pattern's twin order."""
    order = _match_order(pattern)
    elig = [(1 << host.n) - 1] * pattern.n
    count = 0

    def leaf(used, images):
        nonlocal count
        count += 1
        return False

    _embed(host.rows, _back_edges(pattern, order), elig, leaf,
           _twin_order(pattern, order) if twins else None)
    return count


class TestMatchPlan:
    def test_matches_the_reference_definitions(self):
        rng = random.Random(41)
        for n in range(1, 65):
            for density in (0.05, 0.3, 0.8):
                g = Graph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n)
                              if rng.random() < density])
                order = _match_order(g)
                assert order == reference_match_order(g)
                assert _back_edges(g, order) == reference_back_edges(g, order)

    def test_twin_positions(self):
        # tailed-star:4: center 0, rays 1..4, pendant 5 on ray 1; the rays
        # 2, 3, 4 share the neighborhood {0}
        pattern = generate("tailed-star:4")
        order = _match_order(pattern)
        above = _twin_order(pattern, order)
        rays = [order.index(v) for v in (2, 3, 4)]
        assert [above[i] for i in sorted(rays)] == [-1, *sorted(rays)[:2]]
        assert sum(j >= 0 for j in above) == 2


class TestLimitsAndErrors:
    def test_empty_pattern_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_footprints(Graph(0), generate("complete:3"))

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerate_footprints(generate("complete:3"),
                                 generate("complete:8"), cap=10)

    def test_cached_cap_is_part_of_the_key(self):
        pattern, host = generate("complete:3"), generate("complete:8")
        family = footprints_of(pattern, host)
        assert footprints_of(pattern, host, cap=FOOTPRINT_CAP) is family
        with pytest.raises(ResourceLimitError):
            footprints_of(pattern, host, cap=10)

    def test_family_validates_footprint_sizes(self):
        with pytest.raises(ValueError):
            CopyFamily(pattern_order=3, footprints=((0, 1),))


class TestContainsCopy:
    def test_positive(self):
        assert contains_copy(generate("path:4"), generate("cycle:5"))
        assert contains_copy(generate("cycle:5"), petersen())

    def test_negative(self):
        assert not contains_copy(generate("complete:3"), petersen())
        assert not contains_copy(generate("cycle:4"), petersen())

    def test_agrees_with_the_family(self):
        rng = random.Random(37)
        hosts = [generate("cycle:6"), generate("cocktail:6"), petersen()]
        hosts += [random_connected_graph(rng, rng.randrange(4, 9))
                  for _ in range(12)]
        patterns = TWIN_PATTERNS + (generate("path:4"), generate("cycle:4"),
                                    generate("complete:3"))
        for host in hosts:
            for pattern in patterns:
                assert contains_copy(pattern, host) == \
                    bool(enumerate_footprints(pattern, host))

    def test_masks(self):
        family = footprints_of(generate("complete:3"), generate("complete:4"))
        assert sorted(family.masks()) == [0b0111, 0b1011, 0b1101, 0b1110]
