"""Footprint enumeration for subgraph copies."""

from __future__ import annotations

import random

import pytest

from conftest import petersen, random_connected_graph
from oracles import brute_footprints
from symcover.errors import PreconditionError, ResourceLimitError
from symcover.graphs import Graph, generate
from symcover.copies import (
    FOOTPRINT_CAP,
    CopyFamily,
    contains_copy,
    enumerate_footprints,
    footprints_of,
)
from symcover.symmetry import automorphisms


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
                 generate("cocktail:6"), generate("tailed-star:4")]
        patterns = [generate("complete:3"), generate("path:3"),
                    generate("path:4"), generate("cycle:4"),
                    generate("tailed-star:2")]
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

    def test_masks(self):
        family = footprints_of(generate("complete:3"), generate("complete:4"))
        assert sorted(family.masks()) == [0b0111, 0b1011, 0b1101, 0b1110]
