"""Exact covering solvers and the extremality report."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import petersen, random_connected_graph
from oracles import (
    brute_footprints,
    brute_min_hitting,
    brute_min_invariant_cover,
    brute_orbits,
)
from symcover.copies import FOOTPRINT_CAP, CopyFamily, footprints_of
from symcover.covers import (
    NODE_BUDGET,
    CoverSolution,
    extremality_report,
    min_hitting_set,
    symmetric_vertex_representativity,
    vertex_representativity,
)
from symcover.errors import ResourceLimitError
from symcover.graphs import Graph, disjoint_union, generate


PATTERNS = [generate("complete:3"), generate("path:3"),
            generate("complete:4"), generate("tailed-star:3")]


def random_family(rng: random.Random, n: int) -> CopyFamily:
    size = rng.randrange(1, min(4, n + 1))
    count = rng.randrange(1, 9)
    prints = {tuple(sorted(rng.sample(range(n), size))) for _ in range(count)}
    prints = {f for f in prints if len(f) == size}
    return CopyFamily(pattern_order=size, footprints=tuple(sorted(prints)))


class TestMinHittingSet:
    def test_empty_family(self):
        sol = min_hitting_set(CopyFamily(pattern_order=3, footprints=()))
        assert sol.value == 0
        assert sol.witness == ()

    def test_matches_oracle_on_random_families(self):
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randrange(2, 9)
            family = random_family(rng, n)
            value, witness = brute_min_hitting(family.footprints, n)
            sol = min_hitting_set(family, n)
            assert sol.value == value
            assert sol.witness == witness

    def test_witness_is_lexicographically_first(self):
        family = CopyFamily(pattern_order=2,
                            footprints=((0, 3), (1, 3), (2, 3)))
        sol = min_hitting_set(family)
        assert sol.value == 1
        assert sol.witness == (3,)
        family = CopyFamily(pattern_order=2,
                            footprints=((0, 1), (2, 3)))
        assert min_hitting_set(family).witness == (0, 2)


class TestRepresentativity:
    def test_matches_oracle_on_random_hosts(self):
        rng = random.Random(31)
        for _ in range(60):
            host = random_connected_graph(rng, rng.randrange(3, 8))
            pattern = rng.choice(PATTERNS)
            prints = brute_footprints(pattern, host)
            want, want_witness = brute_min_hitting(prints, host.n)
            sol = vertex_representativity(pattern, host)
            assert sol.value == want
            assert sol.witness == want_witness

            want_sym, want_union = brute_min_invariant_cover(
                prints, brute_orbits(host))
            sym = symmetric_vertex_representativity(pattern, host)
            assert sym.value == want_sym
            assert sym.witness == want_union

    def test_witness_hits_every_footprint(self):
        host = petersen()
        pattern = generate("cycle:5")
        sol = vertex_representativity(pattern, host)
        marked = set(sol.witness)
        assert len(marked) == sol.value
        for f in footprints_of(pattern, host).footprints:
            assert marked & set(f)

    def test_invariant_witness_is_a_union_of_orbits(self):
        host = disjoint_union(generate("complete:5"), generate("complete:5"))
        sol = symmetric_vertex_representativity(generate("tailed-star:3"),
                                                host)
        assert sol.orbit_ids == (0,)
        assert sol.witness == tuple(range(10))
        assert sol.value == 10

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            vertex_representativity(generate("complete:3"),
                                    generate("complete:9"), node_budget=5)


class TestExtremalityReport:
    def test_expensive_instance(self, k5):
        report = extremality_report(generate("tailed-star:3"), k5)
        assert report.plain.value == 1
        assert report.invariant.value == 5
        assert report.ratio == 5
        assert report.is_extremal
        assert report.is_expensive_instance

    def test_not_extremal(self):
        report = extremality_report(generate("complete:3"),
                                    generate("complete:4"))
        assert report.plain.value == 2
        assert report.invariant.value == 4
        assert not report.is_extremal
        assert not report.is_expensive_instance

    def test_no_copies_is_extremal_but_not_expensive(self):
        report = extremality_report(generate("complete:4"), petersen())
        assert report.plain.value == 0
        assert report.invariant.value == 0
        assert report.ratio is None
        assert report.is_extremal
        assert not report.is_expensive_instance

    def test_memo_keys_on_values_not_call_form(self):
        pattern, host = generate("complete:3"), generate("complete:9")
        report = extremality_report(pattern, host)
        assert report is extremality_report(pattern, host, FOOTPRINT_CAP,
                                            NODE_BUDGET)
        with pytest.raises(ResourceLimitError):
            extremality_report(pattern, host, node_budget=5)

    def test_doc_shape(self, k5):
        doc = extremality_report(generate("tailed-star:3"), k5).to_doc()
        assert doc["vertex_representativity"] == 1
        assert doc["symmetric_representativity"] == 5
        assert doc["ratio"] == 5
        assert doc["witness"] == [0]
        assert doc["invariant_witness"] == [0, 1, 2, 3, 4]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_value_chain(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs)))
        host = Graph(n, sorted(edges))
        pattern = data.draw(st.sampled_from(PATTERNS))
        report = extremality_report(pattern, host)
        m = pattern.n
        assert 0 <= report.plain.value
        assert report.plain.value <= report.invariant.value
        assert report.invariant.value <= m * report.plain.value
        assert report.is_extremal == (
            report.invariant.value == m * report.plain.value)
