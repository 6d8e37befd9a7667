"""Exact covering solvers and the extremality report."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import circulant, kneser, petersen, random_connected_graph
from oracles import (
    brute_footprints,
    brute_min_hitting,
    brute_min_invariant_cover,
    brute_min_weighted_hitting,
    brute_orbits,
)
import symcover.covers
from symcover.copies import (FOOTPRINT_CAP, CopyFamily, contains_copy,
                             enumerate_footprints, footprints_of)
from symcover.covers import (
    NODE_BUDGET,
    CoverSolution,
    _CoverSearch,
    _extremality_cached,
    _solve_cover,
    extremality_report,
    min_hitting_set,
    min_orbit_cover,
    symmetric_vertex_representativity,
    vertex_representativity,
)
from symcover.errors import PreconditionError, ResourceLimitError
from symcover.graphs import Graph, bits_of, disjoint_union, generate
from symcover.search import enum_graphs
from symcover.symmetry import automorphisms, uncached_orbits


PATTERNS = [generate("complete:3"), generate("path:3"),
            generate("complete:4"), generate("tailed-star:3")]


def random_family(rng: random.Random, n: int) -> CopyFamily:
    size = rng.randrange(1, min(4, n + 1))
    count = rng.randrange(1, 9)
    prints = {tuple(sorted(rng.sample(range(n), size))) for _ in range(count)}
    prints = {f for f in prints if len(f) == size}
    return CopyFamily(pattern_order=size, footprints=tuple(sorted(prints)))


def mixed_family(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """5 to 40 sets of sizes 1 to 6 over units 0..n-1, so that some sets
    contain others."""
    return [tuple(sorted(rng.sample(range(n), rng.randrange(1, 7))))
            for _ in range(rng.randrange(5, 41))]


def reverse_units(family, n):
    """The family with every unit u renamed n - 1 - u."""
    return [tuple(sorted(n - 1 - u for u in f)) for f in family]


def solve_family(family, costs):
    """(value, witness) of the cover search on raw unit sets."""
    masks = [sum(1 << u for u in f) for f in family]
    value, witness, _ = _solve_cover(masks, costs, NODE_BUDGET)
    return value, tuple(bits_of(witness))


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

    def test_matches_oracle_on_mixed_families(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randrange(10, 15)
            family = mixed_family(rng, n)
            # reversed units move the lex-min witness away from the
            # optimum's first cover, so the witness pass replaces it
            for sets in (family, reverse_units(family, n)):
                assert solve_family(sets, dict.fromkeys(range(n), 1)) == (
                    brute_min_hitting(sets, n))

    def test_matches_weighted_oracle_on_mixed_families(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randrange(10, 15)
            family = mixed_family(rng, n)
            costs = {u: rng.randrange(1, 5) for u in range(n)}
            for sets in (family, reverse_units(family, n)):
                assert solve_family(sets, costs) == (
                    brute_min_weighted_hitting(sets, costs))

    def test_witness_is_lexicographically_first(self):
        family = CopyFamily(pattern_order=2,
                            footprints=((0, 3), (1, 3), (2, 3)))
        sol = min_hitting_set(family)
        assert sol.value == 1
        assert sol.witness == (3,)
        family = CopyFamily(pattern_order=2,
                            footprints=((0, 1), (2, 3)))
        assert min_hitting_set(family).witness == (0, 2)

    def test_footprint_outside_the_host_is_a_precondition(self):
        family = CopyFamily(pattern_order=2, footprints=((0, 5),))
        with pytest.raises(PreconditionError, match="outside 0..3"):
            min_hitting_set(family, 4)

    @pytest.mark.parametrize("footprints", [
        ((5, 0), (5, 1)),  # unsorted: the last vertex of each is in range
        ((-1, 2), (0, 1)),
    ])
    def test_every_footprint_vertex_is_range_checked(self, footprints):
        family = CopyFamily(pattern_order=2, footprints=footprints)
        with pytest.raises(PreconditionError, match=re.escape(
                f"footprint {footprints[0]} outside 0..2")):
            min_hitting_set(family, 3)

    def test_negative_vertex_without_a_range_is_a_precondition(self):
        family = CopyFamily(pattern_order=2, footprints=((-1, 1),))
        with pytest.raises(PreconditionError, match=re.escape(
                "footprint (-1, 1) has a negative vertex")):
            min_hitting_set(family)

    @pytest.mark.parametrize("vertex", [3, -1])
    def test_orbit_cover_vertex_outside_the_partition_is_a_precondition(
            self, vertex):
        # -1 would index the last vertex's orbit, 3 would raise IndexError
        family = CopyFamily(pattern_order=2, footprints=((vertex, 1),))
        with pytest.raises(PreconditionError,
                           match=f"vertex {vertex} outside 0..2"):
            min_orbit_cover(family, uncached_orbits(generate("path:3")))

    def test_empty_footprint_is_a_precondition(self):
        family = CopyFamily(pattern_order=0, footprints=((),))
        with pytest.raises(PreconditionError, match="infeasible"):
            min_hitting_set(family)

    def test_matches_weighted_oracle_on_small_families(self):
        # small sets over few units let a ban leave a live set without an
        # available unit, which the pack bound must price out
        rng = random.Random(53)
        for _ in range(300):
            n = rng.randrange(4, 10)
            family = [tuple(sorted(rng.sample(range(n), rng.randrange(2, 4))))
                      for _ in range(rng.randrange(3, 13))]
            costs = {u: rng.randrange(1, 5) for u in range(n)}
            for sets in (family, reverse_units(family, n)):
                assert solve_family(sets, costs) == (
                    brute_min_weighted_hitting(sets, costs))

    @pytest.mark.parametrize("costs", [{0: 1, 1: 1, 2: 1},
                                       {0: 1, 1: 2, 2: 1}],
                             ids=["flat", "weighted"])
    def test_live_set_without_units_is_pruned(self, costs):
        # set 0 is {0, 1}; banning both leaves it no unit, so no cover
        # exists below any incumbent
        search = _CoverSearch([0b011, 0b110], costs, NODE_BUDGET)
        assert search._branch(search.all, 0b011, 10, first=False) is None

    def test_pack_bound_is_a_lower_bound_under_bans(self):
        # small sets over few units, random live sets, bans and stops, so
        # many nodes hold a set whose units are all banned
        rng = random.Random(67)
        dead = 0
        for trial in range(600):
            n = rng.randrange(3, 9)
            family = [sum(1 << u for u in rng.sample(range(n),
                                                     rng.randrange(1, 4)))
                      for _ in range(rng.randrange(2, 10))]
            costs = {u: 1 if trial % 3 == 0 else rng.randrange(1, 5)
                     for u in range(n)}
            search = _CoverSearch(family, costs, NODE_BUDGET)
            live = rng.randrange(1 << len(search.sets))
            banned = rng.randrange(1 << n)
            stop = rng.choice([rng.randrange(1, 2 * n), 4 * n + 1])
            bound = search._pack_bound(live, banned, stop)
            left = [tuple(bits_of(search.sets[i] & ~banned))
                    for i in bits_of(live)]
            if not all(left):
                # some live set can never be hit, so no cover exists
                dead += 1
                assert bound == stop
                continue
            cheapest, _ = brute_min_weighted_hitting(
                left, {u: costs[u] for u in range(n) if not banned >> u & 1})
            assert bound <= min(cheapest, stop)
        assert dead > 100

    def test_orbit_cover_matches_oracle_on_unequal_orbits(self):
        # a random graph beside two symmetric parts gives orbits of sizes 1
        # to 8, so the orbit search is weighted; at most 13 orbits each
        rng = random.Random(61)
        parts = ["cycle:3", "cycle:4", "cycle:5", "cycle:6", "path:3",
                 "path:4", "path:5", "complete:4", "tailed-star:2"]
        hosts = [generate("union:cycle:8+path:7+path:9")] + [
            disjoint_union(random_connected_graph(rng, rng.randrange(4, 8)),
                           generate("union:" + "+".join(rng.sample(parts, 2))))
            for _ in range(14)]
        for host in hosts:
            part = uncached_orbits(host)
            for pattern in PATTERNS + [generate("path:4")]:
                family = footprints_of(pattern, host)
                if not family.footprints:
                    continue
                sol = min_orbit_cover(family, part)
                assert (sol.value, sol.witness) == brute_min_invariant_cover(
                    family.footprints, part.orbits), (host, pattern)

    def test_witness_pass_keeps_the_optimum_cover_without_search(self):
        # the optimum phase ends on the cover {0, 2}, which is lex-min
        search = _CoverSearch([0b0011, 0b1100], dict.fromkeys(range(4), 1),
                              NODE_BUDGET)
        cover = search.optimum()
        nodes = search.nodes
        assert search.lex_min_witness(search.upper, cover) == 0b0101
        assert search.nodes == nodes


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

    def test_matches_oracle_on_random_gnp_hosts(self):
        rng = random.Random(47)
        for _ in range(12):
            n = rng.randrange(12, 15)
            host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.3])
            pattern = rng.choice(PATTERNS)
            prints = footprints_of(pattern, host).footprints
            sol = vertex_representativity(pattern, host)
            assert (sol.value, sol.witness) == brute_min_hitting(prints, n)

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
        # a stop reports bounds around the plain costs, 7 and 10
        for pattern, host, value in (
                ("complete:3", generate("complete:9"), 7),
                ("path:3", circulant(20, (1, 3)), 10)):
            with pytest.raises(ResourceLimitError, match="node budget") as stop:
                vertex_representativity(generate(pattern), host,
                                        node_budget=5)
            assert stop.value.best_lower <= value <= stop.value.best_upper

    @pytest.mark.parametrize("solve", [
        lambda budget: vertex_representativity(
            generate("path:3"), circulant(20, (1, 3)), node_budget=budget),
        lambda budget: vertex_representativity(
            generate("cycle:5"), petersen(), node_budget=budget),
        lambda budget: symmetric_vertex_representativity(
            generate("path:3"), generate("union:cycle:8+path:5+path:7"),
            node_budget=budget),
        lambda budget: symmetric_vertex_representativity(
            generate("path:4"), generate("union:cycle:8+path:7+path:9"),
            node_budget=budget),
    ], ids=["plain-circulant", "plain-petersen", "orbits-3-costs",
            "orbits-3-costs-path4"])
    def test_budget_edge(self, solve):
        # one node fewer stops the search rather than returning a truncated
        # witness, and the stop falls in the witness pass, which knows the
        # optimum: so that pass is charged to the same budget
        sol = solve(NODE_BUDGET)
        budget = sol.nodes_explored
        assert budget > 1
        assert solve(budget) == sol
        with pytest.raises(ResourceLimitError, match="node budget") as stop:
            solve(budget - 1)
        assert stop.value.best_lower == stop.value.best_upper == sol.value


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

    def test_no_copies_reads_no_orbits(self):
        # C70 is above the automorphism engine's vertex cap
        host = generate("cycle:70")
        with pytest.raises(ResourceLimitError):
            uncached_orbits(host)
        report = extremality_report(generate("complete:3"), host)
        assert report.plain.value == report.invariant.value == 0

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


class TestTrivialGroupRule:
    """On a host whose footprint vertices are each alone in their orbit, a
    trivial group among them, the report takes the invariant cover from
    the plain one instead of solving it again."""

    @staticmethod
    def asymmetric(graphs):
        pattern = generate("tailed-star:3")
        return [g for g in graphs
                if automorphisms(g).order == 1 and contains_copy(pattern, g)]

    def test_matches_the_orbit_cover(self, monkeypatch):
        pattern = generate("tailed-star:3")
        searches = []
        solve = symcover.covers.symmetric_vertex_representativity

        def counting(*args):
            searches.append(args[1])
            return solve(*args)

        monkeypatch.setattr(symcover.covers,
                            "symmetric_vertex_representativity", counting)
        small = self.asymmetric(g for n in (5, 6, 7)
                                for g in enum_graphs(n, connected_only=True))
        rng = random.Random(61)
        drawn = self.asymmetric(
            random_connected_graph(rng, rng.randrange(10, 16))
            for _ in range(8))
        assert (len(small), len(drawn)) == (152, 7)
        # a symmetric part too small to hold a copy, placed first so that
        # the orbit ids of the asymmetric part differ from its vertices
        beside = [disjoint_union(part, host)
                  for part in (generate("complete:2"), Graph(2, []),
                               generate("union:complete:2+complete:2"))
                  for host in drawn]
        for host in small + drawn + beside:
            part = uncached_orbits(host)
            want = min_orbit_cover(enumerate_footprints(pattern, host), part)
            # past the report's memo, so the rule runs on every host
            report = _extremality_cached.__wrapped__(
                pattern, host, FOOTPRINT_CAP, NODE_BUDGET)
            assert report.invariant == want
            assert report.invariant.orbit_ids == tuple(
                part.orbit_of[v] for v in report.plain.witness)
            if host in beside:
                assert part.group_order > 1
                assert report.invariant.orbit_ids != report.plain.witness
        assert searches == []
        symmetric = generate("cycle:6")
        _extremality_cached.__wrapped__(generate("path:3"), symmetric,
                                        FOOTPRINT_CAP, NODE_BUDGET)
        assert searches == [symmetric]


def _rnd(seed, n):
    return random_connected_graph(random.Random(seed), n)


# The search tree is pinned: a change to the branching pick, the bound or
# the witness pass that moves any of these values must edit this table.
# Each row is (pattern, host, plain, invariant) with covers as
# (value, witness, nodes_explored, orbit_ids).
SEARCH_TREES = [
    ("path:4", lambda: circulant(20, (1, 3)),
     (8, (0, 2, 4, 6, 8, 12, 14, 16), 544, None),
     (20, tuple(range(20)), 2, (0,))),
    ("cycle:4", lambda: circulant(21, (1, 2, 5)),
     (9, (0, 1, 4, 7, 8, 11, 14, 15, 18), 1569, None),
     (21, tuple(range(21)), 2, (0,))),
    ("complete:3", lambda: kneser(7, 2),
     (10, (0, 1, 2, 3, 6, 7, 8, 11, 12, 15), 413, None),
     (21, tuple(range(21)), 2, (0,))),
    ("tailed-star:3", lambda: circulant(21, (1, 8)),
     (7, (0, 3, 6, 9, 12, 15, 18), 667, None),
     (21, tuple(range(21)), 2, (0,))),
    # orbits of sizes 1 to 3, so the invariant search is weighted
    ("path:4", lambda: generate("union:cycle:8+path:7+path:9"),
     (5, (0, 4, 11, 16, 20), 31, None),
     (11, (0, 1, 2, 3, 4, 5, 6, 7, 11, 17, 21), 24, (0, 4, 7))),
    ("tailed-star:3", lambda: _rnd(3, 16),
     (7, (0, 2, 3, 4, 5, 11, 15), 333, None),
     (7, (0, 2, 3, 4, 5, 11, 15), 333, (0, 2, 3, 4, 5, 11, 15))),
    ("path:4", lambda: _rnd(5, 18),
     (10, (0, 1, 4, 5, 6, 7, 9, 12, 14, 17), 518, None),
     (10, (0, 1, 4, 5, 6, 7, 9, 12, 14, 17), 518,
      (0, 1, 4, 5, 6, 7, 9, 12, 14, 17))),
    ("path:4", lambda: circulant(32, (1, 4)),
     (15, (0, 1, 3, 5, 7, 10, 12, 13, 17, 18, 20, 23, 25, 27, 30), 58739,
      None),
     (32, tuple(range(32)), 2, (0,))),
]


@pytest.mark.parametrize(
    "pattern, host, plain, invariant", SEARCH_TREES,
    ids=["C20-1-3", "C21-1-2-5", "kneser-7-2", "C21-1-8", "union-costs",
         "random-3-16", "random-5-18", "C32-1-4"])
def test_search_tree_is_pinned(pattern, host, plain, invariant):
    pattern, host = generate(pattern), host()
    assert vertex_representativity(pattern, host) == CoverSolution(*plain)
    assert symmetric_vertex_representativity(pattern, host) == (
        CoverSolution(*invariant))
