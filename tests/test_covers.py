"""Exact covering solvers and the extremality report."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (circulant, frames_left, kneser, petersen,
                      random_connected_graph)
from oracles import (
    brute_footprints,
    brute_min_hitting,
    brute_min_invariant_cover,
    brute_min_weighted_hitting,
    brute_orbits,
    reference_cover_setup,
    reference_pack_bound,
)
import symcover.covers
from symcover.copies import (FOOTPRINT_CAP, CopyFamily, contains_copy,
                             enumerate_footprints, footprints_of)
from symcover.covers import (
    NODE_BUDGET,
    CoverSolution,
    _CoverSearch,
    _extremality_cached,
    _fixed_vertex,
    _search_order,
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


def family_of(size: int, prints) -> CopyFamily:
    """The family holding the given vertex tuples, as ascending masks."""
    masks = {sum(1 << v for v in f) for f in prints}
    return CopyFamily(pattern_order=size, masks=tuple(sorted(masks)))


def random_family(rng: random.Random, n: int) -> CopyFamily:
    size = rng.randrange(1, min(4, n + 1))
    count = rng.randrange(1, 9)
    prints = {tuple(sorted(rng.sample(range(n), size))) for _ in range(count)}
    return family_of(size, prints)


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
        sol = min_hitting_set(CopyFamily(pattern_order=3, masks=()))
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
        family = family_of(2, ((0, 3), (1, 3), (2, 3)))
        sol = min_hitting_set(family)
        assert sol.value == 1
        assert sol.witness == (3,)
        family = family_of(2, ((0, 1), (2, 3)))
        assert min_hitting_set(family).witness == (0, 2)

    def test_footprint_outside_the_host_is_a_precondition(self):
        family = family_of(2, ((0, 5),))
        with pytest.raises(PreconditionError, match="outside 0..3"):
            min_hitting_set(family, 4)

    # a negative vertex cannot be written as a mask (the family refuses a
    # negative mask), and one mask shift reads every vertex at once, so
    # the cases left hold an in-range and an out-of-range vertex
    @pytest.mark.parametrize("footprints", [
        ((2, 3), (0, 1)),  # the bad footprint is not the first one
        ((1, 3), (0, 2)),  # its low vertex is in range
    ])
    def test_every_footprint_vertex_is_range_checked(self, footprints):
        family = family_of(2, footprints)
        with pytest.raises(PreconditionError, match=re.escape(
                f"footprint {footprints[0]} outside 0..2")):
            min_hitting_set(family, 3)

    def test_orbit_cover_vertex_outside_the_partition_is_a_precondition(
            self):
        # vertex 3 would raise IndexError
        family = family_of(2, ((3, 1),))
        with pytest.raises(PreconditionError, match=re.escape(
                "footprint (1, 3) has vertex 3 outside 0..2")):
            min_orbit_cover(family, uncached_orbits(generate("path:3")))

    def test_empty_footprint_is_a_precondition(self):
        family = CopyFamily(pattern_order=0, masks=(0,))
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

    def test_branch_reaches_the_optimum_under_bans(self):
        # random weighted families at random (live, banned) nodes: the
        # cheapest cover over the unbanned units, and a first completion
        # under a limit exactly when one exists, whatever the branch order
        # and its skips
        rng = random.Random(79)
        dead = 0
        for trial in range(500):
            n = rng.randrange(3, 9)
            family = _search_order({
                sum(1 << u for u in rng.sample(range(n), rng.randrange(1, 4)))
                for _ in range(rng.randrange(2, 10))})
            costs = {u: 1 if trial % 4 == 0 else rng.randrange(1, 5)
                     for u in range(n)}
            search = _CoverSearch(family, costs, NODE_BUDGET)
            live = rng.randrange(1, 1 << len(family))
            banned = rng.randrange(1 << n)
            found = search._branch(live, banned, 4 * n + 1, first=False)
            # live is a mask over the search's own index
            sets = search.sets
            left = [tuple(bits_of(sets[i] & ~banned)) for i in bits_of(live)]
            if not all(left):
                dead += 1
                assert found is None
                continue
            want, _ = brute_min_weighted_hitting(
                left, {u: costs[u] for u in range(n) if not banned >> u & 1})
            assert not found & banned
            assert all(sets[i] & found for i in bits_of(live))
            assert sum(costs[u] for u in bits_of(found)) == want
            for limit in (want - 1, want):
                first = search._branch(live, banned, limit + 1, first=True)
                assert (first is not None) == (limit == want)
                if first is not None:
                    assert not first & banned
                    assert all(sets[i] & first for i in bits_of(live))
                    assert sum(costs[u] for u in bits_of(first)) <= limit
        assert dead > 50

    def test_branch_tries_a_cheaper_unit_with_fewer_sets(self):
        # unit 1 (cost 3) hits all four sets and unit 0 (cost 1) only the
        # first: unit 1 goes first, but unit 0 is cheaper, so it is still
        # tried, and {0, 4} beats {1}
        sets = _search_order({0b11, 0b10110, 0b11010, 0b110010})
        costs = {0: 1, 1: 3, 2: 1, 3: 1, 4: 1, 5: 1}
        search = _CoverSearch(sets, costs, NODE_BUDGET)
        assert search._branch(search.all, 0, 10, first=False) == 0b10001
        assert search._branch(search.all, 0, 3, first=True) == 0b10001

    def test_branch_skips_a_unit_an_earlier_one_replaces(self):
        # units 0 and 1 hit both sets at the same cost, and unit 2 one of
        # them: the lower id, 0, is the one tried, and the others are
        # skipped, so the search is the root and one leaf
        search = _CoverSearch([0b0111, 0b1011], dict.fromkeys(range(4), 1),
                              NODE_BUDGET)
        assert search._branch(search.all, 0, 10, first=False) == 0b1
        assert search.nodes == 2

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


def _random_sets(rng: random.Random, units: int, count: int,
                 sizes: range) -> list[int]:
    return [sum(1 << u for u in rng.sample(range(units),
                                           rng.choice(sizes)))
            for _ in range(count)]


def _set_up_cases():
    """(name, raw sets, whether they are a family's masks) of every shape
    the cover search is built from."""
    rng = random.Random(71)
    yield "empty", [], False
    yield "one set", [0b1011], False
    for t in range(6):
        yield f"one size #{t}", _random_sets(rng, 12, rng.randrange(2, 40),
                                             range(3, 4)), False
    for t in range(20):
        sets = _random_sets(rng, rng.randrange(5, 14), rng.randrange(2, 40),
                            range(1, 7))
        # duplicates, and supersets of some sets
        sets += rng.sample(sets, len(sets) // 3)
        sets += [s | 1 << rng.randrange(14) for s in rng.sample(sets, 3)]
        yield f"mixed #{t}", sets, False
    # units 1-4, 6-8 and 10 lie in no set
    yield "gaps", [0b1000000001, 0b100001, 0b1000100000, 0b100000, 1], False
    yield "300 sets", _random_sets(rng, 24, 300, range(2, 6)), False
    yield ("unit 0 and the top unit", [1 | 1 << 40, 0b110, 1 << 40 | 1 << 7],
           False)
    for t in range(12):
        pattern = rng.choice(PATTERNS + [generate("path:4")])
        host = random_connected_graph(rng, rng.randrange(6, 15))
        masks = footprints_of(pattern, host).masks
        orbit_of = uncached_orbits(host).orbit_of
        yield f"footprints #{t}", masks, True
        yield f"orbit ids #{t}", [sum(1 << orbit_of[v] for v in bits_of(m))
                                  for m in masks], False


def _top_down(mask: int, count: int) -> int:
    """``mask`` over ``count`` set indices with index i renamed
    count - 1 - i: from the search order to the search's own index."""
    return sum(1 << count - 1 - i for i in bits_of(mask))


def test_set_up_matches_the_reference_constructor():
    # the constructor once ordered raw sets itself; now a family's masks go
    # in as they are and other sets through _search_order, and both must
    # give the old sets and unit index, numbered from the top
    for name, raw, family_masks in _set_up_cases():
        sets = raw if family_masks else _search_order(set(raw))
        units = reduce(or_, raw, 0)
        search = _CoverSearch(sets, dict.fromkeys(bits_of(units), 1),
                              NODE_BUDGET)
        want_sets, want_inc = reference_cover_setup(raw)
        assert list(search.sets) == want_sets[::-1], name
        assert search.inc == [_top_down(m, len(want_sets))
                              for m in want_inc], name


def test_index_numbers_the_sets_from_the_top():
    # the first set in search order is the top bit of every mask, so a
    # live mask shortens as its first sets are hit
    for name, raw, family_masks in _set_up_cases():
        sets = raw if family_masks else _search_order(set(raw))
        units = reduce(or_, raw, 0)
        search = _CoverSearch(sets, dict.fromkeys(bits_of(units), 1),
                              NODE_BUDGET)
        assert list(search.sets) == list(reversed(sets)), name
        assert search.all.bit_length() == len(sets), name
        for u, col in enumerate(search.inc):
            assert list(bits_of(col)) == [
                j for j, s in enumerate(search.sets) if s >> u & 1], (name, u)


def test_pack_bound_matches_the_bottom_up_packing():
    # the same value as the packing over live masks in search order, with
    # each live mask mapped through the index; flat and weighted costs,
    # random bans and stops below and above the bound
    rng = random.Random(89)
    cases = 0
    for weighted in (False, True):
        for name, raw, family_masks in _set_up_cases():
            sets = raw if family_masks else _search_order(set(raw))
            units = reduce(or_, raw, 0)
            costs = {u: rng.randrange(1, 5) if weighted else 1
                     for u in bits_of(units)}
            search = _CoverSearch(sets, costs, NODE_BUDGET)
            for _ in range(20):
                live = rng.randrange(1 << len(sets))
                banned = rng.choice([0, rng.randrange(2 * units + 1)])
                stop = rng.choice([rng.randrange(-1, 8), 10**6])
                want = reference_pack_bound(sets, costs, live, banned, stop)
                assert search._pack_bound(_top_down(live, len(sets)), banned,
                                          stop) == want, name
                cases += want not in (0, stop)
    assert cases > 500


@pytest.mark.parametrize("pattern, host, orbit_cover", [
    ("path:4", lambda: circulant(20, (1, 3)), False),
    ("complete:3", lambda: kneser(7, 2), False),
    ("tailed-star:3", lambda: circulant(21, (1, 8)), False),
    ("path:4", lambda: generate("union:cycle:8+path:7+path:9"), True),
    ("path:4", lambda: generate("union:cycle:9+path:7+path:9+cycle:6"),
     True),
], ids=["C20-1-3", "kneser-7-2", "C21-1-8", "union-costs", "union-4"])
def test_budget_stop_reports_the_root_packing(pattern, host, orbit_cover):
    # a stop at the second node of the optimum phase reports the root pack
    # bound as its lower bound, below the greedy's cost
    pattern, host = generate(pattern), host()
    family = footprints_of(pattern, host)
    with pytest.raises(ResourceLimitError) as stop:
        if orbit_cover:
            part = uncached_orbits(host)
            min_orbit_cover(family, part, node_budget=1)
        else:
            min_hitting_set(family, node_budget=1)
    if orbit_cover:
        sets = _search_order({reduce(or_, (1 << part.orbit_of[v] for v in f))
                              for f in family.footprints})
        costs = {oid: om.bit_count() for oid, om in enumerate(part.masks)}
    else:
        sets = list(family.masks)
        costs = dict.fromkeys(bits_of(reduce(or_, sets, 0)), 1)
    lower, upper = stop.value.best_lower, stop.value.best_upper
    assert lower < upper
    assert lower == reference_pack_bound(sets, costs, (1 << len(sets)) - 1,
                                         0, upper)


def test_greedy_cover_hits_every_set_and_drops_every_redundant_unit():
    # checked on the sets alone, not on the unit index the greedy reads
    rng = random.Random(73)
    dropped = 0
    for weighted in (False, True):
        for name, raw, family_masks in _set_up_cases():
            sets = raw if family_masks else _search_order(set(raw))
            units = list(bits_of(reduce(or_, raw, 0)))
            costs = {u: rng.randrange(1, 5) if weighted else 1
                     for u in units}
            cover, cost = _CoverSearch(sets, costs, NODE_BUDGET)._greedy()
            assert all(s & cover for s in sets), name
            assert cost == sum(costs[u] for u in bits_of(cover)), name
            # each unit of the cover is the only one hitting some set
            for u in bits_of(cover):
                assert any(s & cover == 1 << u for s in sets), (name, u)
            # the greedy's picks, first unit of the best ratio each time
            live, picked = set(sets), 0
            while live:
                u = max((u for u in units if not picked >> u & 1),
                        key=lambda u: (Fraction(sum(s >> u & 1 for s in live),
                                                costs[u]), -u))
                picked |= 1 << u
                live = {s for s in live if not s >> u & 1}
            assert cover & ~picked == 0, name
            dropped += cover != picked
    # the flat families drop no pick; 9 weighted ones do
    assert dropped == 9


@pytest.mark.parametrize("sets, costs", [
    # the greedy takes 1, 3, ..., 297 and then 298: 150 units, and 150
    # edges of the path are pairwise disjoint
    ([1 << v | 1 << v + 1 for v in range(299)], dict.fromkeys(range(300), 1)),
    ([0b11, 0b1100, 0b110000], {0: 2, 1: 3, 2: 1, 3: 1, 4: 5, 5: 4}),
], ids=["path-2-in-path-300", "disjoint-weighted"])
def test_optimum_ends_at_the_root_when_the_pack_bound_meets_the_greedy(
        sets, costs):
    search = _CoverSearch(sets, costs, NODE_BUDGET)
    cover = search.optimum()
    assert search.nodes == 1
    assert search.lower == search.upper
    assert all(s & cover for s in sets)
    assert search.upper == sum(costs[u] for u in bits_of(cover))


@pytest.mark.parametrize("pattern, host", [
    ("path:4", lambda: circulant(20, (1, 3))),
    ("tailed-star:3", lambda: _gnp(83, 14, 0.3)),
], ids=["circulant", "gnp"])
def test_report_searches_the_plain_cover_as_the_plain_call_does(pattern,
                                                                host):
    # the plain search reads the host's orbits whether or not they are
    # cached, so the report's plain search explores the same tree
    pattern, host = generate(pattern), host()
    plain = vertex_representativity(pattern, host)
    assert plain.value > 0
    assert extremality_report(pattern, host).plain == plain


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

    def test_answers_past_the_recursion_limit(self):
        # the search is a loop: 150 chosen units need no stack frames
        with frames_left(100):
            sol = vertex_representativity(generate("path:2"),
                                          generate("path:300"))
        assert sol.value == 150
        assert sol.witness == tuple(range(0, 300, 2))

    def test_negative_budget_is_a_bad_argument(self):
        # a budget of 0 stops at the root; -1 would word bounds for a
        # search that never ran
        pattern, host = generate("path:3"), generate("cycle:6")
        with pytest.raises(PreconditionError,
                           match="node budget must be a nonnegative "
                                 "integer, got -1"):
            vertex_representativity(pattern, host, node_budget=-1)
        with pytest.raises(ResourceLimitError,
                           match="exceeded the node budget 0"):
            vertex_representativity(pattern, host, node_budget=0)

    @pytest.mark.parametrize("budget", ["5", 2.5, True])
    def test_budget_of_another_type_is_a_bad_argument(self, budget):
        # a string failed a comparison, and 2.5 ran as a budget
        with pytest.raises(PreconditionError,
                           match=f"node budget must be a nonnegative "
                                 f"integer, got {budget!r}"):
            vertex_representativity(generate("path:3"), generate("cycle:6"),
                                    node_budget=budget)

    def test_vertex_cap_stop_words_the_invariant_bounds(self):
        # the plain cover is known and the whole vertex set is invariant
        with pytest.raises(ResourceLimitError) as stop:
            extremality_report(generate("path:2"), generate("path:70"))
        assert str(stop.value) == ("automorphism engine supports at most 64 "
                                   "vertices, got 70; optimum in [35, 70]")
        assert (stop.value.limit, stop.value.best_lower,
                stop.value.best_upper) == (64, 35, 70)

    def test_stops_word_their_bounds(self):
        # a library caller reads the bounds in the message the CLI prints
        with pytest.raises(ResourceLimitError) as stop:
            vertex_representativity(generate("complete:3"),
                                    generate("complete:9"), node_budget=5)
        lower, upper = stop.value.best_lower, stop.value.best_upper
        assert str(stop.value) == ("cover search exceeded the node budget "
                                   f"5; optimum in [{lower}, {upper}]")
        # a stop in the witness pass words the optimum it proved
        pattern, host = generate("path:2"), generate("path:300")
        with frames_left(100):
            budget = vertex_representativity(pattern, host).nodes_explored - 1
            with pytest.raises(ResourceLimitError) as stop:
                vertex_representativity(pattern, host, node_budget=budget)
        assert str(stop.value) == ("cover search exceeded the node budget "
                                   f"{budget}; optimum in [150, 150]")
        # one bound alone is not worded
        assert str(ResourceLimitError("stop", best_upper=4)) == "stop"


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
    """Whenever the plain witness is a union of orbits, the report takes
    the invariant cover from the plain one instead of solving it again:
    the same value and witness, ``orbit_ids`` the witness's distinct
    orbits, and ``nodes_explored`` the plain search's count, since that
    search certified it.  ``symmetric_vertex_representativity`` always
    searches, so the report never calls it then.  A host whose footprint
    vertices are each alone in their orbit, a trivial group among them,
    is one such case."""

    @staticmethod
    def asymmetric(graphs):
        pattern = generate("tailed-star:3")
        return [g for g in graphs
                if automorphisms(g).order == 1 and contains_copy(pattern, g)]

    @staticmethod
    def counting(monkeypatch):
        """The hosts ``symmetric_vertex_representativity`` is called on."""
        searches = []
        solve = symcover.covers.symmetric_vertex_representativity

        def counting(*args):
            searches.append(args[1])
            return solve(*args)

        monkeypatch.setattr(symcover.covers,
                            "symmetric_vertex_representativity", counting)
        return searches

    def test_matches_the_orbit_cover(self, monkeypatch):
        pattern = generate("tailed-star:3")
        searches = self.counting(monkeypatch)
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
                assert automorphisms(host).order > 1
                assert report.invariant.orbit_ids != report.plain.witness
        assert searches == []
        symmetric = generate("cycle:6")
        _extremality_cached.__wrapped__(generate("path:3"), symmetric,
                                        FOOTPRINT_CAP, NODE_BUDGET)
        assert searches == [symmetric]

    @pytest.mark.parametrize("spec, held, shared", [
        ("path:3", 133, 72), ("tailed-star:3", 127, 65)])
    def test_reuses_a_witness_made_of_orbits(self, monkeypatch, spec, held,
                                             shared):
        # the connected hosts on 5 or 6 vertices that hold a copy; on
        # ``shared`` of them the witness is a union of orbits while some
        # footprint vertex shares its orbit
        pattern = generate(spec)
        searches = self.counting(monkeypatch)
        hosts = [g for n in (5, 6) for g in enum_graphs(n, connected_only=True)
                 if contains_copy(pattern, g)]
        count = 0
        for host in hosts:
            part = uncached_orbits(host)
            family = enumerate_footprints(pattern, host)
            want = min_orbit_cover(family, part)
            report = _extremality_cached.__wrapped__(
                pattern, host, FOOTPRINT_CAP, NODE_BUDGET)
            got = report.invariant
            witness = sum(1 << v for v in report.plain.witness)
            if not all(witness & om in (0, om) for om in part.masks):
                assert got == want
                assert searches.pop() is host
                continue
            assert (got.value, got.witness, got.orbit_ids) == (
                want.value, want.witness, want.orbit_ids)
            assert got.nodes_explored == report.plain.nodes_explored
            alone = reduce(or_, (m for m in part.masks if not m & m - 1), 0)
            count += bool(reduce(or_, family.masks) & ~alone)
        assert searches == []
        assert (len(hosts), count) == (held, shared)

    def test_orbit_ids_are_distinct(self):
        # K1 in C5: the witness is all five vertices, one orbit
        report = _extremality_cached.__wrapped__(
            Graph(1, []), generate("cycle:5"), FOOTPRINT_CAP, NODE_BUDGET)
        assert report.invariant.witness == (0, 1, 2, 3, 4)
        assert report.invariant.orbit_ids == (0,)
        assert report.invariant.nodes_explored == (
            report.plain.nodes_explored)


def _rnd(seed, n):
    return random_connected_graph(random.Random(seed), n)


def _gnp(seed, n, p):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


# The search tree is pinned: a change to the branching pick, the bound, the
# incumbent, the start node or the witness pass that moves any of these
# values must edit this table.
# Each row is (pattern, host, plain, invariant) with covers as
# (value, witness, nodes_explored, orbit_ids).
SEARCH_TREES = [
    ("path:4", lambda: circulant(20, (1, 3)),
     (8, (0, 2, 4, 6, 8, 12, 14, 16), 202, None),
     (20, tuple(range(20)), 1, (0,))),
    ("cycle:4", lambda: circulant(21, (1, 2, 5)),
     (9, (0, 1, 4, 7, 8, 11, 14, 15, 18), 514, None),
     (21, tuple(range(21)), 1, (0,))),
    ("complete:3", lambda: kneser(7, 2),
     (10, (0, 1, 2, 3, 6, 7, 8, 11, 12, 15), 291, None),
     (21, tuple(range(21)), 1, (0,))),
    ("tailed-star:3", lambda: circulant(21, (1, 8)),
     (7, (0, 3, 6, 9, 12, 15, 18), 235, None),
     (21, tuple(range(21)), 1, (0,))),
    # orbits of sizes 1, 2 and 8, so the invariant search is weighted
    ("path:4", lambda: generate("union:cycle:8+path:7+path:9"),
     (5, (0, 4, 11, 16, 20), 13, None),
     (11, (0, 1, 2, 3, 4, 5, 6, 7, 11, 17, 21), 13, (0, 4, 7))),
    ("tailed-star:3", lambda: _rnd(3, 16),
     (7, (0, 2, 3, 4, 5, 11, 15), 257, None),
     (7, (0, 2, 3, 4, 5, 11, 15), 257, (0, 2, 3, 4, 5, 11, 15))),
    ("path:4", lambda: _rnd(5, 18),
     (10, (0, 1, 4, 5, 6, 7, 9, 12, 14, 17), 420, None),
     (10, (0, 1, 4, 5, 6, 7, 9, 12, 14, 17), 420,
      (0, 1, 4, 5, 6, 7, 9, 12, 14, 17))),
    ("path:4", lambda: circulant(32, (1, 4)),
     (15, (0, 1, 3, 5, 7, 10, 12, 13, 17, 18, 20, 23, 25, 27, 30), 9445,
      None),
     (32, tuple(range(32)), 1, (0,))),
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


# min_hitting_set reads no group: its search starts at the root, and these
# are its nodes on the SEARCH_TREES rows and on the two cover rows of
# tests/ci/cover_rows.py with at most 40 vertices not among them
ROOT_TREES = [(row[0], row[1], nodes) for row, nodes in zip(
    SEARCH_TREES, [260, 658, 369, 301, 13, 257, 420, 12629])] + [
    ("tailed-star:3", lambda: circulant(30, (1, 3, 8)), 6839 + 3647),
    ("path:3", lambda: circulant(40, (1, 7)), 4617 + 3816)]


class TestFixedVertex:
    """``vertex_representativity`` starts its optimum search at the node
    that has chosen the lowest vertex of the first footprint inside one
    orbit of the host (``_fixed_vertex``), and ``min_hitting_set`` starts
    at the root.  Values and witnesses agree; only the node counts may
    differ, and they are equal when no orbit holds a footprint."""

    @pytest.mark.parametrize(
        "pattern, host, nodes", ROOT_TREES,
        ids=["C20-1-3", "C21-1-2-5", "kneser-7-2", "C21-1-8", "union-costs",
             "random-3-16", "random-5-18", "C32-1-4", "C30-1-3-8",
             "C40-1-7"])
    def test_same_answer_as_min_hitting_set(self, pattern, host, nodes):
        pattern, host = generate(pattern), host()
        family = footprints_of(pattern, host)
        want = min_hitting_set(family)
        assert want.nodes_explored == nodes
        got = vertex_representativity(pattern, host)
        assert (got.value, got.witness) == (want.value, want.witness)
        if _fixed_vertex(family.masks, host) is None:
            assert got == want

    def test_fires_only_on_a_footprint_inside_one_orbit(self):
        # the orbits of P5 are {0, 4}, {1, 3} and {2}, and no edge lies in
        # one, so the search starts at the root; in P6 the middle edge
        # {2, 3} is an orbit
        pattern = generate("path:2")
        host = generate("path:5")
        family = footprints_of(pattern, host)
        assert _fixed_vertex(family.masks, host) is None
        sol = vertex_representativity(pattern, host)
        assert sol.value == 2
        assert sol == min_hitting_set(family)
        host = generate("path:6")
        assert _fixed_vertex(footprints_of(pattern, host).masks, host) == 2
        # a trivial group holds no footprint of two or more vertices
        pattern, host = generate("tailed-star:3"), _gnp(83, 14, 0.3)
        family = footprints_of(pattern, host)
        assert _fixed_vertex(family.masks, host) is None
        assert vertex_representativity(pattern, host) == (
            min_hitting_set(family))

    def test_reads_no_orbits_past_the_vertex_cap(self):
        host = generate("path:70")
        with pytest.raises(ResourceLimitError):
            uncached_orbits(host)
        masks = footprints_of(generate("path:2"), host).masks
        assert _fixed_vertex(masks, host) is None
        assert _fixed_vertex((), generate("cycle:5")) is None

    def test_budget_stops_bracket_the_optimum(self):
        # every stop in either phase brackets the optimum: the start node
        # charges the fixed vertex's cost, so the upper bound counts it
        pattern, host = generate("path:4"), circulant(20, (1, 3))
        full = vertex_representativity(pattern, host)
        assert full.nodes_explored < min_hitting_set(
            footprints_of(pattern, host)).nodes_explored
        for budget in range(full.nodes_explored):
            with pytest.raises(ResourceLimitError) as stop:
                vertex_representativity(pattern, host, node_budget=budget)
            assert (stop.value.best_lower <= full.value
                    <= stop.value.best_upper), budget


def test_fixed_start_keeps_the_optimum_and_its_cost():
    # fixing any unit of an optimal cover leaves the optimum, and
    # ``upper`` is the cost of the cover returned, the fixed unit's too
    rng = random.Random(59)
    for _ in range(150):
        n = rng.randrange(4, 10)
        sets = _search_order({
            sum(1 << u for u in rng.sample(range(n), rng.randrange(2, 4)))
            for _ in range(rng.randrange(3, 13))})
        costs = {u: rng.randrange(1, 5) for u in range(n)}
        opt, witness, _ = _solve_cover(sets, costs, NODE_BUDGET)
        for u in bits_of(witness):
            search = _CoverSearch(sets, costs, NODE_BUDGET)
            cover = search.optimum(u)
            assert all(s & cover for s in sets)
            assert search.upper == opt == sum(costs[v]
                                              for v in bits_of(cover))
