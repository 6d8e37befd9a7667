"""Structural checks: orbit sums, boundary conditions, densities,
containment, neighborhood profiles, expansion, and weight systems."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import symcover.checks
from conftest import (circulant, cube, hypercube, petersen, prism,
                      random_connected_graph, relabelled)
from oracles import brute_automorphisms
from symcover.checks import (
    _orbits_holding_a_footprint,
    build_pair_weight,
    check_extremal_boundary,
    check_orbit_density,
    check_orbit_pattern_containment,
    neighborhood_profile,
    verify_orbit_expansion,
    verify_orbit_sum_bound,
    verify_weighted_system,
    weight_orbit,
    weighted_symmetrize,
    WeightFunction,
)
from symcover.copies import contains_copy, footprints_of
from symcover.covers import vertex_representativity
from symcover.errors import (
    NotAHittingSetError,
    PreconditionError,
    ResourceLimitError,
    VerificationError,
    WeightConstructionError,
)
from symcover.graphs import Graph, disjoint_union, generate, induced_subgraph
from symcover.symmetry import automorphisms, orbits


class TestOrbitSumBound:
    def test_transitive_host_tight(self, k5):
        report = verify_orbit_sum_bound(generate("tailed-star:3"), k5, (0,))
        assert report.holds
        assert report.minimum == 1
        assert len(report.tight_footprints) == len(report.per_footprint)

    def test_exact_fractions(self):
        report = verify_orbit_sum_bound(generate("complete:3"),
                                        generate("complete:4"), (0, 1))
        assert report.minimum == Fraction(3, 2)
        assert all(value == Fraction(3, 2)
                   for _, value in report.per_footprint)
        assert report.tight_footprints == ()

    def test_missed_footprint_raises(self):
        with pytest.raises(NotAHittingSetError) as info:
            verify_orbit_sum_bound(generate("complete:3"),
                                   generate("complete:4"), (0,))
        assert info.value.footprint == (1, 2, 3)

    def test_vertex_out_of_range(self, k5):
        with pytest.raises(PreconditionError):
            verify_orbit_sum_bound(generate("complete:3"), k5, (9,))

    def test_no_copies_holds_vacuously(self):
        report = verify_orbit_sum_bound(generate("complete:4"), petersen(),
                                        ())
        assert report.holds
        assert report.minimum is None

    def test_holds_for_minimal_witnesses_on_random_hosts(self):
        rng = random.Random(37)
        patterns = [generate("complete:3"), generate("path:3"),
                    generate("tailed-star:3")]
        checked = 0
        for _ in range(40):
            host = random_connected_graph(rng, rng.randrange(4, 8))
            pattern = rng.choice(patterns)
            sol = vertex_representativity(pattern, host)
            if not sol.witness:
                continue
            report = verify_orbit_sum_bound(pattern, host, sol.witness)
            assert report.holds
            checked += 1
        assert checked >= 20

    def test_doc_shape(self, k5):
        doc = verify_orbit_sum_bound(generate("tailed-star:3"), k5,
                                     (0,)).to_doc()
        assert doc["check"] == "orbit_sum_bound"
        assert doc["minimum"] == 1
        assert doc["holds"] is True


class TestBoundaryConditions:
    def test_expensive_instance_passes_all(self, k5):
        report = check_extremal_boundary(generate("tailed-star:3"), k5)
        assert report.applicable
        assert report.all_hold
        assert report.condition1_failures == ()
        assert report.condition2_failures == ()
        assert report.condition3_failures == ()

    def test_not_applicable_off_the_boundary(self):
        report = check_extremal_boundary(generate("complete:3"),
                                         generate("complete:4"))
        assert not report.applicable
        assert report.condition1 is None
        assert not report.all_hold

    def test_no_copies_rejected(self):
        with pytest.raises(PreconditionError):
            check_extremal_boundary(generate("complete:4"), petersen())

    def test_doc_shape(self, k5):
        doc = check_extremal_boundary(generate("tailed-star:3"), k5).to_doc()
        assert doc["applicable"] is True
        assert doc["finiteness"] is True
        assert doc["all_hold"] is True

    def test_holds_on_cycle_instance(self):
        # P3 in C6: plain 2, invariant 6, boundary applies and holds
        report = check_extremal_boundary(generate("path:3"),
                                         generate("cycle:6"))
        assert report.applicable
        assert report.all_hold


class TestOrbitDensity:
    def test_computed_witness(self, k5):
        report = check_orbit_density(generate("tailed-star:3"), k5)
        assert report.applicable
        assert report.holds
        (row,) = report.rows
        assert row["density"] == "1/5"
        assert row["expected"] == "1/5"

    def test_supplied_minimal_set(self, k5):
        report = check_orbit_density(generate("tailed-star:3"), k5,
                                     marked=(2,))
        assert report.applicable
        assert report.holds

    def test_non_minimal_set_rejected(self, k5):
        with pytest.raises(PreconditionError):
            check_orbit_density(generate("tailed-star:3"), k5, marked=(0, 1))

    def test_non_hitting_set_rejected(self):
        with pytest.raises(NotAHittingSetError):
            check_orbit_density(generate("complete:3"),
                                generate("complete:4"), marked=(3,))

    def test_not_applicable_off_the_boundary(self):
        report = check_orbit_density(generate("complete:3"),
                                     generate("complete:4"))
        assert not report.applicable
        assert report.holds is None


class TestOrbitContainment:
    def test_holds_on_expensive_instance(self, k5):
        report = check_orbit_pattern_containment(generate("tailed-star:3"),
                                                 k5)
        assert report.applicable
        assert report.holds
        assert report.first_failing_orbit is None

    def test_holds_on_cycle_instance(self):
        report = check_orbit_pattern_containment(generate("path:3"),
                                                 generate("cycle:6"))
        assert report.applicable
        assert report.holds

    def test_pattern_without_pendant_not_applicable(self):
        report = check_orbit_pattern_containment(generate("complete:3"),
                                                 generate("complete:4"))
        pre = dict(report.preconditions)
        assert pre["pattern_has_pendant"] is False
        assert not report.applicable

    def test_disconnected_host_not_applicable(self):
        host = disjoint_union(generate("complete:5"), generate("complete:5"))
        report = check_orbit_pattern_containment(generate("tailed-star:3"),
                                                 host)
        pre = dict(report.preconditions)
        assert pre["host_connected"] is False
        assert not report.applicable


def _random_orbit_host(rng: random.Random) -> Graph:
    """A host on 4..10 vertices, randomly relabelled: G(n, p) (mostly
    singleton orbits), a circulant (one orbit), or two copies of a random
    graph, joined vertex to twin or not (orbits of two or more)."""
    n = rng.randint(4, 10)
    kind = rng.randrange(3)
    if kind == 0:
        p = rng.random()
        g = Graph(n, [e for e in combinations(range(n), 2)
                      if rng.random() < p])
    elif kind == 1:
        steps = range(1, n // 2 + 1)
        g = circulant(n, tuple(rng.sample(steps, rng.randint(1, len(steps)))))
    else:
        half = n // 2
        h = Graph(half, [e for e in combinations(range(half), 2)
                         if rng.random() < 0.6])
        g = disjoint_union(h, h)
        if rng.random() < 0.5:
            g = Graph(g.n, list(g.edges())
                      + [(v, v + half) for v in range(half)])
    return relabelled(g, rng)[0]


class TestOrbitCopyTest:
    def test_agrees_with_the_matcher_on_each_orbit(self):
        # the oracle runs the matcher on every orbit's induced subgraph,
        # including orbits that hold no copy, which no check reaches
        rng = random.Random(9)
        patterns = [generate(spec) for spec in ("path:3", "path:4", "cycle:4",
                                                "complete:3", "tailed-star:3")]
        seen = {True: 0, False: 0}
        for _ in range(150):
            host = _random_orbit_host(rng)
            part = orbits(host)
            for pattern in patterns:
                held = _orbits_holding_a_footprint(
                    part, footprints_of(pattern, host).masks())
                for oid, orbit in enumerate(part.orbits):
                    want = contains_copy(pattern,
                                         induced_subgraph(host, orbit))
                    assert (oid in held) == want, (host.edges(), pattern, oid)
                    if len(orbit) >= pattern.n:
                        seen[want] += 1
        assert min(seen.values()) >= 50, seen


class TestNeighborhoodProfile:
    def test_independent_neighborhoods(self):
        profile = neighborhood_profile(petersen())
        assert profile.regular_degree == 3
        assert all(v.deficiency == 3 for v in profile.vertices)
        assert not profile.hypothesis_met

    def test_half_degree_deficiency(self):
        profile = neighborhood_profile(generate("cocktail:6"))
        assert profile.regular_degree == 4
        assert all(v.deficiency == 2 for v in profile.vertices)
        # 2p equals the degree, which just misses the strict bound
        assert not profile.hypothesis_met

    def test_zero_deficiency(self, k5):
        profile = neighborhood_profile(k5)
        assert all(v.deficiency == 0 for v in profile.vertices)
        assert not profile.hypothesis_met

    def test_irregular_graph(self):
        profile = neighborhood_profile(generate("tailed-star:3"))
        assert profile.regular_degree is None
        assert not profile.hypothesis_met

    def test_empty_graph(self):
        profile = neighborhood_profile(Graph(0))
        assert profile.regular_degree is None
        assert not profile.hypothesis_met

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_anti_degrees_sum_to_twice_the_deficiency(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs
                          else st.just(set()))
        g = Graph(n, sorted(edges))
        profile = neighborhood_profile(g)
        for entry in profile.vertices:
            assert sum(a for _, a in entry.anti_degrees) == 2 * entry.deficiency


class TestOrbitExpansion:
    def test_star_is_tight(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        report = verify_orbit_expansion(star, (0,), (1, 2, 3), (0,))
        assert report.holds
        assert report.bound == 3
        assert report.image == (1, 2, 3)

    def test_path_orbit_pair(self):
        path = generate("path:4")
        report = verify_orbit_expansion(path, (0, 3), (1, 2), (0,))
        assert report.holds
        assert report.bound == 1
        assert report.image == (1,)

    def test_rejects_non_orbit(self, k5):
        with pytest.raises(PreconditionError):
            verify_orbit_expansion(generate("path:4"), (0, 1), (2, 3), (0,))

    def test_rejects_same_orbit(self):
        with pytest.raises(PreconditionError):
            verify_orbit_expansion(generate("path:4"), (0, 3), (0, 3), (0,))

    def test_rejects_source_outside_orbit(self):
        with pytest.raises(PreconditionError):
            verify_orbit_expansion(generate("path:4"), (0, 3), (1, 2), (1,))

    def test_rejects_disjoint_orbits(self):
        host = disjoint_union(generate("path:3"), generate("complete:3"))
        with pytest.raises(PreconditionError):
            verify_orbit_expansion(host, (0, 2), (3, 4, 5), (0,))

    def test_holds_on_transitive_hosts(self):
        # orbit pairs in a tailed star: rays versus the center
        host = generate("tailed-star:4")
        part = orbits(host)
        rays = next(o for o in part.orbits if len(o) == 3)
        report = verify_orbit_expansion(host, rays, (0,), rays[:2])
        assert report.holds


class TestWeightedSymmetrize:
    def test_transitive_host(self, k5):
        assert weighted_symmetrize(k5, (0,), 5) == (0, 1, 2, 3, 4)

    def test_orbit_too_large_is_dropped(self, k5):
        host = disjoint_union(k5, k5)
        assert weighted_symmetrize(host, (0,), 5) == ()
        assert weighted_symmetrize(host, (0, 5), 5) == tuple(range(10))

    def test_star_center(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert weighted_symmetrize(star, (0,), 2) == (0,)

    def test_zero_budget(self, k5):
        assert weighted_symmetrize(k5, (0,), 0) == ()

    def test_negative_budget_rejected(self, k5):
        with pytest.raises(PreconditionError):
            weighted_symmetrize(k5, (0,), -1)

    def test_replacement_is_an_invariant_hitting_set(self):
        rng = random.Random(41)
        patterns = [generate("complete:3"), generate("path:3"),
                    generate("tailed-star:3")]
        checked = 0
        for _ in range(40):
            host = random_connected_graph(rng, rng.randrange(4, 8))
            pattern = rng.choice(patterns)
            sol = vertex_representativity(pattern, host)
            if not sol.witness:
                continue
            result = weighted_symmetrize(host, sol.witness, pattern.n)
            assert len(result) <= len(sol.witness) * pattern.n
            chosen = set(result)
            part = orbits(host)
            for orbit in part.orbits:
                assert set(orbit) <= chosen or not (set(orbit) & chosen)
            for f in footprints_of(pattern, host).footprints:
                assert chosen & set(f)
            checked += 1
        assert checked >= 20


class TestWeightFunction:
    def test_basics(self, k5):
        fn = WeightFunction(k5, {0: 1, 2: "1/2", 3: 0})
        assert fn.support == (0, 2)
        assert fn.value(0) == 1
        assert fn.value(2) == Fraction(1, 2)
        assert fn.value(4) == 0
        assert fn.total == Fraction(3, 2)
        assert fn.values_used == {Fraction(1), Fraction(1, 2)}

    def test_negative_weight_rejected(self, k5):
        with pytest.raises(ValueError):
            WeightFunction(k5, {0: -1})

    def test_vertex_out_of_range_rejected(self, k5):
        with pytest.raises(ValueError):
            WeightFunction(k5, {5: 1})

    def test_translate_moves_support(self):
        cycle = generate("cycle:4")
        fn = WeightFunction(cycle, {0: 1})
        rotated = fn.translate((1, 2, 3, 0))
        assert rotated.support == (3,)
        assert rotated.value(3) == 1

    def test_translate_preserves_total(self):
        host = petersen()
        fn = WeightFunction(host, {0: 1, 1: "1/2", 5: "1/3"})
        # invariance under the generators is invariance under the group
        for perm in automorphisms(host).generators:
            assert fn.translate(perm).total == fn.total

    def test_equality_and_doc(self, k5):
        a = WeightFunction(k5, {0: 1, 1: "1/2"})
        b = WeightFunction(k5, {1: Fraction(1, 2), 0: Fraction(1)})
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_doc() == {"weights": {"0": 1, "1": "1/2"},
                              "total": "3/2"}


def _complete_bipartite(m: int) -> Graph:
    return Graph(2 * m, [(u, v) for u in range(m) for v in range(m, 2 * m)])


class TestWeightOrbit:
    def test_single_vertex_on_a_cycle(self):
        cycle = generate("cycle:5")
        fn = WeightFunction(cycle, {0: 1})
        family = weight_orbit(cycle, fn)
        assert len(family) == 5
        assert sorted(f.support for f in family) == [(v,) for v in range(5)]

    def test_invariant_function_has_orbit_size_one(self, k5):
        fn = WeightFunction(k5, {v: 1 for v in range(5)})
        assert weight_orbit(k5, fn) == (fn,)

    def test_wrong_graph_rejected(self, k5):
        fn = WeightFunction(generate("cycle:5"), {0: 1})
        with pytest.raises(PreconditionError):
            weight_orbit(k5, fn)

    def test_matches_brute_force_on_the_bench_sweeps(self):
        # the weight sweeps of the bench on hosts below 9 vertices
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        c8 = circulant(8, (2, 3, 4))
        for host, pair, tail in ((k33, (0, 3), 3), (hypercube(3), (0, 1), 3),
                                 (prism(), (0, 3), 3), (c8, (0, 4), 3),
                                 (c8, (0, 4), 4), (c8, (0, 4), 5)):
            fn = build_pair_weight(host, *pair, tail)
            images = {fn.translate(p) for p in brute_automorphisms(host)}
            want = tuple(sorted(images, key=lambda f: f.entries))
            assert weight_orbit(host, fn) == want

    def test_group_above_the_cap_with_a_small_orbit(self):
        # 9! = 362,880 and 10! = 3,628,800 automorphisms, 9 and 10 images
        for n in (9, 10):
            kn = generate(f"complete:{n}")
            family = weight_orbit(kn, WeightFunction(kn, {0: 1}))
            assert family == tuple(WeightFunction(kn, {v: 1})
                                   for v in range(n))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(symcover.checks, "ELEMENT_CAP", 20)
        host = petersen()
        with pytest.raises(ResourceLimitError) as info:
            weight_orbit(host, WeightFunction(host, {0: 1, 1: 2}))
        assert info.value.limit == 20

    def test_orbit_of_a_group_above_the_cap(self):
        # K(6,6) has 1,036,800 automorphisms; the pair weight has 3,600
        # images
        host = _complete_bipartite(6)
        assert len(weight_orbit(host, build_pair_weight(host, 0, 6, 3))) \
            == 3600

    def test_oversized_orbit_refused_before_the_closure(self):
        # orbit-stabilizer puts this orbit near 10**20 functions
        host = _complete_bipartite(32)
        fn = build_pair_weight(host, 0, 32, 16)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            weight_orbit(host, fn)
        assert time.perf_counter() - start < 2
        assert info.value.limit == symcover.checks.ELEMENT_CAP

    def test_closure_checked_against_the_orbit_count(self, monkeypatch):
        chain = symcover.checks._chain

        def doubled(g, colors):
            order, generators = chain(g, colors)
            return 2 * order, generators

        monkeypatch.setattr(symcover.checks, "_chain", doubled)
        host = petersen()
        with pytest.raises(VerificationError, match="orbit-stabilizer"):
            weight_orbit(host, WeightFunction(host, {0: 1}))


class TestWeightedSystem:
    def test_sums_and_first_violator(self, k5):
        fns = [WeightFunction(k5, {0: 1}), WeightFunction(k5, {1: "1/2"})]
        report = verify_weighted_system((0, 1), fns)
        assert report.sums == (Fraction(1), Fraction(1, 2))
        assert not report.holds
        assert report.first_violator == 1

    def test_holds(self, k5):
        fns = [WeightFunction(k5, {0: 1}), WeightFunction(k5, {0: 2, 1: 1})]
        report = verify_weighted_system((0,), fns)
        assert report.holds
        assert report.first_violator is None

    def test_empty_family_holds(self):
        report = verify_weighted_system((0,), ())
        assert report.holds


class TestBuildPairWeight:
    def test_layout_with_surplus_common_neighbors(self):
        host = circulant(14, (1, 2, 3, 4, 7))
        fn = build_pair_weight(host, 0, 4, 7)
        assert fn.total == 8
        ones = [v for v, w in fn.entries if w == 1]
        halves = [v for v, w in fn.entries if w == Fraction(1, 2)]
        assert ones == [0, 1, 2, 3, 4, 7]
        assert halves == [5, 6, 10, 12]
        assert fn.values_used == {Fraction(1), Fraction(1, 2)}

    def test_layout_with_scarce_common_neighbors(self):
        host = circulant(18, (1, 2, 3, 4, 9))
        fn = build_pair_weight(host, 0, 4, 7)
        assert fn.total == 8
        ones = [v for v, w in fn.entries if w == 1]
        halves = [v for v, w in fn.entries if w == Fraction(1, 2)]
        assert ones == [0, 1, 2, 3, 4]
        assert halves == [5, 6, 7, 9, 14, 15]

    def test_no_common_neighbors(self):
        fn = build_pair_weight(petersen(), 0, 1, 3)
        assert fn.total == 4
        assert fn.value(0) == 1
        assert fn.value(1) == 1
        assert sorted(fn.values_used) == [Fraction(1, 2), Fraction(1)]

    def test_total_is_degree_dependent(self):
        host = circulant(8, (2, 3, 4))
        for d in (3, 4, 5):
            assert build_pair_weight(host, 0, 4, d).total == d + 1

    def test_complete_host_rejected(self):
        with pytest.raises(WeightConstructionError):
            build_pair_weight(generate("complete:9"), 0, 1, 7)

    def test_preconditions(self):
        host = petersen()
        with pytest.raises(PreconditionError):
            build_pair_weight(host, 0, 0, 3)
        with pytest.raises(PreconditionError):
            build_pair_weight(host, 0, 2, 3)
        with pytest.raises(PreconditionError):
            build_pair_weight(host, 0, 1, 2)
        with pytest.raises(PreconditionError):
            build_pair_weight(host, 0, 1, 4)
        with pytest.raises(PreconditionError):
            build_pair_weight(generate("tailed-star:3"), 0, 1, 3)

    def test_hitting_sets_satisfy_the_translated_system(self):
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        for host, pair, d in ((k33, (0, 3), 3), (cube(), (0, 1), 3),
                              (prism(), (0, 3), 3)):
            pattern = generate(f"tailed-star:{d}")
            fn = build_pair_weight(host, *pair, d)
            system = weight_orbit(host, fn)
            sol = vertex_representativity(pattern, host)
            prints = footprints_of(pattern, host).footprints
            for cand in combinations(range(host.n), sol.value):
                if all(set(cand) & set(f) for f in prints):
                    assert verify_weighted_system(cand, system).holds
