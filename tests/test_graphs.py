"""Graph construction, serialization, families, and canonical forms."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import circulant, cube, hypercube, kneser, paley, relabelled
from oracles import brute_canonical_edges
from symcover.errors import (FamilySpecError, GraphParseError,
                             ResourceLimitError)
from symcover.graphs import (
    Graph,
    basic_predicates,
    canonical_form,
    canonical_graph,
    disjoint_union,
    emit_graph6,
    generate,
    has_pendant_vertex,
    induced_subgraph,
    is_connected,
    is_regular,
    lex_min_order,
    parse_edge_list,
    parse_family_spec,
    parse_graph6,
)
from symcover.search import enum_graphs
from symcover.symmetry import is_isomorphic


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


class TestGraph:
    def test_edges_are_normalized_and_deduplicated(self):
        g = Graph(4, [(2, 0), (0, 2), (1, 3)])
        assert g.edges() == ((0, 2), (1, 3))
        assert g.edge_count == 2

    def test_degrees_and_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.neighbors(0) == (1, 2, 3)
        assert g.neighbors(2) == (0,)
        assert g.degree_sequence() == (3, 1, 1, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_relabel_by_permutation(self):
        g = Graph(3, [(0, 1)])
        h = g.relabel((2, 0, 1))
        assert h.edges() == ((0, 2),)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])


class TestFamilies:
    def test_complete(self):
        g = generate("complete:5")
        assert g.n == 5
        assert g.edge_count == 10

    def test_cocktail_is_complete_minus_perfect_matching(self):
        g = generate("cocktail:6")
        assert g.degree_sequence() == (4,) * 6
        assert g.edge_count == 12
        for v in range(6):
            assert not g.has_edge(v, v ^ 1)

    def test_cocktail_requires_even_order(self):
        with pytest.raises(FamilySpecError):
            generate("cocktail:5")

    def test_tailed_star_shape(self):
        g = generate("tailed-star:4")
        assert g.n == 6
        assert sorted(g.degree_sequence(), reverse=True) == [4, 2, 1, 1, 1, 1]
        assert has_pendant_vertex(g)
        assert is_connected(g)

    def test_cycle_and_path(self):
        assert generate("cycle:5").degree_sequence() == (2,) * 5
        assert generate("path:4").degree_sequence() == (2, 2, 1, 1)

    def test_union(self):
        g = generate("union:complete:3+cycle:4")
        assert g.n == 7
        assert not is_connected(g)
        assert g.edge_count == 7

    def test_unknown_family_rejected(self):
        with pytest.raises(FamilySpecError):
            parse_family_spec("wheel:5")

    def test_bad_parameter_rejected(self):
        with pytest.raises(FamilySpecError):
            parse_family_spec("complete:x")


class TestGraph6:
    def test_known_strings(self):
        assert emit_graph6(generate("complete:5")) == "D~{"
        assert parse_graph6("D~{") == generate("complete:5")

    def test_round_trip_small_random(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 13))
            assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_long_header(self):
        rng = random.Random(8)
        g = random_graph(rng, 70, 0.1)
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    def test_reject_bad_character(self):
        with pytest.raises(GraphParseError) as info:
            parse_graph6("D~\x19")
        assert info.value.offset == 2

    def test_reject_truncated_body(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D~")

    def test_reject_empty(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")


class TestEdgeListParsing:
    def test_basic(self):
        g = parse_edge_list("n 4\n0 1\n2 3\n")
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_header_is_optional(self):
        g = parse_edge_list("0 1\n2 3\n")
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("n 4\n\n0 1\n1 2\n2 3\n0 3\n")
        assert g.degree_sequence() == (2, 2, 2, 2)

    def test_reject_vertex_out_of_range(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("n 3\n0 5\n")

    def test_reject_garbage(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("0 one\n")


class TestOperations:
    def test_induced_subgraph(self):
        g = generate("cycle:5")
        h = induced_subgraph(g, [0, 1, 2])
        assert h == Graph(3, [(0, 1), (1, 2)])

    def test_disjoint_union(self):
        g = disjoint_union(generate("complete:3"), generate("complete:3"))
        assert g.n == 6
        assert g.edge_count == 6
        assert not is_connected(g)

    def test_predicates(self):
        g = generate("tailed-star:3")
        doc = basic_predicates(g)
        assert doc["is_connected"] is True
        assert doc["is_regular"] is False
        assert is_regular(generate("cycle:6"), 2)
        assert not is_regular(generate("path:3"))


class TestCanonical:
    def test_matches_brute_force_on_all_small_graphs(self):
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
                g = Graph(n, edges)
                assert canonical_graph(g).edges() == brute_canonical_edges(g)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, 6)
            assert canonical_graph(g).edges() == brute_canonical_edges(g)
        # ties between many equal columns only show on symmetric hosts
        k44 = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
        hosts = [cube(), generate("cycle:8"), generate("cocktail:8"), k44,
                 generate("cycle:7")]
        rng = random.Random(17)
        hosts += [random_graph(rng, 7) for _ in range(10)]
        for g in hosts:
            assert canonical_graph(g).edges() == brute_canonical_edges(g), g

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_relabeling(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        pairs = list(combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs
                          else st.just(set()))
        perm = data.draw(st.permutations(range(n)))
        g = Graph(n, sorted(edges))
        assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_one_lex_min_labelling_per_class_on_six_vertices(self):
        # A000088: 156 classes among the 2^15 labelled graphs
        pairs = list(combinations(range(6), 2))
        graphs = (Graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
                  for mask in range(1 << len(pairs)))
        passing = sum(lex_min_order(g.n, g.rows, first_only=True) is not None
                      for g in graphs)
        assert passing == 156

    def test_lex_min_labelled_means_canonical_on_five_vertices(self):
        pairs = list(combinations(range(5), 2))
        passing = 0
        for mask in range(1 << len(pairs)):
            g = Graph(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
            accepted = lex_min_order(g.n, g.rows, first_only=True) is not None
            assert accepted == (canonical_graph(g) == g), g
            passing += accepted
        assert passing == 34

    def test_regular_classes_return_under_relabelling(self):
        # cubic graphs tie on many columns, which exercises the incumbent
        # reset of the lex-min search
        rng = random.Random(23)
        classes = enum_graphs(10, regular_k=3)
        assert len(classes) == 21
        for g in classes:
            for _ in range(3):
                assert canonical_graph(relabelled(g, rng)[0]) == g, g

    def test_distinct_classes_have_distinct_forms(self):
        prism6 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert prism6.degree_sequence() == k33.degree_sequence()
        assert canonical_form(prism6) != canonical_form(k33)

    def test_budget_stops_large_sparse_hosts(self):
        # the lex-min form opens with a maximum independent set of C(64;1,7)
        with pytest.raises(ResourceLimitError, match="budget") as stop:
            canonical_form(circulant(64, (1, 7)))
        assert "incumbent prefix" in str(stop.value)


class TestIsomorphism:
    def test_cocktail_4_is_the_4_cycle(self):
        assert is_isomorphic(generate("cocktail:4"), generate("cycle:4"))

    def test_prism_versus_bipartite(self):
        prism6 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert not is_isomorphic(prism6, k33)

    def test_random_relabelings(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_graph(rng, 7)
            perm = list(range(7))
            rng.shuffle(perm)
            assert is_isomorphic(g, g.relabel(perm))

    def test_agrees_with_canonical_forms_on_every_class_up_to_7(self):
        # each class against a relabelling of itself and of its neighbour
        # in degree-sequence order: 759 of those 1,252 neighbour pairs share
        # a degree sequence, and 128 also pass the color filter
        rng = random.Random(29)
        classes = sorted((g for n in range(1, 8) for g in enum_graphs(n)),
                         key=lambda g: (g.n, g.degree_sequence()))
        assert len(classes) == 1252
        for g, neighbour in zip(classes, classes[1:] + classes[:1]):
            for h in (g, neighbour):
                h = relabelled(h, rng)[0]
                same = canonical_form(g) == canonical_form(h)
                assert is_isomorphic(g, h) == same, (g, h)

    def test_relabelled_large_hosts_within_a_second(self):
        rng = random.Random(31)
        hosts = [circulant(64, (1, 7)), hypercube(6), kneser(8, 3),
                 paley(29), random_graph(rng, 60, 0.1)]
        pairs = [(g, relabelled(g, rng)[0], True) for g in hosts]
        # one color class each, so only the embedding search tells apart
        pairs.append((circulant(64, (1, 7)), circulant(64, (1, 3)), False))
        for g, h, want in pairs:
            start = time.perf_counter()
            assert is_isomorphic(g, h) is want, g
            assert time.perf_counter() - start < 1.0, g
