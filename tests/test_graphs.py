"""Graph construction, serialization, families, and canonical forms."""

from __future__ import annotations

import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import circulant, cube, frames_left, relabelled
from oracles import brute_canonical_edges
from symcover.errors import (FamilySpecError, GraphParseError,
                             PreconditionError, ResourceLimitError)
from symcover.graphs import (
    Graph,
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
    parse_graph6,
)
from symcover.search import _complement, enum_graphs


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# every kind at parameters 1-12 and every union string of the tests, the
# demos and the README, with the graph6 of the graph each one names
FAMILY_GRAPH6 = {
    "complete:1": "@", "complete:2": "A_", "complete:3": "Bw",
    "complete:4": "C~", "complete:5": "D~{", "complete:6": "E~~w",
    "complete:7": "F~~~w", "complete:8": "G~~~~{", "complete:9": "H~~~~~~",
    "complete:10": "I~~~~~~~w", "complete:11": "J~~~~~~~~~_",
    "complete:12": "K~~~~~~~~~~~",
    "cocktail:2": "A?", "cocktail:4": "C]", "cocktail:6": "E]~o",
    "cocktail:8": "G]~v~w", "cocktail:10": "I]~v~z~~o",
    "cocktail:12": "K]~v~z~~v~~}",
    "tailed-star:1": "Bg", "tailed-star:2": "Cq", "tailed-star:3": "DsO",
    "tailed-star:4": "Es`?", "tailed-star:5": "FsaA?",
    "tailed-star:6": "GsaCA?", "tailed-star:7": "HsaCC@?",
    "tailed-star:8": "IsaCCA?O?", "tailed-star:9": "JsaCCA?_A??",
    "tailed-star:10": "KsaCCA?_C?G?", "tailed-star:11": "LsaCCA?_C?O?O?",
    "tailed-star:12": "MsaCCA?_C?O?_?O??",
    "cycle:3": "Bw", "cycle:4": "Cl", "cycle:5": "Dhc", "cycle:6": "EhEG",
    "cycle:7": "FhCKG", "cycle:8": "GhCGKC", "cycle:9": "HhCGGE@",
    "cycle:10": "IhCGGC@_G", "cycle:11": "JhCGGC@?K?_",
    "cycle:12": "KhCGGC@?G?o@",
    "path:1": "@", "path:2": "A_", "path:3": "Bg", "path:4": "Ch",
    "path:5": "DhC", "path:6": "EhCG", "path:7": "FhCGG", "path:8": "GhCGGC",
    "path:9": "HhCGGC@", "path:10": "IhCGGC@?G", "path:11": "JhCGGC@?G?_",
    "path:12": "KhCGGC@?G?_@",
    "union:complete:2+complete:2": "C`",
    "union:complete:3+complete:5": "GwCWw{",
    "union:complete:3+cycle:4": "FwCGg",
    "union:complete:3+cycle:4+path:2": "HwCGg?@",
    "union:complete:3+path:2": "DwC",
    "union:complete:5+complete:5": "I~{?GKF@w",
    "union:cycle:8+path:5+path:7": "ShCGKC??G?_@?@????G?@??C??G??G??C",
    "union:cycle:8+path:7+path:9":
        "WhCGKC??G?_@?@??_?G????C??G??G??C??@???G???_??@",
    "union:path:2+cycle:3": "D`K",
    " union: path:3 + cycle:4 ": "FgCGg",
}

# malformed spec strings and the message each one raises
BAD_FAMILY_SPECS = {
    "": "empty family spec",
    "wheel:5": "unknown family spec 'wheel:5'",
    "union": "unknown family spec 'union'",
    "complete:x": "parameter of 'complete' must be an integer, got 'x'",
    "complete:5:3": "parameter of 'complete' must be an integer, got '5:3'",
    "path:0": "parameter of 'path' must be positive",
    "path:-1": "parameter of 'path' must be positive",
    **{f"cocktail:{n}": f"cocktail:{n} rejected: an odd order would need "
       f"degree sum {n}*({n}-2), which is odd and therefore not graphical"
       for n in (1, 3, 5, 7, 9, 11)},
    "cycle:1": "cycle needs at least 3 vertices",
    "cycle:2": "cycle needs at least 3 vertices",
    "union:": "union needs at least two '+'-separated components",
    "union:path:3": "union needs at least two '+'-separated components",
    "union:path:2+union:cycle:3+path:2":
        "union needs at least two '+'-separated components",
    "union:path:3+": "empty family spec",
}

# refusals at the input edge, one a line: the call, the error it raises and
# a fragment of the message; every refusal of a bad argument is a ValueError
INPUT_REFUSALS = [
    (lambda: parse_edge_list("n"), GraphParseError,
     "line 1: header must be 'n <count>'"),
    (lambda: parse_edge_list("n x"), GraphParseError,
     "line 1: vertex count 'x' is not an integer"),
    (lambda: parse_edge_list("n -2"), GraphParseError,
     "line 1: negative vertex count"),
    (lambda: parse_edge_list("0 1 2"), GraphParseError,
     "line 1: expected 'u v', got '0 1 2'"),
    (lambda: parse_edge_list("0 a"), GraphParseError,
     "line 1: vertex ids must be integers"),
    (lambda: parse_edge_list("0 -1"), GraphParseError,
     "line 1: negative vertex id"),
    (lambda: parse_edge_list("2 2"), GraphParseError,
     "line 1: loop at vertex 2"),
    (lambda: parse_edge_list("n 2\n0 2"), GraphParseError,
     "vertex id 2 exceeds declared count 2"),
    (lambda: Graph(-1), ValueError,
     "vertex count must be a nonnegative integer, got -1"),
    (lambda: Graph(2.5), PreconditionError,
     "vertex count must be a nonnegative integer, got 2.5"),
    (lambda: Graph("3"), PreconditionError,
     "vertex count must be a nonnegative integer, got '3'"),
    (lambda: generate(5), PreconditionError,
     "family spec must be a str, got 5"),
    # a bool is a truth value, so it is neither a vertex nor a count
    (lambda: Graph(True), PreconditionError,
     "vertex count must be a nonnegative integer, got True"),
    (lambda: Graph(3, [(True, 2)]), PreconditionError,
     "edge contains True, not an integer"),
    (lambda: induced_subgraph(Graph(4), [False]), PreconditionError,
     "vertex set contains False, not an integer"),
    (lambda: Graph(3, [(1, 1)]), ValueError, "loop at vertex 1"),
    (lambda: Graph(3).relabel((0, 0, 1)), ValueError,
     "relabeling must be a permutation of 0..n-1"),
    (lambda: induced_subgraph(Graph(4), (1, 4)), ValueError, "outside 0..3"),
    # a vertex is an int, so a float or a str is refused, not converted
    (lambda: induced_subgraph(Graph(4), [1.5]), PreconditionError,
     "vertex set contains 1.5, not an integer"),
    (lambda: induced_subgraph(Graph(4), ["a"]), PreconditionError,
     "vertex set contains 'a', not an integer"),
    (lambda: Graph(3, [(0, 1.0)]), PreconditionError,
     "edge contains 1.0, not an integer"),
    (lambda: Graph(3, [(0, "x")]), PreconditionError,
     "edge contains 'x', not an integer"),
    (lambda: Graph(3, [(0, 3)]), PreconditionError,
     "edge contains vertex 3, outside 0..2"),
]


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
            generate("wheel:5")

    def test_bad_parameter_rejected(self):
        with pytest.raises(FamilySpecError):
            generate("complete:x")

    def test_spec_strings_build_their_pinned_graphs(self):
        # equal rows make equal values and equal hashes
        for spec, g6 in FAMILY_GRAPH6.items():
            g, want = generate(spec), parse_graph6(g6)
            assert (g, hash(g)) == (want, hash(want)), spec

    def test_bad_spec_strings_name_their_fault(self):
        for spec, message in BAD_FAMILY_SPECS.items():
            with pytest.raises(FamilySpecError) as info:
                generate(spec)
            assert str(info.value) == message, spec

    def test_union_checks_every_component_before_building_one(self):
        # building complete:100000 would take minutes
        start = time.perf_counter()
        with pytest.raises(FamilySpecError, match="'wheel:5'"):
            generate("union:complete:100000+wheel:5")
        assert time.perf_counter() - start < 0.5

    def test_refuses_a_family_past_the_cap_before_building_it(self):
        # edges plus 64-bit words of adjacency rows: path:8000 has few
        # edges but 8000-bit rows; the cheap specs come first, so a broken
        # cap fails the test before it builds the dear one
        assert generate("path:7900").n == 7900
        for spec in ("path:8000", "complete:1395",
                     "union:complete:1000+complete:1000"):
            with pytest.raises(ResourceLimitError, match="generate builds "
                               "at most 1000000 edges plus 64-bit words"):
                generate(spec)
        with pytest.raises(ResourceLimitError) as info:
            generate("complete:100000")
        assert str(info.value) == (
            "family 'complete:100000' has 4999950000 edges on 100000 "
            "vertices; generate builds at most 1000000 edges plus 64-bit "
            "words of adjacency rows")


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

    @pytest.mark.parametrize("text, message, offset", [
        ("D~}", "nonzero padding bit in graph6 body", 2),
        ("A`", "nonzero padding bit in graph6 body", 1),
        ("D~{?", "trailing data after graph6 body", 3),
        ("~?", "truncated graph6 length header", 2),
        ("~~?", "truncated graph6 length header", 3),
        ("~", "truncated graph6 length header", 1),
    ])
    def test_error_messages_and_offsets(self, text, message, offset):
        with pytest.raises(GraphParseError) as info:
            parse_graph6(text)
        assert str(info.value) == f"{message} (at byte {offset})"
        assert info.value.offset == offset

    @pytest.mark.parametrize("text", ["~??D~{", "~~?????D~{",
                                      ">>graph6<<D~{\n"])
    def test_long_headers_and_prefix_accepted(self, text):
        # the long header forms may hold any n, even one a shorter form fits
        assert parse_graph6(text) == generate("complete:5")

    def test_canonical_form_is_the_least_string_over_all_labellings(self):
        for n in range(1, 6):
            for g in enum_graphs(n):
                least = min(emit_graph6(g.relabel(p))
                            for p in permutations(range(n)))
                assert canonical_form(g) == least


@pytest.mark.parametrize("call, error, message", INPUT_REFUSALS)
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


class TestEdgeListParsing:
    def test_basic(self):
        g = parse_edge_list("n 4\n0 1\n2 3\n")
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_header_is_optional(self):
        g = parse_edge_list("0 1\n2 3\n")
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# square\nn 4\n\n0 1\n1 2\n#2 0\n2 3\n0 3\n")
        assert g == Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_line_numbers_count_comment_lines(self):
        with pytest.raises(GraphParseError) as info:
            parse_edge_list("# triangle\n0 1\n\n1 x\n")
        assert str(info.value) == "line 4: vertex ids must be integers"

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

    def test_rows_built_graphs_equal_their_edge_built_twins(self):
        # graphs derived from graphs are built from rows; each must be the
        # value, and hash, that Graph(n, edges) gives for its edge list
        rng = random.Random(26)
        graphs = [random_graph(rng, n, rng.random())
                  for n in [0, 1, 2, 61, 62, 63, 70,
                            *(rng.randrange(71) for _ in range(20))]]
        graphs += [generate(spec) for spec in (
            "complete:6", "cocktail:6", "tailed-star:4", "cycle:7", "path:1",
            "union:complete:3+cycle:4+path:2")]

        def same(built, n, edges):
            twin = Graph(n, edges)
            assert built == twin and hash(built) == hash(twin)

        for g in graphs:
            n, edges = g.n, g.edges()
            same(parse_graph6(emit_graph6(g)), n, edges)
            perm = rng.sample(range(n), n)
            same(g.relabel(perm), n, [(perm[u], perm[v]) for u, v in edges])
            h = rng.choice(graphs)
            same(disjoint_union(g, h), n + h.n,
                 [*edges, *((u + n, v + n) for u, v in h.edges())])
            pos = {v: i for i, v in enumerate(sorted(
                rng.sample(range(n), rng.randrange(n + 1))))}
            same(induced_subgraph(g, list(pos)), len(pos),
                 [(pos[u], pos[v]) for u, v in edges
                  if u in pos and v in pos])
            same(_complement(g), n, [(u, v) for u, v in
                                     combinations(range(n), 2)
                                     if not g.has_edge(u, v)])

    def test_predicates(self):
        g = generate("tailed-star:3")
        assert is_connected(g)
        assert not is_regular(g)
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

    def test_answers_past_the_recursion_limit(self):
        # the lex-min search is a loop: 200 placed vertices need no stack
        # frames.  Every labelling of K200 is the same graph
        with frames_left(100):
            form = canonical_form(generate("complete:200"))
        assert form == emit_graph6(generate("complete:200"))

