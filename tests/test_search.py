"""Exhaustive enumeration and the three scans built on it."""

from __future__ import annotations

import pytest

from conftest import prism
import symcover.copies
import symcover.search
import symcover.symmetry
from symcover.covers import NODE_BUDGET, CoverSolution
from symcover.errors import (PreconditionError, ResourceLimitError,
                             VerificationError)
from symcover.graphs import (Graph, canonical_form, emit_graph6, generate,
                             is_regular)
from symcover.search import (
    classify_vt_extremal,
    enum_graphs,
    find_dense_counterexample,
    scan_connected_extremal,
)


# isomorphism class counts on n unlabeled vertices
ALL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# (n, k) -> number of k-regular graphs on n vertices: every k < n <= 10
# (A051031; above n / 2 through the complement of the direct lists), and
# the empty cases k = n for n <= 2 and k = 2 > n = 1
REGULAR_COUNTS = {
    (n, k): count
    for n, row in enumerate((
        (1,), (1, 1), (1, 0, 1), (1, 1, 1, 1), (1, 0, 1, 0, 1),
        (1, 1, 2, 2, 1, 1), (1, 0, 2, 0, 2, 0, 1),
        (1, 1, 3, 6, 6, 3, 1, 1), (1, 0, 4, 0, 16, 0, 4, 0, 1),
        (1, 1, 5, 21, 60, 60, 21, 5, 1, 1)), start=1)
    for k, count in enumerate(row)}
REGULAR_COUNTS.update({(1, 1): 0, (1, 2): 0, (2, 2): 0})


class TestEnumeration:
    def test_counts(self):
        for n, want in ALL_COUNTS.items():
            assert len(enum_graphs(n)) == want, n

    def test_connected_counts(self):
        for n, want in CONNECTED_COUNTS.items():
            assert len(enum_graphs(n, connected_only=True)) == want, n

    def test_results_are_canonical_and_distinct(self):
        inputs = [(n, {}) for n in range(7)] + [(10, {"regular_k": 3})]
        for n, kwargs in inputs:
            graphs = enum_graphs(n, **kwargs)
            forms = [canonical_form(g) for g in graphs]
            assert [emit_graph6(g) for g in graphs] == forms, n
            assert forms == sorted(forms)
            assert len(set(forms)) == len(graphs)

    def test_regular_counts(self):
        for (n, k), want in REGULAR_COUNTS.items():
            got = enum_graphs(n, regular_k=k)
            assert len(got) == want, (n, k)
            assert all(is_regular(g, k) for g in got)

    def test_regular_agrees_with_filtered_enumeration(self):
        for n in range(1, 8):
            everything = enum_graphs(n)
            for k in range(n):
                want = sorted(canonical_form(g) for g in everything
                              if is_regular(g, k))
                got = [canonical_form(g) for g in enum_graphs(n, regular_k=k)]
                assert got == want, (n, k)

    def test_infeasible_children_skip_the_canonicity_test(self, monkeypatch):
        # without the degree-feasibility cuts 5,284 and 2,159 children reach
        # the test; the popcount window alone leaves 3,123 and 1,206, the
        # first-neighbour cut alone 3,225 and 1,148, and both 1,765 and 485;
        # the next-column cut brings them to 801 and 297 (1,147 and 362
        # without its rest = 2 case)
        calls = 0
        lex_min_order = symcover.search.lex_min_order

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return lex_min_order(*args, **kwargs)

        monkeypatch.setattr(symcover.search, "lex_min_order", counted)
        for k, most in ((4, 850), (3, 320)):
            calls = 0
            symcover.search._regular_graphs.__wrapped__(10, k)
            assert calls <= most, (k, calls)

    def test_cubic_graphs_on_six_vertices(self):
        got = {canonical_form(g)
               for g in enum_graphs(6, connected_only=True, regular_k=3)}
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert got == {canonical_form(k33), canonical_form(prism())}

    def test_odd_parity_is_empty(self):
        assert enum_graphs(5, regular_k=3) == ()

    def test_degree_too_large_is_empty(self):
        assert enum_graphs(4, regular_k=4) == ()

    def test_zero_regular(self):
        (g,) = enum_graphs(4, regular_k=0)
        assert g.edge_count == 0

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            enum_graphs(9)
        with pytest.raises(ResourceLimitError):
            enum_graphs(11, regular_k=3)
        with pytest.raises(PreconditionError):
            enum_graphs(-1)


class TestDenseScan:
    def test_small_range_has_no_counterexample(self):
        report = find_dense_counterexample(8, (3, 4))
        assert report.counterexamples == ()
        assert report.candidate_count == len(report.records)
        assert all(verdict == "hypothesis-failed"
                   for _, verdict in report.records)
        # disconnected regular graphs are scanned too
        assert report.candidate_count == (1 + 2 + 6) + (1 + 1 + 2 + 6)

    def test_notes_count_per_degree(self):
        report = find_dense_counterexample(6, (3,))
        assert report.notes == ("degree 3: 3 graphs scanned",)

    def test_doc_shape(self):
        doc = find_dense_counterexample(6, (3,)).to_doc()
        assert doc["scan"] == "dense-neighborhoods"
        assert doc["params"] == {"n_max": "6", "degrees": "[3]"}
        assert doc["counterexamples"] == []
        assert len(doc["records"]) == doc["candidate_count"]

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            find_dense_counterexample(11, (3,))

    def test_empty_degree_range_rejected(self):
        # an empty range would scan nothing and read as "no counterexample"
        with pytest.raises(PreconditionError, match="empty"):
            find_dense_counterexample(6, range(5, 3))
        with pytest.raises(PreconditionError, match="empty"):
            find_dense_counterexample(6, ())


class TestVtScan:
    def test_small_range_finds_the_complete_graph(self, k5):
        report = classify_vt_extremal(3, 6)
        assert report.classification == (canonical_form(k5),)
        extremal = [r for r in report.records if r[1].startswith("extremal")]
        assert len(extremal) == 1
        assert extremal[0][1] == "extremal plain=1 invariant=5"

    def test_tail_below_three_rejected(self):
        with pytest.raises(PreconditionError):
            classify_vt_extremal(2, 6)

    def test_reverification_mismatch_raises(self, monkeypatch):
        def disagreeing(family, n=None, node_budget=None):
            return CoverSolution(value=2, witness=(0, 1), nodes_explored=0)
        monkeypatch.setattr(symcover.search, "min_hitting_set", disagreeing)
        with pytest.raises(VerificationError, match="re-solved"):
            classify_vt_extremal(3, 6)

    def test_reverification_reads_no_cache(self):
        pattern = generate("tailed-star:3")
        report = classify_vt_extremal(3, 6)
        (g6,) = report.classification
        caches = (symcover.copies._footprints_cached,
                  symcover.symmetry._automorphism_group)
        before = [cache.cache_info()[:2] for cache in caches]
        symcover.search._reverify(pattern, g6, "plain=1 invariant=5")
        assert [cache.cache_info()[:2] for cache in caches] == before
        with pytest.raises(VerificationError, match="re-solved"):
            symcover.search._reverify(pattern, g6, "plain=1 invariant=4")

    def test_reverification_checks_witnesses(self, monkeypatch):
        # path:3 in C6: plain 2 (e.g. {0, 3}), one orbit of 6 vertices
        pattern = generate("path:3")
        g6 = emit_graph6(generate("cycle:6"))
        symcover.search._reverify(pattern, g6, "plain=2 invariant=6")
        solve_plain = symcover.search.min_hitting_set

        def missing(family, n=None, node_budget=NODE_BUDGET):
            sol = solve_plain(family, n, node_budget)
            return CoverSolution(value=sol.value, witness=(0, 1),
                                 nodes_explored=sol.nodes_explored)

        def not_a_union(family, part, node_budget=None):
            # hits every footprint, but splits the orbit
            return CoverSolution(value=5, witness=(0, 1, 2, 3, 4),
                                 nodes_explored=0, orbit_ids=(0,))

        with monkeypatch.context() as m:
            m.setattr(symcover.search, "min_hitting_set", missing)
            with pytest.raises(VerificationError, match="plain witness"):
                symcover.search._reverify(pattern, g6, "plain=2 invariant=6")
        with monkeypatch.context() as m:
            m.setattr(symcover.search, "min_orbit_cover", not_a_union)
            with pytest.raises(VerificationError, match="union of orbits"):
                symcover.search._reverify(pattern, g6, "plain=2 invariant=5")

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            classify_vt_extremal(3, 11)


class TestConnectedScan:
    def test_no_wide_extremal_instance_up_to_six(self, k5):
        report = scan_connected_extremal(3, 6)
        assert report.counterexamples == ()
        assert canonical_form(k5) in report.classification
        assert all(not verdict.startswith("extremal-wide")
                   for _, verdict in report.records)

    def test_complete_host_is_the_only_hit_for_longer_tails(self):
        report = scan_connected_extremal(5, 7)
        assert report.classification == (canonical_form(generate("complete:7")),)
        assert report.counterexamples == ()

    def test_vacuous_range_is_reported(self):
        report = scan_connected_extremal(5, 6)
        assert report.candidate_count == 0
        assert report.classification == ()
        assert report.notes == ("no extremal hit in range; nothing to flag",)

    def test_reverification_mismatch_raises(self, monkeypatch):
        # the only hit up to 5 vertices is K5, with plain cover 1
        def disagreeing(family, n=None, node_budget=None):
            return CoverSolution(value=2, witness=(0, 1), nodes_explored=0)
        monkeypatch.setattr(symcover.search, "min_hitting_set", disagreeing)
        with pytest.raises(VerificationError, match="re-solved"):
            scan_connected_extremal(3, 5)

    def test_determinism(self):
        a = scan_connected_extremal(3, 6)
        b = scan_connected_extremal(3, 6)
        assert a.records == b.records
        assert a.classification == b.classification

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            scan_connected_extremal(3, 9)
