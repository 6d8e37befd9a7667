"""Command line behavior: documents, exit codes, input forms."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from conftest import circulant, frames_left, petersen
from symcover.cli import _load_graph, main
from symcover.graphs import _UNARY_KINDS, Graph, emit_graph6, generate
from symcover.report import render_human


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


K33 = "g6:" + emit_graph6(Graph(6, [(u, v) for u in range(3)
                                    for v in range(3, 6)]))


class TestGen:
    def test_family(self, capsys):
        code, doc = run_json(capsys, "gen", "cocktail:6")
        assert code == 0
        assert doc == {"spec": "cocktail:6", "graph6": doc["graph6"],
                       "n": 6, "edges": 12}

    def test_bad_spec_exits_2(self, capsys):
        code, out, err = run(capsys, "gen", "cocktail:5")
        assert code == 2
        assert err.startswith("error:")

    def test_round_trip_through_info(self, capsys):
        code, doc = run_json(capsys, "gen", "complete:5")
        code2, doc2 = run_json(capsys, "info", "g6:" + doc["graph6"])
        assert code2 == 0
        assert doc2["automorphism_order"] == 120


class TestInfo:
    def test_complete_graph(self, capsys):
        code, doc = run_json(capsys, "info", "complete:5")
        assert code == 0
        assert doc["n"] == 5
        assert doc["automorphism_order"] == 120
        assert doc["orbit_count"] == 1
        assert doc["vertex_transitive"] is True

    def test_human_rendering(self, capsys):
        code, out, err = run(capsys, "info", "tailed-star:3")
        assert code == 0
        assert "vertex_transitive: False" in out
        assert "orbit_count: 4" in out

    def test_graph6_file(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_text(emit_graph6(petersen()) + "\n")
        code, doc = run_json(capsys, "info", str(path))
        assert code == 0
        assert doc["automorphism_order"] == 120
        assert doc["n"] == 10

    def test_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
        code, doc = run_json(capsys, "info", str(path))
        assert code == 0
        assert doc["degree_sequence"] == [2, 2, 2, 2]

    def test_edge_list_file_with_comments(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("# triangle\n0 1\n1 2\n0 2\n")
        code, doc = run_json(capsys, "info", str(path))
        assert code == 0
        assert doc["graph6"] == "Bw"

    def test_unreadable_argument_exits_2(self, capsys):
        code, out, err = run(capsys, "info", "no-such-file")
        assert code == 2
        assert "error:" in err

    def test_file_not_utf8_exits_2(self, tmp_path, capsys):
        # exit 1 would claim that a checked property fails
        path = tmp_path / "g.g6"
        path.write_bytes(b"\xff" + emit_graph6(petersen()).encode() + b"\n")
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {str(path)!r}: ")
        assert "can't decode byte 0xff in position 0" in err

    def test_file_read_error_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.g6"
        path.write_text(emit_graph6(petersen()) + "\n")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read {str(path)!r}: ")
        assert "Permission denied" in err


class TestRepr:
    def test_expensive_instance(self, capsys):
        code, doc = run_json(capsys, "repr", "--pattern", "tailed-star:3",
                             "--host", "complete:5")
        assert code == 0
        assert doc["vertex_representativity"] == 1
        assert doc["symmetric_representativity"] == 5
        assert doc["ratio"] == 5
        assert doc["is_extremal"] is True
        assert doc["is_expensive_instance"] is True

    def test_node_budget_flag(self, capsys):
        # the stop prints bounds around the plain cost: 7 for K3 in K9,
        # 10 for path:3 in C(20;1,3)
        c20 = "g6:" + emit_graph6(circulant(20, (1, 3)))
        for argv, value in (
                (["repr", "--pattern", "complete:3", "--host", "complete:9"],
                 7),
                (["check", "cor1.2", "--pattern", "path:3", "--host", c20],
                 10),
                (["check", "utv2.1", "--pattern", "path:3", "--host", c20],
                 10),
                (["check", "thm2.2", "--pattern", "path:3", "--host", c20],
                 10)):
            code, out, err = run(capsys, *argv, "--node-budget", "5")
            assert code == 2, argv
            assert "error:" in err and "node budget" in err, argv
            lo, hi = map(int, re.search(r"optimum in \[(\d+), (\d+)\]",
                                        err).groups())
            assert lo <= value <= hi, argv

    def test_answers_past_the_recursion_limit(self, capsys):
        # the searches are loops: 32 chosen units and 64 matcher positions
        # need no stack frames
        with frames_left(50):
            code, doc = run_json(capsys, "repr", "--pattern", "path:2",
                                 "--host", "path:64")
        assert code == 0
        assert doc["vertex_representativity"] == 32
        assert doc["witness"] == list(range(0, 64, 2))
        # path:300 gets past the cover search to the orbits' vertex cap
        with frames_left(100):
            code, out, err = run(capsys, "repr", "--pattern", "path:2",
                                 "--host", "path:300")
        assert code == 2
        assert err == ("error: automorphism engine supports at most 64 "
                       "vertices, got 300; optimum in [150, 300]\n")

    def test_vertex_cap_stop_words_the_invariant_bounds(self, capsys):
        # the plain cover of path:70 is 35, and all 70 vertices are an
        # invariant cover
        code, out, err = run(capsys, "repr", "--pattern", "path:2",
                             "--host", "path:70")
        assert (code, out) == (2, "")
        assert err == ("error: automorphism engine supports at most 64 "
                       "vertices, got 70; optimum in [35, 70]\n")

    def test_negative_bounds_are_usage_errors(self, capsys):
        # a budget stop would word bounds for a search that never ran
        for flag, what in (("--node-budget", "node budget"),
                           ("--footprint-cap", "footprint cap")):
            code, out, err = run(capsys, "repr", "--pattern", "path:3",
                                 "--host", "cycle:6", flag, "-1")
            assert code == 2
            assert err == (f"error: {what} must be a nonnegative integer, "
                           "got -1\n")

    def test_orbits_ignore_the_order_cap(self, capsys):
        # |Aut(K13)| = 13!; orbits need only generators
        code, doc = run_json(capsys, "repr", "--pattern", "complete:3",
                             "--host", "complete:13")
        assert code == 0
        assert doc["vertex_representativity"] == 11
        assert doc["symmetric_representativity"] == 13

    def test_info_ignores_the_order_cap(self, capsys):
        code, doc = run_json(capsys, "info", "complete:13")
        assert code == 0
        assert doc["automorphism_order"] == 6227020800
        assert doc["orbits"] == [list(range(13))]


class TestChecks:
    def test_orbit_sum_with_computed_minimum(self, capsys):
        code, doc = run_json(capsys, "check", "thm1.1", "--pattern",
                             "tailed-star:3", "--host", "complete:5")
        assert code == 0
        assert doc["holds"] is True
        assert doc["minimum"] == 1

    def test_orbit_sum_with_explicit_set(self, capsys):
        code, doc = run_json(capsys, "check", "thm1.1", "--pattern",
                             "complete:3", "--host", "complete:4",
                             "--set", "0,1")
        assert code == 0
        assert doc["minimum"] == "3/2"

    def test_orbit_sum_non_hitting_set_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "thm1.1", "--pattern",
                             "complete:3", "--host", "complete:4",
                             "--set", "0")
        assert code == 2
        assert "error:" in err

    def test_boundary(self, capsys):
        code, doc = run_json(capsys, "check", "cor1.2", "--pattern",
                             "tailed-star:3", "--host", "complete:5")
        assert code == 0
        assert doc["all_hold"] is True

    def test_boundary_not_applicable_is_success(self, capsys):
        code, doc = run_json(capsys, "check", "cor1.2", "--pattern",
                             "complete:3", "--host", "complete:4")
        assert code == 0
        assert doc["applicable"] is False

    def test_density(self, capsys):
        code, doc = run_json(capsys, "check", "utv2.1", "--pattern",
                             "tailed-star:3", "--host", "complete:5",
                             "--set", "2")
        assert code == 0
        assert doc["holds"] is True

    def test_containment(self, capsys):
        code, doc = run_json(capsys, "check", "thm2.2", "--pattern",
                             "path:3", "--host", "cycle:6")
        assert code == 0
        assert doc["holds"] is True

    def test_neighborhood(self, capsys):
        code, doc = run_json(capsys, "check", "neighborhood",
                             "g6:" + emit_graph6(petersen()))
        assert code == 0
        assert doc["hypothesis_met"] is False
        assert doc["regular_degree"] == 3

    def test_expansion(self, capsys):
        code, doc = run_json(capsys, "check", "expansion", "--host", "path:4",
                             "--orbit-a", "0,3", "--orbit-b", "1,2",
                             "--source", "0")
        assert code == 0
        assert doc["holds"] is True

    def test_expansion_bad_orbit_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "expansion", "--host", "path:4",
                             "--orbit-a", "0,1", "--orbit-b", "2,3",
                             "--source", "0")
        assert code == 2

    def test_weights_default_set(self, capsys):
        host = "g6:" + emit_graph6(circulant(8, (2, 3, 4)))
        code, doc = run_json(capsys, "check", "weights", "--host", host,
                             "--pair", "0,4", "--tail", "3")
        assert code == 0
        assert doc["function"]["total"] == 4
        assert doc["verification"]["holds"] is True

    def test_weights_violating_set_exits_1(self, capsys):
        code, doc = run_json(capsys, "check", "weights", "--host", K33,
                             "--pair", "0,3", "--tail", "3", "--set", "0")
        assert code == 1
        assert doc["verification"]["holds"] is False

    def test_weights_out_of_range_set_exits_2(self, capsys):
        # invalid input, not a failed property: no sum may be reported
        code, out, err = run(capsys, "check", "weights", "--host",
                             "g6:GUzvrw", "--pair", "0,4", "--tail", "3",
                             "--set", "99,-5")
        assert code == 2
        assert out == ""
        assert "outside 0..7" in err


class TestSymmetrize:
    def test_transitive_host(self, capsys):
        code, doc = run_json(capsys, "symmetrize", "--host", "complete:5",
                             "--set", "0", "--max-weight", "5")
        assert code == 0
        assert doc["invariant_set"] == [0, 1, 2, 3, 4]
        assert doc["size_bound"] == 5

    def test_fractional_bound(self, capsys):
        code, doc = run_json(capsys, "symmetrize", "--host", "complete:5",
                             "--set", "0", "--max-weight", "5/2")
        assert code == 0
        assert doc["invariant_set"] == []
        assert doc["size_bound"] == "5/2"

    def test_bad_fraction_exits_2(self, capsys):
        code, out, err = run(capsys, "symmetrize", "--host", "complete:5",
                             "--set", "0", "--max-weight", "a lot")
        assert code == 2


class TestSearches:
    def test_dense(self, capsys):
        code, doc = run_json(capsys, "search", "dense", "--max-n", "6",
                             "--degree", "3")
        assert code == 0
        assert doc["counterexamples"] == []
        assert doc["candidate_count"] == 3

    def test_dense_degree_range_syntax(self, capsys):
        code, doc = run_json(capsys, "search", "dense", "--max-n", "6",
                             "--degree", "3..4")
        assert code == 0
        assert doc["params"]["degrees"] == "[3, 4]"

    def test_dense_empty_degree_range_exits_2(self, capsys):
        for degrees in ("5..3", ","):
            code, out, err = run(capsys, "search", "dense", "--max-n", "6",
                                 "--degree", degrees, "--json")
            assert code == 2, degrees
            assert out == ""
            assert err.startswith("error:") and "empty" in err

    def test_vt_extremal(self, capsys):
        code, doc = run_json(capsys, "search", "vt-extremal", "--tail", "3",
                             "--max-n", "6")
        assert code == 0
        assert doc["classification"] == [emit_graph6(generate("complete:5"))]

    def test_connected_extremal_human_output(self, capsys):
        code, out, err = run(capsys, "search", "connected-extremal",
                             "--tail", "3", "--max-n", "6")
        assert code == 0
        assert "D~{ extremal plain=1 invariant=5" in out
        assert "records:" not in out
        assert "counterexamples: []" in out

    @pytest.mark.parametrize("argv, count", [
        (("dense", "--max-n", "6", "--degree", "3"), 3),
        (("connected-extremal", "--tail", "5", "--max-n", "6"), 0)],
        ids=["dense", "empty"])
    def test_human_output_is_the_records_then_the_document(self, capsys,
                                                            argv, count):
        code, doc = run_json(capsys, "search", *argv)
        assert code == 0 and len(doc["records"]) == count
        code, out, err = run(capsys, "search", *argv)
        assert code == 0 and err == ""
        lines = [line for line in out.splitlines()
                 if not line.startswith("elapsed_s:")]
        assert lines[:count] == doc["records"]
        # an empty scan keeps "records: []" in its document
        rest = {key: value for key, value in doc.items()
                if key != "elapsed_s" and (key != "records" or not count)}
        assert lines[count:] == render_human(rest).splitlines()

    @pytest.mark.parametrize("flag, says", [
        ("--node-budget", "node budget"),
        ("--footprint-cap", "exceeds the cap")])
    def test_cover_scans_honour_the_bounds(self, capsys, flag, says):
        # at 6 vertices every vt-extremal cover search fits in one node
        # once it starts at a fixed vertex, so the scans run to 7
        for scan in ("vt-extremal", "connected-extremal"):
            argv = ["search", scan, "--tail", "3", "--max-n", "7"]
            code, out, err = run(capsys, *argv, flag, "1")
            assert code == 2 and err.startswith("error:"), scan
            assert says in err, scan


BAD_PATTERN, BAD_HOST = "no/such/pattern.g6", "no/such/host.g6"


class TestLoadOrder:
    # main loads every graph argument before the handler reads any other
    # argument: the pattern first, then the host, whatever the order on
    # the command line
    @pytest.mark.parametrize("argv", [
        ("repr", "--pattern", BAD_PATTERN, "--host", BAD_HOST),
        ("repr", "--host", BAD_HOST, "--pattern", BAD_PATTERN),
        ("check", "thm1.1", "--pattern", BAD_PATTERN, "--host", BAD_HOST),
        ("check", "thm1.1", "--host", BAD_HOST, "--pattern", BAD_PATTERN),
    ], ids=lambda a: " ".join(a[:3]))
    def test_pattern_error_comes_first(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot interpret {BAD_PATTERN!r}: not a g6: "
                       "literal, a family spec, or a readable file\n")

    @pytest.mark.parametrize("argv", [
        ("check", "weights", "--pair", "0,x", "--tail", "3",
         "--host", BAD_HOST),
        ("check", "expansion", "--orbit-a", "x", "--orbit-b", "0",
         "--source", "0", "--host", BAD_HOST),
        ("symmetrize", "--set", "x", "--max-weight", "1", "--host", BAD_HOST),
    ], ids=lambda a: " ".join(a[:2]))
    def test_host_error_comes_before_the_other_arguments(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot interpret {BAD_HOST!r}: not a g6: "
                       "literal, a family spec, or a readable file\n")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_every_family_generate_accepts_loads(self):
        for spec in (*(f"{kind}:4" for kind in _UNARY_KINDS),
                     "union:path:2+cycle:3"):
            assert _load_graph(spec) == generate(spec), spec


# the subcommands that enumerate no footprints and search no covers
UNBOUNDED = (
    ("gen", "complete:5"),
    ("info", "complete:5"),
    ("check", "neighborhood", "complete:5"),
    ("check", "expansion", "--host", "path:3", "--orbit-a", "1",
     "--orbit-b", "0,2", "--source", "1"),
    ("symmetrize", "--host", "complete:5", "--set", "0", "--max-weight", "5"),
    ("search", "dense", "--max-n", "6"),
)


class TestBoundsWhereRead:
    @pytest.mark.parametrize("argv", UNBOUNDED, ids=lambda a: " ".join(a[:2]))
    def test_bounds_are_usage_errors_elsewhere(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0
        for flag in ("--node-budget", "--footprint-cap"):
            code, out, err = run(capsys, *argv, flag, "1")
            assert code == 2 and "unrecognized arguments" in err, flag
