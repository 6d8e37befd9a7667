"""Command line behavior: documents, exit codes, input forms."""

from __future__ import annotations

import json
import re

import pytest

from conftest import circulant, petersen
from symcover.cli import _load_graph, main
from symcover.graphs import _UNARY_KINDS, Graph, emit_graph6, generate


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

    def test_unreadable_argument_exits_2(self, capsys):
        code, out, err = run(capsys, "info", "no-such-file")
        assert code == 2
        assert "error:" in err


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

    def test_node_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCOVER_NODE_BUDGET", "5")
        code, out, err = run(capsys, "repr", "--pattern", "complete:3",
                             "--host", "complete:9")
        assert code == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCOVER_NODE_BUDGET", "5")
        code, doc = run_json(capsys, "repr", "--pattern", "complete:3",
                             "--host", "complete:9",
                             "--node-budget", str(10**8))
        assert code == 0
        assert doc["vertex_representativity"] == 7

    def test_bad_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCOVER_NODE_BUDGET", "plenty")
        code, out, err = run(capsys, "repr", "--pattern", "complete:3",
                             "--host", "complete:4")
        assert code == 2


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

    @pytest.mark.parametrize("flag, variable, says", [
        ("--node-budget", "SYMCOVER_NODE_BUDGET", "node budget"),
        ("--footprint-cap", "SYMCOVER_FOOTPRINT_CAP", "exceeds the cap")])
    def test_cover_scans_honour_the_bounds(self, capsys, monkeypatch, flag,
                                           variable, says):
        for scan in ("vt-extremal", "connected-extremal"):
            argv = ["search", scan, "--tail", "3", "--max-n", "6"]
            code, out, err = run(capsys, *argv, flag, "1")
            assert code == 2 and err.startswith("error:"), scan
            assert says in err, scan
            monkeypatch.setenv(variable, "1")
            code, out, err = run(capsys, *argv)
            monkeypatch.delenv(variable)
            assert code == 2 and err.startswith("error:"), scan
            assert says in err, scan


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

    def test_bad_env_values_ignored_where_unread(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCOVER_NODE_BUDGET", "plenty")
        monkeypatch.setenv("SYMCOVER_FOOTPRINT_CAP", "plenty")
        for argv in (("gen", "complete:5"), ("info", "complete:5"),
                     ("search", "dense", "--max-n", "6")):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
