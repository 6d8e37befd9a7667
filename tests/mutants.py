"""Mutants the test suite must kill.

Each mutant replaces one exact text, found exactly once, in one file under
``src/`` and names the tests that must catch it.  The runner copies
``src/`` per mutant, applies the replacement there, and runs the named
tests against the copy.  A mutant is killed when pytest exits 1 (a test
failed); exit 0 means it survived, and any other code (a collection or
usage error) proves nothing, so it counts as a failure of the step too.
An entry whose old text is gone, or found more than once, is stale and
fails the step: a refactor must carry its mutants along.

Run from anywhere:

    python tests/mutants.py

It prints one line per mutant and exits 1 unless every mutant is killed.
Standard library only; the tests themselves need pytest.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    Mutant("chain drops each level's first searched witness",
           "symcover/symmetry.py",
           "        generators += searched\n",
           "        generators += searched[1:]\n",
           ("tests/test_symmetry.py::TestElements",)),
    Mutant("settle once any class closes",
           "symcover/symmetry.py",
           "    return all(_close(c & -c, generators) == c for c in cells)\n",
           "    return any(_close(c & -c, generators) == c for c in cells)\n",
           ("tests/test_symmetry.py::TestTwoValues",)),
    Mutant("settle before the first level",
           "symcover/symmetry.py",
           "    for size, searched in _chain(g, colors):\n",
           "    for size, searched in _chain(g, colors) if whole else ():\n",
           ("tests/test_symmetry.py::TestTwoValues",)),
    Mutant("vertex reader accepts a float",
           "symcover/graphs.py",
           '    if type(v) is bool or not hasattr(type(v), "__index__"):\n',
           '    if type(v) is bool or not hasattr(type(v), "__int__"):\n',
           ("tests/test_graphs.py::test_refusals_name_their_fault",
            "tests/test_checks.py::TestOrbitSumBound::"
            "test_vertex_of_another_type",
            "tests/test_checks.py::TestWeightFunction::"
            "test_vertex_of_another_type_rejected")),
    Mutant("twin classes keyed by degree",
           "symcover/copies.py",
           "        for key in (rows[u], ~(rows[u] | 1 << u)):\n",
           "        for key in (rows[u].bit_count(), ~rows[u].bit_count()):\n",
           ("tests/test_copies.py::TestEnumeration",)),
    Mutant("missed footprint named by its least mask",
           "symcover/checks.py",
           "        raise NotAHittingSetError(min(missed))\n",
           "        raise NotAHittingSetError(missed[0])\n",
           ("tests/test_checks.py",)),
    Mutant("orbit-sum rows left in mask order",
           "symcover/checks.py",
           "    rows.sort()",
           "    rows",
           ("tests/test_checks.py",)),
    Mutant("condition-2 failures left in mask order",
           "symcover/checks.py",
           "    cond2_fail = tuple(sorted(tuple(bits_of(fm))",
           "    cond2_fail = tuple((tuple(bits_of(fm))",
           ("tests/test_checks.py",)),
    Mutant("footprints viewed in mask order",
           "symcover/copies.py",
           "        return tuple(sorted(tuple(bits_of(m)) for m in "
           "self.masks))\n",
           "        return tuple(tuple(bits_of(m)) for m in self.masks)\n",
           ("tests/test_copies.py",)),
    Mutant("pack bound packs sets sharing an available unit",
           "symcover/covers.py",
           "            live &= miss\n",
           "            live ^= 1 << live.bit_length() - 1\n",
           ("tests/test_covers.py::TestMinHittingSet",)),
    Mutant("orbit closure skips the last generator",
           "symcover/symmetry.py",
           "        for s in gens:\n",
           "        for s in gens[:-1]:\n",
           ("tests/test_symmetry.py",)),
    Mutant("twin order without closed twins",
           "symcover/copies.py",
           "        for key in (rows[u], ~(rows[u] | 1 << u)):\n",
           "        for key in (rows[u],):\n",
           ("tests/test_copies.py::TestEnumeration",)),
    Mutant("orbit cover costs every orbit 1",
           "symcover/covers.py",
           "    costs = {oid: om.bit_count() for oid, om in "
           "enumerate(part.masks)}\n",
           "    costs = {oid: 1 for oid, om in enumerate(part.masks)}\n",
           ("tests/test_covers.py",)),
    Mutant("re-verification reads the cached orbits",
           "symcover/search.py",
           "from .symmetry import is_vertex_transitive, uncached_orbits\n",
           "from .symmetry import is_vertex_transitive, "
           "orbits as uncached_orbits\n",
           ("tests/test_search.py",)),
    Mutant("match plan drops each position's last back edge",
           "symcover/copies.py",
           "    return back\n",
           "    return [b[:-1] for b in back]\n",
           ("tests/test_copies.py::TestMatchPlan",)),
    Mutant("search order keeps supersets",
           "symcover/covers.py",
           "    if not sets or sets[0].bit_count() == sets[-1].bit_count():\n",
           "    if True:\n",
           ("tests/test_covers.py::test_search_tree_is_pinned[union-costs]",)),
    Mutant("search order sorts by mask only",
           "symcover/covers.py",
           "    sets = sorted(sets, key=lambda s: (s.bit_count(), s))\n",
           "    sets = sorted(sets)\n",
           ("tests/test_covers.py::test_search_tree_is_pinned[union-costs]",)),
    Mutant("unit index numbers the sets from the wrong end",
           "symcover/covers.py",
           "                cols[low.bit_length() - 1][i] = 49",
           "                cols[low.bit_length() - 1][-1 - i] = 49",
           ("tests/test_covers.py::"
            "test_set_up_matches_the_reference_constructor",)),
    Mutant("lowest live set read from the low end",
           "symcover/covers.py",
           "            avail = sets[live.bit_length() - 1] & ~banned\n",
           "            avail = sets[(live & -live).bit_length() - 1] "
           "& ~banned\n",
           ("tests/test_covers.py::test_search_tree_is_pinned",)),
    Mutant("reverse delete keeps every pick",
           "symcover/covers.py",
           "            if newly & ~later:\n",
           "            if True:\n",
           ("tests/test_covers.py::"
            "test_greedy_cover_hits_every_set_and_drops_every_redundant_unit",)),
    Mutant("greedy picks a unit from a stale key",
           "symcover/covers.py",
           "            if -hit.bit_count() * rate[u] != key:\n",
           "            if False:\n",
           ("tests/test_covers.py::"
            "test_greedy_cover_hits_every_set_and_drops_every_redundant_unit",)),
    Mutant("optimum starts one above the greedy",
           "symcover/covers.py",
           "        found = self._branch(live, 0, self.upper, False, cost, "
           "chosen)\n",
           "        found = self._branch(live, 0, self.upper + 1, False, cost, "
           "chosen)\n",
           ("tests/test_covers.py::test_search_tree_is_pinned",)),
    Mutant("fixed vertex read from a footprint spanning two orbits",
           "symcover/covers.py",
           "        if not m & ~part.masks[part.orbit_of[o]]:\n",
           "        if m & part.masks[part.orbit_of[o]]:\n",
           ("tests/test_covers.py::TestFixedVertex::"
            "test_fires_only_on_a_footprint_inside_one_orbit",)),
    Mutant("fixed vertex's cost left out of the start node",
           "symcover/covers.py",
           "            live, cost, chosen = (live ^ self.inc[fixed], "
           "self.costs[fixed],\n",
           "            live, cost, chosen = (live ^ self.inc[fixed], 0,\n",
           ("tests/test_covers.py::TestFixedVertex::"
            "test_budget_stops_bracket_the_optimum",
            "tests/test_covers.py::"
            "test_fixed_start_keeps_the_optimum_and_its_cost")),
    Mutant("dominance ignores cost",
           "symcover/covers.py",
           "                    if h & hit == hit and k <= c:\n",
           "                    if h & hit == hit and True:\n",
           ("tests/test_covers.py::TestMinHittingSet::"
            "test_matches_weighted_oracle_on_small_families",
            "tests/test_covers.py::TestMinHittingSet::"
            "test_branch_tries_a_cheaper_unit_with_fewer_sets")),
    Mutant("dominance reads the inclusion backwards",
           "symcover/covers.py",
           "                    if h & hit == hit and k <= c:\n",
           "                    if h & hit == h and k <= c:\n",
           # with equal costs it only skips fewer units, so the weighted
           # oracles catch it
           ("tests/test_covers.py::TestMinHittingSet::"
            "test_matches_weighted_oracle_on_small_families",
            "tests/test_covers.py::TestMinHittingSet::"
            "test_branch_reaches_the_optimum_under_bans")),
    Mutant("units tried in ascending order",
           "symcover/covers.py",
           "                keyed.append((-hit.bit_count() * rate[u], u, hit))\n",
           "                keyed.append((0, u, hit))\n",
           ("tests/test_covers.py::test_search_tree_is_pinned",)),
    Mutant("cover search pushes children in forward order",
           "symcover/covers.py",
           "            stack += reversed(children)\n",
           "            stack += children\n",
           ("tests/test_covers.py::test_search_tree_is_pinned",)),
    Mutant("matcher keeps a retracted image used",
           "symcover/copies.py",
           "                used = unused[idx]\n",
           "                pass\n",
           ("tests/test_copies.py::TestEnumeration",)),
    Mutant("lex-min descent drops the untried siblings",
           "symcover/graphs.py",
           "        stack.append((cells, left, tried))\n",
           "        stack.append((cells, 0, tried))\n",
           ("tests/test_graphs.py::TestCanonical",)),
    Mutant("count reader accepts a negative value",
           "symcover/graphs.py",
           "            or index(value) < 0):\n",
           "            or False):\n",
           ("tests/test_covers.py::TestRepresentativity::"
            "test_negative_budget_is_a_bad_argument",
            "tests/test_copies.py::TestLimitsAndErrors::"
            "test_negative_cap_is_a_bad_argument")),
    Mutant("count reader accepts a non-integer",
           "symcover/graphs.py",
           '    if (type(value) is bool or not hasattr(type(value), '
           '"__index__")\n',
           "    if (type(value) is bool\n",
           ("tests/test_search.py::TestEnumeration::test_caps",
            "tests/test_copies.py::TestLimitsAndErrors::"
            "test_cap_of_another_type_is_a_bad_argument")),
    Mutant("budget reader accepts a float",
           "symcover/covers.py",
           '        self.budget = _count(budget, "node budget")\n',
           '        self.budget = _count(int(budget), "node budget")\n',
           ("tests/test_covers.py::TestRepresentativity::"
            "test_budget_of_another_type_is_a_bad_argument",)),
    Mutant("invariant reuse checks only orbit 0",
           "symcover/covers.py",
           "                                for om in part.masks):\n",
           "                                for om in part.masks[:1]):\n",
           ("tests/test_covers.py::TestTrivialGroupRule",)),
    Mutant("orbit ids one per witness vertex",
           "symcover/covers.py",
           "        invariant = replace(plain, orbit_ids=tuple(dict.fromkeys(\n"
           "            part.orbit_of[v] for v in plain.witness)))\n",
           "        invariant = replace(plain, orbit_ids=tuple(\n"
           "            part.orbit_of[v] for v in plain.witness))\n",
           ("tests/test_covers.py::TestTrivialGroupRule",)),
    Mutant("classification drops the wide extremal hits",
           "symcover/search.py",
           '        return self._marked("extremal")\n',
           '        return self._marked("extremal ")\n',
           ("tests/test_search.py::TestReport::"
            "test_lists_are_read_off_the_records",)),
    Mutant("human output prints no record lines",
           "symcover/cli.py",
           "                print(line)\n",
           "                pass\n",
           ("tests/test_cli.py::TestSearches::"
            "test_human_output_is_the_records_then_the_document",)),
    Mutant("uncached orbits read the cache",
           "symcover/symmetry.py",
           "    return _symmetry.__wrapped__(g, False)\n",
           "    return _symmetry(g, False)\n",
           ("tests/test_search.py::TestVtScan::"
            "test_reverification_reads_no_cache",)),
    Mutant("orbit-sum weight ignores the marked count",
           "symcover/checks.py",
           "    weight = {v: inter * denom // om.bit_count()\n",
           "    weight = {v: bool(inter) * denom // om.bit_count()\n",
           ("tests/test_checks.py::TestOrbitSumBound::"
            "test_sums_match_the_term_by_term_oracle",)),
    Mutant("graph6 padding bits not checked",
           "symcover/graphs.py",
           "    if value & ((1 << pad) - 1):\n",
           "    if False:\n",
           ("tests/test_graphs.py::TestGraph6::"
            "test_error_messages_and_offsets",)),
    Mutant("graph6 reader skips the symmetric fill",
           "symcover/graphs.py",
           "            rows[i] |= 1 << j\n",
           "            pass\n",
           ("tests/test_graphs.py::TestGraph6::test_known_strings",
            "tests/test_graphs.py::TestOperations::"
            "test_rows_built_graphs_equal_their_edge_built_twins")),
    Mutant("complement keeps the diagonal",
           "symcover/search.py",
           "full ^ 1 << v ^ row",
           "full ^ row",
           ("tests/test_search.py::TestEnumeration::test_regular_counts",
            "tests/test_graphs.py::TestOperations::"
            "test_rows_built_graphs_equal_their_edge_built_twins")),
    Mutant("relabel keeps the old neighbour ids",
           "symcover/graphs.py",
           "sum(1 << perm[u] for u in bits_of(row))",
           "sum(1 << u for u in bits_of(row))",
           ("tests/test_graphs.py::TestOperations::"
            "test_rows_built_graphs_equal_their_edge_built_twins",)),
    Mutant("weight translation takes any sequence",
           "symcover/checks.py",
           "        _require_permutation(perm, self.graph.n)\n",
           "",
           ("tests/test_checks.py::TestWeightFunction::"
            "test_translate_refuses_a_non_permutation",)),
    Mutant("CLI loads the host first",
           "symcover/cli.py",
           '        for name in ("graph", "pattern", "host"):\n',
           '        for name in ("graph", "host", "pattern"):\n',
           ("tests/test_cli.py::TestLoadOrder",)),
    Mutant("cycle accepts two vertices",
           "symcover/graphs.py",
           '    if kind == "cycle" and n < 3:\n',
           '    if kind == "cycle" and n < 2:\n',
           ("tests/test_graphs.py::TestFamilies",)),
    Mutant("union accepts one component",
           "symcover/graphs.py",
           "        if len(parts) < 2:\n",
           "        if len(parts) < 1:\n",
           ("tests/test_graphs.py::TestFamilies",)),
    Mutant("stop drops its bounds",
           "symcover/errors.py",
           '            message = f"{message}; optimum in [{best_lower}, '
           '{best_upper}]"\n',
           "            pass\n",
           ("tests/test_covers.py::TestRepresentativity::"
            "test_stops_word_their_bounds",
            "tests/test_cli.py::TestRepr::test_node_budget_flag")),
    Mutant("count reader accepts a bool",
           "symcover/graphs.py",
           '    if (type(value) is bool or not hasattr(type(value), '
           '"__index__")\n',
           '    if (not hasattr(type(value), "__index__")\n',
           ("tests/test_graphs.py::test_refusals_name_their_fault",
            "tests/test_covers.py::TestRepresentativity::"
            "test_budget_of_another_type_is_a_bad_argument")),
    Mutant("vertex reader accepts a bool",
           "symcover/graphs.py",
           '    if type(v) is bool or not hasattr(type(v), "__index__"):\n',
           '    if not hasattr(type(v), "__index__"):\n',
           ("tests/test_graphs.py::test_refusals_name_their_fault",)),
    Mutant("count reader accepts a float",
           "symcover/graphs.py",
           '    if (type(value) is bool or not hasattr(type(value), '
           '"__index__")\n',
           "    if isinstance(value, float) and value >= 0:\n"
           "        return int(value)\n"
           '    if (type(value) is bool or not hasattr(type(value), '
           '"__index__")\n',
           ("tests/test_contract.py::test_every_call_returns_or_refuses",)),
    Mutant("vertex reader accepts a str",
           "symcover/graphs.py",
           '    if type(v) is bool or not hasattr(type(v), "__index__"):\n',
           "    if isinstance(v, str):\n"
           "        v = int(v)\n"
           '    if type(v) is bool or not hasattr(type(v), "__index__"):\n',
           ("tests/test_contract.py::test_every_call_returns_or_refuses",)),
    Mutant("footprint cache keys a float cap like an int",
           "symcover/copies.py",
           "@lru_cache(maxsize=8192, typed=True)\n",
           "@lru_cache(maxsize=8192)\n",
           ("tests/test_contract.py::"
            "test_a_cached_call_refuses_what_a_fresh_call_refuses",)),
    Mutant("report cache keys a float budget like an int",
           "symcover/covers.py",
           "@lru_cache(maxsize=4096, typed=True)\n",
           "@lru_cache(maxsize=4096)\n",
           ("tests/test_contract.py::"
            "test_a_cached_call_refuses_what_a_fresh_call_refuses",)),
    Mutant("graph reads its vertex count unchecked",
           "symcover/graphs.py",
           '        n = _count(n, "vertex count")\n',
           "        n = int(n)\n",
           ("tests/test_graphs.py::test_refusals_name_their_fault",)),
    Mutant("vertex reader accepts vertex n",
           "symcover/graphs.py",
           "    if not 0 <= index(v) < n:\n",
           "    if not 0 <= index(v) <= n:\n",
           ("tests/test_graphs.py::test_refusals_name_their_fault",
            "tests/test_checks.py::TestWeightFunction::"
            "test_vertex_out_of_range_rejected")),
    # testing the orbit of the footprint's highest vertex instead is an
    # equivalent mutant: a footprint inside an orbit has every vertex there
    Mutant("held orbit needs only meet the footprint",
           "symcover/checks.py",
           "        if not fm & ~part.masks[oid]:\n",
           "        if fm & part.masks[oid]:\n",
           ("tests/test_checks.py::TestOrbitCopyTest",)),
    Mutant("PreconditionError loses its ValueError base",
           "symcover/errors.py",
           "class PreconditionError(SymcoverError, ValueError):\n",
           "class PreconditionError(SymcoverError):\n",
           ("tests/test_graphs.py::test_refusals_name_their_fault",)),
    Mutant("generate builds past the family cap",
           "symcover/graphs.py",
           "    if edges + order * order // 64 > _FAMILY_CAP:\n",
           "    if False:\n",
           ("tests/test_graphs.py::TestFamilies::"
            "test_refuses_a_family_past_the_cap_before_building_it",)),
    Mutant("family cap counts edges only",
           "symcover/graphs.py",
           "    if edges + order * order // 64 > _FAMILY_CAP:\n",
           "    if edges > _FAMILY_CAP:\n",
           ("tests/test_graphs.py::TestFamilies::"
            "test_refuses_a_family_past_the_cap_before_building_it",)),
)


def run(mutant: Mutant, scratch: Path) -> str:
    """Apply ``mutant`` to a copy of src/ under ``scratch`` and run its
    tests: "killed", "survived", "stale" or "error (exit N)"."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *mutant.tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            verdict = run(mutant, Path(scratch))
        bad += verdict != "killed"
        print(f"{verdict:>9}  {time.perf_counter() - began:5.1f} s  "
              f"{mutant.file}: {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
