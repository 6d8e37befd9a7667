"""Eight cover rows: value, lex-min witness and nodes of each search phase,
pinned, from the root and, on the seven vertex-transitive rows, from the
fixed vertex ``vertex_representativity`` starts at.  Prints one JSON line
per row and start, with the seconds of each phase."""
import json
import sys
import time
from functools import reduce
from operator import or_
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from conftest import circulant, hypercube, kneser
from symcover.copies import footprints_of
from symcover.covers import NODE_BUDGET, _CoverSearch, _fixed_vertex
from symcover.graphs import bits_of, generate

# (row, pattern, host, value, optimum-phase nodes, optimum-phase nodes from
# the fixed vertex, witness-pass nodes, lex-min witness): values and
# witnesses as solved at bbcca98 and every commit since (C(48;1,5) and
# C(40;1,7) as solved at b59ff7e).  The search is built as min_hitting_set
# builds it, and each phase is pinned apart.  Node counts of the
# lowest-live-set pick, its units strongest first and those an earlier unit
# replaces skipped, with the pack bound on available units, from the greedy
# cover less its redundant units.  The first three rows took 32032 + 15743
# / 11170 + 24806 / 10348 + 5763 with the units in ascending order (those
# two 42113 + 28209 / 24509 + 10170); in total 58739 / 80688 / 26242 from
# the greedy cost alone, 85757 / 291788 / 88610 when the bound packed whole
# sets, 51376 / 70634 / 38796 under the fewest-available pick.  The path
# row chooses 1250 units, one search level each, past Python's default
# recursion limit: the search is a loop.  Its host is past the automorphism
# engine's vertex cap, so it has no fixed vertex.  The last two rows are the
# stretch rows, 2,520 and 384 sets, whose masks shorten from the top as the
# search descends.  Started at the fixed vertex, the optimum phase must
# reach the same value, and the witness pass, which reads no group, the
# same witness in the same nodes
for row, pattern, host, value, found, fixed_found, witnessed, witness in (
        ("C(32;1,4)", "path:4", circulant(32, (1, 4)), 15, 6659, 3475, 5970,
         (0, 1, 3, 5, 7, 10, 12, 13, 17, 18, 20, 23, 25, 27, 30)),
        ("Q6", "path:3", hypercube(6), 32, 4779, 3471, 7030,
         (0, 1, 6, 7, 10, 11, 12, 13, 18, 19, 20, 21, 24, 25, 30, 31, 34,
          35, 36, 37, 40, 41, 46, 47, 48, 49, 54, 55, 58, 59, 60, 61)),
        ("C(30;1,3,8)", "tailed-star:3", circulant(30, (1, 3, 8)), 15,
         6839, 4121, 3647,
         (0, 1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20, 24, 25, 26)),
        ("C(48;1,5)", "cycle:4", circulant(48, (1, 5)), 14, 799, 229, 500,
         (0, 2, 4, 6, 8, 15, 17, 19, 26, 28, 30, 37, 39, 41)),
        ("C(40;1,7)", "path:3", circulant(40, (1, 7)), 20, 4617, 3629, 3816,
         (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32,
          34, 36, 38)),
        ("path:2500", "path:2", generate("path:2500"), 1250, 1, None, 2499,
         tuple(range(0, 2500, 2))),
        ("Kneser(8,3)", "path:3", kneser(8, 3), 35, 145318, 98377, 18991,
         (0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 15, 16, 18, 21, 22, 23, 24,
          26, 27, 28, 30, 31, 33, 36, 37, 38, 40, 41, 43, 46, 47, 49, 52)),
        ("C(64;1,7)", "path:3", circulant(64, (1, 7)), 32, 270577, 204843,
         236291, tuple(range(0, 64, 2)))):
    masks = footprints_of(generate(pattern), host).masks
    costs = dict.fromkeys(bits_of(reduce(or_, masks, 0)), 1)
    fixed = _fixed_vertex(masks, host)
    if (fixed is None) != (fixed_found is None):
        sys.exit(f"{row}: fixed vertex {fixed}, expected one: "
                 f"{fixed_found is not None}")
    for start_at, want_found in ((None, found), (fixed, fixed_found)):
        if want_found is None:
            continue
        search = _CoverSearch(masks, costs, NODE_BUDGET)
        start = time.perf_counter()
        cover = search.optimum(start_at)
        middle = time.perf_counter()
        nodes = search.nodes
        got_witness = tuple(bits_of(search.lex_min_witness(search.upper,
                                                           cover)))
        end = time.perf_counter()
        print(json.dumps({
            "row": row, "pattern": pattern, "fixed": start_at,
            "value": search.upper, "witness": got_witness,
            "optimum_nodes": nodes, "optimum_s": round(middle - start, 3),
            "witness_nodes": search.nodes - nodes,
            "witness_s": round(end - middle, 3)}), flush=True)
        got = (search.upper, nodes, search.nodes - nodes, got_witness)
        if got != (value, want_found, witnessed, witness):
            sys.exit(f"{row} from {start_at}: {got}, expected "
                     f"{(value, want_found, witnessed, witness)}")
