"""Every class on 7 vertices against brute force, in one pass: its group,
then per pattern its footprints, which then feed the check of both covers."""
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from oracles import brute_automorphisms, brute_footprints, generated_group
from symcover.copies import enumerate_footprints
from symcover.covers import extremality_report
from symcover.graphs import bits_of
from symcover.search import enum_graphs
from symcover.symmetry import automorphisms, orbits

# tier-1 checks groups, footprints and covers on hosts up to 6 vertices.
# Here each host's generators must generate the group brute force finds,
# with its order and orbits, and the orbits read off the chain where it
# stops early must be those same orbits.  Each footprint family must be
# brute force's, in ascending masks.  Each cover of the report is then the first hitting
# set of those masks in brute-force order: the plain one among vertex
# subsets in combinations order, the invariant one among unions of orbits
# by (total size, orbit ids).  This also checks the report where it reuses
# the plain cover (the plain witness is a union of orbits)
patterns = [p for n in range(1, 6) for p in enum_graphs(n)]
hosts = enum_graphs(7)
subsets = [(c, sum(1 << v for v in c))
           for k in range(8) for c in combinations(range(7), k)]
pairs = 0
for host in hosts:
    group = automorphisms(host)
    brute = brute_automorphisms(host)
    orbs = sorted({tuple(sorted({p[v] for p in brute})) for v in range(7)})
    if generated_group(group.generators, 7) != set(brute):
        sys.exit(f"{host}: generators do not generate Aut")
    if group.order != len(brute):
        sys.exit(f"{host}: order {group.order}, expected {len(brute)}")
    if sorted(group.orbits) != orbs:
        sys.exit(f"{host}: orbits {group.orbits}")
    if orbits(host).masks != group.masks:
        sys.exit(f"{host}: early-stopped orbits {orbits(host).orbits}")
    unions = sorted((sum(len(orbs[i]) for i in ids), ids,
                     sum(1 << v for i in ids for v in orbs[i]))
                    for k in range(len(orbs) + 1)
                    for ids in combinations(range(len(orbs)), k))
    for pattern in patterns:
        masks = enumerate_footprints(pattern, host).masks
        got = {frozenset(bits_of(m)) for m in masks}
        if got != set(brute_footprints(pattern, host)):
            sys.exit(f"{pattern} in {host}: footprints differ")
        if any(a >= b for a, b in zip(masks, masks[1:])):
            sys.exit(f"{pattern} in {host}: masks not ascending")
        pairs += bool(masks)
        plain = next((len(c), c) for c, x in subsets
                     if all(m & x for m in masks))
        invariant = next((size, ids) for size, ids, x in unions
                         if all(m & x for m in masks))
        report = extremality_report(pattern, host)
        got = ((report.plain.value, report.plain.witness),
               (report.invariant.value, report.invariant.orbit_ids))
        if got != (plain, invariant):
            sys.exit(f"{pattern} in {host}: {got}, "
                     f"expected {(plain, invariant)}")
print("patterns", len(patterns), "graphs on 7 vertices", len(hosts),
      "pairs with a footprint", pairs)
if (len(patterns), len(hosts), pairs) != (52, 1044, 42973):
    sys.exit(f"{len(patterns)} patterns, {len(hosts)} graphs, {pairs} "
             "pairs, expected 52, 1044 and 42973")
