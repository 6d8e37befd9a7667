"""The report's invariant cover on hosts with a trivial group, solved apart."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
from symcover.copies import contains_copy, enumerate_footprints
from symcover.covers import extremality_report, min_orbit_cover
from symcover.graphs import generate
from symcover.search import enum_graphs
from symcover.symmetry import orbits, uncached_orbits

# the report reuses the plain cover on these hosts; the orbit cover solved
# anew must match it in every field.  Here the rule (every
# footprint vertex alone in its orbit) fires on no host outside these
# 3,704; its cases with a nontrivial group are checked only by the
# disjoint-union hosts of tests/test_covers.py (TestTrivialGroupRule)
pattern = generate("tailed-star:3")
count = 0
for n in range(5, 9):
    for host in enum_graphs(n, connected_only=True):
        if orbits(host).order != 1 or not contains_copy(pattern, host):
            continue
        count += 1
        got = extremality_report(pattern, host).invariant
        want = min_orbit_cover(enumerate_footprints(pattern, host),
                               uncached_orbits(host))
        if got != want:
            sys.exit(f"{host}: {got}, expected {want}")
print("trivial-group hosts", count)
if count != 3704:
    sys.exit(f"{count} trivial-group hosts, expected 3704")
