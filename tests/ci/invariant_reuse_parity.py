"""The report's invariant cover where it reuses the plain one, solved apart."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
from symcover.copies import contains_copy, enumerate_footprints
from symcover.covers import extremality_report, min_orbit_cover
from symcover.graphs import generate
from symcover.search import enum_graphs
from symcover.symmetry import automorphisms, uncached_orbits

# the report reuses the plain cover whenever its witness is a union of
# orbits.  On the 3,704 connected hosts on 5-8 vertices with a trivial
# group and a tailed 3-star, the orbit cover solved anew must match it in
# every field.  On the hosts with a nontrivial group where the rule fires,
# it must match in value, witness and orbit ids; the node count there is
# the plain search's, which the orbit search need not repeat
pattern = generate("tailed-star:3")
trivial = symmetric = 0
for n in range(5, 9):
    for host in enum_graphs(n, connected_only=True):
        if not contains_copy(pattern, host):
            continue
        part = uncached_orbits(host)
        report = extremality_report(pattern, host)
        witness = sum(1 << v for v in report.plain.witness)
        if any(witness & om not in (0, om) for om in part.masks):
            continue
        got = report.invariant
        want = min_orbit_cover(enumerate_footprints(pattern, host), part)
        if automorphisms(host).order == 1:
            trivial += 1
        else:
            symmetric += 1
            got, want = ((s.value, s.witness, s.orbit_ids)
                         for s in (got, want))
        if got != want:
            sys.exit(f"{host}: {got}, expected {want}")
print("trivial-group hosts", trivial, "symmetric hosts", symmetric)
if (trivial, symmetric) != (3704, 6168):
    sys.exit(f"{trivial} trivial-group hosts and {symmetric} symmetric "
             "hosts, expected 3704 and 6168")
