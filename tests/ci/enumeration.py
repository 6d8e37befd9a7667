"""Enumeration counts past tier-1 sizes, graph6 read-back, list digests."""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
from symcover.graphs import emit_graph6, is_connected, parse_graph6
from symcover.search import _regular_graphs, enum_graphs

# (what, classes, connected ones): A000088/A001349, A006820, A002851;
# graph6 must also read every class back as written
for what, pool, want in (
        ("enum_graphs(8)", lambda: enum_graphs(8), (12346, 11117)),
        ("(11, 4)-regular", lambda: _regular_graphs(11, 4), (266, 265)),
        ("(12, 3)-regular", lambda: _regular_graphs(12, 3), (94, 85)),
        # the 3 disconnected: K5 plus either quartic graph on 7 vertices,
        # and two disjoint octahedra
        ("(12, 4)-regular", lambda: _regular_graphs(12, 4), (1547, 1544))):
    graphs = pool()
    got = (len(graphs), sum(map(is_connected, graphs)))
    print(what, got, flush=True)
    if got != want:
        sys.exit(f"{what}: {got}, expected {want}")
    for g in graphs:
        if parse_graph6(emit_graph6(g)) != g:
            sys.exit(f"{what}: {g} does not read back from graph6")
# SHA-256 of the graph6 class lists, one per line, as enumerated at
# d57c29d (the first two equal those at f5389cf, before the
# degree-feasibility cuts)
for (n, k), want in (
        ((11, 4), "d1a47c143bf57e421fcab03ec119b0fa"
                  "03a929e0be50075aa1f8daac498dea76"),
        ((12, 3), "614c0b706fe7b49bec440919cd02e0fa"
                  "10e902d002a7c95bbb95deed239150ba"),
        ((12, 4), "80a79b546ad1d9f86ff5109e3b1824f5"
                  "95cb2d2b1c5b4855b611c02f0b689f65")):
    text = "\n".join(map(emit_graph6, _regular_graphs(n, k)))
    got = hashlib.sha256(text.encode()).hexdigest()
    print((n, k), got)
    if got != want:
        sys.exit(f"({n}, {k}) class list: {got}, expected {want}")
