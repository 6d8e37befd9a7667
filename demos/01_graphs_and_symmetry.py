"""Build graphs, serialize them, and inspect their symmetries.

Run with:  python3 demos/01_graphs_and_symmetry.py
"""

from symcover import (
    Graph,
    automorphisms,
    emit_graph6,
    generate,
    is_vertex_transitive,
    orbits,
    parse_graph6,
)


def main() -> None:
    print("== Families ==")
    for spec in ("complete:5", "cocktail:6", "tailed-star:3", "cycle:6",
                 "union:complete:3+path:2"):
        g = generate(spec)
        print(f"{spec:28s} n={g.n}  edges={g.edge_count}  "
              f"g6={emit_graph6(g)}")

    print()
    print("== graph6 round trip ==")
    text = emit_graph6(generate("cocktail:6"))
    back = parse_graph6(text)
    print(f"cocktail:6 -> {text!r} -> degree sequence "
          f"{back.degree_sequence()}")

    print()
    print("== Automorphisms and orbits ==")
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, 5 + i) for i in range(5)])
    for name, g in (("petersen", petersen),
                    ("tailed-star:3", generate("tailed-star:3")),
                    ("union:complete:5+complete:5",
                     generate("union:complete:5+complete:5"))):
        group = automorphisms(g)
        part = orbits(g)
        print(f"{name}: |Aut|={group.order}, orbits={list(part.orbits)}, "
              f"vertex-transitive={is_vertex_transitive(g)}")

    print()
    print("The tailed star is rigid apart from permuting its bare rays;")
    print("its group is kept as its order and generators:")
    group = automorphisms(generate("tailed-star:3"))
    print(f"  order {group.order}")
    for perm in group.generators:
        print(f"  {perm}")


if __name__ == "__main__":
    main()
