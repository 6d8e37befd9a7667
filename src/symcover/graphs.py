"""Bitmask graphs: construction, named families, serialization, canonical labeling.

Vertices are always the dense integers 0..n-1.  A Graph is an immutable
value (hashable, comparable by structure), so instances can be shared
freely between threads or processes.  Adjacency is kept as one Python int
per vertex; neighborhood algebra is then plain integer bit arithmetic,
which keeps the exhaustive searches in the rest of the library fast enough
for desk scale without any compiled dependency.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FamilySpecError, GraphParseError, ResourceLimitError

__all__ = [
    "Graph",
    "FamilySpec",
    "parse_family_spec",
    "generate",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "induced_subgraph",
    "disjoint_union",
    "is_connected",
    "has_pendant_vertex",
    "is_regular",
    "basic_predicates",
    "canonical_form",
    "canonical_graph",
]


def bits_of(mask: int):
    """Yield the set bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Finite undirected simple graph with one adjacency bitmask per vertex."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._hash = hash((n, self.rows))

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits_of(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for off in bits_of(row):
                out.append((u, u + 1 + off))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    def relabel(self, perm) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("relabeling must be a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({self.n}, {list(self.edges())})"


# -- named families ----------------------------------------------------------

_UNARY_KINDS = ("complete", "cocktail", "tailed-star", "cycle", "path")


@dataclass(frozen=True)
class FamilySpec:
    """Parsed form of a family string such as ``complete:5`` or
    ``union:complete:5+cycle:3``."""

    kind: str
    param: int = 0
    parts: tuple["FamilySpec", ...] = ()


def parse_family_spec(text: str) -> FamilySpec:
    text = text.strip()
    if not text:
        raise FamilySpecError("empty family spec")
    if text.startswith("union:"):
        body = text[len("union:"):]
        part_texts = body.split("+")
        if len(part_texts) < 2:
            raise FamilySpecError(
                "union needs at least two '+'-separated components"
            )
        parts = tuple(parse_family_spec(p) for p in part_texts)
        for p in parts:
            if p.kind == "union":
                raise FamilySpecError("nested union is not expressible; "
                                      "list all components in one union")
        return FamilySpec("union", 0, parts)
    kind, sep, raw = text.partition(":")
    if not sep or kind not in _UNARY_KINDS:
        raise FamilySpecError(f"unknown family spec {text!r}")
    try:
        param = int(raw)
    except ValueError:
        raise FamilySpecError(f"parameter of {kind!r} must be an integer, "
                              f"got {raw!r}") from None
    if param <= 0:
        raise FamilySpecError(f"parameter of {kind!r} must be positive")
    if kind == "cocktail" and param % 2:
        raise FamilySpecError(
            f"cocktail:{param} rejected: an odd order would need degree sum "
            f"{param}*({param}-2), which is odd and therefore not graphical"
        )
    if kind == "cycle" and param < 3:
        raise FamilySpecError("cycle needs at least 3 vertices")
    if kind == "cocktail" and param < 2:
        raise FamilySpecError("cocktail needs at least 2 vertices")
    return FamilySpec(kind, param)


def generate(spec) -> Graph:
    """Build the graph named by a FamilySpec or family string."""
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    k, n = spec.kind, spec.param
    if k == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if k == "cocktail":
        # complete graph minus the perfect matching (0,1),(2,3),...
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not (i // 2 == j // 2)
        ]
        return Graph(n, edges)
    if k == "tailed-star":
        # center 0 with rays 1..d, plus a pendant d+1 hanging off ray 1
        d = n
        edges = [(0, i) for i in range(1, d + 1)]
        edges.append((1, d + 1))
        return Graph(d + 2, edges)
    if k == "cycle":
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if k == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if k == "union":
        g = Graph(0)
        for part in spec.parts:
            g = disjoint_union(g, generate(part))
        return g
    raise FamilySpecError(f"unknown family kind {k!r}")


def disjoint_union(g: Graph, h: Graph) -> Graph:
    off = g.n
    edges = list(g.edges()) + [(u + off, v + off) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertex set, relabeled to 0..|S|-1 in
    ascending order of the original ids."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    pos = {v: i for i, v in enumerate(vs)}
    edges = []
    for i, v in enumerate(vs):
        row = g.rows[v]
        for w in vs[i + 1:]:
            if row >> w & 1:
                edges.append((pos[v], pos[w]))
    return Graph(len(vs), edges)


# -- graph6 ------------------------------------------------------------------

def _g6_header(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(
            chr(63 + (n >> s & 63)) for s in (12, 6, 0)
        )
    if n <= 68719476735:
        return "~~" + "".join(
            chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0)
        )
    raise ValueError("graph too large for graph6")


def emit_graph6(g: Graph) -> str:
    """Serialize to the standard printable graph6 string (no trailing newline)."""
    n = g.n
    out = [_g6_header(n)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j] & ((1 << j) - 1)
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(63 + acc))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string.  Accepts an optional ``>>graph6<<`` prefix.

    Raises GraphParseError with a byte offset for malformed input, including
    wrong body length and nonzero padding bits.
    """
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    text = text.rstrip("\n")
    if not text:
        raise GraphParseError("empty graph6 input", offset=0)
    for i, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise GraphParseError(
                f"character {ch!r} outside the graph6 alphabet", offset=i
            )
    pos = 0
    if text[0] != "~":
        n = ord(text[0]) - 63
        pos = 1
    elif len(text) >= 2 and text[1] != "~":
        if len(text) < 4:
            raise GraphParseError("truncated graph6 length header",
                                  offset=len(text))
        n = 0
        for ch in text[1:4]:
            n = n << 6 | (ord(ch) - 63)
        pos = 4
    else:
        if len(text) < 8:
            raise GraphParseError("truncated graph6 length header",
                                  offset=len(text))
        n = 0
        for ch in text[2:8]:
            n = n << 6 | (ord(ch) - 63)
        pos = 8
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = text[pos:]
    if len(body) < nchars:
        raise GraphParseError(
            f"graph6 body too short: need {nchars} data characters, "
            f"got {len(body)}", offset=len(text))
    if len(body) > nchars:
        raise GraphParseError("trailing data after graph6 body",
                              offset=pos + nchars)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            ch = ord(body[bit // 6]) - 63
            if ch >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    # padding bits beyond the triangle must be zero
    while bit < 6 * nchars:
        ch = ord(body[bit // 6]) - 63
        if ch >> (5 - bit % 6) & 1:
            raise GraphParseError("nonzero padding bit in graph6 body",
                                  offset=pos + bit // 6)
        bit += 1
    return Graph(n, edges)


# -- edge list ---------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace edge list: optional ``n <count>`` header line, then
    one ``u v`` pair per line.  Repeated edges are tolerated (set semantics)."""
    declared = None
    edges = []
    max_seen = -1
    lines = text.splitlines()
    first = True
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            continue
        if first and toks[0] == "n":
            if len(toks) != 2:
                raise GraphParseError(
                    f"line {lineno}: header must be 'n <count>'")
            try:
                declared = int(toks[1])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: vertex count {toks[1]!r} is not an "
                    f"integer") from None
            if declared < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            first = False
            continue
        first = False
        if len(toks) != 2:
            raise GraphParseError(
                f"line {lineno}: expected 'u v', got {line.strip()!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphParseError(f"line {lineno}: loop at vertex {u}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = declared if declared is not None else max_seen + 1
    if max_seen >= n:
        raise GraphParseError(
            f"vertex id {max_seen} exceeds declared count {n}")
    return Graph(n, edges)


# -- predicates ---------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for v in bits_of(frontier):
            new |= g.rows[v]
        frontier = new & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def has_pendant_vertex(g: Graph) -> bool:
    return any(r.bit_count() == 1 for r in g.rows)


def is_regular(g: Graph, k: int | None = None) -> bool:
    if g.n == 0:
        return True
    degs = {r.bit_count() for r in g.rows}
    if len(degs) != 1:
        return False
    return k is None or degs == {k}


def basic_predicates(g: Graph) -> dict:
    degs = g.degree_sequence()
    return {
        "vertices": g.n,
        "edges": g.edge_count,
        "degree_sequence": degs,
        "is_connected": is_connected(g),
        "has_pendant_vertex": has_pendant_vertex(g),
        "is_regular": len(set(degs)) <= 1,
    }


# -- canonical labeling --------------------------------------------------------

def column_bits(row: int, j: int) -> int:
    """Column of the vertex at position j: its adjacency to positions
    0..j-1, position 0 in the highest bit."""
    c = 0
    for i in range(j):
        c = c << 1 | (row >> i & 1)
    return c


# search nodes per lex_min_order call: 26x the most one call of the
# enumerations up to 12 vertices needs (3,793, in the (12, 4)-regular one)
LEX_MIN_BUDGET = 100_000


def lex_min_order(n: int, rows,
                  first_only: bool = False) -> tuple[int, ...] | None:
    """Vertex ordering of the graph with adjacency ``rows`` whose
    column-major upper-triangle bit string is lexicographically minimal
    over all orderings.

    Branch and bound with the identity ordering as incumbent.  The column of
    a vertex is its adjacency to the placed prefix, first placed vertex
    highest.  The unplaced vertices are kept as cells, bitmasks of the
    vertices of one column, in ascending column order.  Only the first cell
    can continue a minimal ordering, and interchangeable twins in it are
    tried once.  Placing u splits each cell into its non-neighbours of u
    (column ``c << 1``) and then its neighbours (``c << 1 | 1``).  The least
    column after u is read off before the cells are split: a larger one than
    the incumbent's cuts u, and a smaller one becomes the incumbent's, with
    the columns after it reset to a bound no column reaches.  With
    ``first_only`` the search instead returns None at the first smaller
    column, and the identity when there is none.

    Columns 1..j can all be zero only when the first j vertices are
    independent, and more leading zero columns make a smaller string, so
    every lex-min labelling opens with a maximum independent set: the
    search solves that NP-hard problem on the way.  It is fast at the
    enumeration sizes (n up to 12) and exponential on large sparse
    symmetric graphs, so it stops with ResourceLimitError after
    ``LEX_MIN_BUDGET`` nodes, naming how many columns the incumbent's
    prefix holds.
    """
    best = [column_bits(rows[j], j) for j in range(n)]
    best_order = tuple(range(n))
    placed: list[int] = []
    nodes = 0

    def dfs(cells: list[tuple[int, int]]) -> bool:
        nonlocal best_order, nodes
        nodes += 1
        if nodes > LEX_MIN_BUDGET:
            prefix = sum(c < 1 << n for c in best)
            raise ResourceLimitError(
                f"lex-min search exceeded its budget of {LEX_MIN_BUDGET} "
                f"nodes; the incumbent prefix holds {prefix} of {n} columns",
                limit=LEX_MIN_BUDGET)
        j = len(placed) + 1
        c, first = cells[0]
        tried: list[int] = []
        left = first
        while left:
            bit = left & -left
            left ^= bit
            u = bit.bit_length() - 1
            row = rows[u]
            # twins, alike apart from each other, lead to equal subtrees
            if tried and any(row & ~(1 << t) == rows[t] & ~bit
                             for t in tried):
                continue
            tried.append(u)
            rest = first ^ bit
            if rest:
                value, mask = c, rest
            elif len(cells) > 1:
                value, mask = cells[1]
            else:
                if best_order is None:
                    best_order = (*placed, u)
                continue
            # the least column after u; its low bit is set only when every
            # vertex of the cell it comes from is a neighbour of u
            low = value << 1 | (not mask & ~row)
            if low > best[j]:
                continue
            if low < best[j]:
                if first_only:
                    return True
                best[j:] = [low] + [1 << n] * (n - j - 1)
                best_order = None
            child = []
            for value, cell in [(c, rest), *cells[1:]] if rest else cells[1:]:
                near = cell & row
                if cell ^ near:
                    child.append((value << 1, cell ^ near))
                if near:
                    child.append((value << 1 | 1, near))
            placed.append(u)
            stop = dfs(child)
            placed.pop()
            if stop:
                return True
        return False

    return None if n and dfs([(0, (1 << n) - 1)]) else best_order


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    order = lex_min_order(g.n, g.rows)
    perm = [0] * g.n
    for pos, v in enumerate(order):
        perm[v] = pos
    return g.relabel(perm)


def canonical_form(g: Graph) -> str:
    """Canonical label: the graph6 string of the canonical representative.

    Two graphs are isomorphic exactly when their canonical forms are equal.
    The label costs a maximum independent set (see ``lex_min_order``), so
    on large sparse graphs this raises ResourceLimitError at the search
    budget; ``symmetry.is_isomorphic`` decides isomorphism without it.
    """
    return emit_graph6(canonical_graph(g))
