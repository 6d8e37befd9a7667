"""Bitmask graphs: construction, named families, serialization, canonical labeling.

Vertices are always the dense integers 0..n-1.  A Graph is an immutable
value (hashable, comparable by structure), so instances can be shared
freely between threads or processes.  A Graph is its adjacency rows, one
Python int per vertex; neighborhood algebra is then plain integer bit
arithmetic, which keeps the exhaustive searches in the rest of the library
fast enough for desk scale without any compiled dependency.  Edge lists
enter through ``Graph(n, edges)``, which validates them, and leave through
``edges()``; every graph derived from another graph or from graph6 bits is
built from its rows.  Named families enter through ``generate``, the one
reader of family strings, which checks every component of a union and the
size of the whole before it builds any.  Vertices enter through
``_vertex``, vertex sets through ``_as_mask``, relabellings through
``_require_permutation`` and counts (orders, degrees, node budgets,
footprint caps) through ``_count``, here and in the modules built on this
one; every bad argument raises ``PreconditionError``, and a bool is neither
a vertex nor a count.
"""
from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from operator import index

from .errors import (FamilySpecError, GraphParseError, PreconditionError,
                     ResourceLimitError)

__all__ = [
    "Graph",
    "generate",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "induced_subgraph",
    "disjoint_union",
    "is_connected",
    "has_pendant_vertex",
    "is_regular",
    "canonical_form",
    "canonical_graph",
]


def bits_of(mask: int):
    """Yield the set bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _as_mask(vertices, n: int, what: str) -> int:
    """The mask of a collection of vertices of an n-vertex graph: the one
    reader of vertex sets."""
    mask = 0
    for v in vertices:
        mask |= 1 << _vertex(v, n, what)
    return mask


def _vertex(v, n: int, what: str) -> int:
    """``v`` as a vertex of an n-vertex graph, an int in 0..n-1, or
    PreconditionError naming ``what``: the one reader of vertices.  A bool
    is a truth value, not a vertex, so it is refused like a float."""
    if type(v) is bool or not hasattr(type(v), "__index__"):
        raise PreconditionError(f"{what} contains {v!r}, not an integer")
    if not 0 <= index(v) < n:
        raise PreconditionError(f"{what} contains vertex {v}, "
                                f"outside 0..{n - 1}")
    return index(v)


def _count(value, what: str) -> int:
    """``value`` as a nonnegative int, or PreconditionError: the one reader
    of counts, caps and budgets.  A bool is refused, as ``_vertex`` refuses
    it."""
    if (type(value) is bool or not hasattr(type(value), "__index__")
            or index(value) < 0):
        raise PreconditionError(
            f"{what} must be a nonnegative integer, got {value!r}")
    return index(value)


def _text(text, what: str) -> str:
    """``text`` as a str, or PreconditionError naming ``what``: the one
    reader of the texts that name or encode a graph."""
    if not isinstance(text, str):
        raise PreconditionError(f"{what} must be a str, got {text!r}")
    return text


def _require_permutation(perm, n: int) -> None:
    """Refuse a relabelling that is not a permutation of 0..n-1: n entries,
    each read as a vertex, that meet every vertex."""
    what = "relabeling must be a permutation of 0..n-1"
    if _as_mask(perm, n, f"{what}; it") != (1 << n) - 1 or len(perm) != n:
        raise PreconditionError(what)


class Graph:
    """Finite undirected simple graph: its adjacency rows, one bitmask per
    vertex.  ``Graph(n, edges)`` builds one from an edge list and refuses
    loops and vertices outside 0..n-1."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, edges=()):
        n = _count(n, "vertex count")
        rows = [0] * n
        for u, v in edges:
            u, v = _vertex(u, n, "edge"), _vertex(v, n, "edge")
            if u == v:
                raise PreconditionError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._hash = hash((n, self.rows))

    @classmethod
    def _from_rows(cls, rows) -> "Graph":
        """The graph with adjacency ``rows``, trusted to be symmetric and
        loop-free: the constructor for graphs derived from other graphs."""
        g = object.__new__(cls)
        g.rows = tuple(rows)
        g.n = len(g.rows)
        g._hash = hash((g.n, g.rows))
        return g

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits_of(self.rows[_vertex(v, self.n, "vertex query")]))

    def degree(self, v: int) -> int:
        return self.rows[_vertex(v, self.n, "vertex query")].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[_vertex(u, self.n, "edge")]
                    >> _vertex(v, self.n, "edge") & 1)

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
        _require_permutation(perm, self.n)
        rows = [0] * self.n
        for v, row in enumerate(self.rows):
            rows[perm[v]] = sum(1 << perm[u] for u in bits_of(row))
        return Graph._from_rows(rows)

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

# the family kinds but union, each giving its member's vertex and edge
# count from the parameter
_UNARY_KINDS = {
    "complete": lambda n: (n, n * (n - 1) // 2),
    "cocktail": lambda n: (n, n * (n - 2) // 2),
    "tailed-star": lambda n: (n + 2, n + 1),
    "cycle": lambda n: (n, n),
    "path": lambda n: (n, n - 1),
}

# generate builds an edge list and adjacency rows of up to n bits each, so
# it refuses a graph whose edges plus 64-bit row words exceed this
_FAMILY_CAP = 10**6


def _components(text: str) -> list[tuple[str, int]]:
    """The (kind, parameter) of each family a spec string names, all of
    them checked; raises FamilySpecError at the first bad one."""
    text = text.strip()
    if not text:
        raise FamilySpecError("empty family spec")
    if text.startswith("union:"):
        parts = text[len("union:"):].split("+")
        if len(parts) < 2:
            raise FamilySpecError(
                "union needs at least two '+'-separated components"
            )
        # a component holds no '+', so a union among them fails above
        return [spec for part in parts for spec in _components(part)]
    kind, sep, raw = text.partition(":")
    if not sep or kind not in _UNARY_KINDS:
        raise FamilySpecError(f"unknown family spec {text!r}")
    try:
        n = int(raw)
    except ValueError:
        raise FamilySpecError(f"parameter of {kind!r} must be an integer, "
                              f"got {raw!r}") from None
    if n <= 0:
        raise FamilySpecError(f"parameter of {kind!r} must be positive")
    if kind == "cocktail" and n % 2:
        raise FamilySpecError(
            f"cocktail:{n} rejected: an odd order would need degree sum "
            f"{n}*({n}-2), which is odd and therefore not graphical"
        )
    if kind == "cycle" and n < 3:
        raise FamilySpecError("cycle needs at least 3 vertices")
    return [(kind, n)]


def generate(text: str) -> Graph:
    """Build the graph a family string names, such as ``complete:5`` or
    ``union:complete:5+cycle:3``.  Every component of a union is checked,
    and then the size of the whole against ``_FAMILY_CAP``, before any is
    built."""
    specs = _components(_text(text, "family spec"))
    sizes = [_UNARY_KINDS[kind](n) for kind, n in specs]
    order, edges = map(sum, zip(*sizes))
    if edges + order * order // 64 > _FAMILY_CAP:
        raise ResourceLimitError(
            f"family {text!r} has {edges} edges on {order} vertices; "
            f"generate builds at most {_FAMILY_CAP} edges plus 64-bit words "
            f"of adjacency rows", limit=_FAMILY_CAP)
    g = Graph(0)
    for kind, n in specs:
        if kind == "complete":
            h = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        elif kind == "cocktail":
            # complete graph minus the perfect matching (0,1),(2,3),...
            h = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if i // 2 != j // 2])
        elif kind == "tailed-star":
            # center 0 with rays 1..n, plus a pendant n+1 hanging off ray 1
            h = Graph(n + 2, [(0, i) for i in range(1, n + 1)] + [(1, n + 1)])
        elif kind == "cycle":
            h = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        else:  # path
            h = Graph(n, [(i, i + 1) for i in range(n - 1)])
        g = disjoint_union(g, h)
    return g


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph._from_rows(g.rows + tuple(row << g.n for row in h.rows))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertex set, relabeled to 0..|S|-1 in
    ascending order of the original ids."""
    keep = _as_mask(vertices, g.n, "vertex set")
    vs = list(bits_of(keep))
    pos = {v: i for i, v in enumerate(vs)}
    return Graph._from_rows(
        sum(1 << pos[w] for w in bits_of(g.rows[v] & keep)) for v in vs)


# -- graph6 ------------------------------------------------------------------

# (digits, largest n) of the graph6 length header after 0, 1 or 2 '~'
_G6_HEADERS = ((1, 62), (3, 258047), (6, 68719476735))
# graph6 writes six bits to a character, 63 plus their value: base64 in
# another alphabet, so the base64 codec reads and writes it
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)


def _g6_digits(value: int, count: int) -> str:
    """``value`` as ``count`` graph6 characters, highest six bits first."""
    extra = -count % 4  # base64 packs four characters in three bytes
    raw = (value << 6 * extra).to_bytes((count + extra) // 4 * 3, "big")
    return b2a_base64(raw, newline=False).translate(_TO_G6)[:count].decode()


def _g6_value(text: str) -> int:
    """The number the graph6 characters of ``text`` write."""
    extra = -len(text) % 4
    raw = a2b_base64(text.encode().translate(_FROM_G6) + b"A" * extra)
    return int.from_bytes(raw, "big") >> 6 * extra


def emit_graph6(g: Graph) -> str:
    """Serialize to the standard printable graph6 string (no trailing newline).

    The body is the ``column_bits`` of positions 1..n-1 in turn, the bit
    string ``lex_min_order`` minimizes, read six bits to a character, so a
    canonical form is the least graph6 string over all labellings."""
    n = g.n
    for tildes, (digits, top) in enumerate(_G6_HEADERS):
        if n <= top:
            break
    else:
        raise PreconditionError("graph too large for graph6")
    # each row's adjacency to the lower positions, row n-1 highest:
    # reversed, this is the column_bits of positions 1..n-1 in turn
    low = 0
    for j in range(n - 1, 0, -1):
        low = low << j | g.rows[j] & ((1 << j) - 1)
    nbits = n * (n - 1) // 2
    # after the '~'s, n and the body padded to whole characters are one
    # number
    value = (n << nbits | column_bits(low, nbits)) << -nbits % 6
    return "~" * tildes + _g6_digits(value, digits + (nbits + 5) // 6)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string.  Accepts an optional ``>>graph6<<`` prefix.

    Raises GraphParseError with a byte offset for malformed input, including
    wrong body length and nonzero padding bits.
    """
    if _text(text, "graph6 text").startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    text = text.rstrip("\n")
    if not text:
        raise GraphParseError("empty graph6 input", offset=0)
    for i, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise GraphParseError(
                f"character {ch!r} outside the graph6 alphabet", offset=i
            )
    tildes = min(2, len(text) - len(text.lstrip("~")))
    pos = tildes + _G6_HEADERS[tildes][0]
    if len(text) < pos:
        raise GraphParseError("truncated graph6 length header",
                              offset=len(text))
    n = _g6_value(text[tildes:pos])
    body = text[pos:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(body) < nchars:
        raise GraphParseError(
            f"graph6 body too short: need {nchars} data characters, "
            f"got {len(body)}", offset=len(text))
    if len(body) > nchars:
        raise GraphParseError("trailing data after graph6 body",
                              offset=pos + nchars)
    value = _g6_value(body)
    pad = 6 * nchars - nbits
    if value & ((1 << pad) - 1):
        raise GraphParseError("nonzero padding bit in graph6 body",
                              offset=len(text) - 1)
    # the inverse of emit_graph6's row loop: the body, reversed, is each
    # row's adjacency to the lower positions, row 1 lowest
    low = column_bits(value >> pad, nbits)
    rows = [0] * n
    for j in range(1, n):
        rows[j] = low & ((1 << j) - 1)
        low >>= j
        for i in bits_of(rows[j]):
            rows[i] |= 1 << j
    return Graph._from_rows(rows)


# -- edge list ---------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace edge list: optional ``n <count>`` header line, then
    one ``u v`` pair per line.  Blank lines and lines whose first token
    starts with ``#`` are skipped.  Repeated edges are tolerated (set
    semantics)."""
    declared = None
    edges = []
    max_seen = -1
    lines = _text(text, "edge list").splitlines()
    first = True
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks or toks[0].startswith("#"):
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
    degs = {r.bit_count() for r in g.rows}
    if k is None:
        return len(degs) <= 1
    return degs <= {_count(k, "degree")}


# -- canonical labeling --------------------------------------------------------

def column_bits(row: int, j: int) -> int:
    """The low j bits of ``row`` in reverse order.  For the row of the
    vertex at position j this is its column: its adjacency to positions
    0..j-1, position 0 in the highest bit."""
    return int(f"{row & ((1 << j) - 1):0{j}b}"[::-1], 2)


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
    # the node searched: its cells, its first cell's vertices not yet
    # tried, and those tried; the stack holds the same of its ancestors,
    # so the placed prefix is the last vertex each of them tried
    cells, left, tried = [(0, (1 << n) - 1)], (1 << n) - 1, []
    stack = []
    nodes = 1
    while True:
        while not left:
            if not stack:
                return best_order
            cells, left, tried = stack.pop()
        bit = left & -left
        left ^= bit
        u = bit.bit_length() - 1
        row = rows[u]
        # twins, alike apart from each other, lead to equal subtrees
        if tried and any(row & ~(1 << t) == rows[t] & ~bit for t in tried):
            continue
        tried.append(u)
        j = len(stack) + 1
        c, first = cells[0]
        rest = first ^ bit
        if rest:
            value, mask = c, rest
        elif len(cells) > 1:
            value, mask = cells[1]
        else:
            if best_order is None:
                best_order = (*(frame[2][-1] for frame in stack), u)
            continue
        # the least column after u; its low bit is set only when every
        # vertex of the cell it comes from is a neighbour of u
        low = value << 1 | (not mask & ~row)
        if low > best[j]:
            continue
        if low < best[j]:
            if first_only:
                return None
            best[j:] = [low] + [1 << n] * (n - j - 1)
            best_order = None
        child = []
        for value, cell in [(c, rest), *cells[1:]] if rest else cells[1:]:
            near = cell & row
            if cell ^ near:
                child.append((value << 1, cell ^ near))
            if near:
                child.append((value << 1 | 1, near))
        nodes += 1
        if nodes > LEX_MIN_BUDGET:
            prefix = sum(c < 1 << n for c in best)
            raise ResourceLimitError(
                f"lex-min search exceeded its budget of {LEX_MIN_BUDGET} "
                f"nodes; the incumbent prefix holds {prefix} of {n} columns",
                limit=LEX_MIN_BUDGET)
        stack.append((cells, left, tried))
        cells, left, tried = child, child[0][1], []


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
    budget.
    """
    return emit_graph6(canonical_graph(g))
