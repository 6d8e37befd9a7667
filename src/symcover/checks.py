"""Executable checks for the quantitative structure of extremal covers.

Every check works in exact rational arithmetic and returns a frozen report
object with a ``to_doc`` method; verdict fields are booleans, numeric
fields are ints or ``fractions.Fraction``.  Checks whose statement is
conditional (they only say something at the extremal boundary) report
``applicable=False`` on inputs that miss the hypothesis instead of
raising.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .copies import footprints_of, FOOTPRINT_CAP
from .covers import CoverSolution, NODE_BUDGET, extremality_report
# unused: the tracer in bench/spans.py wraps these names
from .copies import contains_copy
from .covers import symmetric_vertex_representativity, vertex_representativity
from .errors import (NotAHittingSetError, PreconditionError,
                     ResourceLimitError, VerificationError,
                     WeightConstructionError)
from .graphs import (Graph, _as_mask, _count, _require_permutation,
                     _vertex, bits_of, has_pendant_vertex, is_connected,
                     is_regular)
from .report import _rational, rat
from .symmetry import _chain, _refined, automorphisms, orbits

__all__ = [
    "OrbitSumReport",
    "BoundaryReport",
    "OrbitDensityReport",
    "OrbitContainmentReport",
    "NeighborhoodProfile",
    "OrbitExpansionReport",
    "WeightFunction",
    "WeightSystemReport",
    "verify_orbit_sum_bound",
    "check_extremal_boundary",
    "check_orbit_density",
    "check_orbit_pattern_containment",
    "neighborhood_profile",
    "verify_orbit_expansion",
    "weighted_symmetrize",
    "weight_orbit",
    "verify_weighted_system",
    "build_pair_weight",
    "ELEMENT_CAP",
]

ELEMENT_CAP = 10**6


def _require_hit(masks, x_mask: int) -> None:
    """Raise NotAHittingSetError naming the lexicographically least
    footprint that no vertex of ``x_mask`` meets."""
    missed = [tuple(bits_of(m)) for m in masks if not m & x_mask]
    if missed:
        raise NotAHittingSetError(min(missed))


def _orbit_table(host: Graph, x_mask: int = 0,
                 masks=()) -> list[tuple[int, int, bool, bool]]:
    """One row per orbit of the host, by orbit id: the orbit's mask, its
    count of vertices in ``x_mask``, whether a footprint of ``masks`` meets
    it, and whether one lies wholly inside it, i.e. whether its induced
    subgraph carries the pattern.  Only the orbit of a footprint's lowest
    vertex can hold it, so one test per footprint decides."""
    part = orbits(host)
    touched = 0
    held = set()
    for fm in masks:
        touched |= fm
        oid = part.orbit_of[(fm & -fm).bit_length() - 1]
        if not fm & ~part.masks[oid]:
            held.add(oid)
    return [(om, (om & x_mask).bit_count(), bool(om & touched), oid in held)
            for oid, om in enumerate(part.masks)]


# -- orbit sum lower bound ----------------------------------------------------

@dataclass(frozen=True)
class OrbitSumReport:
    """Per-footprint orbit sums for a marked hitting set.

    For footprint F and marked set X the sum runs over the orbits V meeting
    F and adds |F∩V|·|X∩V|/|V|.  ``holds`` asserts every sum is >= 1;
    ``tight_footprints`` are those whose sum is exactly 1.
    """

    marked: tuple[int, ...]
    per_footprint: tuple[tuple[tuple[int, ...], Fraction], ...]
    minimum: Fraction | None
    tight_footprints: tuple[tuple[int, ...], ...]
    holds: bool

    def to_doc(self) -> dict:
        return {
            "check": "orbit_sum_bound",
            "marked": list(self.marked),
            "footprint_count": len(self.per_footprint),
            "minimum": rat(self.minimum) if self.minimum is not None else None,
            "tight_footprints": [list(f) for f in self.tight_footprints],
            "per_footprint": [
                {"footprint": list(f), "sum": rat(value)}
                for f, value in self.per_footprint
            ],
            "holds": self.holds,
        }


def verify_orbit_sum_bound(pattern: Graph, host: Graph, marked,
                           cap: int = FOOTPRINT_CAP) -> OrbitSumReport:
    """Check the orbit-weighted sum >= 1 for every footprint.

    ``marked`` must hit every footprint; a missed footprint raises
    NotAHittingSetError naming it.
    """
    family = footprints_of(pattern, host, cap=cap)
    x_mask = _as_mask(marked, host.n, "marked set")
    table = _orbit_table(host, x_mask)
    _require_hit(family.masks, x_mask)
    # over the lcm of the orbit sizes each sum is one integer: a vertex of
    # orbit V adds |X∩V|·lcm/|V|, and F holds |F∩V| such vertices
    denom = lcm(*(om.bit_count() for om, *_ in table))
    weight = {v: inter * denom // om.bit_count()
              for om, inter, *_ in table for v in bits_of(om)}
    rows = []
    for m in family.masks:
        fp = tuple(bits_of(m))
        rows.append((fp, sum(map(weight.__getitem__, fp))))
    rows.sort()  # the footprints are distinct, so no sums are compared
    # one Fraction per distinct numerator; the rest compares integers
    sums = {num: Fraction(num, denom) for _, num in rows}
    least = min(sums, default=None)
    return OrbitSumReport(
        marked=tuple(bits_of(x_mask)),
        per_footprint=tuple((fp, sums[num]) for fp, num in rows),
        minimum=None if least is None else sums[least],
        tight_footprints=tuple(fp for fp, num in rows if num == denom),
        holds=least is None or least >= denom,
    )


# -- boundary conditions at extremality ----------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    """Structural conditions that must hold when the invariant cover costs
    exactly pattern-order times the plain cover.

    Condition 1: every orbit meeting the minimal marked set X has size
    exactly pattern-order times its intersection with X.  Condition 2:
    every footprint stays inside the union of orbits meeting X.  Condition
    3: every orbit meeting X fully contains some footprint.
    """

    pattern_order: int
    plain: CoverSolution
    invariant: CoverSolution
    applicable: bool
    condition1: bool | None = None
    condition1_failures: tuple[int, ...] = ()
    condition2: bool | None = None
    condition2_failures: tuple[tuple[int, ...], ...] = ()
    condition3: bool | None = None
    condition3_failures: tuple[int, ...] = ()

    @property
    def all_hold(self) -> bool:
        return bool(self.applicable and self.condition1 and self.condition2
                    and self.condition3)

    def to_doc(self) -> dict:
        return {
            "check": "extremal_boundary_conditions",
            "pattern_order": self.pattern_order,
            "vertex_representativity": self.plain.value,
            "symmetric_representativity": self.invariant.value,
            "applicable": self.applicable,
            "finiteness": True,
            "condition1": self.condition1,
            "condition1_failing_orbits": list(self.condition1_failures),
            "condition2": self.condition2,
            "condition2_escaping_footprints":
                [list(f) for f in self.condition2_failures],
            "condition3": self.condition3,
            "condition3_failing_orbits": list(self.condition3_failures),
            "all_hold": self.all_hold if self.applicable else None,
        }


def check_extremal_boundary(pattern: Graph, host: Graph,
                            cap: int = FOOTPRINT_CAP,
                            node_budget: int = NODE_BUDGET) -> BoundaryReport:
    family = footprints_of(pattern, host, cap=cap)
    if not family.masks:
        raise PreconditionError(
            "host contains no copy of the pattern; boundary conditions "
            "need a nonempty footprint family")
    report = extremality_report(pattern, host, cap, node_budget)
    plain, invariant = report.plain, report.invariant
    m = pattern.n
    if not report.is_extremal:
        return BoundaryReport(pattern_order=m, plain=plain,
                              invariant=invariant, applicable=False)
    table = _orbit_table(host, _as_mask(plain.witness, host.n, "witness"),
                         family.masks)
    meeting = [(oid, om, inter, held)
               for oid, (om, inter, _, held) in enumerate(table) if inter]
    cond1_fail = tuple(oid for oid, om, inter, _ in meeting
                       if om.bit_count() != m * inter)
    # the orbits are disjoint, so their sum is their union
    closure = sum(om for _, om, _, _ in meeting)
    cond2_fail = tuple(sorted(tuple(bits_of(fm)) for fm in family.masks
                              if fm & ~closure))
    cond3_fail = tuple(oid for oid, _, _, held in meeting if not held)
    return BoundaryReport(
        pattern_order=m,
        plain=plain,
        invariant=invariant,
        applicable=True,
        condition1=not cond1_fail,
        condition1_failures=cond1_fail,
        condition2=not cond2_fail,
        condition2_failures=cond2_fail,
        condition3=not cond3_fail,
        condition3_failures=cond3_fail,
    )


# -- orbit density at extremality ----------------------------------------------

@dataclass(frozen=True)
class OrbitDensityReport:
    """At the extremal boundary, a minimal marked set must occupy every
    orbit that touches a footprint at density exactly 1/pattern-order and
    avoid all other orbits."""

    pattern_order: int
    marked: tuple[int, ...]
    applicable: bool
    rows: tuple[dict, ...] = ()
    holds: bool | None = None

    def to_doc(self) -> dict:
        return {
            "check": "orbit_density",
            "pattern_order": self.pattern_order,
            "marked": list(self.marked),
            "applicable": self.applicable,
            "orbits": list(self.rows),
            "holds": self.holds,
        }


def check_orbit_density(pattern: Graph, host: Graph, marked=None,
                        cap: int = FOOTPRINT_CAP,
                        node_budget: int = NODE_BUDGET) -> OrbitDensityReport:
    family = footprints_of(pattern, host, cap=cap)
    report = extremality_report(pattern, host, cap, node_budget)
    plain = report.plain
    x_mask = _as_mask(plain.witness if marked is None else marked, host.n,
                      "marked set")
    x = plain.witness if marked is None else tuple(bits_of(x_mask))
    if marked is not None:
        _require_hit(family.masks, x_mask)
        if len(x) != plain.value:
            raise PreconditionError(
                f"marked set has size {len(x)} but the minimum is "
                f"{plain.value}; orbit density needs a minimal set")
    m = pattern.n
    if not report.is_extremal:
        return OrbitDensityReport(pattern_order=m, marked=x,
                                  applicable=False)
    rows = []
    table = _orbit_table(host, x_mask, family.masks)
    for oid, (om, inter, meets, _) in enumerate(table):
        size = om.bit_count()
        density = Fraction(inter, size)
        expected = Fraction(1, m) if meets else Fraction(0)
        rows.append({
            "orbit": oid,
            "size": size,
            "marked_in_orbit": inter,
            "density": rat(density),
            "meets_pattern": meets,
            "expected": rat(expected),
            "ok": density == expected,
        })
    return OrbitDensityReport(pattern_order=m, marked=x, applicable=True,
                              rows=tuple(rows),
                              holds=all(row["ok"] for row in rows))


# -- orbits contain the pattern --------------------------------------------------

@dataclass(frozen=True)
class OrbitContainmentReport:
    """For a connected host and a connected pattern with a pendant vertex,
    a positive extremal pair forces every orbit to induce a subgraph that
    still contains the pattern."""

    preconditions: tuple[tuple[str, bool], ...]
    applicable: bool
    rows: tuple[tuple[int, bool], ...] = ()
    holds: bool | None = None
    first_failing_orbit: int | None = None

    def to_doc(self) -> dict:
        return {
            "check": "orbit_pattern_containment",
            "preconditions": {k: v for k, v in self.preconditions},
            "applicable": self.applicable,
            "orbits": [{"orbit": oid, "contains_pattern": ok}
                       for oid, ok in self.rows],
            "holds": self.holds,
            "first_failing_orbit": self.first_failing_orbit,
        }


def check_orbit_pattern_containment(
        pattern: Graph, host: Graph, cap: int = FOOTPRINT_CAP,
        node_budget: int = NODE_BUDGET) -> OrbitContainmentReport:
    report = extremality_report(pattern, host, cap, node_budget)
    pre = (
        ("host_connected", is_connected(host)),
        ("pattern_connected", is_connected(pattern)),
        ("pattern_has_pendant", has_pendant_vertex(pattern)),
        ("extremal", report.is_extremal),
        ("positive", report.invariant.value > 0),
    )
    applicable = all(v for _, v in pre)
    if not applicable:
        return OrbitContainmentReport(preconditions=pre, applicable=False)
    table = _orbit_table(host, masks=footprints_of(pattern, host, cap).masks)
    rows = tuple((oid, held) for oid, (*_, held) in enumerate(table))
    first_fail = next((oid for oid, ok in rows if not ok), None)
    return OrbitContainmentReport(
        preconditions=pre,
        applicable=True,
        rows=rows,
        holds=first_fail is None,
        first_failing_orbit=first_fail,
    )


# -- neighborhood deficiency profile ---------------------------------------------

@dataclass(frozen=True)
class VertexNeighborhood:
    vertex: int
    degree: int
    inner_edges: int
    deficiency: int
    anti_degrees: tuple[tuple[int, int], ...]

    def to_doc(self) -> dict:
        return {
            "vertex": self.vertex,
            "degree": self.degree,
            "inner_edges": self.inner_edges,
            "deficiency": self.deficiency,
            "anti_degrees": [list(t) for t in self.anti_degrees],
        }


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Edge deficiency of every neighborhood.

    For vertex v of degree k, ``deficiency`` p is k(k-1)/2 minus the edge
    count inside the neighborhood, and each neighbor w gets the anti-degree
    (k-1) - deg(w within the neighborhood); the anti-degrees always sum to
    2p.  ``hypothesis_met`` flags nonempty regular graphs whose every
    vertex satisfies 1 <= p < k/2; no such graph exists, so a hit is a
    counterexample.
    """

    vertices: tuple[VertexNeighborhood, ...]
    regular_degree: int | None
    hypothesis_met: bool

    def to_doc(self) -> dict:
        return {
            "check": "neighborhood_profile",
            "regular_degree": self.regular_degree,
            "hypothesis_met": self.hypothesis_met,
            "vertices": [v.to_doc() for v in self.vertices],
        }


def neighborhood_profile(g: Graph) -> NeighborhoodProfile:
    entries = []
    for v in range(g.n):
        nb_mask = g.rows[v]
        k = nb_mask.bit_count()
        inner = 0
        antis = []
        for w in bits_of(nb_mask):
            inner_deg = (g.rows[w] & nb_mask).bit_count()
            inner += inner_deg
            antis.append((w, (k - 1) - inner_deg))
        inner //= 2
        entries.append(VertexNeighborhood(
            vertex=v,
            degree=k,
            inner_edges=inner,
            deficiency=k * (k - 1) // 2 - inner,
            anti_degrees=tuple(antis),
        ))
    regular_degree = g.degree(0) if g.n and is_regular(g) else None
    hypothesis = (
        regular_degree is not None
        and all(1 <= e.deficiency and 2 * e.deficiency < regular_degree
                for e in entries)
    )
    return NeighborhoodProfile(
        vertices=tuple(entries),
        regular_degree=regular_degree,
        hypothesis_met=hypothesis,
    )


# -- expansion between orbits -----------------------------------------------------

@dataclass(frozen=True)
class OrbitExpansionReport:
    """Neighborhoods across an orbit pair expand by at least |B|/|A|:
    any S inside orbit A has at least |S|·|B|/|A| neighbors inside B,
    provided some edge joins the two orbits."""

    source: tuple[int, ...]
    image: tuple[int, ...]
    bound: Fraction
    holds: bool

    def to_doc(self) -> dict:
        return {
            "check": "orbit_expansion",
            "source": list(self.source),
            "image": list(self.image),
            "image_size": len(self.image),
            "bound": rat(self.bound),
            "holds": self.holds,
        }


def verify_orbit_expansion(host: Graph, orbit_a, orbit_b,
                           source) -> OrbitExpansionReport:
    a_mask = _as_mask(orbit_a, host.n, "orbit_a")
    b_mask = _as_mask(orbit_b, host.n, "orbit_b")
    masks = orbits(host).masks
    if a_mask not in masks or b_mask not in masks:
        raise PreconditionError("orbit_a and orbit_b must each be exactly "
                                "one orbit of the host")
    if a_mask == b_mask:
        raise PreconditionError("orbit_a and orbit_b must be distinct")
    s1_mask = _as_mask(source, host.n, "source set")
    if s1_mask & ~a_mask:
        raise PreconditionError("source set must lie inside orbit_a")
    if not any(host.rows[v] & b_mask for v in bits_of(a_mask)):
        raise PreconditionError("no edge joins the two orbits")
    s2_mask = sum(1 << v for v in bits_of(b_mask) if host.rows[v] & s1_mask)
    bound = Fraction(s1_mask.bit_count() * b_mask.bit_count(),
                     a_mask.bit_count())
    return OrbitExpansionReport(
        source=tuple(bits_of(s1_mask)),
        image=tuple(bits_of(s2_mask)),
        bound=bound,
        holds=s2_mask.bit_count() >= bound,
    )


# -- weighted symmetrization -------------------------------------------------------

def weighted_symmetrize(host: Graph, marked, max_total) -> tuple[int, ...]:
    """Invariant replacement for a marked set: the union of all orbits O
    with |O∩X|·max_total >= |O|.  When X is a hitting set of a copy family
    whose footprints have at most ``max_total`` vertices, the result is an
    invariant hitting set of size at most |X|·max_total."""
    x_mask = _as_mask(marked, host.n, "marked set")
    m = _rational(max_total)
    if m < 0:
        raise PreconditionError("max_total must be nonnegative")
    table = _orbit_table(host, x_mask)
    return tuple(bits_of(sum(om for om, inter, *_ in table
                             if inter * m >= om.bit_count())))


# -- weight functions ---------------------------------------------------------------

class WeightFunction:
    """Nonnegative rational vertex weights with finite support on one host."""

    __slots__ = ("graph", "entries")

    def __init__(self, graph: Graph, mapping):
        mapping = dict(mapping)
        _as_mask(mapping, graph.n, "weight function")
        items = []
        for v, w in sorted(mapping.items()):
            w = _rational(w)
            if w < 0:
                raise PreconditionError(f"negative weight {w} at vertex {v}")
            if w:
                items.append((v, w))
        self.graph = graph
        self.entries = tuple(items)

    def value(self, v: int) -> Fraction:
        v = _vertex(v, self.graph.n, "vertex query")
        for u, w in self.entries:
            if u == v:
                return w
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def total(self) -> Fraction:
        return sum((w for _, w in self.entries), Fraction(0))

    @property
    def values_used(self) -> frozenset:
        return frozenset(w for _, w in self.entries)

    def translate(self, perm) -> "WeightFunction":
        """The composed function u -> value(perm[u]) for a permutation."""
        _require_permutation(perm, self.graph.n)
        weights = dict(self.entries)
        return WeightFunction(self.graph, {u: weights.get(p, 0)
                                           for u, p in enumerate(perm)})

    def __eq__(self, other):
        return (isinstance(other, WeightFunction)
                and self.graph == other.graph
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.graph, self.entries))

    def __repr__(self):
        inner = ", ".join(f"{v}: {w}" for v, w in self.entries)
        return f"WeightFunction({{{inner}}})"

    def to_doc(self) -> dict:
        return {"weights": {str(v): rat(w) for v, w in self.entries},
                "total": rat(self.total)}


def weight_orbit(host: Graph,
                 fn: WeightFunction) -> tuple[WeightFunction, ...]:
    """All distinct images of the weight function under the automorphism
    group of the host, sorted by entries.  The orbit is the closure of the
    function under the group's generators, each image a tuple of value
    indices per vertex on which generator p acts as fn∘p, as ``translate``
    does.

    The closure builds exactly (orbit size) * (generator count) images.
    The orbit size is the group order over the order of the function's
    stabilizer, the automorphisms that keep every weight, so a closure
    that would build more than ``ELEMENT_CAP`` images raises
    ``ResourceLimitError`` before it builds any."""
    if fn.graph != host:
        raise PreconditionError("weight function lives on a different graph")
    group = automorphisms(host)
    generators = group.generators
    weights = dict(fn.entries)
    start_colors = [weights.get(v, 0) for v in range(host.n)]
    stabilizer_order = prod(size for size, _ in
                            _chain(host, _refined(host, start_colors)))
    size = group.order // stabilizer_order
    images = size * len(generators)
    if images > ELEMENT_CAP:
        raise ResourceLimitError(
            f"the weight orbit holds {size} functions; closing it under "
            f"{len(generators)} generators would build {images} images, "
            f"more than {ELEMENT_CAP}", limit=ELEMENT_CAP)
    values = [0, *fn.values_used]
    index = {w: i for i, w in enumerate(values)}
    start = tuple(index[w] for w in start_colors)
    seen = {start}
    queue = [start]
    while queue and len(seen) <= size:
        vec = queue.pop()
        for p in generators:
            img = tuple(map(vec.__getitem__, p))
            if img not in seen:
                seen.add(img)
                queue.append(img)
    if len(seen) != size:
        raise VerificationError(
            f"the weight orbit closure found {len(seen)} functions where "
            f"the orbit-stabilizer count is {size}")
    family = [WeightFunction(host, {v: values[i] for v, i in enumerate(vec)
                                    if i})
              for vec in seen]
    return tuple(sorted(family, key=lambda f: f.entries))


@dataclass(frozen=True)
class WeightSystemReport:
    """Whether a marked set accumulates weight >= 1 against every function
    of a family."""

    sums: tuple[Fraction, ...]
    holds: bool
    first_violator: int | None

    def to_doc(self) -> dict:
        return {
            "check": "weighted_system",
            "sums": [rat(s) for s in self.sums],
            "holds": self.holds,
            "first_violator": self.first_violator,
        }


def verify_weighted_system(marked, functions) -> WeightSystemReport:
    """Raises PreconditionError when a marked vertex lies outside the graph
    of a function, rather than reporting weight 0 for it.  With no
    function there is no graph to bound the marked set, so its members are
    read as nonnegative integers alone."""
    marked = tuple(marked)
    sums = []
    first = None
    for idx, fn in enumerate(functions):
        x_mask = _as_mask(marked, fn.graph.n, "marked set")
        total = sum((fn.value(v) for v in bits_of(x_mask)), Fraction(0))
        sums.append(total)
        if total < 1 and first is None:
            first = idx
    if not sums:
        for v in marked:
            _count(v, "marked vertex")
    return WeightSystemReport(sums=tuple(sums), holds=first is None,
                              first_violator=first)


def build_pair_weight(host: Graph, v: int, w: int, d: int) -> WeightFunction:
    """Weight layout around an adjacent pair of a k-regular host, k >= d >= 3.

    Weight 1 on v and w and on the first min(d-3, c) common neighbors
    (c = number of common neighbors); weight 1/2 on the first d-1-min(d-3,c)
    vertices of each private side (neighbors of one endpoint only); zero
    elsewhere.  The total is exactly d+1.  Raises WeightConstructionError
    when a private side is too small to fill its half-weight slots.
    """
    v, w = _vertex(v, host.n, "pair"), _vertex(w, host.n, "pair")
    d = _count(d, "tail parameter")
    if v == w:
        raise PreconditionError("v and w must be two distinct vertices")
    if not host.has_edge(v, w):
        raise PreconditionError("v and w must be adjacent")
    if not is_regular(host):
        raise PreconditionError("host must be regular")
    k = host.degree(v)
    if not (3 <= d <= k):
        raise PreconditionError(f"need 3 <= d <= host degree, "
                                f"got d={d}, degree={k}")
    rv, rw = host.rows[v], host.rows[w]
    common = sorted(bits_of(rv & rw))
    private_v = sorted(bits_of(rv & ~rw & ~(1 << w)))
    private_w = sorted(bits_of(rw & ~rv & ~(1 << v)))
    m = min(d - 3, len(common))
    half_slots = d - 1 - m
    if len(private_v) < half_slots or len(private_w) < half_slots:
        raise WeightConstructionError(
            f"private sides of sizes {len(private_v)} and {len(private_w)} "
            f"cannot fill {half_slots} half-weight slots each")
    weights = {v: Fraction(1), w: Fraction(1)}
    for u in common[:m]:
        weights[u] = Fraction(1)
    for u in private_v[:half_slots]:
        weights[u] = Fraction(1, 2)
    for u in private_w[:half_slots]:
        weights[u] = Fraction(1, 2)
    fn = WeightFunction(host, weights)
    if fn.total != d + 1:
        raise VerificationError(
            f"pair weight totals {fn.total}, expected {d + 1}")
    return fn
