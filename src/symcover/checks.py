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

from .copies import footprints_of, FOOTPRINT_CAP
from .covers import CoverSolution, NODE_BUDGET, extremality_report
# unused: the tracer in bench/spans.py wraps these names
from .copies import contains_copy
from .covers import symmetric_vertex_representativity, vertex_representativity
from .errors import (NotAHittingSetError, PreconditionError,
                     ResourceLimitError, VerificationError,
                     WeightConstructionError)
from .graphs import Graph, bits_of, is_connected, has_pendant_vertex
from .report import rat
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


def _as_mask(vertices, n: int, what: str) -> int:
    mask = 0
    for v in vertices:
        if not (0 <= v < n):
            raise PreconditionError(f"{what} contains vertex {v}, "
                                    f"outside 0..{n - 1}")
        mask |= 1 << v
    return mask


def _orbits_holding_a_footprint(part, masks) -> set[int]:
    """Ids of the orbits holding a whole footprint, i.e. whose induced
    subgraph carries the pattern.  Only its lowest vertex's orbit can hold
    a footprint, so one test per footprint decides."""
    held = set()
    for fm in masks:
        oid = part.orbit_of[(fm & -fm).bit_length() - 1]
        if not fm & ~part.masks[oid]:
            held.add(oid)
    return held


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
    part = orbits(host)
    inter = [(om & x_mask).bit_count() for om in part.masks]
    sizes = [len(o) for o in part.orbits]
    rows = []
    for fp, m in zip(family.footprints, family.masks()):
        if not m & x_mask:
            raise NotAHittingSetError(fp)
        total = Fraction(0)
        for oid in {part.orbit_of[v] for v in fp}:
            if inter[oid]:
                in_f = (part.masks[oid] & m).bit_count()
                total += Fraction(in_f * inter[oid], sizes[oid])
        rows.append((fp, total))
    minimum = min((v for _, v in rows), default=None)
    tight = tuple(fp for fp, v in rows if v == 1)
    holds = minimum is None or minimum >= 1
    return OrbitSumReport(
        marked=tuple(sorted(set(marked))),
        per_footprint=tuple(rows),
        minimum=minimum,
        tight_footprints=tight,
        holds=holds,
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
    if not family.footprints:
        raise PreconditionError(
            "host contains no copy of the pattern; boundary conditions "
            "need a nonempty footprint family")
    report = extremality_report(pattern, host, cap, node_budget)
    plain, invariant = report.plain, report.invariant
    m = pattern.n
    if not report.is_extremal:
        return BoundaryReport(pattern_order=m, plain=plain,
                              invariant=invariant, applicable=False)
    part = orbits(host)
    x_mask = _as_mask(plain.witness, host.n, "witness")
    meeting = [oid for oid in range(part.count)
               if part.masks[oid] & x_mask]
    cond1_fail = tuple(
        oid for oid in meeting
        if len(part.orbits[oid])
        != m * (part.masks[oid] & x_mask).bit_count()
    )
    meeting_mask = 0
    for oid in meeting:
        meeting_mask |= part.masks[oid]
    masks = family.masks()
    cond2_fail = tuple(
        fp for fp, fm in zip(family.footprints, masks) if fm & ~meeting_mask)
    held = _orbits_holding_a_footprint(part, masks)
    cond3_fail = tuple(oid for oid in meeting if oid not in held)
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
    if marked is None:
        x = tuple(plain.witness)
    else:
        x = tuple(sorted(set(marked)))
        x_mask = _as_mask(x, host.n, "marked set")
        for fp, fm in zip(family.footprints, family.masks()):
            if not fm & x_mask:
                raise NotAHittingSetError(fp)
        if len(x) != plain.value:
            raise PreconditionError(
                f"marked set has size {len(x)} but the minimum is "
                f"{plain.value}; orbit density needs a minimal set")
    m = pattern.n
    if not report.is_extremal:
        return OrbitDensityReport(pattern_order=m, marked=x,
                                  applicable=False)
    part = orbits(host)
    x_mask = _as_mask(x, host.n, "marked set")
    touched = 0
    for fm in family.masks():
        touched |= fm
    rows = []
    holds = True
    for oid in range(part.count):
        om = part.masks[oid]
        size = len(part.orbits[oid])
        inter = (om & x_mask).bit_count()
        meets = bool(om & touched)
        density = Fraction(inter, size)
        expected = Fraction(1, m) if meets else Fraction(0)
        ok = density == expected
        holds = holds and ok
        rows.append({
            "orbit": oid,
            "size": size,
            "marked_in_orbit": inter,
            "density": rat(density),
            "meets_pattern": meets,
            "expected": rat(expected),
            "ok": ok,
        })
    return OrbitDensityReport(pattern_order=m, marked=x, applicable=True,
                              rows=tuple(rows), holds=holds)


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
    part = orbits(host)
    held = _orbits_holding_a_footprint(
        part, footprints_of(pattern, host, cap).masks())
    rows = tuple((oid, oid in held) for oid in range(part.count))
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
    degs = {e.degree for e in entries}
    regular_degree = degs.pop() if len(degs) == 1 and g.n else None
    hypothesis = (
        g.n > 0
        and regular_degree is not None
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
    part = orbits(host)
    orbit_sets = {frozenset(o) for o in part.orbits}
    a = frozenset(orbit_a)
    b = frozenset(orbit_b)
    if a not in orbit_sets or b not in orbit_sets:
        raise PreconditionError("orbit_a and orbit_b must each be exactly "
                                "one orbit of the host")
    if a == b:
        raise PreconditionError("orbit_a and orbit_b must be distinct")
    s1 = sorted(set(source))
    if not set(s1) <= a:
        raise PreconditionError("source set must lie inside orbit_a")
    a_mask = _as_mask(a, host.n, "orbit_a")
    b_mask = _as_mask(b, host.n, "orbit_b")
    crossing = any(host.rows[v] & b_mask for v in bits_of(a_mask))
    if not crossing:
        raise PreconditionError("no edge joins the two orbits")
    s1_mask = _as_mask(s1, host.n, "source set")
    s2_mask = 0
    for v in bits_of(b_mask):
        if host.rows[v] & s1_mask:
            s2_mask |= 1 << v
    bound = Fraction(len(s1) * len(b), len(a))
    return OrbitExpansionReport(
        source=tuple(s1),
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
    m = Fraction(max_total)
    if m < 0:
        raise PreconditionError("max_total must be nonnegative")
    part = orbits(host)
    out_mask = 0
    for oid in range(part.count):
        om = part.masks[oid]
        if (om & x_mask).bit_count() * m >= om.bit_count():
            out_mask |= om
    return tuple(bits_of(out_mask))


# -- weight functions ---------------------------------------------------------------

class WeightFunction:
    """Nonnegative rational vertex weights with finite support on one host."""

    __slots__ = ("graph", "entries")

    def __init__(self, graph: Graph, mapping):
        items = []
        for v, w in sorted(dict(mapping).items()):
            if not (0 <= v < graph.n):
                raise ValueError(f"weighted vertex {v} outside 0..{graph.n - 1}")
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight {w} at vertex {v}")
            if w:
                items.append((v, w))
        self.graph = graph
        self.entries = tuple(items)

    def value(self, v: int) -> Fraction:
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
        """The composed function u -> value(perm[u])."""
        inv = {}
        for u in range(self.graph.n):
            inv[perm[u]] = u
        return WeightFunction(self.graph,
                              {inv[v]: w for v, w in self.entries})

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
    stabilizer_order, _ = _chain(host, _refined(host, start_colors))
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
    of a function, rather than reporting weight 0 for it."""
    marked = sorted(set(marked))
    sums = []
    first = None
    for idx, fn in enumerate(functions):
        _as_mask(marked, fn.graph.n, "marked set")
        total = sum((fn.value(v) for v in marked), Fraction(0))
        sums.append(total)
        if total < 1 and first is None:
            first = idx
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
    n = host.n
    if not (0 <= v < n and 0 <= w < n) or v == w:
        raise PreconditionError("v and w must be two distinct vertices")
    if not host.has_edge(v, w):
        raise PreconditionError("v and w must be adjacent")
    degs = {host.degree(u) for u in range(n)}
    if len(degs) != 1:
        raise PreconditionError("host must be regular")
    k = degs.pop()
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
