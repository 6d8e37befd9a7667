"""Exact minimum hitting sets and invariant covers.

``vertex_representativity`` is the least number of vertices meeting every
copy footprint of the pattern; ``symmetric_vertex_representativity`` is the
least size of such a set that is additionally a union of automorphism
orbits.  Both are solved exactly by one branch and bound, ``_CoverSearch``,
with certified optimality; ties are broken toward the lexicographically
smallest witness.  The search indexes the sets by bit, so a node is a mask
of live set indices plus a mask of banned units.  The witness comes from a
scan over units that searches only outside the optimal cover it holds.

``extremality_report`` solves the invariant cover only when some
footprint vertex shares its orbit with another vertex.  When every
footprint vertex is alone in its orbit, each such orbit costs 1, and
since orbits are numbered by their smallest member, renaming each vertex
to its orbit id keeps the order of the vertices.  The orbit cover is then
the identical search over the same sets under that renaming, so the
report takes the plain solution as the invariant one, with the witness's
orbit ids.  A trivial group is the case where every orbit is a single
vertex.  The report asks for the orbits only once the family holds a
footprint.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

from .copies import CopyFamily, footprints_of, FOOTPRINT_CAP
from .errors import (PreconditionError, ResourceLimitError,
                     VerificationError)
from .graphs import Graph, bits_of
from .report import rat
from .symmetry import OrbitPartition, orbits

__all__ = [
    "CoverSolution",
    "ExtremalityReport",
    "min_hitting_set",
    "vertex_representativity",
    "symmetric_vertex_representativity",
    "extremality_report",
    "NODE_BUDGET",
]

NODE_BUDGET = 10**8


@dataclass(frozen=True)
class CoverSolution:
    """Certified optimum of one covering problem.

    ``witness`` is the lexicographically smallest optimal vertex set.  For
    invariant covers ``orbit_ids`` lists the chosen orbits and ``witness``
    is their union.
    """

    value: int
    witness: tuple[int, ...]
    nodes_explored: int
    orbit_ids: tuple[int, ...] | None = None


class _CoverSearch:
    """Branch and bound for minimum-cost covers over bit-indexed sets.

    Units are integers with positive costs; every set in the family must
    contain a chosen unit.  The constructor dedups the sets, sorts them by
    (size, mask) and drops every set that contains another, which leaves
    the hitting sets unchanged.  Set i is then bit i of an index mask:
    ``inc[u]`` is the mask of the sets that contain unit u.  ``meet`` maps
    a unit mask to the mask of the sets that meet it; the pack bound fills
    it with the available units of the sets it packs, so it holds at most
    one entry per subset of a set, and it lives only as long as the search.

    A search node is a mask of live (still unhit) set indices plus a mask
    of banned units.  Choosing u leaves ``live & ~inc[u]``.  Branching
    takes the lowest live set, ``(live & -live).bit_length() - 1``, and
    tries each of its available units in ascending order, banning the
    units already tried in later branches so the search space partitions.
    The pick costs a few mask operations, where Knuth's fewest-candidates
    rule (*Dancing Links*, 2000) scans every live set at each node; its
    tree is smaller, but not by as much as its cost per node is higher.

    Every node first asks the pack bound (``_pack_bound``) whether a cover
    cheaper than the incumbent can lie below it.  The bound packs live
    sets that are pairwise disjoint on their available units, the units not
    banned; each needs a unit of its own.  A ban can leave a live set with
    no available unit: a branch bans the units of the picked set tried
    before it, and another live set may hold only those.  Such a dead set
    can never be hit, because branching never chooses a banned unit, so
    the bound prices the node out and no leaf holds a dead set.  A node
    that passes the bound therefore has a lowest live set with an available
    unit to branch on.  The optimum search starts from the greedy
    maximum-coverage incumbent and returns the unit mask of the cheapest
    cover it meets, with its cost in ``upper``.

    The lex-min witness pass scans units in ascending order and keeps each
    one that still allows an optimal completion from larger units.  It
    holds one optimal cover that contains every kept unit and avoids every
    dropped one, starting from the optimum search's.  A unit in the held
    cover is kept with no search.  A unit outside it runs a sub-search
    that skips the greedy, starts its incumbent at ``limit + 1`` and
    returns at its first leaf of cost at most ``limit`` (a completion
    costing less would undercut the optimum); the cover found there
    becomes the held one.  Both phases charge one node budget, and a stop
    reports the bounds known so far.
    """

    def __init__(self, set_masks, costs: dict[int, int], budget: int):
        sets = sorted(set(set_masks), key=lambda s: (s.bit_count(), s))
        if sets and sets[0].bit_count() < sets[-1].bit_count():
            sets = _drop_supersets(sets)
        self.sets = sets
        self.costs = costs
        self.budget = budget
        self.nodes = 0
        self.lower = self.upper = None  # reported on a budget stop
        self.all = (1 << len(sets)) - 1
        units = 0
        for s in sets:
            units |= s
        self.units = units
        self.inc = [0] * units.bit_length()
        for i, s in enumerate(sets):
            for u in bits_of(s):
                self.inc[u] |= 1 << i
        self.meet = {}
        unit_costs = {costs[u] for u in bits_of(units)}
        # the cost all units share, which makes every packed set cost it
        self.flat = unit_costs.pop() if len(unit_costs) == 1 else None

    def _charge(self, nodes):
        """Record ``nodes`` searched so far; raise once past the budget."""
        self.nodes = nodes
        if nodes > self.budget:
            raise ResourceLimitError(
                f"cover search exceeded the node budget {self.budget}",
                limit=self.budget, best_lower=self.lower,
                best_upper=self.upper)

    def _greedy(self):
        inc, costs = self.inc, self.costs
        live = self.all
        chosen = cost = 0
        while live:
            best_u, best_hits, best_cost = -1, 0, 1
            for u in bits_of(self.units & ~chosen):
                hits = (live & inc[u]).bit_count()
                if hits * best_cost > best_hits * costs[u]:
                    best_u, best_hits, best_cost = u, hits, costs[u]
            chosen |= 1 << best_u
            cost += best_cost
            live &= ~inc[best_u]
        return cost

    def _pack_bound(self, live, banned, stop):
        """Cost lower bound for covering the live sets by units not banned,
        or ``stop`` once the bound reaches it.

        Every completion below a node uses only unbanned units, so live
        sets that are pairwise disjoint on their available units need
        distinct units.  The packing takes the lowest live set, prices it
        at the cheapest of its available units ``r`` and drops every live
        set that meets ``r``.  A set with no available unit can never be
        hit, so it returns ``stop`` at once.  ``meet[r]`` is the mask of
        the sets that meet ``r``."""
        sets, inc, costs, meet = self.sets, self.inc, self.costs, self.meet
        flat = self.flat
        bound = 0
        while live:
            r = sets[(live & -live).bit_length() - 1] & ~banned
            if not r:
                return stop
            if flat is not None:
                bound += flat
            else:
                bound += min(costs[u] for u in bits_of(r))
            if bound >= stop:
                return stop
            hit = meet.get(r)
            if hit is None:
                hit = 0
                for u in bits_of(r):
                    hit |= inc[u]
                meet[r] = hit
            live &= ~hit
        return bound

    def optimum(self) -> int | None:
        """Unit mask of a least-cost cover; None when some set is empty."""
        if self.sets and self.sets[0] == 0:
            return None
        self.upper = self._greedy()
        self.lower = self._pack_bound(self.all, 0, self.upper)
        return self._branch(self.all, 0, self.upper + 1, first=False)

    def _branch(self, live, banned, incumbent, first):
        """Unit mask of the cheapest cover below ``incumbent`` of the live
        sets by units not banned, or None when there is none.  With
        ``first`` set, return the first such cover found."""
        sets, inc, costs = self.sets, self.inc, self.costs
        pack_bound, budget = self._pack_bound, self.budget
        best_cost, best = incumbent, None
        nodes = self.nodes

        def dfs(live, banned, cost, chosen):
            nonlocal best_cost, best, nodes
            nodes += 1
            if nodes > budget:
                self._charge(nodes)
            if not live:
                if cost >= best_cost:
                    return False
                best_cost, best = cost, chosen
                if not first:
                    self.upper = cost
                return first
            stop = best_cost - cost
            if pack_bound(live, banned, stop) >= stop:
                return False
            # the pack bound has priced the lowest live set, so it has an
            # available unit
            avail = sets[(live & -live).bit_length() - 1] & ~banned
            tried = 0
            while avail:
                low = avail & -avail
                u = low.bit_length() - 1
                if dfs(live & ~inc[u], banned | tried, cost + costs[u],
                       chosen | low):
                    return True
                tried |= low
                avail ^= low
            return False

        dfs(live, banned, 0, 0)
        self._charge(nodes)
        return best

    def lex_min_witness(self, opt: int, cover: int) -> int:
        """Lexicographically smallest cover of cost ``opt``, the cost of
        ``cover``: scan units in ascending order and keep each one that
        still allows an optimal completion from strictly larger units."""
        self.lower = self.upper = opt
        chosen = banned = cost = 0
        live = self.all
        for u in bits_of(self.units):
            if not live:
                break
            if not cover >> u & 1:
                limit = opt - cost - self.costs[u]
                rest = live & ~self.inc[u]
                found = (self._branch(rest, banned | 1 << u, limit + 1,
                                      first=True)
                         if rest != live and limit >= 0 else None)
                if found is None:
                    # the held cover avoids u, so every live set keeps a unit
                    banned |= 1 << u
                    continue
                cover = chosen | 1 << u | found
            chosen |= 1 << u
            cost += self.costs[u]
            live &= ~self.inc[u]
        if live or cost != opt:
            raise VerificationError(
                f"lex-min witness pass reached cost {cost} with "
                f"{live.bit_count()} set(s) unhit, against the optimum {opt}")
        return chosen


def _drop_supersets(sets):
    """The sets, sorted by size, less every one that contains another."""
    kept = []
    for s in sets:
        if not any(t & s == t for t in kept):
            kept.append(s)
    return kept


def _solve_cover(set_masks, costs, budget):
    search = _CoverSearch(set_masks, costs, budget)
    cover = search.optimum()
    if cover is None:
        raise PreconditionError(
            "infeasible cover: some set has no available unit")
    opt = search.upper
    return opt, search.lex_min_witness(opt, cover), search.nodes


def min_hitting_set(family: CopyFamily, n: int | None = None,
                    node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Smallest vertex set meeting every footprint of the family.  With
    ``n``, a footprint vertex outside 0..n-1 is a ``PreconditionError``."""
    if n is not None:
        for f in family.footprints:
            if f and not (0 <= min(f) and max(f) < n):
                raise PreconditionError(
                    f"footprint {f} outside 0..{n - 1}")
    masks = family.masks()
    costs = dict.fromkeys(bits_of(reduce(or_, masks, 0)), 1)
    value, witness_mask, nodes = _solve_cover(masks, costs, node_budget)
    return CoverSolution(value=value, witness=tuple(bits_of(witness_mask)),
                         nodes_explored=nodes)


def vertex_representativity(pattern: Graph, host: Graph,
                            cap: int = FOOTPRINT_CAP,
                            node_budget: int = NODE_BUDGET) -> CoverSolution:
    # the matcher only yields host vertices, so the range check is skipped
    family = footprints_of(pattern, host, cap=cap)
    return min_hitting_set(family, node_budget=node_budget)


def symmetric_vertex_representativity(
        pattern: Graph, host: Graph, cap: int = FOOTPRINT_CAP,
        node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Least total size of a union of orbits meeting every footprint.

    Every automorphism-invariant vertex set is a union of orbits, so the
    search compresses each footprint to the set of orbit ids it touches and
    solves an exact weighted cover over orbits (weight = orbit size).
    """
    family = footprints_of(pattern, host, cap=cap)
    if not family.footprints:
        return CoverSolution(value=0, witness=(), nodes_explored=0,
                             orbit_ids=())
    return min_orbit_cover(family, orbits(host), node_budget)


def min_orbit_cover(family: CopyFamily, part: OrbitPartition,
                    node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Least total size of a union of the given orbits meeting every
    footprint of the family.  A vertex outside the partition, negative
    ones included, fails the dict lookup and is a ``PreconditionError``."""
    bit = {v: 1 << oid for v, oid in enumerate(part.orbit_of)}
    orbit_sets = set()
    try:
        for f in family.footprints:
            ids = 0
            for v in f:
                ids |= bit[v]
            orbit_sets.add(ids)
    except KeyError:
        raise PreconditionError(f"footprint {f} has vertex {v} outside "
                                f"0..{len(bit) - 1}") from None
    costs = {oid: len(part.orbits[oid]) for oid in range(part.count)}
    value, ids_mask, nodes = _solve_cover(sorted(orbit_sets), costs,
                                          node_budget)
    ids = tuple(bits_of(ids_mask))
    members: list[int] = []
    for oid in ids:
        members.extend(part.orbits[oid])
    return CoverSolution(value=value, witness=tuple(sorted(members)),
                         nodes_explored=nodes, orbit_ids=ids)


@dataclass(frozen=True)
class ExtremalityReport:
    """Both representativity values for one (pattern, host) pair, their
    exact ratio, and the boundary flags."""

    pattern_order: int
    plain: CoverSolution
    invariant: CoverSolution
    ratio: Fraction | None
    is_extremal: bool
    is_expensive_instance: bool

    def to_doc(self) -> dict:
        return {
            "pattern_order": self.pattern_order,
            "vertex_representativity": self.plain.value,
            "witness": list(self.plain.witness),
            "symmetric_representativity": self.invariant.value,
            "invariant_witness": list(self.invariant.witness),
            "orbit_ids": list(self.invariant.orbit_ids or ()),
            "ratio": rat(self.ratio) if self.ratio is not None else None,
            "is_extremal": self.is_extremal,
            "is_expensive_instance": self.is_expensive_instance,
        }


def extremality_report(pattern: Graph, host: Graph,
                       cap: int = FOOTPRINT_CAP,
                       node_budget: int = NODE_BUDGET) -> ExtremalityReport:
    """Both covers and the extremality verdict, solved once: checks and
    scans read this memoized report.  The cache is keyed positionally, so
    calls that leave defaults out share an entry with calls that pass them.

    When every footprint vertex is alone in its orbit, as on a host with a
    trivial automorphism group, the invariant cover is the plain one,
    found by the same search (value, witness and node count), with
    ``orbit_ids`` the orbits of the witness; only a nonempty footprint
    family reads the host's orbits."""
    return _extremality_cached(pattern, host, cap, node_budget)


def _in_singleton_orbits(pattern: Graph, host: Graph, cap: int,
                         part: OrbitPartition) -> bool:
    """Whether every vertex of every footprint is alone in its orbit."""
    if part.group_order == 1:
        return True
    alone = 0
    for mask in part.masks:
        if not mask & mask - 1:
            alone |= mask
    return all(alone >> v & 1
               for f in footprints_of(pattern, host, cap).footprints
               for v in f)


@lru_cache(maxsize=4096)
def _extremality_cached(pattern: Graph, host: Graph, cap: int,
                        node_budget: int) -> ExtremalityReport:
    plain = vertex_representativity(pattern, host, cap, node_budget)
    # a family without footprints needs no orbits, which may be out of reach
    part = orbits(host) if plain.value else None
    if part is not None and _in_singleton_orbits(pattern, host, cap, part):
        invariant = replace(plain, orbit_ids=tuple(
            part.orbit_of[v] for v in plain.witness))
    else:
        invariant = symmetric_vertex_representativity(pattern, host, cap,
                                                      node_budget)
    m = pattern.n
    if not (0 <= plain.value <= invariant.value <= m * plain.value):
        raise VerificationError(
            f"solver inconsistency: plain={plain.value} "
            f"invariant={invariant.value} pattern_order={m}")
    ratio = (Fraction(invariant.value, plain.value)
             if plain.value else None)
    extremal = invariant.value == m * plain.value
    return ExtremalityReport(
        pattern_order=m,
        plain=plain,
        invariant=invariant,
        ratio=ratio,
        is_extremal=extremal,
        is_expensive_instance=extremal and invariant.value > 0,
    )
