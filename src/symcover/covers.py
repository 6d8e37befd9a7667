"""Exact minimum hitting sets and invariant covers.

``vertex_representativity`` is the least number of vertices meeting every
copy footprint of the pattern; ``symmetric_vertex_representativity`` is the
least size of such a set that is additionally a union of automorphism
orbits.  Both are solved exactly by one branch and bound, ``_CoverSearch``,
with certified optimality; ties are broken toward the lexicographically
smallest witness.  The search indexes the sets by bit from the top: of the
N sets its callers put in search order (``_search_order``), set i is bit
N-1-i.  A node is a mask of live set indices plus a mask of banned units.
It branches on its first live set in search order, the top live bit, so
its masks shorten as their first sets are hit.  It tries that set's units
strongest first and skips a unit that a unit tried before it replaces at
no greater cost.  The witness comes from a scan over units in
ascending order that searches only outside the optimal cover it holds, so
the branch order shapes the tree but moves no witness.

``vertex_representativity`` starts its optimum search at a node that has
chosen one vertex, when the host's orbits allow it (``_fixed_vertex``):
the lowest vertex o of the first footprint, in ascending mask order, that
lies inside one orbit.  Every cover meets that footprint, so it meets the
orbit, and an automorphism maps the vertex it meets onto o and the cover
onto a cover of equal size through o.  The value is that of a search from
the root; the lex-min witness pass reads no group and finds the same
witness.  Only ``nodes_explored`` differs from ``min_hitting_set``'s, which
reads no group, on such hosts.  The orbits come from automorphisms that
``copies._embed`` checks edge by edge; had the chain missed one, its
orbits would be finer, never coarser, so the rule could only not fire.

``extremality_report`` solves the invariant cover only when the plain
witness is not a union of orbits.  Every union of orbits meeting all the
footprints is a plain cover too, so the invariant optimum is at least the
plain one, and a plain witness that is a union of orbits reaches it.
Orbits are numbered by their smallest member, so two unions of orbits of
equal cost compare alike as vertex sets and as orbit-id sets: the lex-min
plain witness is then the lex-min orbit cover as well.  The report takes
it with the witness's distinct orbit ids, and its ``nodes_explored``
counts the plain search, which certified it, while
``symmetric_vertex_representativity`` always searches.  A trivial group,
where every orbit is a single vertex, is one such case.  The report asks
for the orbits only once the family holds a footprint.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heapreplace
from math import lcm
from operator import or_

from .copies import CopyFamily, footprints_of, FOOTPRINT_CAP
from .errors import (PreconditionError, ResourceLimitError,
                     VerificationError)
from .graphs import Graph, _count, bits_of
from .report import rat
from .symmetry import OrbitPartition, VERTEX_CAP, orbits

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
    contain a chosen unit.  Callers pass the sets in search order (distinct, by
    (size, mask), none containing another), which shapes only the tree.  The
    index numbers them from the top: ``sets`` holds them reversed, bit j of
    an index mask is ``sets[j]``, and ``inc[u]`` is the mask of the sets
    holding unit u.  ``meet`` maps a unit mask to the complement of the mask
    of the sets that meet it; the pack bound fills it with the available
    units of the sets it packs, so it holds at most one entry per subset of
    a set, for one search.

    A search node is a mask of live (still unhit) set indices plus a mask
    of banned units.  Choosing u hits ``hit = live & inc[u]`` and leaves
    ``live ^ hit``.  Branching takes the first live set in search order,
    the top live bit ``live.bit_length() - 1``, so the masks a search
    holds shorten as it descends and every mask operation on them gets
    cheaper.  It tries the set's available units by live sets hit per unit
    of cost, most first, ties to the lowest unit.  The key is ``(inc[u] & live)
    .bit_count() * rate[u]`` with ``rate[u] = lcm(costs) // costs[u]``, so
    the order is exact in integers.  Each branch bans the units tried
    before it, so the search space partitions, and the strongest unit,
    banned in every later sibling, raises their pack bounds.  The pick
    costs a few mask operations, where Knuth's fewest-candidates rule
    (*Dancing Links*, 2000) scans every live set at each node; its tree is
    smaller, but not by as much as its cost per node is higher.

    A unit u is skipped, though still banned in the branches after it,
    when a unit v branched on earlier at the node hits all of u's live
    sets at no greater cost (unit domination, as in Caprara, Toth and
    Fischetti, *Ann. Oper. Res.* 2000).  A cover below u's branch avoids
    v, which that branch bans; swapping u for v gives a cover of the live
    sets at no greater cost that avoids every unit v's branch bans, so it
    lies in v's branch, already searched.  So the skip loses neither a
    cover cheaper than the incumbent nor the first completion under a
    limit.  Of two units with the same live sets and cost, the lower one
    goes first and the other is skipped.  A set with one available unit
    gives its node one child, with nothing to order.

    Every node first asks the pack bound (``_pack_bound``) whether a cover
    cheaper than the incumbent can lie below it.  The bound packs live
    sets that are pairwise disjoint on their available units, the units not
    banned; each needs a unit of its own.  A ban can leave a live set with
    no available unit: a branch bans the units of the picked set tried
    before it, and another live set may hold only those.  Such a dead set
    can never be hit, because branching never chooses a banned unit, so
    the bound prices the node out and no leaf holds a dead set.  A node
    that passes the bound therefore has a first live set with an available
    unit to branch on.  The optimum search holds the greedy's cover, less
    its redundant units (``_greedy``), and its cost is the starting
    ``upper``.  The search then looks only for a strictly cheaper cover:
    it returns the cheapest one it meets, or the held cover when there is
    none, so it proves the held cover optimal.  When the root pack bound
    already reaches the held cost, that proof is the root node alone.

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

    def __init__(self, sets, costs: dict[int, int], budget: int):
        self.sets = sets[::-1]  # bit j of a set index mask is self.sets[j]
        self.costs = costs
        self.budget = _count(budget, "node budget")
        self.nodes = 0
        self.lower = self.upper = None  # reported on a budget stop
        self.all = (1 << len(sets)) - 1
        self.units = units = reduce(or_, sets, 0)
        cols = [bytearray(b"0") * len(sets) for _ in range(units.bit_length())]
        for i, s in enumerate(sets):
            while s:
                low = s & -s
                cols[low.bit_length() - 1][i] = 49  # digit "1" at bit N-1-i
                s ^= low
        self.inc = [int(col, 2) for col in cols]  # linear time in base 2
        self.meet = {}
        unit_costs = {costs[u] for u in bits_of(units)}
        # live sets hit per unit of cost is hits * rate[u], in integers
        scale = lcm(*unit_costs)
        self.rate = rate = [0] * len(cols)
        for u in bits_of(units):
            rate[u] = scale // costs[u]
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
        """(cover, cost) of the greedy maximum-coverage cover less its
        redundant units.

        Each pick is the first unit hitting the most live sets per unit
        of cost.  The unchosen units wait in a heap keyed by
        ``(-hits * rate[u], u)`` with the hits they had when last keyed.
        Hits only fall as sets die, so every key is at most the unit's
        current one, and a popped key that is still current is the least
        current key: that unit is the pick.  A stale key is re-keyed and
        pushed back.  The picks are then walked last to first, and each one
        is dropped when the other picks still held hit all its sets.  The
        picks before it are all still held, and they hit each of its sets
        but those it newly hit when picked; so it is redundant when the
        held picks after it hit those.  Two mask operations per pick.
        """
        inc, costs, rate = self.inc, self.costs, self.rate
        live = self.all
        heap = [(-inc[u].bit_count() * rate[u], u)
                for u in bits_of(self.units)]
        heapify(heap)
        picks = []
        chosen = 0
        while live:
            key, u = heap[0]
            hit = live & inc[u]
            if -hit.bit_count() * rate[u] != key:
                heapreplace(heap, (-hit.bit_count() * rate[u], u))
                continue
            heappop(heap)
            picks.append((u, hit))
            chosen |= 1 << u
            live ^= hit
        later = 0  # the sets that the held picks after this one hit
        for u, newly in reversed(picks):
            if newly & ~later:
                later |= inc[u]
            else:
                chosen ^= 1 << u
        return chosen, sum(costs[u] for u in bits_of(chosen))

    def _pack_bound(self, live, banned, stop):
        """Cost lower bound for covering the live sets by units not banned,
        or ``stop`` once the bound reaches it.

        Every completion below a node uses only unbanned units, so live
        sets that are pairwise disjoint on their available units need
        distinct units.  The packing takes the first live set, prices it
        at the cheapest of its available units ``r`` and drops every live
        set that meets ``r``: ``meet[r]`` is the complement of their mask,
        so one ``&`` drops them.  Under flat costs every packed set costs
        the same, so it counts down the packed sets that reach ``stop``.  A
        set with no available unit can never be hit, so it returns ``stop``
        at once."""
        sets, inc, costs, meet = self.sets, self.inc, self.costs, self.meet
        flat = self.flat
        # what is left of stop: under flat costs, in packed sets
        need = left = stop if flat is None else -(-stop // flat)
        while live:
            r = sets[live.bit_length() - 1] & ~banned
            if not r:
                return stop
            left -= 1 if flat else min(costs[u] for u in bits_of(r))
            if left <= 0:
                return stop
            miss = meet.get(r)
            if miss is None:
                hit = 0
                for u in bits_of(r):
                    hit |= inc[u]
                miss = meet[r] = ~hit
            live &= miss
        return (need - left) * (flat or 1)

    def optimum(self, fixed: int | None = None) -> int | None:
        """Unit mask of a least-cost cover, with its cost in ``upper``;
        None when some set is empty.  With ``fixed`` a unit that some
        least-cost cover holds, the search starts at the node that has
        chosen it and looks only at the covers through it."""
        if self.sets and self.sets[-1] == 0:
            return None
        held, self.upper = self._greedy()
        self.lower = self._pack_bound(self.all, 0, self.upper)
        live, cost, chosen = self.all, 0, 0
        if fixed is not None:
            live, cost, chosen = (live ^ self.inc[fixed], self.costs[fixed],
                                  1 << fixed)
        found = self._branch(live, 0, self.upper, False, cost, chosen)
        return held if found is None else found

    def _branch(self, live, banned, incumbent, first, cost=0, chosen=0):
        """Unit mask of the cheapest cover below ``incumbent`` of the live
        sets by units not banned, added to the ``chosen`` units of the
        given ``cost``, or None when there is none.  With ``first`` set,
        return the first such cover found.

        A depth-first loop over a stack of nodes ``(live, banned, cost,
        chosen)``.  A node's children and their bans depend only on the
        order of its units, not on what the children find, so it pushes
        them all at once, in reverse, and the first is searched first."""
        sets, inc, costs, rate = self.sets, self.inc, self.costs, self.rate
        pack_bound, budget = self._pack_bound, self.budget
        best_cost, best = incumbent, None
        nodes = self.nodes
        stack = [(live, banned, cost, chosen)]
        pop, push = stack.pop, stack.append
        while stack:
            live, banned, cost, chosen = pop()
            nodes += 1
            if nodes > budget:
                self._charge(nodes)
            if not live:
                if cost < best_cost:
                    best_cost, best = cost, chosen
                    if first:
                        break
                    self.upper = cost
                continue
            stop = best_cost - cost
            if pack_bound(live, banned, stop) >= stop:
                continue
            # the pack bound has priced the first live set, so it has an
            # available unit
            avail = sets[live.bit_length() - 1] & ~banned
            if not avail & avail - 1:  # one available unit, nothing to order
                u = avail.bit_length() - 1
                push((live & ~inc[u], banned, cost + costs[u],
                      chosen | avail))
                continue
            keyed = []  # strongest first, ties to the lowest unit
            while avail:
                low = avail & -avail
                u = low.bit_length() - 1
                hit = inc[u] & live
                keyed.append((-hit.bit_count() * rate[u], u, hit))
                avail ^= low
            keyed.sort()
            tried = 0
            done = []  # (live sets hit, cost) of the units branched on
            children = []
            for _, u, hit in keyed:
                c = costs[u]
                for h, k in done:
                    if h & hit == hit and k <= c:
                        break  # an earlier unit replaces u
                else:
                    children.append((live ^ hit, banned | tried, cost + c,
                                     chosen | 1 << u))
                    done.append((hit, c))
                tried |= 1 << u
            stack += reversed(children)
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


def _search_order(sets):
    """Distinct sets by (size, mask), less each one that contains another."""
    sets = sorted(sets, key=lambda s: (s.bit_count(), s))
    if not sets or sets[0].bit_count() == sets[-1].bit_count():
        return sets
    kept = []
    for s in sets:
        if not any(t & s == t for t in kept):
            kept.append(s)
    return kept


def _solve_cover(sets, costs, budget, fixed=None):
    search = _CoverSearch(sets, costs, budget)
    cover = search.optimum(fixed)
    if cover is None:
        raise PreconditionError(
            "infeasible cover: some set has no available unit")
    opt = search.upper
    return opt, search.lex_min_witness(opt, cover), search.nodes


def min_hitting_set(family: CopyFamily, n: int | None = None,
                    node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Smallest vertex set meeting every footprint of the family.  With
    ``n``, a footprint vertex outside 0..n-1 is a ``PreconditionError``."""
    masks = family.masks
    # the masks ascend, so the last one holds the highest vertex
    if n is not None and reduce(or_, masks, 0) >> _count(n, "vertex count"):
        raise PreconditionError(
            f"footprint {tuple(bits_of(masks[-1]))} outside 0..{n - 1}")
    return _hitting_set(masks, None, node_budget)


def _hitting_set(masks, fixed, budget) -> CoverSolution:
    costs = dict.fromkeys(bits_of(reduce(or_, masks, 0)), 1)
    value, witness_mask, nodes = _solve_cover(masks, costs, budget, fixed)
    return CoverSolution(value=value, witness=tuple(bits_of(witness_mask)),
                         nodes_explored=nodes)


def vertex_representativity(pattern: Graph, host: Graph,
                            cap: int = FOOTPRINT_CAP,
                            node_budget: int = NODE_BUDGET) -> CoverSolution:
    """``min_hitting_set`` of the copy footprints, with the optimum search
    started at the lowest vertex of the first footprint inside one orbit
    of the host, when there is one (``_fixed_vertex``).  Value and witness
    are ``min_hitting_set``'s; ``nodes_explored`` may be fewer."""
    # the matcher only yields host vertices, so the range check is skipped
    masks = footprints_of(pattern, host, cap=cap).masks
    return _hitting_set(masks, _fixed_vertex(masks, host), node_budget)


def _fixed_vertex(masks, host: Graph) -> int | None:
    """The lowest vertex of the first footprint, in ascending mask order,
    that lies inside one orbit of the host, or None; some optimal cover
    holds it.  The host's cached orbits are read only for a nonempty
    family within the automorphism engine's vertex cap."""
    if not masks or host.n > VERTEX_CAP:
        return None
    part = orbits(host)
    # every footprint has the pattern's order: skip the scan when no orbit
    # is that large, as under a trivial group
    if max(om.bit_count() for om in part.masks) < masks[0].bit_count():
        return None
    for m in masks:
        o = (m & -m).bit_length() - 1
        if not m & ~part.masks[part.orbit_of[o]]:
            return o
    return None


def symmetric_vertex_representativity(
        pattern: Graph, host: Graph, cap: int = FOOTPRINT_CAP,
        node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Least total size of a union of orbits meeting every footprint.

    Every automorphism-invariant vertex set is a union of orbits, so the
    search compresses each footprint to the set of orbit ids it touches and
    solves an exact weighted cover over orbits (weight = orbit size).
    """
    family = footprints_of(pattern, host, cap=cap)
    if not family.masks:
        _count(node_budget, "node budget")  # read, though no search runs
        return CoverSolution(value=0, witness=(), nodes_explored=0,
                             orbit_ids=())
    return min_orbit_cover(family, orbits(host), node_budget)


def min_orbit_cover(family: CopyFamily, part: OrbitPartition,
                    node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Least total size of a union of the given orbits meeting every
    footprint of the family.  A vertex outside the partition is a
    ``PreconditionError``."""
    masks, orbit_of = family.masks, part.orbit_of
    if masks and masks[-1] >> len(orbit_of):
        raise PreconditionError(
            f"footprint {tuple(bits_of(masks[-1]))} has vertex "
            f"{masks[-1].bit_length() - 1} outside 0..{len(orbit_of) - 1}")
    orbit_sets = set()
    for m in masks:
        ids = 0
        while m:  # take the lowest vertex's orbit, then drop all of it
            oid = orbit_of[(m & -m).bit_length() - 1]
            ids |= 1 << oid
            m &= ~part.masks[oid]
        orbit_sets.add(ids)
    costs = {oid: om.bit_count() for oid, om in enumerate(part.masks)}
    value, ids_mask, nodes = _solve_cover(_search_order(orbit_sets), costs,
                                          node_budget)
    ids = tuple(bits_of(ids_mask))
    witness = reduce(or_, (part.masks[oid] for oid in ids), 0)
    return CoverSolution(value=value, witness=tuple(bits_of(witness)),
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
    scans read this memoized report, cached as ``footprints_of`` is.

    When the plain witness is a union of orbits, as on a host with a
    trivial automorphism group, it is the invariant witness too: the
    invariant cover is the plain solution (value, witness and
    ``nodes_explored``, which counts the plain search) with ``orbit_ids``
    the witness's distinct orbits, and no orbit search runs.  Only a
    nonempty footprint family reads the host's orbits; past the
    automorphism engine's vertex cap the stop carries the bounds
    ``[plain value, host.n]`` on the invariant optimum."""
    return _extremality_cached(pattern, host, cap, node_budget)


@lru_cache(maxsize=4096, typed=True)
def _extremality_cached(pattern: Graph, host: Graph, cap: int,
                        node_budget: int) -> ExtremalityReport:
    plain = vertex_representativity(pattern, host, cap, node_budget)
    part = None
    # a family without footprints needs no orbits, which may be out of reach
    if plain.value:
        try:
            part = orbits(host)
        except ResourceLimitError as stop:
            # the whole vertex set is an invariant cover
            raise ResourceLimitError(stop.args[0], limit=stop.limit,
                                     best_lower=plain.value,
                                     best_upper=host.n) from stop
    witness = reduce(or_, (1 << v for v in plain.witness), 0)
    if part is not None and all(witness & om in (0, om)
                                for om in part.masks):
        invariant = replace(plain, orbit_ids=tuple(dict.fromkeys(
            part.orbit_of[v] for v in plain.witness)))
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
