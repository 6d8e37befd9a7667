"""Exact minimum hitting sets and invariant covers.

``vertex_representativity`` is the least number of vertices meeting every
copy footprint of the pattern; ``symmetric_vertex_representativity`` is the
least size of such a set that is additionally a union of automorphism
orbits.  Both are solved exactly by branch and bound with certified
optimality; ties are broken toward the lexicographically smallest witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .copies import CopyFamily, footprints_of, FOOTPRINT_CAP
from .errors import ResourceLimitError, VerificationError
from .graphs import Graph, bits_of
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
    """Branch and bound for minimum-cost covers.

    Units are integers with positive costs; every set in the family must
    contain a chosen unit.  Branching picks an uncovered set with the
    fewest available units and tries each unit in ascending order, banning
    already-tried units in later branches so the search space partitions.
    The lower bound greedily packs disjoint uncovered sets; the incumbent
    starts from greedy maximum coverage.
    """

    def __init__(self, set_masks, costs: dict[int, int], budget: int):
        self.sets = list(set_masks)
        self.costs = costs
        self.budget = budget
        self.nodes = 0

    def _charge(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceLimitError(
                f"cover search exceeded the node budget {self.budget}",
                limit=self.budget)

    def _greedy(self, live):
        chosen = 0
        cost = 0
        live = list(live)
        while live:
            units = 0
            for s in live:
                units |= s
            best_u = -1
            best_key = None
            for u in bits_of(units):
                hits = sum(1 for s in live if s >> u & 1)
                key = (Fraction(hits, self.costs[u]), -u)
                if best_key is None or key > best_key:
                    best_key = key
                    best_u = u
            chosen |= 1 << best_u
            cost += self.costs[best_u]
            live = [s for s in live if not s >> best_u & 1]
        return cost, chosen

    def _pack_bound(self, live):
        taken = 0
        bound = 0
        for s in sorted(live, key=lambda s: (s.bit_count(), s)):
            if s & taken:
                continue
            taken |= s
            bound += min(self.costs[u] for u in bits_of(s))
        return bound

    def solve(self, sets=None, banned: int = 0, limit: int | None = None):
        """Minimum cost and one optimal unit mask over the given sets using
        only non-banned units; (None, None) when infeasible or provably not
        better than ``limit``."""
        live = [s & ~banned for s in (self.sets if sets is None else sets)]
        if any(s == 0 for s in live):
            return None, None
        if not live:
            return 0, 0
        best_cost, best_mask = self._greedy(live)
        if limit is not None and best_cost > limit:
            best_cost, best_mask = limit + 1, None

        def dfs(live, chosen, cost, banned):
            nonlocal best_cost, best_mask
            self._charge()
            if not live:
                if cost < best_cost:
                    best_cost = cost
                    best_mask = chosen
                return
            if cost + self._pack_bound(live) >= best_cost:
                return
            branch = min(live, key=lambda s: (s.bit_count(), s))
            tried = 0
            for u in bits_of(branch):
                nb = banned | tried
                rest = [s & ~nb for s in live if not s >> u & 1]
                if all(rest_s for rest_s in rest):
                    dfs(rest, chosen | 1 << u, cost + self.costs[u], nb)
                tried |= 1 << u
        dfs(live, 0, 0, banned)
        if best_mask is None or (limit is not None and best_cost > limit):
            return None, None
        return best_cost, best_mask

    def lex_min_witness(self, opt: int) -> int:
        """Lexicographically smallest unit set achieving cost ``opt``:
        scan units in ascending order and keep each one that still allows
        an optimal completion from strictly larger units."""
        units = 0
        for s in self.sets:
            units |= s
        chosen = 0
        cost = 0
        live = list(self.sets)
        for u in bits_of(units):
            if not live:
                break
            lower = (1 << (u + 1)) - 1  # u and everything below is decided
            rest = [s for s in live if not s >> u & 1]
            sub_cost, _ = self.solve(sets=rest, banned=lower & ~chosen,
                                     limit=opt - cost - self.costs[u])
            if sub_cost is not None and (
                    cost + self.costs[u] + sub_cost == opt):
                chosen |= 1 << u
                cost += self.costs[u]
                live = rest
        if live or cost != opt:
            raise VerificationError(
                f"lex-min witness pass reached cost {cost} with "
                f"{len(live)} set(s) unhit, against the optimum {opt}")
        return chosen


def _solve_cover(set_masks, costs, budget):
    search = _CoverSearch(set_masks, costs, budget)
    opt, _ = search.solve()
    if opt is None:
        raise ValueError("infeasible cover: some set has no available unit")
    witness = search.lex_min_witness(opt) if opt else 0
    return opt, witness, search.nodes


def min_hitting_set(family: CopyFamily, n: int | None = None,
                    node_budget: int = NODE_BUDGET) -> CoverSolution:
    """Smallest vertex set meeting every footprint of the family."""
    if n is not None:
        for f in family.footprints:
            if f and not (0 <= f[0] and f[-1] < n):
                raise ValueError(f"footprint {f} outside 0..{n - 1}")
    masks = family.masks()
    costs = {}
    for m in masks:
        for v in bits_of(m):
            costs[v] = 1
    value, witness_mask, nodes = _solve_cover(masks, costs, node_budget)
    return CoverSolution(value=value, witness=tuple(bits_of(witness_mask)),
                         nodes_explored=nodes)


def vertex_representativity(pattern: Graph, host: Graph,
                            cap: int = FOOTPRINT_CAP,
                            node_budget: int = NODE_BUDGET) -> CoverSolution:
    family = footprints_of(pattern, host, cap=cap)
    return min_hitting_set(family, host.n, node_budget=node_budget)


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
    footprint of the family."""
    orbit_sets = set()
    for f in family.footprints:
        ids = 0
        for v in f:
            ids |= 1 << part.orbit_of[v]
        orbit_sets.add(ids)
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
        from .report import rat
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
    calls that leave defaults out share an entry with calls that pass them."""
    return _extremality_cached(pattern, host, cap, node_budget)


@lru_cache(maxsize=4096)
def _extremality_cached(pattern: Graph, host: Graph, cap: int,
                        node_budget: int) -> ExtremalityReport:
    plain = vertex_representativity(pattern, host, cap, node_budget)
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
