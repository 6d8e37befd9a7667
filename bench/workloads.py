"""The three workloads: instance lists, sessions of ops, and their gates.

A session is a list of ops.  It starts with every library cache cleared
and runs its ops in order, so later ops see the caches earlier ones filled.
The seed only picks relabellings, G(n,p) pool members and the order of
sessions; the library receives nothing but the resulting graphs.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import symcover
import symcover.checks
import symcover.cli
import symcover.copies
import symcover.covers
import symcover.graphs
import symcover.search
import symcover.symmetry
from symcover import Graph, generate

import gate
from hosts import circulant, hypercube, kneser, paley, relabelled

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# caught before any tracer wraps the module attributes
ORBITS = symcover.symmetry.orbits
_CACHES = [obj.cache_clear
           for module in (symcover.graphs, symcover.copies,
                          symcover.symmetry, symcover.covers)
           for obj in vars(module).values() if hasattr(obj, "cache_clear")]


def clear_caches() -> None:
    """Empty every library cache, as a fresh process would have them."""
    for clear in _CACHES:
        clear()


HOSTS: dict[str, Callable[[], Graph]] = {
    "C(20;1,3)": lambda: circulant(20, (1, 3)),
    "C(20;1,2,6)": lambda: circulant(20, (1, 2, 6)),
    "C(20;1,5,9)": lambda: circulant(20, (1, 5, 9)),
    "C(21;1,2,5)": lambda: circulant(21, (1, 2, 5)),
    "C(21;1,8)": lambda: circulant(21, (1, 8)),
    "C(22;1,4)": lambda: circulant(22, (1, 4)),
    "C(24;1,2,7)": lambda: circulant(24, (1, 2, 7)),
    "C(24;1,5)": lambda: circulant(24, (1, 5)),
    "C(36;1,3,8)": lambda: circulant(36, (1, 3, 8)),
    "C(40;1,7)": lambda: circulant(40, (1, 7)),
    "Q5": lambda: hypercube(5),
    "Kneser(7,2)": lambda: kneser(7, 2),
    "Kneser(8,2)": lambda: kneser(8, 2),
    "Paley(29)": lambda: paley(29),
    "K(3,3)": lambda: Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "Q3": lambda: hypercube(3),
    "Prism": lambda: Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                               (0, 3), (1, 4), (2, 5)]),
    "Petersen": lambda: Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                              + [(i, 5 + i) for i in range(5)]),
    "C(8;2,3,4)": lambda: circulant(8, (2, 3, 4)),
    "K7": lambda: generate("complete:7"),
}

# symmetric hosts as built: the plain cover search dominates
REPR_BUILT = (
    ("path:3", "C(20;1,3)"), ("path:4", "C(20;1,3)"),
    ("cycle:4", "C(20;1,3)"), ("tailed-star:3", "C(20;1,3)"),
    ("path:3", "C(21;1,2,5)"), ("cycle:4", "C(21;1,2,5)"),
    ("path:3", "C(22;1,4)"), ("path:4", "C(22;1,4)"),
    ("path:3", "C(20;1,2,6)"), ("path:4", "C(20;1,2,6)"),
    ("cycle:4", "C(20;1,2,6)"),
    ("path:3", "C(20;1,5,9)"), ("path:4", "C(20;1,5,9)"),
    ("cycle:4", "C(20;1,5,9)"),
    ("path:3", "C(21;1,8)"), ("path:4", "C(21;1,8)"),
    ("tailed-star:3", "C(21;1,8)"),
    ("path:3", "C(24;1,2,7)"), ("cycle:4", "C(24;1,2,7)"),
    ("path:3", "C(24;1,5)"), ("path:4", "C(24;1,5)"),
    ("tailed-star:3", "C(24;1,5)"),
    ("cycle:4", "C(36;1,3,8)"), ("cycle:4", "C(40;1,7)"),
    ("path:3", "Q5"), ("cycle:4", "Q5"),
    ("path:3", "Kneser(7,2)"), ("cycle:4", "Kneser(7,2)"),
    ("complete:3", "Kneser(7,2)"), ("complete:3", "Kneser(8,2)"),
    ("complete:3", "Paley(29)"),
)

# the same kind of hosts under a seeded relabelling: the automorphism
# search dominates; each base is relabelled RELABELLINGS times per pass.
# C(20;1,5,9) is left out: one relabelling in about forty takes 2.5 s or
# more, and one passed the 5 s deadline.
REPR_RELABELLED = (
    ("cycle:4", "C(20;1,3)"), ("cycle:4", "C(21;1,2,5)"),
    ("cycle:4", "C(20;1,2,6)"), ("cycle:4", "C(24;1,2,7)"),
    ("complete:3", "Kneser(7,2)"), ("complete:3", "Kneser(8,2)"),
)
RELABELLINGS = 7

# seeded asymmetric hosts: orbit compression does nothing.  Each class is
# a fixed pool of POOL_SIZE graphs (stored with their answers in
# expected.json); a run draws GNP_DRAWS members of every class.
GNP_CLASSES = (
    ("G(20,0.15)", 20, 0.15, "path:3"),
    ("G(24,0.12)", 24, 0.12, "path:3"),
    ("G(30,0.10)", 30, 0.10, "path:3"),
    ("G(24,0.20)", 24, 0.20, "cycle:4"),
    ("G(24,0.35)", 24, 0.35, "complete:3"),
    ("G(30,0.30)", 30, 0.30, "complete:3"),
    ("G(28,0.10)", 28, 0.10, "tailed-star:3"),
    ("G(56,0.08)", 56, 0.08, "cycle:4"),
    ("G(64,0.10)", 64, 0.10, "complete:3"),
)
POOL_SIZE = 24
GNP_DRAWS = 8

# check-warm sessions on fixed hosts; the last four are extremal, so the
# boundary and density checks do their full work (containment too on the
# connected K7)
CHECK_BUILT = (
    ("path:3", "C(20;1,3)"), ("cycle:4", "C(20;1,3)"),
    ("path:3", "C(21;1,2,5)"), ("path:3", "C(20;1,2,6)"),
    ("cycle:4", "C(20;1,2,6)"), ("path:3", "C(20;1,5,9)"),
    ("path:3", "C(21;1,8)"), ("path:4", "C(24;1,5)"),
    ("cycle:4", "Q5"), ("complete:3", "Kneser(7,2)"),
    ("tailed-star:5", "K7"),
)
# check-warm re-solves each cover four times, so it draws only from the
# classes whose solve times spread least (the first six)
CHECK_GNP_CLASSES = GNP_CLASSES[:6]
CHECK_GNP_DRAWS = 8

# the criterion-7 sweep of the acceptance tests: (host, pair, tail)
WEIGHT_SWEEPS = (
    ("K(3,3)", (0, 3), 3), ("Q3", (0, 1), 3), ("Prism", (0, 3), 3),
    ("Petersen", (0, 1), 3), ("C(8;2,3,4)", (0, 4), 3),
    ("C(8;2,3,4)", (0, 4), 4), ("C(8;2,3,4)", (0, 4), 5),
)

SCANS = {
    "vt-extremal": ("vt-extremal", "--tail", "3", "--max-n", "10"),
    "dense": ("dense", "--max-n", "10", "--degree", "3..5"),
    "connected-extremal": ("connected-extremal", "--tail", "3",
                           "--max-n", "7"),
}


def graph_from_g6(text: str) -> Graph:
    n, edges = gate.decode_graph6(text)
    return Graph(n, edges)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


@dataclass
class Op:
    """One timed call.  ``run`` returns the answer; ``check`` raises
    ``gate.GateError`` if the answer is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class _Prints:
    """The gate's own footprint sets, computed once per (pattern, host)."""

    def __init__(self):
        self.memo: dict = {}

    def __call__(self, pattern: Graph, host: Graph) -> set[frozenset]:
        key = (pattern, host)
        if key not in self.memo:
            self.memo[key] = gate.footprints(pattern, host)
        return self.memo[key]


PRINTS = _Prints()


def _report_op(name, pattern, host, want, exact_witness) -> Op:
    def run():
        return symcover.covers.extremality_report(pattern, host)

    def check(report):
        gate.check_report(report, pattern, host, PRINTS(pattern, host),
                          ORBITS(host).generators, want, exact_witness)

    return Op(name, run, check)


def _gnp_picks(expected: dict, rng: random.Random, classes, draws: int):
    """(pattern spec, host, key) for ``draws`` pool members of each G(n,p)
    class, one from each of ``draws`` equal strata of the pool
    ranked by the search nodes its answer took at capture.  Every run then
    holds cheap and costly members alike, and the seed moves the total
    work far less than a plain random draw would."""
    picks = []
    for cls, _, _, spec in classes:
        pool = expected["pool"][cls]
        ranked = sorted(range(len(pool)), key=lambda i: (
            expected["repr"][f"{spec} {cls}#{i}"]["nodes"], i))
        size = len(pool) // draws
        for k in range(draws):
            i = rng.choice(ranked[k * size:(k + 1) * size])
            picks.append((spec, graph_from_g6(pool[i]),
                          f"{spec} {cls}#{i}"))
    return picks


def repr_hosts(seed: int | str, expected: dict) -> list[list[Op]]:
    """One-op sessions: a cold ``extremality_report`` each."""
    rng = random.Random(seed)
    answers = expected["repr"]
    sessions = []
    for spec, name in REPR_BUILT:
        key = f"{spec} {name}"
        sessions.append([_report_op(key, generate(spec), HOSTS[name](),
                                    answers[key], True)])
    for spec, name in REPR_RELABELLED:
        base = HOSTS[name]()
        key = f"{spec} {name}"
        for j in range(RELABELLINGS):
            sessions.append([_report_op(
                f"{key} relabelled#{j}", generate(spec),
                relabelled(base, rng), answers[key], False)])
    for spec, host, key in _gnp_picks(expected, rng, GNP_CLASSES,
                                      GNP_DRAWS):
        sessions.append([_report_op(key, generate(spec), host, answers[key],
                                    True)])
    rng.shuffle(sessions)
    return sessions


def _check_session(key, pattern, host, want, checks) -> list[Op]:
    witness = tuple(want["witness"])

    def orbit_sum():
        return symcover.checks.verify_orbit_sum_bound(pattern, host, witness)

    def check_orbit_sum(rep):
        prints = PRINTS(pattern, host)
        sums = gate.orbit_sums(host, ORBITS(host).generators, prints,
                               witness)
        gate.require(rep.holds and len(rep.per_footprint) == len(prints),
                     "orbit sum bound fails or skips footprints")
        gate.require(rep.minimum == min(sums)
                     == Fraction(checks["orbit_sum_min"]),
                     f"orbit sum minimum {rep.minimum}, recomputed "
                     f"{min(sums)}, expected {checks['orbit_sum_min']}")

    def boundary():
        return symcover.checks.check_extremal_boundary(pattern, host)

    def check_boundary(rep):
        gate.require(rep.applicable == checks["extremal"]
                     and (rep.all_hold or not rep.applicable),
                     "boundary conditions differ from the expected ones")
        gate.require(rep.plain.value == want["plain"]
                     and rep.invariant.value == want["invariant"],
                     "boundary check re-solved to different costs")

    def density():
        return symcover.checks.check_orbit_density(pattern, host)

    def check_density(rep):
        gate.require(rep.applicable == checks["extremal"]
                     and (rep.holds or not rep.applicable),
                     "orbit density differs from the expected verdict")
        gate.require(rep.marked == witness,
                     "orbit density used another minimal set")

    def containment():
        return symcover.checks.check_orbit_pattern_containment(pattern, host)

    def check_containment(rep):
        gate.require(rep.applicable == checks["containment_applicable"]
                     and rep.holds == checks["containment_holds"],
                     "orbit containment differs from the expected verdict")

    return [
        _report_op(f"{key} report", pattern, host, want, True),
        Op(f"{key} orbit-sum", orbit_sum, check_orbit_sum),
        Op(f"{key} boundary", boundary, check_boundary),
        Op(f"{key} density", density, check_density),
        Op(f"{key} containment", containment, check_containment),
    ]


def weights_key(name, pair, tail) -> str:
    return f"weights {name} {pair[0]},{pair[1]} tail {tail}"


def _weights_session(name, pair, tail, want) -> list[Op]:
    g6 = symcover.emit_graph6(HOSTS[name]())
    argv = ["check", "weights", "--host", f"g6:{g6}", "--pair",
            f"{pair[0]},{pair[1]}", "--tail", str(tail), "--json"]
    key = weights_key(name, pair, tail)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = symcover.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        doc = json.loads(text)
        gate.require(code == 0 and doc["verification"]["holds"],
                     f"{key}: weight system fails")
        gate.require(doc["family_size"] == want["family_size"]
                     and doc["marked"] == want["marked"],
                     f"{key}: family or marked set differs")

    return [Op(key, run, check)]


def check_warm(seed: int | str, expected: dict) -> list[list[Op]]:
    """Sessions of a report and four checks, and the weight sweeps."""
    rng = random.Random(seed)
    sessions = []
    for spec, name in CHECK_BUILT:
        key = f"{spec} {name}"
        sessions.append(_check_session(
            key, generate(spec), HOSTS[name](), expected["repr"][key],
            expected["checks"][key]))
    for spec, host, key in _gnp_picks(expected, rng, CHECK_GNP_CLASSES,
                                      CHECK_GNP_DRAWS):
        sessions.append(_check_session(
            key, generate(spec), host, expected["repr"][key],
            expected["checks"][key]))
    for name, pair, tail in WEIGHT_SWEEPS:
        sessions.append(_weights_session(
            name, pair, tail, expected["weights"][weights_key(name, pair,
                                                              tail)]))
    rng.shuffle(sessions)
    return sessions


def scan_order(seed: int) -> list[str]:
    order = list(SCANS)
    random.Random(seed).shuffle(order)
    return order


def scan_warm_ranges(scan: str):
    """(n, enum_graphs keyword arguments) for every class a scan reads."""
    if scan == "vt-extremal":
        return [(n, {"regular_k": k}) for n in range(5, 11)
                for k in range(1, n) if n * k % 2 == 0]
    if scan == "dense":
        return [(n, {"regular_k": k}) for k in (3, 4, 5)
                for n in range(k + 1, 11) if n * k % 2 == 0]
    return [(n, {"connected_only": True}) for n in range(5, 8)]


def run_scan(scan: str):
    """The scan function behind ``symcover search <scan>``."""
    if scan == "vt-extremal":
        return symcover.search.classify_vt_extremal(3, 10)
    if scan == "dense":
        return symcover.search.find_dense_counterexample(10, [3, 4, 5])
    return symcover.search.scan_connected_extremal(3, 7)
