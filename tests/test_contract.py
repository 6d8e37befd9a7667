"""The public surface's one contract: every call returns or raises a
``SymcoverError``, and a call given an argument of the wrong kind never
returns.

Every callable in ``symcover.__all__`` (and every public method of the
classes there that takes an argument) is called with arguments drawn per
parameter name from ``ROWS``.  A row draws good values and bad ones: a
float, a str or a bool where a vertex or a count goes, a negative vertex
or count, a string that names no rational.  A bad argument must be
refused; any argument may also be refused on its merits (out of range,
past a cap, no copy of the pattern).  A public name whose parameter has
no row fails its test, so a new public name brings its row.

Out of scope: a value that is not a ``Graph`` where a graph goes, not a
``WeightFunction`` where a weight function goes, and ``CopyFamily`` masks
that are not ints; the rows draw none.
Two kinds of public callable read no argument and are not called:
exception types, and result records, the frozen dataclasses that define
no ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import inspect
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import symcover
from symcover import (CopyFamily, Graph, PreconditionError, SymcoverError,
                      WeightFunction, enumerate_footprints, extremality_report,
                      footprints_of, generate, parse_graph6)

# seconds one call may take; the rows keep every call to milliseconds
DEADLINE = 5.0

SPECS = ("path:3", "cycle:5", "complete:4", "tailed-star:3", "cocktail:6",
         "union:path:2+cycle:3")
# K1, the empty graph on 0 vertices, the 3-cube, K3,3 and an 8-vertex
# 4-regular graph
GRAPH6 = ("@", "?", "G`?GoW", "EFz_", "GUzvrw")
GRAPHS = tuple(generate(s) for s in SPECS) + tuple(map(parse_graph6, GRAPH6))


# each row draws (value, bad) pairs
def good(strategy):
    return strategy.map(lambda value: (value, False))


def bad(strategy):
    return strategy.map(lambda value: (value, True))


VERTEX = st.one_of(
    good(st.integers(0, 9)),
    bad(st.sampled_from([-1, -2, 0.0, 1.0, 2.5, "1", "a", True, False])))
COUNT = st.one_of(
    good(st.integers(0, 6)), good(st.sampled_from([40, 1000])),
    bad(st.sampled_from([-1, -3, 0.0, 2.0, 2.5, Fraction(3), "3", "x", True,
                         False])))
RATIONAL = st.one_of(
    good(st.integers(-3, 8)), good(st.fractions(max_denominator=6)),
    good(st.sampled_from([0.5, 2.0, "7/2", "3", " 1/3 "])),
    bad(st.sampled_from(["x", "", "1/0", "1/2/3", float("nan"),
                         float("inf")])))


def joined(pairs):
    """One (list, bad) pair from a list of (value, bad) pairs."""
    return [value for value, _ in pairs], any(bad for _, bad in pairs)


VERTICES = st.lists(VERTEX, max_size=5).map(joined)
COUNTS = st.lists(COUNT, max_size=4).map(joined)


def permutation(n: int):
    """A permutation of 0..n-1, or a list whose members may be repeated,
    out of range or of another type."""
    return st.one_of(good(st.permutations(range(n))),
                     st.lists(VERTEX, min_size=n, max_size=n).map(joined))


PERMUTATION = st.integers(0, 6).flatmap(permutation)
GRAPH = good(st.sampled_from(GRAPHS))


@st.composite
def weight_function(draw):
    g = draw(st.sampled_from(GRAPHS))
    weights = draw(st.dictionaries(st.integers(0, max(g.n - 1, 0)),
                                   st.sampled_from([0, 1, Fraction(1, 2), 2]),
                                   max_size=g.n))
    return WeightFunction(g, weights), False


@st.composite
def mapping(draw):
    # keys unique by equality, so no bad key (True) hides behind a good
    # one (1) in the dict
    pairs = draw(st.lists(st.tuples(VERTEX, RATIONAL), max_size=4,
                          unique_by=lambda pair: pair[0][0]))
    return ({key: value for (key, _), (value, _) in pairs},
            any(key_bad or value_bad
                for (_, key_bad), (_, value_bad) in pairs))


def _families():
    pairs = [(generate("path:2"), generate("cycle:5")),
             (generate("path:3"), generate("complete:4")),
             (generate("complete:3"), generate("union:path:2+cycle:3"))]
    return ([enumerate_footprints(p, h) for p, h in pairs]
            + [CopyFamily(0, ()), CopyFamily(2, (0b11 << 9, 0b101 << 9))])


FAMILY = good(st.sampled_from(_families()))
TEXT = st.one_of(
    good(st.sampled_from(
        [*SPECS, *GRAPH6, "n 3\n0 1\n1 2\n", "0 1\n", ">>graph6<<Bw",
         "complete:100000", "wheel:5", "union:path:2", "cocktail:5", "",
         "~", "0 x", "n -1", "complete:0"])),
    bad(st.sampled_from([5, None, b"@", ["path:3"]])))
JSON = st.recursive(
    st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)

ROWS = {
    **dict.fromkeys(("g", "h", "graph", "pattern", "host"), GRAPH),
    **dict.fromkeys(("v", "w", "u"), VERTEX),
    **dict.fromkeys(("marked", "vertices", "orbit_a", "orbit_b", "source"),
                    VERTICES),
    **dict.fromkeys(("n", "n_max", "d", "k", "regular_k", "cap",
                     "node_budget", "indent", "pattern_order"), COUNT),
    **dict.fromkeys(("x", "max_total"), RATIONAL),
    "k_range": COUNTS,
    "perm": PERMUTATION,
    "edges": st.lists(st.tuples(VERTEX, VERTEX).map(joined),
                      max_size=5).map(joined),
    "mapping": mapping(),
    "fn": weight_function(),
    # an empty family reads the marked set with no graph to bound it
    "functions": st.lists(weight_function(), max_size=2).map(joined),
    "family": FAMILY,
    "masks": good(st.lists(st.integers(-1, 1 << 9), max_size=4).map(tuple)),
    "text": TEXT,
    "doc": good(JSON),
    "connected_only": good(st.booleans()),
}
# the row drawn for ``self``, by class
SELF = {Graph: GRAPH, WeightFunction: weight_function()}


def _reads_nothing(obj) -> bool:
    return isinstance(obj, type) and (
        issubclass(obj, BaseException)
        or dataclasses.is_dataclass(obj)
        and not hasattr(obj, "__post_init__"))


def _callables():
    for name in symcover.__all__:
        obj = getattr(symcover, name)
        if not callable(obj) or _reads_nothing(obj):
            continue
        yield name, obj
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if (not attr.startswith("_") and inspect.isfunction(member)
                        and len(inspect.signature(member).parameters) > 1):
                    yield f"{name}.{attr}", member


CALLABLES = dict(_callables())


class _Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise _Overrun


def _row(fn, param):
    if param.name == "self":
        owner = fn.__qualname__.split(".")[0]
        return SELF.get(getattr(symcover, owner))
    row = ROWS.get(param.name)
    if row is not None and param.default is None:
        return st.one_of(good(st.none()), row)
    return row


@pytest.mark.parametrize("name", sorted(CALLABLES))
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_every_call_returns_or_refuses(name, data):
    fn = CALLABLES[name]
    params = inspect.signature(fn).parameters.values()
    rows = {p.name: _row(fn, p) for p in params}
    unfed = [param for param, row in rows.items() if row is None]
    assert not unfed, f"no row of ROWS feeds {name}({', '.join(unfed)})"
    drawn = {param: data.draw(row, label=param) for param, row in rows.items()}
    args = {param: value for param, (value, _) in drawn.items()}
    must_refuse = [param for param, (_, is_bad) in drawn.items() if is_bad]
    shown = f"{name}({', '.join(f'{k}={v!r}' for k, v in args.items())})"
    old = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE)
    try:
        result = fn(**args)
    except SymcoverError:
        return
    except _Overrun:
        pytest.fail(f"{shown} ran past {DEADLINE} s")
    except Exception as exc:
        pytest.fail(f"{shown} raised {exc!r}, not a SymcoverError")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert not must_refuse, (f"{shown} returned {result!r}; it must "
                             f"refuse {', '.join(must_refuse)}")


def test_a_cached_call_refuses_what_a_fresh_call_refuses():
    # the caches key a count by its type, so an int's entry answers no
    # float: the float reaches the reader and is refused
    p, h = generate("path:3"), generate("cycle:6")
    footprints_of(p, h, 10)
    with pytest.raises(PreconditionError, match="footprint cap"):
        footprints_of(p, h, 10.0)
    extremality_report(p, h, 10, 100)
    with pytest.raises(PreconditionError, match="node budget"):
        extremality_report(p, h, 10, 100.0)


P3, C6, K5 = generate("path:3"), generate("cycle:6"), generate("complete:5")
G2 = Graph(2, [(0, 1)])
# calls that escaped as TypeError or ValueError, or answered, before every
# entry read its arguments through the readers; each is refused in the
# reader's words
PROBES = [
    (lambda: symcover.verify_orbit_expansion(C6, ["a"], [0], [0]),
     "orbit_a contains 'a', not an integer"),
    (lambda: symcover.verify_orbit_expansion(C6, [0.5], [0], [0]),
     "orbit_a contains 0.5, not an integer"),
    (lambda: symcover.verify_orbit_expansion(generate("path:4"), (0, 4),
                                             (1, 2), (0,)),
     "orbit_a contains vertex 4, outside 0..3"),
    (lambda: symcover.build_pair_weight(K5, "a", 1, 3),
     "pair contains 'a', not an integer"),
    (lambda: symcover.build_pair_weight(K5, 0, 1, "3"),
     "tail parameter must be a nonnegative integer, got '3'"),
    (lambda: symcover.build_pair_weight(K5, 0, 1, 3.5),
     "tail parameter must be a nonnegative integer, got 3.5"),
    (lambda: symcover.build_pair_weight(K5, False, True, 3),
     "pair contains False, not an integer"),
    (lambda: symcover.find_dense_counterexample("5", [3]),
     "vertex count must be a nonnegative integer, got '5'"),
    (lambda: symcover.find_dense_counterexample(5.5, [3]),
     "vertex count must be a nonnegative integer, got 5.5"),
    (lambda: symcover.find_dense_counterexample(True, [3]),
     "vertex count must be a nonnegative integer, got True"),
    (lambda: symcover.find_dense_counterexample(5, ["3"]),
     "degree must be a nonnegative integer, got '3'"),
    (lambda: symcover.find_dense_counterexample(6, [True]),
     "degree must be a nonnegative integer, got True"),
    (lambda: symcover.classify_vt_extremal("3", 6),
     "tail parameter must be a nonnegative integer, got '3'"),
    (lambda: symcover.classify_vt_extremal(3, 6.5),
     "vertex count must be a nonnegative integer, got 6.5"),
    (lambda: symcover.scan_connected_extremal("3", 6),
     "tail parameter must be a nonnegative integer, got '3'"),
    (lambda: symcover.scan_connected_extremal(3, 6.5),
     "vertex count must be a nonnegative integer, got 6.5"),
    (lambda: symcover.scan_connected_extremal(3, True),
     "vertex count must be a nonnegative integer, got True"),
    # no host is in range, and the cap is refused all the same
    (lambda: symcover.scan_connected_extremal(3, 4, cap=1.5),
     "footprint cap must be a nonnegative integer, got 1.5"),
    (lambda: symcover.min_hitting_set(enumerate_footprints(P3, C6), n="5"),
     "vertex count must be a nonnegative integer, got '5'"),
    (lambda: symcover.min_hitting_set(enumerate_footprints(P3, C6), n=6.0),
     "vertex count must be a nonnegative integer, got 6.0"),
    (lambda: symcover.min_hitting_set(enumerate_footprints(P3, C6), n=True),
     "vertex count must be a nonnegative integer, got True"),
    (lambda: G2.relabel([1.0, 0.0]),
     "relabeling must be a permutation of 0..n-1; it contains 1.0, "
     "not an integer"),
    (lambda: G2.relabel([True, False]),
     "relabeling must be a permutation of 0..n-1; it contains True, "
     "not an integer"),
    (lambda: WeightFunction(G2, {0: 1}).translate([1.0, 0.0]),
     "relabeling must be a permutation of 0..n-1; it contains 1.0, "
     "not an integer"),
    (lambda: G2.degree(-1), "vertex query contains vertex -1, outside 0..1"),
    (lambda: symcover.rat("x"), "'x' is not an exact rational"),
    (lambda: symcover.parse_graph6(5), "graph6 text must be a str, got 5"),
    (lambda: symcover.parse_edge_list(5), "edge list must be a str, got 5"),
    (lambda: symcover.generate(5), "family spec must be a str, got 5"),
    # no function bounds the marked set, and its members are read all
    # the same
    (lambda: symcover.verify_weighted_system(["a", 0.5], ()),
     "marked vertex must be a nonnegative integer, got 'a'"),
    (lambda: symcover.verify_weighted_system([0.5], []),
     "marked vertex must be a nonnegative integer, got 0.5"),
]


@pytest.mark.parametrize("call, message", PROBES,
                         ids=[message for _, message in PROBES])
def test_probes_are_refused_in_the_readers_words(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert message in str(info.value)
