"""Command line surface.

Every subcommand maps to one library operation and emits a structured
document (``--json``) or its human rendering.  Exit codes: 0 when the
computation or verification succeeds, 1 when a checked property fails or a
scan finds a counterexample, 2 on usage, parse, precondition, or resource
errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .checks import (build_pair_weight, check_extremal_boundary,
                     check_orbit_density, check_orbit_pattern_containment,
                     neighborhood_profile, verify_orbit_expansion,
                     verify_orbit_sum_bound, verify_weighted_system,
                     weight_orbit, weighted_symmetrize)
from .copies import FOOTPRINT_CAP, footprints_of
from .covers import NODE_BUDGET, extremality_report, vertex_representativity
from .errors import (GraphParseError, PreconditionError,
                     ResourceLimitError, SymcoverError)
from .graphs import (_UNARY_KINDS, Graph, emit_graph6, generate,
                     is_connected, parse_edge_list, parse_graph6)
from .report import rat, render_human
from .search import (classify_vt_extremal, find_dense_counterexample,
                     scan_connected_extremal)
from .symmetry import is_vertex_transitive, orbits

__all__ = ["main"]

def _load_graph(arg: str) -> Graph:
    """Resolve a graph argument: ``g6:<string>`` literal, family spec, or
    a file holding one graph6 line or an edge list."""
    if arg.startswith("g6:"):
        return parse_graph6(arg[3:])
    if arg.split(":", 1)[0] in (*_UNARY_KINDS, "union"):
        return generate(arg)
    path = Path(arg)
    if not path.is_file():
        raise GraphParseError(
            f"cannot interpret {arg!r}: not a g6: literal, a family spec, "
            f"or a readable file")
    text = path.read_text(encoding="utf-8")
    content = [line.strip() for line in text.splitlines()]
    content = [line for line in content if line and not line.startswith("#")]
    if len(content) == 1:
        try:
            return parse_graph6(content[0])
        except GraphParseError:
            pass
    return parse_edge_list(text)


def _parse_vertices(text: str) -> tuple[int, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(int(token))
        except ValueError:
            raise PreconditionError(
                f"vertex list entry {token!r} is not an integer") from None
    return tuple(out)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(
            f"{text!r} is not an exact rational (use p or p/q)") from None


def _parse_degree_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise PreconditionError(
                f"degree range {text!r} must be lo..hi") from None
        return list(range(lo, hi + 1))
    return list(_parse_vertices(text))


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(
            f"environment variable {name} must be an integer, "
            f"got {raw!r}") from None


# -- subcommand handlers; each returns (doc, exit_code, record_lines) ----------

def _cmd_gen(args):
    g = generate(args.spec)
    doc = {
        "spec": args.spec,
        "graph6": emit_graph6(g),
        "n": g.n,
        "edges": g.edge_count,
    }
    return doc, 0, None


def _cmd_info(args):
    g = _load_graph(args.graph)
    part = orbits(g)
    doc = {
        "graph6": emit_graph6(g),
        "n": g.n,
        "edges": g.edge_count,
        "degree_sequence": list(g.degree_sequence()),
        "connected": is_connected(g),
        "automorphism_order": part.group_order,
        "orbit_count": part.count,
        "orbits": [list(o) for o in part.orbits],
        "vertex_transitive": is_vertex_transitive(g),
    }
    return doc, 0, None


def _cmd_repr(args):
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    report = extremality_report(pattern, host, args.footprint_cap,
                                args.node_budget)
    return report.to_doc(), 0, None


def _cmd_check_orbit_sum(args):
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    if args.set is None:
        marked = vertex_representativity(
            pattern, host, args.footprint_cap, args.node_budget).witness
    else:
        marked = _parse_vertices(args.set)
    report = verify_orbit_sum_bound(pattern, host, marked,
                                    cap=args.footprint_cap)
    return report.to_doc(), 0 if report.holds else 1, None


def _cmd_check_boundary(args):
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    report = check_extremal_boundary(pattern, host, args.footprint_cap,
                                     args.node_budget)
    ok = (not report.applicable) or report.all_hold
    return report.to_doc(), 0 if ok else 1, None


def _cmd_check_density(args):
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    marked = None if args.set is None else _parse_vertices(args.set)
    report = check_orbit_density(pattern, host, marked, args.footprint_cap,
                                 args.node_budget)
    ok = (not report.applicable) or report.holds
    return report.to_doc(), 0 if ok else 1, None


def _cmd_check_containment(args):
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    report = check_orbit_pattern_containment(pattern, host,
                                             args.footprint_cap,
                                             args.node_budget)
    ok = (not report.applicable) or report.holds
    return report.to_doc(), 0 if ok else 1, None


def _cmd_check_neighborhood(args):
    g = _load_graph(args.graph)
    report = neighborhood_profile(g)
    return report.to_doc(), 1 if report.hypothesis_met else 0, None


def _cmd_check_expansion(args):
    host = _load_graph(args.host)
    report = verify_orbit_expansion(host,
                                    _parse_vertices(args.orbit_a),
                                    _parse_vertices(args.orbit_b),
                                    _parse_vertices(args.source))
    return report.to_doc(), 0 if report.holds else 1, None


def _cmd_check_weights(args):
    host = _load_graph(args.host)
    pair = _parse_vertices(args.pair)
    if len(pair) != 2:
        raise PreconditionError("--pair takes exactly two vertices v,w")
    fn = build_pair_weight(host, pair[0], pair[1], args.tail)
    family = weight_orbit(host, fn)
    if args.set is None:
        pattern = generate(f"tailed-star:{args.tail}")
        marked = vertex_representativity(
            pattern, host, args.footprint_cap, args.node_budget).witness
    else:
        marked = _parse_vertices(args.set)
    report = verify_weighted_system(marked, family)
    doc = {
        "pair": list(pair),
        "tail": args.tail,
        "function": fn.to_doc(),
        "family_size": len(family),
        "marked": list(marked),
        "verification": report.to_doc(),
    }
    return doc, 0 if report.holds else 1, None


def _cmd_symmetrize(args):
    host = _load_graph(args.host)
    marked = _parse_vertices(args.set)
    bound = _parse_fraction(args.max_weight)
    result = weighted_symmetrize(host, marked, bound)
    doc = {
        "marked": sorted(set(marked)),
        "max_weight": rat(bound),
        "invariant_set": list(result),
        "size": len(result),
        "size_bound": rat(len(set(marked)) * bound),
    }
    return doc, 0, None


def _cmd_search_dense(args):
    report = find_dense_counterexample(args.max_n,
                                       _parse_degree_range(args.degree))
    code = 1 if report.counterexamples else 0
    return report.to_doc(), code, report.lines()


def _cmd_search_vt(args):
    report = classify_vt_extremal(args.tail, args.max_n, args.footprint_cap,
                                  args.node_budget)
    return report.to_doc(), 0, report.lines()


def _cmd_search_connected(args):
    report = scan_connected_extremal(args.tail, args.max_n,
                                     args.footprint_cap, args.node_budget)
    code = 1 if report.counterexamples else 0
    return report.to_doc(), code, report.lines()


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the structured document as JSON")
    # for the subcommands that enumerate footprints or search covers
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--node-budget", type=int, default=None,
                         help="cover search node budget "
                              "(default from SYMCOVER_NODE_BUDGET)")
    bounded.add_argument("--footprint-cap", type=int, default=None,
                         help="footprint enumeration cap "
                              "(default from SYMCOVER_FOOTPRINT_CAP)")

    parser = argparse.ArgumentParser(
        prog="symcover",
        description="Exact covers of subgraph-copy footprints and the "
                    "price of automorphism invariance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="build a parametric family member")
    p.add_argument("spec", help="family spec, e.g. complete:5 or "
                                "union:cycle:4+path:2")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", parents=[common],
                       help="order, orbits, automorphism count, transitivity")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("repr", parents=[bounded],
                       help="plain and invariant cover costs with witnesses")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.set_defaults(func=_cmd_repr)

    check = sub.add_parser("check", help="run one verifier")
    claims = check.add_subparsers(dest="claim", required=True)

    p = claims.add_parser("thm1.1", parents=[bounded],
                          help="orbit-weighted sums over footprints are >= 1")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--set", default=None,
                   help="hitting set as v,v,... (default: a computed "
                        "minimum)")
    p.set_defaults(func=_cmd_check_orbit_sum)

    p = claims.add_parser("cor1.2", parents=[bounded],
                          help="structural conditions at the extremal "
                               "boundary")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.set_defaults(func=_cmd_check_boundary)

    p = claims.add_parser("utv2.1", parents=[bounded],
                          help="orbit densities of a minimal set at the "
                               "extremal boundary")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--set", default=None)
    p.set_defaults(func=_cmd_check_density)

    p = claims.add_parser("thm2.2", parents=[bounded],
                          help="each orbit's induced subgraph contains the "
                               "pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.set_defaults(func=_cmd_check_containment)

    p = claims.add_parser("neighborhood", parents=[common],
                          help="neighborhood deficiencies and anti-degrees")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_check_neighborhood)

    p = claims.add_parser("expansion", parents=[common],
                          help="neighbor expansion between two orbits")
    p.add_argument("--host", required=True)
    p.add_argument("--orbit-a", required=True)
    p.add_argument("--orbit-b", required=True)
    p.add_argument("--source", required=True)
    p.set_defaults(func=_cmd_check_expansion)

    p = claims.add_parser("weights", parents=[bounded],
                          help="pair weight layout and its invariant system")
    p.add_argument("--host", required=True)
    p.add_argument("--pair", required=True, help="adjacent pair v,w")
    p.add_argument("--tail", type=int, required=True)
    p.add_argument("--set", default=None,
                   help="marked set to verify (default: a computed minimum "
                        "for the matching tailed star)")
    p.set_defaults(func=_cmd_check_weights)

    p = sub.add_parser("symmetrize", parents=[common],
                       help="invariant replacement for a marked vertex set")
    p.add_argument("--host", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--max-weight", required=True,
                   help="exact rational bound, e.g. 5 or 7/2")
    p.set_defaults(func=_cmd_symmetrize)

    search = sub.add_parser("search", help="run one exhaustive scan")
    scans = search.add_subparsers(dest="scan", required=True)

    p = scans.add_parser("dense", parents=[common],
                         help="hunt for a dense-neighborhoods profile")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--degree", default="3..5", help="k list or lo..hi")
    p.set_defaults(func=_cmd_search_dense)

    p = scans.add_parser("vt-extremal", parents=[bounded],
                         help="classify vertex-transitive extremal hosts")
    p.add_argument("--tail", type=int, default=3)
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=_cmd_search_vt)

    p = scans.add_parser("connected-extremal", parents=[bounded],
                         help="scan connected hosts for wide extremal pairs")
    p.add_argument("--tail", type=int, default=3)
    p.add_argument("--max-n", type=int, default=7)
    p.set_defaults(func=_cmd_search_connected)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # None only on a subcommand that takes the flag and was not given it
        if getattr(args, "node_budget", 0) is None:
            args.node_budget = _env_int("SYMCOVER_NODE_BUDGET", NODE_BUDGET)
        if getattr(args, "footprint_cap", 0) is None:
            args.footprint_cap = _env_int("SYMCOVER_FOOTPRINT_CAP",
                                          FOOTPRINT_CAP)
        doc, code, record_lines = args.func(args)
    except SymcoverError as exc:
        message = str(exc)
        if (isinstance(exc, ResourceLimitError)
                and exc.best_lower is not None and exc.best_upper is not None):
            message += f"; optimum in [{exc.best_lower}, {exc.best_upper}]"
        print(f"error: {message}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2))
    else:
        if record_lines:
            for line in record_lines:
                print(line)
            doc = {key: value for key, value in doc.items()
                   if key != "records"}
        print(render_human(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
