#!/usr/bin/env python3
"""Regenerate ``expected.json``: the answers the gate compares against.

    python3 bench/capture.py

Run it from the root of a checkout of the commit whose answers are the
reference (the answers must stay identical across performance changes,
so this is rerun only when the instance lists change).  It builds the
G(n,p) pools, solves every fixed instance, runs the checks and the
criterion-7 weight sweep, and runs the three CLI scans.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import symcover  # noqa: E402
import symcover.cli  # noqa: E402
from symcover import (check_orbit_pattern_containment, emit_graph6,  # noqa
                      extremality_report, generate, verify_orbit_sum_bound)
from symcover.report import rat  # noqa: E402

import workloads  # noqa: E402
from hosts import gnp  # noqa: E402


def report_doc(pattern, host) -> dict:
    report = extremality_report(pattern, host)
    return {"plain": report.plain.value,
            "invariant": report.invariant.value,
            "witness": list(report.plain.witness),
            "invariant_witness": list(report.invariant.witness),
            "nodes": (report.plain.nodes_explored
                      + report.invariant.nodes_explored),
            "footprints": len(symcover.footprints_of(pattern, host))}


def checks_doc(pattern, host, want) -> dict:
    sums = verify_orbit_sum_bound(pattern, host, want["witness"])
    contained = check_orbit_pattern_containment(pattern, host)
    return {"orbit_sum_min": rat(sums.minimum),
            "extremal": want["invariant"] == pattern.n * want["plain"],
            "containment_applicable": contained.applicable,
            "containment_holds": contained.holds}


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"commit": commit, "pool": {}, "repr": {}, "checks": {},
           "weights": {}, "scans": {}}
    pool_keys = []
    for cls, n, p, spec in workloads.GNP_CLASSES:
        doc["pool"][cls] = [
            emit_graph6(gnp(random.Random(f"{cls}#{i}"), n, p))
            for i in range(workloads.POOL_SIZE)]
        pool_keys += [(spec, f"{cls}#{i}", workloads.graph_from_g6(g6))
                      for i, g6 in enumerate(doc["pool"][cls])]
    fixed = {(spec, name) for spec, name in (workloads.REPR_BUILT
                                             + workloads.REPR_RELABELLED
                                             + workloads.CHECK_BUILT)}
    instances = [(spec, name, workloads.HOSTS[name]())
                 for spec, name in sorted(fixed)] + pool_keys
    checked = {f"{spec} {name}" for spec, name in workloads.CHECK_BUILT}
    for spec, name, host in instances:
        key = f"{spec} {name}"
        pattern = generate(spec)
        doc["repr"][key] = report_doc(pattern, host)
        if key in checked or "#" in name:
            doc["checks"][key] = checks_doc(pattern, host, doc["repr"][key])
        print(key, doc["repr"][key]["plain"], doc["repr"][key]["invariant"],
              file=sys.stderr)
    for name, pair, tail in workloads.WEIGHT_SWEEPS:
        argv = ["check", "weights", "--host",
                f"g6:{emit_graph6(workloads.HOSTS[name]())}",
                "--pair", f"{pair[0]},{pair[1]}", "--tail", str(tail),
                "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = symcover.cli.main(argv)
        result = json.loads(out.getvalue())
        if code != 0:
            raise SystemExit(f"weights sweep {name} failed")
        doc["weights"][workloads.weights_key(name, pair, tail)] = {
            "family_size": result["family_size"],
            "marked": result["marked"]}
    for scan, args in workloads.SCANS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "symcover", "search", *args, "--json"],
            cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout)
        doc["scans"][scan] = {key: result[key] for key in
                              ("candidate_count", "records",
                               "classification")}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
