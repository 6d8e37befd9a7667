#!/usr/bin/env python3
"""symcover benchmark: one command, three workloads.

    python3 bench/run.py --workload repr-hosts|check-warm|scan-cold \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  The run builds its inputs from the seed, times
whole passes over them until ``--seconds`` have gone by, checks every
answer (``gate.py``) and prints one JSON object as the last line of
standard output.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics derived from the span
tree and writes that tree to ``bench/out/``.  See ``README.md`` here for
the workloads and the metric definitions.

The process starts no threads.  Per-op deadlines use ``signal.setitimer``
in this process; scans and set-up probes run as child processes, one at
a time, each waited for.  The process pins itself, and so its children,
to one CPU (see ``pin_to_one_cpu``).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("repr-hosts", "check-warm", "scan-cold")
# far above every decided op at the seed commit (slowest about 0.6 s for
# one op and 8 s for one scan), so only a hang reaches them
DEADLINE_S = 5.0
SCAN_DEADLINE_S = 90.0
SETUP_REPEATS = 7
STARTUP_REPEATS = 3
# the calibration time that defines "reference seconds": op, scan and
# set-up times are scaled by CALIB_REF_MS / (the mean time of the kernel
# samples interleaved with them), so a run on a machine slowed by its
# neighbours reads as if at the reference speed.  The mean, not the
# median: the kernel's times on a shared host are bimodal, and the median
# jumps between the modes while the work's time follows their mixture.
CALIB_REF_MS = 3.0
# kernel samples taken before each scan and each set-up probe, and once
# more after the last
CALIB_BATCH = 20


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.  On a shared host
    each CPU drifts in speed on its own; the calibration kernel, timed in
    this process, only tracks the speed of work that runs on the same CPU.
    Unpinned, the kernel's time did not correlate with a child scan's wall
    time (r = 0.2); pinned, it did (r = 0.75)."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"bench: running unpinned: {exc}", file=sys.stderr)


def import_library():
    """Import symcover from this checkout's ``src/`` and refuse any other
    copy, so the benchmark never measures an installed package."""
    package = SRC / "symcover"
    if not (package / "__init__.py").is_file():
        die(f"no library source at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import symcover
    if Path(symcover.__file__).resolve().parent != package.resolve():
        die(f"imported symcover from {symcover.__file__}, not {package}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def calib_kernel() -> int:
    """Fixed pure-Python work of the kind the library's inner loops do
    (integer arithmetic with bit counts, then dict and set updates); its
    time is the machine-speed reference.  An allocation-heavy kernel
    (tuples, frozensets, a sort) had noise of its own on a shared host:
    per pass over a fixed subset of `repr-hosts` ops, its time varied
    twice as much as the ops' and correlated with theirs at r = 0.25,
    against r = 0.6-0.7 for each of these two parts."""
    x, bits = 12345, 0
    for i in range(4000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
        bits += (x & (x >> 7)).bit_count()
    counts: dict = {}
    seen = set()
    for i in range(3000):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + i
        if i % 3:
            seen.add(key)
        else:
            seen.discard(key)
    return bits + len(counts) + len(seen)


def timed_calib() -> float:
    start = time.perf_counter()
    calib_kernel()
    return time.perf_counter() - start


def calib_batch() -> list[float]:
    return [timed_calib() for _ in range(CALIB_BATCH)]


def timed_child(argv: list[str], timeout: float) -> float:
    # reading the pipes to their end returns as the child exits; waiting
    # with a timeout and no pipes would poll in steps of up to 50 ms
    start = time.perf_counter()
    subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=timeout)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median wall time of fresh processes that import the library, build
    the workload's inputs and load the expected answers, then exit; and
    the kernel samples interleaved with them."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    walls, calib = [], []
    for _ in range(SETUP_REPEATS):
        calib += calib_batch()
        walls.append(timed_child(argv, 120))
    calib += calib_batch()
    return statistics.median(walls), calib


def cli_startup_seconds() -> float:
    argv = [sys.executable, "-m", "symcover", "gen", "complete:3", "--json"]
    return statistics.median(timed_child(argv, 60)
                             for _ in range(STARTUP_REPEATS))


class Deadline(Exception):
    """The per-op interval timer fired."""


class Runner:
    """Runs sessions of ops under a per-op deadline, gates each answer
    and keeps the tallies for one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stops: dict[str, int] = {}
        self.latencies: list[float] = []
        self.timed = 0.0
        self.attempted = 0
        self.decided = 0
        self.undecided: list[str] = []
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.calib: list[float] = []
        self.op_names: list[str] = []
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.tracer is not None and self.tracer.originals:
            layer = (self.tracer.innermost() or "bench").split(".")[0]
            self.stops[layer] = self.stops.get(layer, 0) + 1
        raise Deadline()

    def run_session(self, session, traced: bool) -> float:
        """Run every op of the session from empty caches; returns the
        session's timed seconds."""
        from workloads import clear_caches
        tracer = self.tracer if traced else None
        clear_caches()
        total = 0.0
        for op in session:
            if tracer is not None:
                tracer.op = len(self.op_names)
                tracer.install()
                root = tracer.open("op")
            self.op_names.append(op.name)
            answer = None
            outcome = "decided"
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                answer = op.run()
            except Deadline:
                outcome = "deadline"
            except Exception:
                outcome = "error"
                traceback.print_exc(file=sys.stderr)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close(root)
                tracer.uninstall()
            self.attempted += 1
            self.timed += elapsed
            total += elapsed
            if outcome == "decided":
                self.latencies.append(elapsed)
                self._gate(op, answer)
            else:
                self.latencies.append(max(elapsed, DEADLINE_S))
                (self.undecided if outcome == "deadline"
                 else self.errors).append(op.name)
        return total

    def _gate(self, op, answer) -> None:
        import gate
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            op.check(answer)
            self.decided += 1
        except (gate.GateError, Deadline) as exc:
            self.wrong.append(f"{op.name}: {exc!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    @property
    def failed(self) -> int:
        return self.attempted - self.decided


def run_passes(body, seconds: float, traced: bool) -> int:
    """Whole passes until ``seconds`` have gone by.  An untraced run makes
    at least two, so that every op (and every scan, whose single-process
    wall times vary most) is timed at least twice; a traced run, whose
    passes take twice as long, makes at least one."""
    start = time.perf_counter()
    passes = 0
    while (passes < (1 if traced else 2)
           or time.perf_counter() - start < seconds):
        body()
        passes += 1
    return passes


def end_to_end(runner: Runner, setup_s: float, rss_kb: int,
               speed: float) -> dict:
    """End-to-end metrics; op times are raw seconds times ``speed``."""
    lat = runner.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (runner.decided / (runner.timed * speed), "1/s"),
        "op_p50_s": (statistics.median(lat) * speed, "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8] * speed, "s"),
        "decided_frac": (runner.decided / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def sessions_workload(args, inputs) -> tuple[Runner, dict]:
    """Passes over sessions; ``inputs(k)`` gives pass k's sessions."""
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    runner = Runner(tracer)
    base = {"untraced": 0.0, "traced": 0.0}
    sizes = []

    def one_pass():
        sessions = inputs(len(sizes))
        sizes.append(len(sessions))
        for session in sessions:
            runner.calib.append(timed_calib())
            if tracer is None:
                runner.run_session(session, traced=False)
            else:
                base["untraced"] += runner.run_session(session, traced=False)
                base["traced"] += runner.run_session(session, traced=True)

    passes = run_passes(one_pass, args.seconds, bool(args.trace))
    info = {"passes": passes, "sessions": sizes[0]}
    if tracer is not None:
        info["spans"] = tracer.spans
        info["overhead"] = base["traced"] / base["untraced"] - 1
    return runner, info


def scan_child(scan: str, out: Path) -> None:
    """Traced scan in this process: warm ``enum_graphs`` over the scan's
    range, then run the scan function; write spans and the document."""
    import symcover.search
    import workloads
    from spans import Tracer, dump
    tracer = Tracer()
    tracer.install()
    for n, kwargs in workloads.scan_warm_ranges(scan):
        with tracer.span("search.enum") as span:
            span.set_value(len(symcover.search.enum_graphs(n, **kwargs)))
    with tracer.span("search.scan"):
        report = workloads.run_scan(scan)
    tracer.uninstall()
    dump(out, tracer.spans, {"doc": report.to_doc()})


def scan_workload(args, expected) -> tuple[Runner, dict]:
    import gate
    import workloads
    runner = Runner()
    spans: list[list] = []
    base = {"untraced": 0.0, "traced": 0.0}
    order = workloads.scan_order(args.seed)
    walls: dict[str, list[float]] = {scan: [] for scan in order}

    def check(scan, doc) -> None:
        try:
            gate.check_scan(scan, doc, expected["scans"][scan])
        except gate.GateError as exc:
            runner.wrong.append(f"{scan}: {exc}")

    def cli_scan(scan: str) -> float:
        count = expected["scans"][scan]["candidate_count"]
        argv = [sys.executable, "-m", "symcover", "search",
                *workloads.SCANS[scan], "--json"]
        runner.op_names.append(scan)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=SCAN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = time.perf_counter() - start
        runner.attempted += count
        runner.timed += elapsed
        if proc is None or proc.returncode != 0:
            walls[scan].append(max(elapsed, SCAN_DEADLINE_S))
            (runner.undecided if proc is None else runner.errors).append(scan)
            if proc is not None:
                print(proc.stderr, file=sys.stderr)
            return elapsed
        walls[scan].append(elapsed)
        wrong = len(runner.wrong)
        check(scan, json.loads(proc.stdout))
        if len(runner.wrong) == wrong:
            runner.decided += count
        return elapsed

    def traced_scan(scan: str) -> float:
        from spans import merge
        out = OUT / f"scan-child-{os.getpid()}-{scan}.json"
        argv = [sys.executable, str(HERE / "run.py"), "--scan-child", scan,
                "--trace-out", str(out)]
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                       timeout=2 * SCAN_DEADLINE_S)
        elapsed = time.perf_counter() - start
        doc = json.loads(out.read_text())
        out.unlink()
        check(scan, doc["doc"])
        merge(spans, doc["spans"], scan)
        return elapsed

    def one_pass():
        for scan in order:
            runner.calib += calib_batch()
            base["untraced"] += cli_scan(scan)
            if args.trace:
                base["traced"] += traced_scan(scan)

    passes = run_passes(one_pass, args.seconds, bool(args.trace))
    runner.calib += calib_batch()
    # A scan reports no per-candidate times, so every candidate's latency
    # is the run's scan wall time amortised over all the candidates it
    # attempted.  Amortising per scan instead made op_p50_s follow the
    # few seconds of connected-extremal alone, whose single-process wall
    # time varies by 15-20 % on identical work.
    per_candidate = (sum(sum(times) for times in walls.values())
                     / runner.attempted)
    runner.latencies += [per_candidate] * runner.attempted
    info = {"passes": passes, "sessions": len(order), "spans": spans}
    if args.trace:
        info["overhead"] = base["traced"] / base["untraced"] - 1
    return runner, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scan-child", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    import_library()
    if args.scan_child:
        scan_child(args.scan_child, args.trace_out)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import workloads
    expected = workloads.load_expected()
    # Each pass draws its own relabellings and G(n,p) members from the seed
    # and the pass number, so a run of two passes averages over twice as
    # many draws.  With the same draws in every pass, the ten-seed spread
    # of op_p50_s on repr-hosts was 0.12, against 0.02-0.04 for one seed
    # run five times: the seed's draws, not the machine, made most of it.
    build = {"repr-hosts": workloads.repr_hosts,
             "check-warm": workloads.check_warm}.get(args.workload)
    if build is not None:
        first = build(f"{args.seed}.0", expected)
    if args.setup_only:
        return 0

    if args.workload == "scan-cold":
        runner, info = scan_workload(args, expected)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        runner, info = sessions_workload(
            args, lambda k: first if k == 0
            else build(f"{args.seed}.{k}", expected))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_ms = statistics.fmean(runner.calib) * 1e3

    if args.trace:
        from spans import PER_LAYER_UNITS, dump, layer_metrics
        values = layer_metrics(info["spans"], runner.stops)
        values["cli.startup_s"] = cli_startup_seconds()
        values["bench.calib_ms"] = calib_ms
        values["bench.trace_overhead_frac"] = info["overhead"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
             info["spans"], {"ops": runner.op_names})
    else:
        setup_raw, setup_calib = setup_seconds(args.workload, args.seed)
        setup_s = setup_raw * CALIB_REF_MS / (statistics.fmean(setup_calib)
                                              * 1e3)
        speed = CALIB_REF_MS / calib_ms
        raw = end_to_end(runner, setup_raw, rss_kb, 1.0)
        print("bench: raw " + " ".join(f"{name}={value:.6g}" for name,
                                       (value, _) in raw.items())
              + f" speed={speed:.4f}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(
                       runner, setup_s, rss_kb, speed).items()}

    for name in runner.undecided:
        print(f"bench: undecided (deadline): {name}", file=sys.stderr)
    for name in runner.errors:
        print(f"bench: error: {name}", file=sys.stderr)
    for line in runner.wrong:
        print(f"bench: WRONG ANSWER: {line}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} passes={info['passes']} "
          f"sessions/pass={info['sessions']} attempted={runner.attempted} "
          f"timed_s={runner.timed:.3f} calib_ms={calib_ms:.4f}",
          file=sys.stderr)
    correct = not runner.wrong
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
