"""Closed-loop benchmark of the matident CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  One client calls `matident.cli.main(argv)` in-process with stdout
captured and sends the next request only after the previous one finished.
Every reply is checked (value against an independent reference, pinned op
counts against their closed forms, verify verdicts, and byte-identical
stdout for repeats of one request); a failed check, a non-zero exit or an
exception counts the request as failed.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
spends half of the time untraced and half traced (spans at each module
boundary, see tracing.py) and reports the per-layer metrics, plus ring and
enumeration micro-measurements.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the Python version, CPU counts, seed and run length.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".perfbench"
WORKERS_ENV_VAR = "MATIDENT_WORKERS"
# One set-up measurement after every this many requests, so that set-up is
# sampled across the whole run rather than in one burst at its start.
SETUP_EVERY = 4

# On a shared virtual machine the host both steals time (a runnable virtual
# CPU is not running) and slows the CPUs through contention on shared cores;
# within minutes either can stretch wall times by half.  So end-to-end times
# are reported as steal-free service times at a reference speed:
#   - work in this one process (compute requests, set-up interpreters) is
#     charged its CPU time, which is its wall time without the stolen part;
#   - a request served by the worker pool is charged its wall time times the
#     share of the probes' wall time that was not stolen;
#   - both are divided by the slowness of the hardware: the probes' mean CPU
#     time over PROBE_REFERENCE_S.
# Raw wall-clock figures are printed before the result.
PROBE_REFERENCE_S = 0.004

# Set-up as a user pays it: a fresh interpreter imports the CLI and parses
# the workload's documents once.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import matident.cli
from matident.document import parse_document
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        parse_document(handle.read())
"""


@dataclass
class Outcome:
    key: str
    pooled: bool
    seconds: float
    cpu_seconds: float
    gc_collections: int
    stdout: str


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _cpu_seconds() -> float:
    """CPU time of this process plus that of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Client:
    """The one closed-loop client: sends a request, waits, checks the reply."""

    def __init__(self, main) -> None:
        self._main = main
        self._first_stdout: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def send(self, request, workers: int, tracer=None) -> Outcome:
        os.environ[WORKERS_ENV_VAR] = str(workers)
        argv = list(request.argv)
        out, err = io.StringIO(), io.StringIO()
        gc_before, cpu_before = _gc_collections(), _cpu_seconds()
        started = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = self._main(argv)
                else:
                    code = tracer.span("cli.main", self._main, argv)
        except Exception as exc:  # a crash is a failed request, not a failed run
            code, failure = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - started
        cpu = _cpu_seconds() - cpu_before
        collections = _gc_collections() - gc_before
        stdout = out.getvalue()
        self.attempted += 1
        if code is not None:
            failure = None if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
        if failure is None:
            failure = request.check(stdout)
        if failure is None and self._first_stdout.setdefault(request.key, stdout) != stdout:
            failure = "stdout differs from an earlier run of the same request"
        if failure is not None:
            self.failures.append((request.key, failure))
        return Outcome(request.key, workers > 1, elapsed, cpu, collections, stdout)


def _probe_task() -> tuple[float, float]:
    wall, cpu = perf_counter(), process_time()
    total = Fraction(0)
    table = {}
    for i in range(1, 500):
        total += Fraction(i, 7) * Fraction(3, i + 2)
        table[(i, i % 7)] = tuple(range(i % 9))
    return perf_counter() - wall, process_time() - cpu


def speed_probe() -> list[tuple[float, float]]:
    """(wall, CPU) seconds of a fixed pure-Python task on each allowed CPU.

    The host loads its CPUs unevenly and pool workers use all of them, so
    every CPU is sampled.
    """
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples.append(_probe_task())
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def run_cycles(cycle, budget: float, send, between=None):
    """Send at least two whole cycles, then stop at the cycle end nearest to
    `budget` seconds; two cycles let every request be checked against a repeat.

    Speed probes run before each request and `between`, if given, after
    every SETUP_EVERY requests.  Returns the outcomes, the wall seconds spent
    on requests alone, and the probe samples.
    """
    outcomes: list[Outcome] = []
    probes: list[tuple[float, float]] = []
    busy = 0.0
    started = perf_counter()
    while True:
        cycle_started = perf_counter()
        for request in cycle:
            probes.extend(speed_probe())
            sent = perf_counter()
            outcomes.append(send(request))
            busy += perf_counter() - sent
            if between is not None and len(outcomes) % SETUP_EVERY == 0:
                between()
        now = perf_counter()
        if len(outcomes) > len(cycle) and now - started + (now - cycle_started) / 2 >= budget:
            return outcomes, busy, probes


class Pace:
    """How the machine ran during a run, from its speed probes."""

    def __init__(self, probes: list[tuple[float, float]]) -> None:
        wall = sum(sample[0] for sample in probes)
        cpu = sum(sample[1] for sample in probes)
        self.unstolen = min(1.0, cpu / wall)
        self.slowness = cpu / len(probes) / PROBE_REFERENCE_S

    def service(self, outcome: Outcome) -> float:
        """Steal-free seconds of one request at the reference speed."""
        if outcome.pooled:
            return outcome.seconds * self.unstolen / self.slowness
        return outcome.cpu_seconds / self.slowness


class SetUp:
    """Fresh interpreters that import the CLI and parse the documents once."""

    def __init__(self, cycle) -> None:
        documents = sorted({path for request in cycle for path in request.documents})
        self.command = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *documents]
        self.wall: list[float] = []
        self.cpu: list[float] = []
        # Unmeasured, so bytecode caches exist as they would for a user.
        self._spawn()

    def _spawn(self) -> None:
        subprocess.run(self.command, check=True, stdin=subprocess.DEVNULL)

    def __call__(self) -> None:
        cpu, wall = _cpu_seconds(), perf_counter()
        self._spawn()
        self.wall.append(perf_counter() - wall)
        self.cpu.append(_cpu_seconds() - cpu)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _quantiles(outcomes: list[Outcome], seconds_of) -> tuple[float, float]:
    """Nearest-rank p50 and p90 in ms over the distinct requests, each at the
    median of its repeats.

    Every request of a cycle repeats once per cycle with the same input, so
    the spread between its repeats is the machine's, not the program's; the
    nearest rank keeps each quantile on one request instead of blending two.
    """
    by_key: dict[str, list[float]] = {}
    for outcome in outcomes:
        by_key.setdefault(outcome.key, []).append(seconds_of(outcome) * 1e3)
    medians = sorted(statistics.median(values) for values in by_key.values())
    return tuple(medians[math.ceil(q * len(medians)) - 1] for q in (0.5, 0.9))


def end_to_end(cycle, seconds: int, client: Client) -> dict:
    setup = SetUp(cycle)
    outcomes, busy, probes = run_cycles(
        cycle, seconds, lambda r: client.send(r, r.workers), between=setup
    )
    if not setup.cpu:
        setup()
    pace = Pace(probes)
    _print_kinds(outcomes, pace)
    wall_p50, wall_p90 = _quantiles(outcomes, lambda o: o.seconds)
    raw = {
        "setup_s": statistics.median(setup.wall),
        "throughput_rps": len(outcomes) / busy,
        "latency_p50_ms": wall_p50,
        "latency_p90_ms": wall_p90,
        "unstolen": pace.unstolen,
        "slowness": pace.slowness,
    }
    print("raw wall clock: " + json.dumps(raw))
    p50, p90 = _quantiles(outcomes, pace.service)
    return {
        "setup_s": (statistics.median(setup.cpu) / pace.slowness, "s"),
        "throughput_rps": (len(outcomes) / sum(map(pace.service, outcomes)), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(cycle, seconds: int, client: Client, seed: int) -> tuple[dict, object]:
    import micro
    import tracing
    import workloads

    plain, _, _ = run_cycles(cycle, seconds / 2, lambda r: client.send(r, r.workers))
    tracer = tracing.Tracer()
    request_ids = itertools.count()
    single: list[Outcome] = []

    def send_traced(request):
        if request.workers > 1:
            # The pool cannot carry the wrappers, so traced verify runs use
            # one worker; an untraced one-worker run gives the pool speed-up.
            single.append(client.send(request, 1))
        tracer.request = next(request_ids)
        with tracing.installed(tracer):
            return client.send(request, 1, tracer)

    traced, _, _ = run_cycles(cycle, seconds / 2, send_traced)
    size = len(cycle)
    every = tracing.layer_totals(tracer.spans)
    # Exact counts come from the first traced cycle, the same in every run.
    first = tracing.layer_totals(tracer.spans, set(range(size)))
    workers = max(request.workers for request in cycle)
    pooled = workers > 1

    def per_request_ms(key: str, field: str = "self") -> float:
        return every[key][field] * 1e3 / len(traced)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def mean_busy(key: str) -> float:
        return ratio(every[key]["busy"], every[key]["calls"])

    streams = [entry for name, entry in every.items() if name.startswith("combinatorics.enumerate")]
    trials = [span[tracing.BUSY] for span in tracer.spans if span[tracing.NAME] == "verify.trial"]
    if pooled:
        ring_ops = first["rings"]["calls"] / size
    else:
        ring_ops = sum(workloads.ring_ops(outcome.stdout) for outcome in plain[:size]) / size
    speedup = ratio(_mean(o.seconds for o in single), _mean(o.seconds for o in plain))
    baseline = single if pooled else plain
    metrics = {
        "cli.overhead_ms": (per_request_ms("cli"), "ms"),
        "document.parse_ms": (per_request_ms("document"), "ms"),
        "bench.evaluations_per_request": (
            (first["bench.run"]["calls"] + first["bench.run_counted"]["calls"]) / size,
            "count",
        ),
        "bench.evaluate_ms": (per_request_ms("bench.evaluate_method", "busy"), "ms"),
        "bench.count_ops_ms": (per_request_ms("bench.count_ops", "busy"), "ms"),
        "bench.counting_overhead": (
            ratio(mean_busy("bench.run_counted"), mean_busy("bench.run")),
            "ratio",
        ),
        "identities.self_ms": (per_request_ms("identities"), "ms"),
        "combinatorics.items": (first["combinatorics"]["items"] / size, "count"),
        "combinatorics.busy_ms": (per_request_ms("combinatorics"), "ms"),
        "combinatorics.ns_per_item": (
            ratio(sum(e["busy"] for e in streams), sum(e["items"] for e in streams)) * 1e9,
            "ns",
        ),
        "rings.ops": (ring_ops, "count"),
        "rings.busy_ms": (per_request_ms("rings"), "ms"),
        "rings.ns_per_op": (mean_busy("rings") * 1e9, "ns"),
        "polarization.f_evals": (first["polarization.f_eval"]["calls"] / size, "count"),
        "polarization.busy_ms": (per_request_ms("polarization"), "ms"),
        "sampling.busy_ms": (per_request_ms("sampling"), "ms"),
        "verify.trials": (first["verify.trial"]["calls"] / size, "count"),
        "verify.trial_busy_ms": (per_request_ms("verify.trial", "busy"), "ms"),
        "verify.max_trial_ms": (max(trials, default=0.0) * 1e3, "ms"),
        "verify.pool_wall_ms": (
            statistics.median(o.seconds for o in plain) * 1e3 if pooled else 0.0,
            "ms",
        ),
        "verify.pool_speedup": (speedup, "ratio"),
        "verify.pool_efficiency": (speedup / workers if pooled else 0.0, "ratio"),
        "runtime.gc_collections": (_mean(o.gc_collections for o in plain), "count"),
        "runtime.cpu_s": (_mean(o.cpu_seconds for o in plain), "s"),
        # Both sides run in this one process, so CPU time leaves out steal.
        "trace.overhead_frac": (
            ratio(_mean(o.cpu_seconds for o in traced), _mean(o.cpu_seconds for o in baseline))
            - 1,
            "ratio",
        ),
    }
    for name, value in micro.ring_timings(seed).items():
        metrics[name] = (value, "ns")
    for name, value in micro.drains().items():
        metrics[name] = (value, "ms")
    return metrics, tracer


def _print_kinds(outcomes: list[Outcome], pace: Pace) -> None:
    """One human-readable line per request: its median wall and service time."""
    by_key: dict[str, list[Outcome]] = {}
    for outcome in outcomes:
        by_key.setdefault(outcome.key, []).append(outcome)
    for key, group in by_key.items():
        wall = statistics.median(o.seconds for o in group) * 1e3
        service = statistics.median(map(pace.service, group)) * 1e3
        print(f"{key}: {len(group)} runs, wall median {wall:.1f} ms, service {service:.1f} ms")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "matident" / "__init__.py").is_file():
        print(f"error: no matident sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matident
    import matident.cli

    if SRC.resolve() not in Path(matident.__file__).resolve().parents:
        print(f"error: imported matident from {matident.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workdir = OUTPUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cycle = workloads.build_cycle(args.workload, args.seed, workdir, nproc)
        client = Client(matident.cli.main)
        tracer = None
        if args.trace:
            metrics, tracer = per_layer(cycle, args.seconds, client, args.seed)
        else:
            metrics = end_to_end(cycle, args.seconds, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        trace_dir = OUTPUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    for key, reason in client.failures[:10]:
        print(f"failed {key}: {reason}", file=sys.stderr)
    environment = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_cycle": len(cycle),
    }
    print("env: " + json.dumps(environment))
    failed = len(client.failures)
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
