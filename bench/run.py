"""Benchmark qcdiv from the sources of this checkout.

    python3 bench/run.py --workload {sweep,oracle,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run builds the seed's schedule, sets up (import, input
building, warm-up), then runs the schedule in a loop for at least one full
pass and at least S seconds, timing every operation and checking every
output.  It prints the end-to-end metrics named in BENCHMARK.json.

Timings are normalised for host speed (see refclock.py): each one is divided
by a reference timed right next to it and multiplied by the reference's
nominal duration.  The process and its children are pinned to one CPU so
that the program and its reference share that core's contention.  The raw
median reference time is printed as ``reference_ms``.

With ``--trace 1`` it runs a fixed slice of the schedule untraced, then again
with every public qcdiv function wrapped in spans (see spans.py), and prints
the per-layer metrics (raw times).  The slice is fixed so that the same seed
gives the same counts, bit for bit.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted``/``failed`` count the distinct
operations of the schedule (an operation failing on any repetition counts
once), so they do not depend on how fast the program runs.  The line before
it is a JSON object with every metric, its sample count, the failures and the
provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5  # set-ups timed per run; setup_s is their median
UNTRACED_REPEATS = 3  # untraced passes over the traced slice
PROBE_REPEATS = 10  # cold processes per cli start-up probe
CHILD_TIMEOUT_S = 170

REF_EVERY_S = 0.03  # operation time between reference timings

# Runs the set-up step in a fresh interpreter and prints its duration and the
# factor that normalises it: the workload's reference, timed three times after.
SETUP_PROBE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
from pathlib import Path
w = workloads.prepare(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - t0
print(elapsed, w.reference_nominal_s / statistics.median(w.reference() for _ in range(3)))
"""


class Stats:
    """The timed executions of one run, summarised per distinct operation.

    Each execution's time is normalised by the workload's reference (see
    ``measure`` and refclock.py); an operation's time is the median of its
    normalised executions.
    """

    def __init__(self):
        self.times = {}  # schedule index -> (op, [normalised seconds], units)
        self.executions = 0
        self.ref_s = []  # raw reference timings

    def add(self, index: int, op, seconds: float, units) -> None:
        self.executions += 1
        self.times.setdefault(index, (op, [], units))[1].append(seconds)

    def select(self, group=None, op=None) -> list:
        return [(o, statistics.median(xs), u) for o, xs, u in self.times.values()
                if (group is None or group(o.group)) and (op is None or op(o))]

    def latencies(self, group=None, op=None) -> list:
        return [s for _, s, _ in self.select(group, op)]

    def rate(self, group=None) -> tuple:
        """Units of work per second, as a (value, unit, operations) metric."""
        rows = self.select(group)
        return sum(u for _, _, u in rows) / sum(s for _, s, _ in rows), "1/s", len(rows)


def execute(run):
    """Time one call; returns (seconds, output, exception)."""
    t0 = time.perf_counter()
    try:
        out, error = run(), None
    except Exception as e:  # the program failed this operation; count it
        out, error = None, e
    return time.perf_counter() - t0, out, error


def check(op, out, error):
    if error is not None:
        return 0, workloads.Failure(f"error:{type(error).__name__}", str(error))
    return op.verify(out)


def measure(workload, seconds: float):
    """Loop over the schedule for one full pass and at least ``seconds``.

    After every REF_EVERY_S of operation time the workload's reference is
    timed; the operations in between are normalised by the mean of the
    reference timings just before and just after them.
    """
    ops, reference, nominal = workload.ops, workload.reference, workload.reference_nominal_s
    stats, failures, pending = Stats(), {}, []
    before = reference()

    def normalise():
        nonlocal before
        after = reference()
        ref = (before + after) / 2
        before = after
        stats.ref_s.append(ref)
        for index, op, elapsed, units in pending:
            stats.add(index, op, elapsed * nominal / ref, units)
        pending.clear()

    start = time.perf_counter()
    i, full_pass, busy = 0, False, 0.0
    while not (full_pass and time.perf_counter() - start >= seconds):
        op = ops[i]
        elapsed, out, error = execute(op.run)
        units, failure = check(op, out, error)
        pending.append((i, op, elapsed, units))
        busy += elapsed
        if busy >= REF_EVERY_S:
            normalise()
            busy = 0.0
        if failure is not None:
            failures.setdefault(i, failure)
        i += 1
        if i == len(ops):
            i, full_pass = 0, True
    if pending:
        normalise()
    return stats, failures


def setup_seconds(workload) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(ROOT), workload.name,
             str(workload.seed)],
            cwd=ROOT, env=workloads.child_env(workload.lib), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        elapsed, scale = (float(x) for x in proc.stdout.split()[-2:])
        times.append(elapsed * scale)
    return times


def cold_ms(argv: list, env: dict) -> list:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
                       check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def peak_rss_mb(name: str) -> float:
    # The cli workload's work happens in its child processes.
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def untraced_run(workload, seconds: float):
    stats, failures = measure(workload, seconds)
    values = dict(workload.summary(stats))
    values.update(workload.end_to_end(stats))
    values["executions"] = (stats.executions, "count", stats.executions)
    values["reference_ms"] = (statistics.median(stats.ref_s) * 1e3, "ms", len(stats.ref_s))
    values["peak_rss_mb"] = (peak_rss_mb(workload.name), "MB", 1)
    setups = setup_seconds(workload)
    values["setup_s"] = (statistics.median(setups), "s", len(setups))
    return values, workload.ops, failures


def traced_run(workload):
    lib, ops = workload.lib, workload.trace_ops

    def runner(op):
        return getattr(op, "run_in_process", op.run)

    failures, pass_s, main_ms = {}, [], []
    for _ in range(UNTRACED_REPEATS):
        total = 0.0
        for i, op in enumerate(ops):
            elapsed, out, error = execute(runner(op))
            total += elapsed
            _, failure = check(op, out, error)
            if failure is not None:
                failures.setdefault(i, failure)
            if op.group == "eval" and getattr(op, "expect_code", None) == 0:
                main_ms.append(elapsed * 1e3)
        pass_s.append(total)

    tracer = spans.Tracer(lib)
    tracer.install()
    try:
        # Rebuilt under tracing, so every generator it builds is wrapped.
        traced_ops = type(workload)(lib, workload.seed).trace_ops
        tracer.reset()
        traced_s = 0.0
        for i, op in enumerate(traced_ops):
            run = runner(op)
            elapsed, _, _ = execute(lambda: tracer.operation(i, f"op.{op.group}", run))
            traced_s += elapsed
    finally:
        tracer.uninstall()

    values = spans.layer_metrics(tracer)
    values["trace_overhead"] = traced_s / statistics.median(pass_s)
    interp, import_ = [], []
    if workload.name == "cli":
        env = workloads.child_env(lib)
        interp = cold_ms([sys.executable, "-c", "pass"], env)
        import_ = cold_ms([sys.executable, "-c", "import qcdiv"], env)
    p50 = {k: statistics.median(v) if v else 0.0
           for k, v in (("interp", interp), ("import", import_), ("main", main_ms))}
    values["cli.interp_ms_p50"] = p50["interp"]
    values["cli.import_ms_p50"] = p50["import"]
    values["cli.main_ms_p50"] = p50["main"]
    total = p50["import"] + p50["main"]
    values["cli.startup_share"] = p50["import"] / total if total else 0.0
    samples = {"cli.interp_ms_p50": len(interp), "cli.import_ms_p50": len(import_),
               "cli.main_ms_p50": len(main_ms), "trace_overhead": UNTRACED_REPEATS}
    return values, samples, ops, failures


def provenance(args, nproc: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcdiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_imported": "numpy" in sys.modules,
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # One CPU for this process and its children, so the program and the
    # reference that normalises it always share one core's contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        workload = workloads.prepare(ROOT, args.workload, args.seed)
    except (OSError, workloads.ProgramMissing) as e:
        print(f"bench: cannot run: {e}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        raw, samples, ops, failures = traced_run(workload)
        units = {m["name"]: m["unit"] for m in wanted}
        values = {k: (v, units.get(k, ""), samples.get(k, 1)) for k, v in raw.items()}
    else:
        values, ops, failures = untraced_run(workload, args.seconds)

    by_kind = Counter(f"{ops[i].group}/{f.kind}" for i, f in failures.items())
    correct = all((args.workload, ops[i].group, f.kind) in workloads.KNOWN_DEFECTS
                  for i, f in failures.items())
    values["fail_ratio"] = (len(failures) / len(ops), "ratio", len(ops))

    for name, (value, unit, n) in values.items():
        print(f"{name:34s} {value:16.6f} {unit:15s} n={n}")
    for kind, count in sorted(by_kind.items()):
        print(f"failed {kind}: {count}")
    print(json.dumps({
        "provenance": provenance(args, nproc),
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in values.items()},
        "failures": dict(sorted(by_kind.items())),
        "failure_examples": [f.detail for _, f in sorted(failures.items())[:10]],
    }))
    metrics = {}
    for m in wanted:
        value, unit, _ = values[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
