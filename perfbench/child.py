"""One workload process: set up, run timed repetitions, write a JSON record.

Started by run.py in a fresh interpreter, so that set-up time and peak
memory belong to this workload alone:

    python3 perfbench/child.py --workload W --seed N --seconds S \
        --trace 0|1 --size full|tiny --t0 <spawn time> \
        --deadline <time> --out <file> --tmp <dir>

``--t0`` is the parent's ``time.monotonic()`` just before the spawn;
set-up time runs from there to the first timed operation, and the
reference kernel is timed right after it.  With ``--setup-only`` the
process stops there.  Untraced runs repeat the job until ``--seconds``
have passed (at least once), with the speed probe of ``reference``
sampling the machine's speed so that each latency can be reported at a
fixed nominal speed as well as raw.  Traced runs make one untraced
repetition and two traced ones, check that the traced counters repeat
exactly, and report the first traced one, in raw seconds.

``--deadline`` is a ``time.monotonic()`` value.  No operation but the
first of a repetition starts after it: the operations left count as
failed, so a run that got too slow still reports what it measured.  A
further repetition, and the second traced one, start only if the last
one fits before it again.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter


def run_rep(workload, ops, deadline, tracer=None, probe=None):
    """Run every operation once, closed loop, until the deadline.
    Returns (raw latencies, (start, end) of each operation, failures) of
    the operations that ran; time the probe spent inside an operation is
    not part of its latency."""
    ctx = workload.context()
    latencies, spans, failures = [], [], []
    for k, op in enumerate(ops):
        if k and time.monotonic() > deadline:
            failures += [f"{o.name}: not run, the run's time limit was reached"
                         for o in ops[k:]]
            break
        if probe:
            probe.sample()
        stolen = probe.stolen if probe else 0.0
        t0 = perf_counter()
        root = tracer.open("op", t0) if tracer else None
        err = None
        try:
            res = op.run(ctx)
        except Exception:    # a raising operation is a failed one
            err = "raised " + traceback.format_exc(limit=-3)
        t1 = perf_counter()
        if tracer:
            tracer.close(root, t1)
        if probe:
            latencies.append(t1 - t0 - (probe.stolen - stolen))
            probe.sample()
        else:
            latencies.append(t1 - t0)
        spans.append((t0, t1))
        if err is None:
            try:
                err = op.check(ctx, res)
            except Exception:
                err = "check raised " + traceback.format_exc(limit=-3)
        if err:
            failures.append(f"{op.name}: {err}")
    return latencies, spans, failures


def fits(last_s, deadline):
    """Whether a repetition as long as the last one, plus a quarter,
    ends before the deadline."""
    return time.monotonic() + 1.25 * last_s < deadline


def timed_reps(workload, ops, seconds, deadline):
    """Repeat the job until the time is up (at least once), with the
    speed probe running.  Returns raw and speed-normalized latencies per
    repetition, and the failures."""
    from reference import SpeedProbe

    probe = SpeedProbe()
    raw, spans, failures = [], [], []
    probe.start()
    try:
        started = perf_counter()
        rep_s = 0.0
        while not raw or (perf_counter() - started < seconds
                          and fits(rep_s, deadline)):
            rep_start = perf_counter()
            lat, sp, fails = run_rep(workload, ops, deadline, probe=probe)
            rep_s = perf_counter() - rep_start
            raw.append(lat)
            spans.append(sp)
            failures += fails
    finally:
        probe.stop()
    normalized = [[t * probe.scale(a, b) for t, (a, b) in zip(lat, sp)]
                  for lat, sp in zip(raw, spans)]
    return raw, normalized, failures


def is_counter(key):
    """Traced metrics that must repeat exactly: everything but times."""
    return not (key.startswith("_") or key.endswith(".self_s")
                or key == "trace.wall_s")


def traced_reps(workload, ops, deadline, spans_path=None):
    """One untraced repetition, then two traced ones.  Returns the
    untraced latencies, the number of repetitions made, the failures,
    the first traced repetition's per-layer metrics, the trace checks
    that failed, and notes."""
    from tracer import LAYERS, Tracer

    untraced_lat, _, failures = run_rep(workload, ops, deadline)
    untraced = sum(untraced_lat)
    reports, notes = [], []
    for _ in range(2):
        if reports and not fits(reports[0]["_rep_s"], deadline):
            notes.append("the second traced repetition was left out, as it "
                         "would not end before the run's time limit; the "
                         "counters were not compared")
            break
        tracer = Tracer()
        rep_start = perf_counter()
        tracer.install()
        try:
            lat, _, fails = run_rep(workload, ops, deadline, tracer)
        finally:
            tracer.uninstall()
        failures += fails
        rep = tracer.report()
        rep["_rep_s"] = perf_counter() - rep_start
        rep["trace.wall_s"] = sum(lat)
        if spans_path and not reports:
            tracer.write_spans(spans_path)
        reports.append(rep)
    first = reports[0]
    problems = []
    if first["_orphans"]:
        problems.append(f"{first['_orphans']} spans outside timed operations")
    if first["_misnested"]:
        problems.append(f"{first['_misnested']} spans not closed inside "
                        "their parent span")
    layers = sum(first[layer + ".self_s"] for layer in LAYERS + ("unlisted",))
    if abs(layers - first["trace.wall_s"]) > 1e-6:
        problems.append(f"layer self times add up to {layers} s, "
                        f"traced wall time is {first['trace.wall_s']} s")
    for second in reports[1:]:
        moved = [k for k in first if is_counter(k) and first[k] != second[k]]
        if moved:
            problems.append("counters differ between traced repetitions: " + ", ".join(
                f"{k} {first[k]} vs {second[k]}" for k in moved[:5]))
    metrics = {k: v for k, v in first.items() if not k.startswith("_")}
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = first["trace.wall_s"] - untraced
    return untraced_lat, 1 + len(reports), failures, metrics, problems, notes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the first traced repetition's spans here")
    args = ap.parse_args(argv)

    import sphmach
    src = os.path.join(os.getcwd(), "src", "sphmach")
    if os.path.dirname(os.path.abspath(sphmach.__file__)) != src:
        sys.exit(f"sphmach imported from {sphmach.__file__}, not from {src}")
    from reference import kernel_time
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, args.tmp)
    ops = workload.ops()
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s, "setup_kernel_s": kernel_time()}
    if not args.setup_only:
        problems, notes, metrics, raw, normalized = [], [], {}, [], []
        if args.trace:
            untraced, reps, failures, metrics, problems, notes = traced_reps(
                workload, ops, args.deadline, args.spans)
            raw = [untraced]
        else:
            raw, normalized, failures = timed_reps(
                workload, ops, args.seconds, args.deadline)
            reps = len(raw)
        record.update({
            "ops": [op.name for op in ops],
            "queries": [i for i, op in enumerate(ops) if op.query],
            "raw": raw,
            "normalized": normalized,
            "attempted": len(ops) * reps,
            "failures": failures,
            "problems": problems,
            "notes": notes,
            "pending": {str(i): v for i, v in workload.pending.items()},
            "mcb_bytes": workload.mcb_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace_metrics": metrics,
        })
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
