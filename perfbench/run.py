"""The sphmach benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout (the directory holding ``src/sphmach``
and ``machines/``):

    python3 perfbench/run.py --workload mcb_stu --seed 1 --seconds 15 --trace 0

Workloads: mcb_stu, mcb_full, rabbit_twists, thurston_tower (see
perfbench/NOTES.md).  Each run starts fresh interpreters for the
workload (perfbench/child.py): fifteen that only set up, for ``setup_s``,
and one that sets up and runs the timed job.  No operation starts later
than DEADLINE_S after the start, and no workload process outlives
RUN_LIMIT_S, so a run ends within three minutes even when the program
got much slower; operations left out by the deadline count as failed.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics of
a traced run.  The lines
before it print every metric by name and unit.  End-to-end times are
normalised to a fixed machine speed (see reference.py); the lines give
the raw figures too.  ``--size tiny`` shrinks every workload for the
smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S, kernel_time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mcb_stu", "mcb_full", "rabbit_twists", "thurston_tower")
END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB", "mcb_bytes": "B"}
DEADLINE_S = 140
RUN_LIMIT_S = 170
SETUP_SAMPLES = 15


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if "letters" in name:
        return "letters"
    return "count"


def spawn(args, root, tmp, out, start, extra=()):
    """Run one workload process; returns its JSON record, with
    ``setup_scale``, the machine's speed over its set-up: the mean of
    NOMINAL_S / kernel time just before the spawn and right after the
    set-up."""
    before = kernel_time()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", out, "--tmp", tmp,
           "--deadline", repr(start + DEADLINE_S), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, start + RUN_LIMIT_S - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    with open(out) as fh:
        record = json.load(fh)
    record["setup_scale"] = (NOMINAL_S / before
                             + NOMINAL_S / record["setup_kernel_s"]) / 2
    return record


def tail(values):
    """The highest percentile with at least ten samples beyond it, and a
    description; the maximum when there are ten samples or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], f"maximum of {n} queries"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f}, 10 of {n} queries beyond it"


def check_pending(record):
    """Parent-side oracles (sympy), so the workload's memory stays its own."""
    from oracles import perron_oracle

    fails = []
    for i, item in sorted(record["pending"].items(), key=lambda kv: int(kv[0])):
        bad = perron_oracle(item["entries"], item["obstructed"],
                            item["low"], item["high"])
        if bad:
            fails.append(f"{record['ops'][int(i)]}: {bad}")
    return fails


def end_to_end(record, setup):
    """The end-to-end metrics from the speed-normalized latencies, and
    the same figures in raw seconds for the report."""
    out = {}
    for kind, reps in (("normalized", record["normalized"]), ("raw", record["raw"])):
        # a repetition cut short by the deadline has fewer latencies
        per_op = [statistics.median(r[i] for r in reps if i < len(r))
                  for i in record["queries"] if i < len(reps[0])] or reps[0]
        tail_s, tail_note = tail(per_op)
        out[kind] = {
            "wall_s": statistics.median(sum(r) for r in reps),
            "setup_s": statistics.median(s[kind] for s in setup),
            "op_p50_ms": statistics.median(per_op) * 1000,
            "op_tail_ms": tail_s * 1000,
            "peak_rss_mb": record["peak_rss_mb"],
            "mcb_bytes": record["mcb_bytes"],
        }
    n_ops, n_reps = len(per_op), len(reps)
    n_all = len(record["ops"])
    notes = {
        "wall_s": f"median of {n_reps} repetitions of {n_all} operations",
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_p50_ms": f"median of {n_ops} queries, each the median of "
                     f"{n_reps} repetitions",
        "op_tail_ms": tail_note,
    }
    for k, v in out["raw"].items():
        if k in notes:
            notes[k] = f"raw {v:.6f}; " + notes[k]
    return out["normalized"], notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans", help="with --trace 1, write the spans of the "
                                    "traced repetition to this file")
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "sphmach", "__init__.py"))
            and os.path.isdir(os.path.join(root, "machines"))):
        print("perfbench: run from a checkout holding src/sphmach and machines/",
              file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        out = os.path.join(tmp, "record.json")
        setup = []
        if not args.trace:
            # the first process also writes the bytecode caches; its
            # set-up time is not a sample
            for k in range(SETUP_SAMPLES + 1):
                rec = spawn(args, root, tmp, out, start, ["--setup-only"])
                if k:
                    setup.append(rec)
        extra = ["--spans", os.path.abspath(args.spans)] if args.spans else []
        record = spawn(args, root, tmp, out, start, extra)
        setup = [{"raw": r["setup_s"], "normalized": r["setup_s"] * r["setup_scale"]}
                 for r in setup + [record]]
        failures = record["failures"] + check_pending(record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    attempted = record["attempted"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(record['ops'])} operations per repetition")
    if args.trace:
        metrics = record["trace_metrics"]
        units = {k: layer_unit(k) for k in metrics}
        notes = {}
    else:
        metrics, notes = end_to_end(record, setup)
        units = END_TO_END
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>16.6f} {units[name]}{note}")
    print(f"  fail_frac = {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} operations failed)")
    for f in failures[:20]:
        print(f"  FAIL {f}")
    for p in record["problems"]:
        print(f"  TRACE CHECK FAILED {p}")
    for n in record["notes"]:
        print(f"  NOTE {n}")
    result = {
        "correct": not failures and not record["problems"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
