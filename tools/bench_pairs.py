"""Paired benchmark runs of two commits, written as one BENCH_<n>.json.

Run from the root of a git checkout:

    python3 tools/bench_pairs.py --parent PARENT --change HEAD --number N

Each commit is extracted with ``git archive`` into its own directory,
and ``perfbench/run.py`` of that extract runs there unchanged, one
process at a time, for BENCHMARK.json's run_seconds.  For every
workload of BENCHMARK.json, pair p (1..PAIRS) runs both sides with seed
SEED_BASE + p; odd pairs run the parent first, even pairs the change
first, so a drift of the machine's speed falls on both sides alike.  The file holds every run's result and, per workload
and end-to-end metric, both sides' median and quartiles, the pairs in
which the change is better and worse, and the median change in percent.
When a run exits non-zero, no later run starts: the file holds the
runs that finished and the failed run's command, exit code and the end
of its stderr (failed_run), the summary covers complete pairs only, and
the script exits 1.

The host string ends with whether bytecode caches are written: the runs
inherit this process's setting (PYTHONDONTWRITEBYTECODE or -B), and
without caches every run compiles sphmach from source, which shows in
setup_s, so setup_s compares only between files made with one setting.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

PAIRS = 10  # alternating pairs per workload
SEED_BASE = 10  # pair p runs seed SEED_BASE + p


def extract(commit: str, into: str) -> str:
    """The full hash of commit, whose tree git archive writes into."""
    full = subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"],
                          check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", "--format=tar", full],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return full


def run_one(root: str, workload: str, seed: int, seconds: float):
    """(result, None) with the JSON result, the last line of
    perfbench/run.py's output, or (None, failure) when the run exits
    non-zero: its command, exit code and the end of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, {"command": " ".join(cmd), "exit_code": proc.returncode,
                      "stderr_tail": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def run_pairs(roots, workloads, metrics, seconds):
    """(runs, failure): every run in pair order up to the first that
    fails, and that run's failure (with its workload, pair and side), or
    None when all ran."""
    runs = []
    for w in workloads:
        for pair in range(1, PAIRS + 1):
            seed = SEED_BASE + pair
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for s in order:
                result, failure = run_one(roots[s], w, seed, seconds)
                if failure is not None:
                    print(f"{w} pair {pair} {s} failed: exit "
                          f"{failure['exit_code']}", file=sys.stderr)
                    return runs, {"workload": w, "pair": pair, "side": s,
                                  "seed": seed, **failure}
                runs.append({"workload": w, "pair": pair, "side": s,
                             "seed": seed, "result": result})
                print(f"{w} pair {pair} {s}: " + ", ".join(
                    f"{m} {result['metrics'][m]['value']:.4g}"
                    for m in metrics), file=sys.stderr, flush=True)
    return runs, None


def spread(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, workloads, metrics, better) -> dict:
    """Per workload with a complete pair, over its complete pairs only."""
    out = {}
    for w in workloads:
        side = {s: {r["pair"]: r for r in runs
                    if r["workload"] == w and r["side"] == s}
                for s in ("parent", "change")}
        pairs = sorted(side["parent"].keys() & side["change"].keys())
        if not pairs:
            continue
        side = {s: [side[s][p] for p in pairs] for s in side}
        out[w] = {}
        for m in metrics:
            pv, cv = ([r["result"]["metrics"][m]["value"] for r in side[s]]
                      for s in ("parent", "change"))
            sign = -1 if better[m] == "lower" else 1
            p_med, c_med = statistics.median(pv), statistics.median(cv)
            out[w][m] = {
                "parent": spread(pv),
                "change": spread(cv),
                "change_better_pairs": sum(sign * (c - p) > 0
                                           for p, c in zip(pv, cv)),
                "change_worse_pairs": sum(sign * (c - p) < 0
                                          for p, c in zip(pv, cv)),
                "pairs": len(pv),
                "median_change_pct": (c_med - p_med) / p_med * 100
                if p_med else 0.0,
            }
        out[w]["fail_frac"] = {
            s: sum(r["result"]["failed"] for r in side[s])
            / max(1, sum(r["result"]["attempted"] for r in side[s]))
            for s in ("parent", "change")}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="commit without the change")
    ap.add_argument("--change", default="HEAD", help="commit with the change")
    ap.add_argument("--number", required=True, type=int,
                    help="writes BENCH_<number>.json")
    ap.add_argument("--host", default="",
                    help="the machine, for the record (default: the Python "
                         "version and CPU count); whether bytecode caches "
                         "are written is added to it")
    ap.add_argument("--note", default="", help="for the record")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    work = tempfile.mkdtemp(prefix="bench_pairs-")
    roots = {s: os.path.join(work, s) for s in ("parent", "change")}
    try:
        commits = {s: extract(c, roots[s])
                   for s, c in (("parent", args.parent), ("change", args.change))}
        runs, failure = run_pairs(roots, workloads, metrics, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "note": args.note,
        "pairing": f"for each workload, pairs 1..{PAIRS} with seed "
                   f"{SEED_BASE} + pair; odd pairs run the parent first, "
                   "even pairs the change first; each side runs from an "
                   "extracted copy (git archive) of its commit",
        "host": (args.host or f"Python {platform.python_version()}, "
                              f"{os.cpu_count()} CPUs")
                + (", bytecode caches not written" if sys.dont_write_bytecode
                   else ", bytecode caches written"),
        "summary": summarize(runs, workloads, metrics, better),
        "runs": runs,
    }
    if failure is not None:
        record["failed_run"] = failure
    out = f"BENCH_{args.number}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
