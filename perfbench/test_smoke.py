"""Smoke test of the benchmark itself: every workload at a tiny size,
untraced and traced, prints every metric BENCHMARK.json names, with its
unit, and passes its own correctness checks.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.tsv"
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny",
               *(["--spans", str(spans)] if trace else []))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        # the human-readable lines name every metric with its unit too
        assert any(ln.split()[:1] == [m["name"]] and f" {m['unit']}" in ln
                   for ln in lines[:-1]), m["name"]
        if not trace:
            assert value > 0, m["name"]
    if trace:
        rows = spans.read_text().splitlines()
        assert rows[0] == "name\tstart\tend\tparent"
        assert len(rows) - 1 == result["metrics"]["trace.spans"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = run("--workload", "mcb_stu", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
