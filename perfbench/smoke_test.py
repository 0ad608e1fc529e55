"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 perfbench/smoke_test.py

For every workload it runs run.py with --tiny, untraced and traced, and
checks that every metric BENCHMARK.json names appears with its unit,
that the issue-named metrics and failed_frac are printed, that no job
failed and every job had its oracle run, that exact-walls ran its
known-defect probe, and that the traced and untraced passes agree on
every job outcome. Exits 1 on the first failed check. Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAMED = {
    "exact-walls": {"scans_per_s", "scan_p50_ms", "scan_p90_ms"},
    "exact-verdicts": {"verdict_p50_ms", "verdict_p90_ms", "tau_p50_ms", "tau_p90_ms"},
    "torus-solve": {"solve_n16_s", "solve_n32_s"},
    "cli-configs": {"cli_p50_s"},
}


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def run(workload: str, trace: int) -> tuple:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    with open(os.path.join(HERE, "out", f"{workload}-seed7-trace{trace}.json")) as fh:
        record = json.load(fh)
    return result, record


def check_metrics(workload: str, trace: int, result: dict, spec: list) -> None:
    expect = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expect:
        fail(f"{workload} trace={trace}: metrics {got} != {expect}")
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
    if not result["correct"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"attempted={result['attempted']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        result, record = run(workload, 0)
        check_metrics(workload, 0, result, bench["end_to_end"])
        named = {name for name, _, _, _ in record["named"]}
        if not NAMED[workload] | {"failed_frac"} <= named:
            fail(f"{workload}: named metrics {sorted(named)}")
        for job in record["jobs"]:
            if job["outcome"] != "ok":
                fail(f"{workload}: job {job['i']} {job['outcome']}: {job['error']}")
            if job["oracle_checks"] < 1:
                fail(f"{workload}: job {job['i']} passed without its oracle")
        if workload == "exact-walls" and not (record["probe"] and record["screening"]["drawn"]):
            fail(f"{workload}: no known-defect probe or screening record")

        result, record = run(workload, 1)
        check_metrics(workload, 1, result, bench["per_layer"])
        if record["traced"] != record["untraced"]:
            fail(f"{workload}: traced outcomes {record['traced']} != "
                 f"untraced {record['untraced']}")
        if not os.path.getsize(os.path.join(ROOT, record["spans"])):
            fail(f"{workload}: empty spans file")
        print(f"ok   {workload}: {len(record['traced'])} traced jobs, outcomes agree")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
