"""zcrit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved
from this file). Workloads: exact-walls, exact-verdicts, torus-solve,
cli-configs; see perfbench/README.md for what each one measures.

--trace 0 spawns the workload's child interpreter SETUPS times, timing
spawn-to-ready each time, and lets the last one run jobs for S seconds.
--trace 1 runs a fixed job list once untraced and once with the layer
wrappers installed, under `python -X importtime`.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A full record of the run, with
provenance, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import workloads
from tracing import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

SETUPS = 3
DEADLINE_S = 170.0      # the whole run, set-ups included, ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kind_a_ms": "ms",
    "kind_b_ms": "ms",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = workloads.cli_env()
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _child_argv(args, mode: str) -> list:
    argv = [CHILD, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode]
    return argv + (["--tiny"] if args.tiny else [])


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_measured(args, env: dict, t_start: float) -> tuple:
    """Median spawn-to-ready time over SETUPS children, and the last
    child's job records."""
    setup_times = []
    summary = None
    err_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-stderr.txt")
    with open(err_path, "w") as err:
        for k in range(SETUPS):
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + _child_argv(args, "measure"),
                                    cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                ready, _, _ = select.select([proc.stdout], [], [], _remaining(t_start))
                line = proc.stdout.readline() if ready else ""
                if line.strip() != "ready":
                    raise BenchError(f"child failed to set up; see {err_path}")
                setup_times.append(time.perf_counter() - t0)
                last = k == SETUPS - 1
                out, _ = proc.communicate("go\n" if last else "quit\n",
                                          timeout=_remaining(t_start))
                if proc.returncode != 0:
                    raise BenchError(f"child exited {proc.returncode}; see {err_path}")
                if last:
                    summary = _last_json(out)
            except subprocess.TimeoutExpired:
                raise BenchError("child ran past the deadline") from None
            finally:
                _stop(proc)
    return setup_times, summary


def run_traced(args, env: dict, t_start: float) -> tuple:
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    argv = [sys.executable, "-X", "importtime"] + _child_argv(args, "trace") + ["--spans", spans]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=_remaining(t_start))
    except subprocess.TimeoutExpired:
        raise BenchError("traced child ran past the deadline") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"traced child exited {proc.returncode}:\n{err[-4000:]}")
    summary = _last_json(out)
    if args.workload != "cli-configs":
        for key, value in workloads.parse_importtime(err).items():
            summary["metrics"][f"import.{key}_s"] = value
    return summary, spans


def _pct(values, q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _latency_line(name: str, values, q: int, scale: float, unit: str) -> tuple:
    return name, _pct(values, q) * scale, unit, len(values)


def named_metrics(workload: str, jobs: list, busy_s: float) -> list:
    """The per-workload metrics the benchmark's defining issue named, as
    (name, value, unit, samples); printed and recorded, not gated."""
    ok = [j for j in jobs if j["outcome"] == "ok"]

    def lat(*kinds):
        return sorted(j["s"] for j in ok if j["kind"] in kinds)

    rate = "scans_per_s" if workload == "exact-walls" else "jobs_per_s"
    out = [(rate, len(ok) / busy_s, "1/s", len(ok))]
    if workload == "exact-walls":
        scans = lat("p2_scan", "p3_scan")
        out += [_latency_line("scan_p50_ms", scans, 50, 1e3, "ms"),
                _latency_line("scan_p90_ms", scans, 90, 1e3, "ms")]
    elif workload == "exact-verdicts":
        for kind in ("verdict", "tau"):
            for q in (50, 90):
                out.append(_latency_line(f"{kind}_p{q}_ms", lat(kind), q, 1e3, "ms"))
    elif workload == "torus-solve":
        out += [_latency_line("solve_n16_s", lat("n16_solve"), 50, 1.0, "s"),
                _latency_line("solve_n32_s", lat("n32_solve"), 50, 1.0, "s")]
    else:
        out.append(_latency_line("cli_p50_s", lat("exact_cli", "surface_cli"), 50, 1.0, "s"))
    out.append(("failed_frac", (len(jobs) - len(ok)) / len(jobs), "1", len(jobs)))
    return out


def end_to_end(args, setup_times: list, summary: dict) -> tuple:
    """The gated metrics. kind_a_ms and kind_b_ms are the time per unit
    of work of each job kind: summed scan time over walls located on
    exact-walls, the median job time elsewhere."""
    jobs = summary["jobs"]
    kinds = workloads.WORKLOADS[args.workload].kinds
    by_kind = {k: [j for j in jobs if j["outcome"] == "ok" and j["kind"] == k] for k in kinds}
    if args.workload == "exact-walls":
        per_unit = [1e3 * sum(j["s"] for j in by_kind[k]) / max(1, sum(j["walls"] for j in by_kind[k]))
                    for k in kinds]
    else:
        per_unit = [1e3 * statistics.median(j["s"] for j in by_kind[k]) for k in kinds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": summary["peak_rss_mb"],
        "kind_a_ms": per_unit[0],
        "kind_b_ms": per_unit[1],
    }
    counts = {k: {"attempted": sum(1 for j in jobs if j["kind"] == k),
                  "ok": len(by_kind[k])} for k in kinds}
    named = named_metrics(args.workload, jobs, summary["busy_s"])
    if "screening" in summary:
        drawn = summary["screening"]["drawn"]
        named.append(("redrawn_frac", summary["screening"]["redrawn"] / drawn, "1", drawn))
    return metrics, named, counts


def provenance(args, env: dict) -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "commit": commit,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "sympy": version("sympy"),
        "mpmath": version("mpmath"), "threads": {v: env[v] for v in THREAD_VARS},
        "setups": SETUPS,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small problem sizes, for perfbench/smoke_test.py")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "zcrit", "cli.py")):
        print("run.py: no zcrit sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    t_start = time.perf_counter()
    env = child_env()
    record = {"provenance": provenance(args, env)}
    try:
        if args.trace:
            summary, spans = run_traced(args, env, t_start)
            metrics = {k: summary["metrics"][k] for k in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
            outcomes = [o for _, _, o in summary["traced"]]
            same = summary["traced"] == summary["untraced"]
            correct = same and "wrong" not in outcomes
            record.update(untraced=summary["untraced"], traced=summary["traced"],
                          spans=os.path.relpath(spans, ROOT), peak_rss_mb=summary["peak_rss_mb"])
            print(f"traced and untraced job outcomes {'agree' if same else 'DIFFER'}"
                  f" over {len(outcomes)} jobs")
        else:
            setup_times, summary = run_measured(args, env, t_start)
            metrics, named, counts = end_to_end(args, setup_times, summary)
            units = END_TO_END_UNITS
            outcomes = [j["outcome"] for j in summary["jobs"]]
            correct = "wrong" not in outcomes
            record.update(setup_times=setup_times, jobs=summary["jobs"], named=named,
                          job_counts=counts, busy_s=summary["busy_s"],
                          probe=summary.get("probe"), screening=summary.get("screening"))
            for name, value, unit, n in named:
                print(f"{name}\t{value:.6g}\t{unit}\t(n={n})")
            if "probe" in summary:
                probe = summary["probe"]
                print(f"known_defect_probe\t{probe['outcome']}\t{probe['error'] or ''}")
            for kind, c in counts.items():
                print(f"jobs\t{kind}\t{c['ok']} ok of {c['attempted']}")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for o in outcomes if o != "ok")
    for name, value in metrics.items():
        print(f"{name}\t{value}\t{units[name]}")
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record["result"] = result
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("provenance\t" + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
