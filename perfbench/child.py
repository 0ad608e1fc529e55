"""One workload in a fresh interpreter; started by run.py, never by hand.

measure: set up, print "ready", wait for "go" or "quit" on stdin, then
run jobs for --seconds of wall time (longer if some job kind has no
completed sample yet), timing each job and checking its result outside
the timed region. A workload with a known-defect probe runs it once
afterwards. The last stdout line is a JSON summary.

trace: set up with the layer wrappers installed, then run each of the
workload's first trace_jobs jobs twice, untraced and traced, and
report per-layer metrics. Spans go to --spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

import workloads
from workloads import OracleMismatch

def _run_job(job, tracer=None):
    """(outcome, seconds, result, oracle comparisons); outcome is ok,
    crash or wrong."""
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:                      # a crash is a counted failure
        return "crash", time.perf_counter() - t0, repr(exc), 0
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        checks = job.check(result)
    except OracleMismatch as exc:
        return "wrong", dt, str(exc), 1
    finally:
        if tracer is not None:
            tracer.paused = False
    return "ok", dt, result, checks


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _add_facts(total, job, result) -> None:
    if job.facts is not None:
        for key, value in job.facts(result).items():
            total[key] = total.get(key, 0) + value


def measure(workload, seconds: float) -> dict:
    """Run jobs until --seconds of wall time, oracles included, have
    passed and every job kind has a completed sample."""
    t_end = time.perf_counter() + seconds
    busy = 0.0
    records = []
    done_kinds = set()
    for job in map(workload.job, itertools.count()):
        outcome, dt, result, checks = _run_job(job)
        busy += dt
        rec = {"i": job.index, "kind": job.kind, "outcome": outcome, "s": dt,
               "oracle_checks": checks, "error": None if outcome == "ok" else str(result)}
        if outcome == "ok" and job.facts is not None:
            rec.update(job.facts(result))
        records.append(rec)
        if outcome == "ok":
            done_kinds.add(job.kind)
        if time.perf_counter() >= t_end and done_kinds.issuperset(workload.kinds):
            break
    out = {"busy_s": busy, "jobs": records, "peak_rss_mb": _peak_rss_mb()}
    if hasattr(workload, "probe"):
        # a known-defect input, run once after the timed jobs and
        # reported on its own
        outcome, dt, result, _ = _run_job(workload.probe())
        out["probe"] = {"outcome": outcome, "s": dt,
                        "error": None if outcome == "ok" else str(result)}
    if hasattr(workload, "screening"):
        out["screening"] = workload.screening
    return out


def _clear_sympy_cache() -> None:
    """Start every run of a traced-mode job from sympy's empty global
    cache, so neither pass is faster for having repeated the other."""
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()


def trace(workload, setup_tracer, spans_path: str) -> dict:
    """Run each job untraced and traced, alternating which goes first so
    that warm-up effects fall on both passes alike."""
    from tracing import Tracer, install_layer_wrappers, layer_metrics

    tracer = Tracer()
    cli = workload.name == "cli-configs"
    sink = os.path.join(os.path.dirname(spans_path), "cli-spans.jsonl")
    traced_prefix = [sys.executable, "-X", "importtime",
                     os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py"),
                     "--spans", sink]
    jobs = [workload.job(i) for i in range(workload.trace_jobs)]
    _run_job(jobs[0])   # first-touch memory and lazy caches, paid by neither pass
    untraced, traced, imports, facts = [], [], [], {}
    for k, job in enumerate(jobs):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            _clear_sympy_cache()
            if not with_trace:
                untraced.append(_run_job(job))
                continue
            tracer.job = job.index
            if cli:
                workload.traced_prefix = traced_prefix
            else:
                install_layer_wrappers(tracer)
            try:
                outcome = _run_job(job, tracer)
            finally:
                tracer.uninstall()
                if cli:
                    workload.traced_prefix = None
            traced.append(outcome)
            if outcome[0] == "ok":
                _add_facts(facts, job, outcome[2])
            if cli:
                with open(sink) as fh:
                    records = [json.loads(line) for line in fh]
                os.remove(sink)
                tracer.extend([[r["name"], r["start"], r["end"], r["parent"], None,
                                r["bytes"]] for r in records], job.index)
                imports.append(workloads.parse_importtime(workload.last_stderr))

    metrics = layer_metrics(tracer, facts)
    t_setup = setup_tracer.self_times()
    if "surface.geometry" in t_setup:
        metrics["surface.geometry_s"] += t_setup["surface.geometry"][1]
        metrics["surface.geometry_bytes"] += t_setup["surface.geometry"][3]
    metrics["trace.untraced_s"] = sum(u[1] for u in untraced)
    metrics["trace.traced_s"] = sum(t[1] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    if imports:
        for key in imports[0]:
            metrics[f"import.{key}_s"] = statistics.median(d[key] for d in imports)

    setup_tracer.extend(tracer.spans)   # one file, setup spans first
    setup_tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "untraced": [(j.index, j.kind, u[0]) for j, u in zip(jobs, untraced)],
        "traced": [(j.index, j.kind, t[0]) for j, t in zip(jobs, traced)],
        "peak_rss_mb": _peak_rss_mb(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    setup_tracer = None
    if cls.name != "cli-configs":
        import zcrit  # noqa: F401  the import a user of the library pays
    if args.mode == "trace":
        from tracing import Tracer, install_layer_wrappers

        setup_tracer = Tracer()
        setup_tracer.job = "setup"
        if cls.name != "cli-configs":
            install_layer_wrappers(setup_tracer)
    try:
        workload = cls(args.seed, tiny=args.tiny)
        workload.warm_up()
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()

    if args.mode == "trace":
        out = trace(workload, setup_tracer, args.spans)
    else:
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        out = measure(workload, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
