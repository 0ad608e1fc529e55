"""Timing wrappers around zcrit's layer functions, for the traced run only.

Each wrapper replaces a function where it is looked up: an attribute
of the module whose code calls it, or a method on its class. Spans
(name, start, end, parent, job, bytes) stay in memory and are written
out once the run ends. A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job = None
        self.paused = False
        self._patches: List[tuple] = []

    def wrap(self, owner, attr: str, name: str,
             nbytes: Optional[Callable] = None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        perf = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            span = [name, perf(), 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.job, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = orig(*args, **kwargs)
                if nbytes is not None:
                    span[5] = nbytes(args, result)
                return result
            finally:
                tracer.stack.pop()
                span[2] = perf()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> Dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds, bytes]."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for s, covered in zip(self.spans, child_time):
            row = out[s[0]]
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - covered
            row[3] += s[5]
        return out

    def parent_name(self, span: list) -> Optional[str]:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def dump(self, path: str) -> None:
        """One JSON object per span; times are perf_counter seconds."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "job": s[4], "bytes": s[5]}) + "\n")

    def extend(self, spans: List[list], job=None) -> None:
        """Append spans of another tracer or process, re-indexing parents.

        job, when given, replaces the job id of every appended span.
        """
        base = len(self.spans)
        for name, start, end, parent, span_job, nbytes in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               span_job if job is None else job, nbytes])


def _fft_bytes(args, result) -> int:
    import numpy as np

    return int(np.asarray(args[0]).nbytes + result.nbytes)


def _geometry_bytes(args, result) -> int:
    geom = args[0]
    return int(geom.mu1.nbytes + geom.mu2.nbytes)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public layer functions where zcrit and this benchmark call them."""
    import numpy.fft
    from zcrit import (charge, cli, exactlp, extension, numring, realroots,
                       stability, surface)

    w = tracer.wrap
    # realroots, looked up as stability.realroots.*
    for attr in ("roots_in_range", "sign_at", "dedup_roots"):
        w(realroots, attr, f"realroots.{attr}")
    w(realroots.RootPoint, "refine", "realroots.refine")
    # stability entry points, in every module that calls them
    for mod in (stability, cli):
        w(mod, "wall_scan", "stability.wall_scan")
        w(mod, "stability_verdict", "stability.stability_verdict")
    # ring and charge arithmetic
    w(numring.GradedClass, "__mul__", "numring.mul")
    for mod in (stability, charge):
        w(mod, "power_series_apply", "numring.power_series_apply")
    w(stability, "product", "numring.product")
    w(stability, "integrate", "numring.integrate")
    for mod in (stability, extension, cli):
        w(mod, "central_charge", "charge.central_charge")
    # tau system and the exact LP
    for mod in (extension, cli):
        w(mod, "assemble_tau_system", "extension.assemble_tau_system")
        w(mod, "solve_tau_positive", "extension.solve_tau_positive")
    w(extension, "simplex_solve", "exactlp.simplex_solve")
    w(extension, "solve_linear_system", "exactlp.solve_linear_system")
    w(exactlp, "_pivot", "exactlp.pivot")
    # torus solver; cli imports these from zcrit.surface at call time
    w(surface.TorusGeometry, "__post_init__", "surface.geometry", _geometry_bytes)
    for attr in ("ddc", "_apply_operator", "_pcg", "square_density", "potential_from_form",
                 "solve_monge_ampere", "solve_critical_equation"):
        w(surface, attr, f"surface.{attr.lstrip('_')}")
    w(numpy.fft, "fftn", "surface.fftn", _fft_bytes)
    w(numpy.fft, "ifftn", "surface.ifftn", _fft_bytes)
    # configuration layer as the CLI calls it
    w(cli, "load_config", "config.load_config")
    w(cli, "load_raw", "config.load_raw")


PER_LAYER_UNITS = {
    "realroots.roots_calls": "count",
    "realroots.roots_s": "s",
    "realroots.sign_calls": "count",
    "realroots.sign_s": "s",
    "realroots.refine_calls": "count",
    "realroots.refine_s": "s",
    "realroots.dedup_s": "s",
    "realroots.sign_useful_ratio": "ratio",
    "stability.wall_scan_self_s": "s",
    "stability.verdict_calls": "count",
    "stability.verdict_s": "s",
    "numring.mul_calls": "count",
    "numring.mul_s": "s",
    "numring.series_calls": "count",
    "charge.central_charge_calls": "count",
    "charge.central_charge_s": "s",
    "extension.assemble_s": "s",
    "extension.solve_s": "s",
    "exactlp.simplex_calls": "count",
    "exactlp.pivots": "count",
    "exactlp.simplex_s": "s",
    "surface.ddc_calls": "count",
    "surface.ddc_s": "s",
    "surface.fft_calls": "count",
    "surface.fft_s": "s",
    "surface.fft_bytes_computed": "B",
    "surface.geometry_s": "s",
    "surface.geometry_bytes": "B",
    "surface.pcg_calls": "count",
    "surface.pcg_s": "s",
    "surface.cg_iterations": "count",
    "surface.newton_steps": "count",
    "surface.linesearch_trials": "count",
    "import.sympy_s": "s",
    "import.numpy_s": "s",
    "import.mpmath_s": "s",
    "import.zcrit_s": "s",
    "config.load_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, facts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer values from the spans and the counts read off job results.

    facts carries useful_signs, newton_steps, cg_iterations and
    harmonic_starts summed over the traced jobs.
    """
    t = tracer.self_times()

    def calls(name):
        return t[name][0] if name in t else 0

    def self_s(*names):
        return sum(t[n][2] for n in names if n in t)

    def incl_s(name):
        return t[name][1] if name in t else 0.0

    sign_calls = calls("realroots.sign_at")
    # a line-search trial recomputes ddc directly inside the Newton loop;
    # a harmonic start adds one more direct call per solve that uses it
    direct = sum(1 for s in tracer.spans if s[0] == "surface.ddc"
                 and tracer.parent_name(s) == "surface.solve_monge_ampere")
    return {
        "realroots.roots_calls": calls("realroots.roots_in_range"),
        "realroots.roots_s": self_s("realroots.roots_in_range"),
        "realroots.sign_calls": sign_calls,
        "realroots.sign_s": self_s("realroots.sign_at"),
        "realroots.refine_calls": calls("realroots.refine"),
        "realroots.refine_s": self_s("realroots.refine"),
        "realroots.dedup_s": self_s("realroots.dedup_roots"),
        "realroots.sign_useful_ratio":
            facts.get("useful_signs", 0) / sign_calls if sign_calls else 0.0,
        "stability.wall_scan_self_s": self_s("stability.wall_scan"),
        "stability.verdict_calls": calls("stability.stability_verdict"),
        "stability.verdict_s": self_s("stability.stability_verdict"),
        "numring.mul_calls": calls("numring.mul"),
        "numring.mul_s": self_s("numring.mul"),
        "numring.series_calls": calls("numring.power_series_apply"),
        "charge.central_charge_calls": calls("charge.central_charge"),
        "charge.central_charge_s": self_s("charge.central_charge"),
        "extension.assemble_s": self_s("extension.assemble_tau_system"),
        "extension.solve_s": self_s("extension.solve_tau_positive"),
        "exactlp.simplex_calls": calls("exactlp.simplex_solve"),
        "exactlp.pivots": calls("exactlp.pivot"),
        "exactlp.simplex_s": incl_s("exactlp.simplex_solve"),
        "surface.ddc_calls": calls("surface.ddc"),
        "surface.ddc_s": self_s("surface.ddc"),
        "surface.fft_calls": calls("surface.fftn") + calls("surface.ifftn"),
        "surface.fft_s": self_s("surface.fftn", "surface.ifftn"),
        "surface.fft_bytes_computed":
            sum(t[n][3] for n in ("surface.fftn", "surface.ifftn") if n in t),
        "surface.geometry_s": incl_s("surface.geometry"),
        "surface.geometry_bytes": t["surface.geometry"][3] if "surface.geometry" in t else 0,
        "surface.pcg_calls": calls("surface.pcg"),
        "surface.pcg_s": self_s("surface.pcg"),
        "surface.cg_iterations": facts.get("cg_iterations", 0),
        "surface.newton_steps": facts.get("newton_steps", 0),
        "surface.linesearch_trials": direct - facts.get("harmonic_starts", 0),
        "config.load_s": incl_s("config.load_config") + incl_s("config.load_raw"),
    }
