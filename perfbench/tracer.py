"""Span tracing of axiswirl's layer boundaries, from outside the package.

`Tracer.install()` replaces each boundary function in every axiswirl
module namespace that binds it (so `axiswirl.cli.run`, `axiswirl.mms.run`
and `axiswirl.solver.run` all record), keeps spans in memory and hands
them out with `dump()` when the run ends.  A span is
(id, name, start, end, parent id, thread id, info); the parent is the
innermost open span of the same thread.  A boundary the package no
longer has is listed as absent.  `layer_metrics()` turns the spans of one
invocation into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import threading
import time

MODULES = ("cli", "solver", "fields", "mms", "monitor")

# Stable boundaries per defining module.
TARGETS = {
    "cli": ("run_scenario", "validate_scenario", "read_checkpoint",
            "write_checkpoint", "write_diagnostics_csv", "evaluate_checks",
            "sweep_cmd"),
    "solver": ("run", "step", "project"),
    "fields": ("momentum_rhs", "div_from_components", "div_adjoint", "d_z",
               "curl_axisym"),
    "mms": ("sample_state", "forcing_callable"),
    "monitor": ("collect_diagnostics", "calibrate_sobolev", "swirl_lq_budget",
                "quartic_swirl_budget", "vorticity_margin_sequence"),
}
KERNELS = ("fields.div_from_components", "fields.div_adjoint", "fields.d_z")


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _array_bytes(args, result):
    outs = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(getattr(a, "nbytes", 0) for a in (*args, *outs)
                         if hasattr(a, "ndim"))}


# What to keep from a boundary's arguments and result.
INFO = {
    "solver.run": lambda a, r: {"dt": float(r.dt), "steps": int(r.step_count)},
    "solver.project": lambda a, r: {"iters": int(r[1][0])},
    "monitor.collect_diagnostics": lambda a, r: {"records": len(r)},
    "cli.read_checkpoint": _file_bytes,
    "cli.write_checkpoint": _file_bytes,
    **{k: _array_bytes for k in KERNELS},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name):
        spans, ids, local = self.spans, self._ids, self._local
        info_of = INFO.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = [sid, name, t0, t1, parent, threading.get_ident(), None]
                spans.append(span)
            if info_of is not None:
                try:
                    span[6] = info_of(args, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    pass  # the boundary changed shape; keep the timing only
            if name == "mms.forcing_callable" and callable(result):
                # time the forcing callable the program receives, not its internals
                result = self.wrap(result, "mms.forcing")
            return result

        return traced

    def install(self):
        import importlib

        mods = [importlib.import_module("axiswirl")]
        mods += [importlib.import_module(f"axiswirl.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for mod, names in TARGETS.items():
            for name in names:
                key = f"{mod}.{name}"
                fn = getattr(by_name[mod], name, None)
                if not callable(fn):
                    self.absent.append(key)
                    continue
                wrapped = self.wrap(fn, key)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)

    def dump(self) -> dict:
        return {"spans": sorted(self.spans), "absent": self.absent}


# --- per-layer metrics -------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no samples."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[max(0, min(len(xs) - 1, math.ceil(p / 100.0 * len(xs)) - 1))]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation (all but trace.overhead_s).

    BENCHMARK.json lists the metrics, with their units, that run.py reports.

    A layer the spans do not show (not exercised, or absent) reads 0.
    """
    by_id = {s[0]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)

    def dur(s):
        return s[3] - s[2]

    def within(s, name):
        p = s[4]
        while p is not None:
            if by_id[p][1] == name:
                return True
            p = by_id[p][4]
        return False

    def spans_of(name, under=None):
        return [s for s in named.get(name, ()) if under is None or within(s, under)]

    def total(name):
        return sum(dur(s) for s in spans_of(name))

    def infos(name, key):
        return [s[6][key] for s in spans_of(name) if s[6] and key in s[6]]

    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + dur(s)

    steps = len(spans_of("solver.step"))
    records = sum(infos("monitor.collect_diagnostics", "records"))
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    step_ms = [1e3 * dur(s) for s in spans_of("solver.step")]
    project = spans_of("solver.project")
    iters = infos("solver.project", "iters")
    kernel_bytes = sum(s[6]["bytes"] for k in KERNELS for s in spans_of(k, "solver.step")
                       if s[6] and not (s[4] is not None and by_id[s[4]][1] in KERNELS))
    sweep_s = total("cli.sweep_cmd")
    forcing_calls = len(spans_of("mms.forcing"))
    collect_s = total("monitor.collect_diagnostics")
    return {
        "solver.run_s": total("solver.run"),
        "solver.steps": steps,
        "solver.step_ms.p50": percentile(step_ms, 50),
        "solver.step_ms.p99": percentile(step_ms, 99),
        "solver.dt": statistics.median(infos("solver.run", "dt") or [0.0]),
        "solver.project_calls": len(project),
        "solver.project_s": total("solver.project"),
        "solver.project_self_s": sum(dur(s) - child_time.get(s[0], 0.0) for s in project),
        "solver.project_ms.p50": percentile([1e3 * dur(s) for s in project], 50),
        "solver.projection_iters.mean": statistics.fmean(iters) if iters else 0.0,
        "solver.projection_iters.max": max(iters, default=0),
        "fields.momentum_rhs_calls": per_step(len(spans_of("fields.momentum_rhs", "solver.step"))),
        "fields.momentum_rhs_s": total("fields.momentum_rhs"),
        "fields.div_from_components_calls":
            per_step(len(spans_of("fields.div_from_components", "solver.step"))),
        "fields.div_adjoint_calls": per_step(len(spans_of("fields.div_adjoint", "solver.step"))),
        "fields.d_z_calls": per_step(len(spans_of("fields.d_z", "solver.step"))),
        "fields.kernel_bytes_computed": per_step(kernel_bytes),
        "fields.curl_axisym_calls_per_record":
            len(spans_of("fields.curl_axisym", "monitor.collect_diagnostics")) / records
            if records else 0.0,
        "monitor.collect_s": collect_s,
        "monitor.records": records,
        "monitor.ms_per_record": 1e3 * collect_s / records if records else 0.0,
        "monitor.swirl_budget_s": total("monitor.swirl_lq_budget"),
        "monitor.quartic_budget_s": total("monitor.quartic_swirl_budget"),
        "monitor.vorticity_budget_s": total("monitor.vorticity_margin_sequence"),
        "mms.forcing_calls": forcing_calls,
        "mms.forcing_calls_per_step": per_step(forcing_calls),
        "mms.forcing_s": total("mms.forcing"),
        "mms.sample_state_s": total("mms.sample_state"),
        "cli.validate_s": total("cli.validate_scenario"),
        "cli.read_checkpoint_s": total("cli.read_checkpoint"),
        "cli.read_checkpoint_bytes": sum(infos("cli.read_checkpoint", "bytes")),
        "monitor.calibrate_sobolev_s": total("monitor.calibrate_sobolev"),
        "cli.write_checkpoint_calls": len(spans_of("cli.write_checkpoint")),
        "cli.write_checkpoint_s": total("cli.write_checkpoint"),
        "cli.write_checkpoint_bytes": sum(infos("cli.write_checkpoint", "bytes")),
        "cli.write_diagnostics_s": total("cli.write_diagnostics_csv"),
        "cli.evaluate_checks_s": total("cli.evaluate_checks"),
        "cli.sweep_s": sweep_s,
        "cli.run_scenario_s.p50": percentile([dur(s) for s in spans_of("cli.run_scenario")], 50),
        "cli.sweep_overlap": total("cli.run_scenario") / sweep_s if sweep_s else 0.0,
    }
