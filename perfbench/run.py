"""axiswirl benchmark: a closed loop of fresh `axiswirl` processes.

    python3 perfbench/run.py --workload decay-64 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
./src.  One client starts one invocation at a time (`axiswirl run` or
`axiswirl sweep` on the seeded inputs of the workload) in a new
interpreter, waits for it to exit, checks its artifacts and starts the
next, until --seconds have passed.  An unmeasured `axiswirl
check-exponents` comes first, so that bytecode caches exist, as they do
for users.

--trace 0 reports the end-to-end metrics: wall_s (spawn to exit),
setup_s (spawn to the start of time integration) and peak_rss_mb, each
the median over the invocations.  --trace 1 alternates untraced and
traced invocations and reports the per-layer metrics (tracer.py), medians
over the traced ones, plus trace.overhead_s.  The metric names and units
are those of BENCHMARK.json.  The last line of standard output is the JSON
result; the lines before it describe the run, including the per-invocation
samples that steady.py pools across seeds.
--workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK_DIR = ".perfbench_work"
INVOCATION_TIMEOUT_S = 60
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def invoke(argv, workdir, env, trace: bool) -> dict:
    """Run one child to completion; times are on the CLOCK_MONOTONIC scale."""
    result_path = os.path.join(workdir, "child.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    shutil.rmtree(env["AXISWIRL_OUTPUT_ROOT"], ignore_errors=True)
    cmd = [sys.executable, CHILD, result_path, "1" if trace else "0", *argv]
    with open(os.path.join(workdir, "stdout.txt"), "wb") as out, \
            open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            t1 = time.monotonic()
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path) as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        child = {}
    entry = child.get("solver_entry")
    return {
        "code": proc.returncode,
        "wall_s": t1 - t0,
        "setup_s": entry - t0 if entry is not None else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "spans": child.get("spans"),
        "absent": child.get("absent", []),
    }


def git_commit(root):
    """Commit of a git checkout, read without running git; None elsewhere."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root, seed, invocations) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(root), "seed": seed, "invocations": invocations,
        "load": "closed loop, one client, at most 1 concurrent child",
    }


def tail_percentile(values):
    """Highest of p75..p99.9 with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, tracer.percentile(values, p)
    return None


def describe(name, values, unit):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                 else "no percentile has 10 samples beyond it")
    return (f"# {name:<12} median {statistics.median(values):.6g} {unit}  "
            f"q1 {q[0]:.6g}  q3 {q[2]:.6g}  n={len(values)}  {tail_text}")


def measure(root, bench, workload, seed, seconds, trace):
    workdir = os.path.join(root, WORK_DIR, f"{workload}-{seed}-{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    argv, expects = workloads.build(workload, seed, workdir)
    out_root = os.path.join(workdir, "out")
    pythonpath = [os.path.join(root, "src")]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath),
               AXISWIRL_OUTPUT_ROOT=out_root)

    # warm-up, not measured: compiles the bytecode caches users already have
    invoke(["check-exponents", "6", "4", "0"], workdir, env, trace=False)
    runs = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(runs) % 2 == 1
        r = invoke(argv, workdir, env, traced)
        r["traced"] = traced
        r["fails"] = checks.check_invocation(r["code"], out_root, expects)
        runs.append(r)
        if time.monotonic() >= deadline and (not trace or len(runs) >= 2):
            break

    lines = [f"# env {json.dumps(environment(root, seed, len(runs)), sort_keys=True)}"]
    failed = [r for r in runs if r["fails"]]
    lines.append(f"# workload {workload} seed {seed} trace {int(trace)}: "
                 f"{len(runs)} operations attempted, {len(failed)} failed")
    lines += [f"# failure: {msg}" for r in failed for msg in r["fails"][:5]]
    plain = [r for r in runs if not r["traced"]]
    e2e = {m["name"]: [r[m["name"]] for r in plain if r[m["name"]] is not None]
           for m in bench["end_to_end"]}
    metrics = {}
    if not trace:
        lines.append(f"# samples {json.dumps(e2e)}")
        for m in bench["end_to_end"]:
            values = e2e[m["name"]] or [0.0]
            lines.append(describe(m["name"], values, m["unit"]))
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    else:
        traced = [r for r in runs if r["traced"] and r["spans"] is not None]
        per_run = [tracer.layer_metrics(r["spans"]) for r in traced]
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            lines.append(f"# absent boundaries (reported as 0): {', '.join(absent)}")
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(e2e["wall_s"])) if traced else 0.0
        for m in bench["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median([m[name] for m in per_run] or [0.0])
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"# {name:<36} {value:.6g} {unit}")
    result = {"correct": not failed, "attempted": len(runs),
              "failed": len(failed), "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "axiswirl", "cli.py")):
        print("error: run from the root of an axiswirl source checkout "
              "(src/axiswirl not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        lines, result = measure(root, bench, name, args.seed, args.seconds,
                                bool(args.trace))
        print("\n".join(lines), flush=True)
        results.append(result)
    if len(results) == 1:
        combined = results[0]
    else:
        combined = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
