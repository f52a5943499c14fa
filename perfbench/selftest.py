"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py      (from the root of the checkout)

Runs one real invocation each of taylor-forced-32 and restart-128, shows
that their artifacts pass, then tampers with the exit code, report.json
and the final checkpoint and shows that each tampered invocation is
counted as failed.  Also checks that BENCHMARK.json names exactly the
workloads of workloads.py and the per-layer metrics tracer.py computes.
Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys

import numpy as np

import checks
import run
import tracer
import workloads


def rewrite_last_checkpoint(outdir, change):
    path = sorted(glob.glob(os.path.join(outdir, "checkpoint_*.bin")))[-1]
    header, fields = workloads.read_checkpoint(path)
    arrays = {k: np.array(v) for k, v in fields.items()}
    change(arrays)
    workloads.write_checkpoint(path, header["grid"]["n_rho"], header["time"],
                               [arrays[k] for k in workloads.FIELDS])


def fail_report(outdir):
    path = os.path.join(outdir, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    asserted = next(c for c in report["checks"] if c["asserted"])
    asserted["status"] = "FAIL"
    with open(path, "w") as fh:
        json.dump(report, fh)


def bump_u_phi(share):
    def change(a):
        a["u_phi"] += share * np.max(np.abs(a["u_phi"]))
    return change


def scale_velocity(factor):
    def change(a):
        for k in checks.VELOCITY:
            a[k] *= factor
    return change


def add_divergence(a):
    a["u_rho"][a["u_rho"].shape[0] // 2] += 1e-6 * np.max(np.abs(a["u_rho"]))


def set_nan(a):
    a["u_z"][0, 0] = np.nan


TAMPERS = {
    "taylor-forced-32": [
        ("exit code 4", None, 4),
        ("asserted check FAIL in report.json", fail_report, 0),
        ("final u_phi off by 3% of its max", lambda d: rewrite_last_checkpoint(d, bump_u_phi(0.03)), 0),
        ("non-finite final field", lambda d: rewrite_last_checkpoint(d, set_nan), 0),
    ],
    "restart-128": [
        ("kinetic energy grown by 2%", lambda d: rewrite_last_checkpoint(d, scale_velocity(1.01)), 0),
        ("divergence above rounding level", lambda d: rewrite_last_checkpoint(d, add_divergence), 0),
        ("missing report.json", lambda d: os.remove(os.path.join(d, "report.json")), 0),
    ],
}


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = (
        {m["name"] for m in bench["per_layer"]}
        == {*tracer.layer_metrics([]), "trace.overhead_s"}
        and [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    )
    print(f"BENCHMARK.json matches tracer.py and workloads.py: {expected}")
    ok = expected
    for workload, tampers in TAMPERS.items():
        workdir = os.path.join(root, run.WORK_DIR, f"selftest-{workload}")
        shutil.rmtree(workdir, ignore_errors=True)
        argv, expects = workloads.build(workload, 1, workdir)
        out_root = os.path.join(workdir, "out")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   AXISWIRL_OUTPUT_ROOT=out_root)
        r = run.invoke(argv, workdir, env, trace=False)
        fails = checks.check_invocation(r["code"], out_root, expects)
        print(f"{workload} untouched: {fails or 'passes'}")
        ok &= not fails
        pristine = os.path.join(workdir, "pristine")
        shutil.copytree(out_root, pristine)
        for what, tamper, code in tampers:
            shutil.rmtree(out_root)
            shutil.copytree(pristine, out_root)
            if tamper is not None:
                tamper(os.path.join(out_root, expects[0]["out"]))
            fails = checks.check_invocation(code, out_root, expects)
            print(f"{workload} {what}: {'counted as failed' if fails else 'NOT DETECTED'}"
                  f" {fails[:1]}")
            ok &= bool(fails)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
