"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --seeds 10 [--workload decay-64 ...]

Runs `run.py --trace 0` for seeds 1..N per workload, each in a fresh
process with BENCHMARK.json's run_seconds, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median of the per-run medians next to the
metric's bound.  It also pools the invocations of all seeds and prints
their median and the highest percentile with at least ten samples beyond
it.  Exits 1 if a run fails or any spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLES = "# samples "


def main(argv=None) -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values, pooled = {}, {}
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith(SAMPLES):
                    for name, xs in json.loads(line[len(SAMPLES):]).items():
                        pooled.setdefault(name, []).extend(xs)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.4f}" for k, v in sorted(result["metrics"].items())),
                  flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            xs = values.get(name, [])
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = spread < metric["bound"] / 3
            ok &= steady
            print(f"{workload:<17} {name:<12} median {med:.4f} {metric['unit']}"
                  f"  q1 {q1:.4f}  q3 {q3:.4f}  spread {spread:.4f}"
                  f"  bound {metric['bound']}  {'ok' if steady else 'NOT STEADY'}",
                  flush=True)
            print(f"{workload:<17} {run.describe(name, pooled.get(name) or [0.0], metric['unit'])[2:]}"
                  "  (invocations of all seeds)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
