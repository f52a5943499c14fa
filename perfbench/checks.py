"""Correctness checks on the artifacts of one axiswirl invocation.

An invocation passes when the process exited 0 and, for every scenario it
ran, report.json holds no asserted FAIL and no truncation, the last
checkpoint sits at t_end with finite fields, and

* manufactured runs: the max-norm error of the last checkpoint against the
  analytic solution, and the error of its increment over the first
  checkpoint, are within C * h^2 (h = 1/n, relative to the analytic
  field's max-norm and increment), with C from the tables below;
* the restart run: kinetic energy does not exceed that of the first
  checkpoint and the discrete divergence is at rounding level.

Seed measurements (n = 32 and 64, t_end 0.012-0.03) and the bounds:
  decaying_swirl   error 0.068 h^2, increment  9-12 h^2  -> C = 0.3, 25
  taylor (forced)  error 1.8 h^2,   increment 55-70 h^2  -> C = 4,  100
The increment error has a part that does not grow with t (the first
projection), so the increment check needs t_end >= 0.02 for the forced
Taylor vortex; the short sweep scenarios skip it.
The errors are set by the h^2 spatial error, so a second-order change of
the time scheme (Crank-Nicolson viscous terms) is expected to stay well
inside these bounds; that has not been run.  Mutants of the solver showed
that halving the centrifugal source or a first-order radial derivative
pushes the Taylor increment error above its bound (105-128 h^2), while
forward Euler at the diffusive dt is not detectable at these short
horizons (its error stays below the spatial one).
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

from workloads import RHO_MAX, Z_MAX, Z_MIN, exact_velocity, read_checkpoint

ERROR_C = {"decaying_swirl": 0.3, "taylor_vortex_swirl": 4.0}
INCREMENT_C = {"decaying_swirl": 25.0, "taylor_vortex_swirl": 100.0}
DIVERGENCE_REL = 1e-10  # max|div| * h / max|u|
VELOCITY = ("u_rho", "u_phi", "u_z")


def kinetic_energy(f, n):
    rho = ((np.arange(n) + 0.5) * (RHO_MAX / n))[:, None]
    return float(np.sum(rho * sum(f[k] ** 2 for k in VELOCITY)))


def divergence(f, n):
    """Face-flux divergence on the axis-offset grid (the solver's D)."""
    dr, dz = RHO_MAX / n, (Z_MAX - Z_MIN) / n
    rho = ((np.arange(n) + 0.5) * dr)[:, None]
    faces = ((np.arange(n - 1) + 1.0) * dr)[:, None]
    ur, uz = f["u_rho"], f["u_z"]
    wall = np.zeros((1, ur.shape[1]))
    flux = np.concatenate([wall, faces * 0.5 * (ur[:-1] + ur[1:]), wall])
    d_z = (np.roll(uz, -1, axis=1) - np.roll(uz, 1, axis=1)) / (2.0 * dz)
    return np.diff(flux, axis=0) / (rho * dr) + d_z


def check_scenario(outdir, expect) -> list[str]:
    """Failure messages for one scenario's artifacts (empty when it passes)."""
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        paths = sorted(glob.glob(os.path.join(outdir, "checkpoint_*.bin")))
        if len(paths) < 2:
            return [f"{outdir}: fewer than two checkpoints"]
        h0, first = read_checkpoint(paths[0])
        h1, last = read_checkpoint(paths[-1])
    except (OSError, ValueError, KeyError) as exc:
        return [f"{outdir}: unreadable artifacts: {exc}"]
    fails = [f"{outdir}: asserted check {c.get('name')} FAIL"
             for c in report.get("checks", [])
             if c.get("asserted") and c.get("status") == "FAIL"]
    if report.get("truncated"):
        fails.append(f"{outdir}: trajectory truncated")
    if not math.isclose(h1["time"], expect["t_end"], rel_tol=1e-9):
        fails.append(f"{outdir}: last checkpoint at t={h1['time']}, "
                     f"not t_end={expect['t_end']}")
    if not all(np.all(np.isfinite(a)) for a in last.values()):
        return fails + [f"{outdir}: non-finite fields"]
    n, h = expect["n"], 1.0 / expect["n"]
    if expect["analytic"] is None:
        e0, e1 = kinetic_energy(first, n), kinetic_energy(last, n)
        if e1 > e0 * (1.0 + 1e-12):
            fails.append(f"{outdir}: kinetic energy grew {e0!r} -> {e1!r}")
        umax = max(float(np.max(np.abs(last[k]))) for k in VELOCITY)
        div = float(np.max(np.abs(divergence(last, n)))) * h / max(umax, 1e-300)
        if div > DIVERGENCE_REL:
            fails.append(f"{outdir}: relative divergence {div:.3e} > {DIVERGENCE_REL}")
        return fails
    kind, params = expect["analytic"]
    ex0 = exact_velocity(kind, params, n, h0["time"])
    ex1 = exact_velocity(kind, params, n, h1["time"])
    err = max(float(np.max(np.abs(last[k] - e))) for k, e in zip(VELOCITY, ex1))
    scale = max(float(np.max(np.abs(e))) for e in ex1)
    inc = max(float(np.max(np.abs(last[k] - first[k] - (e1 - e0))))
              for k, e0, e1 in zip(VELOCITY, ex0, ex1))
    inc_scale = max(float(np.max(np.abs(e1 - e0))) for e0, e1 in zip(ex0, ex1))
    bounds = [("error", err / scale, ERROR_C[kind])]
    if expect["increment"]:
        bounds.append(("increment error", inc / inc_scale, INCREMENT_C[kind]))
    for what, val, c in bounds:
        if not val <= c * h * h:
            fails.append(f"{outdir}: relative {what} {val:.3e} > {c} h^2 = {c * h * h:.3e}")
    return fails


def check_invocation(code, out_root, expects) -> list[str]:
    fails = [] if code == 0 else [f"exit code {code}"]
    for e in expects:
        fails += check_scenario(os.path.join(out_root, e["out"]), e)
    return fails
