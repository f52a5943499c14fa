"""Seeded inputs for the axiswirl benchmark.

Every workload is a set of scenario JSON files (plus, for the restart
workload, an initial checkpoint) generated from the benchmark seed.  The
program under test receives only these files.  The analytic fields and the
checkpoint reader/writer here are written against the documented formulas
and file format, independently of the package, so that the correctness
checks do not trust the code they check.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np
from scipy.special import j1, jn_zeros

RHO_MAX, Z_MIN, Z_MAX, NU = 2.0, 0.0, 1.0, 0.1
FIELDS = ("u_rho", "u_phi", "u_z", "pressure")

# BENCHMARK.json records why each workload was chosen.
WORKLOADS = ("decay-64", "taylor-forced-32", "restart-128", "sweep-32")

# Simulated end times: one invocation takes 1.2-2 s on 2 CPUs, so a run holds
# 12-20 of them.
T_END = {"decay-64": 0.012, "taylor-forced-32": 0.02, "restart-128": 0.0003,
         "sweep-32": 0.008}
NEVER = 10**9  # checkpoint stride longer than any run: initial + final only


# --- analytic manufactured solutions --------------------------------------

def seeded_params(seed: int) -> dict:
    """Manufactured-solution parameters within +-10% of the package defaults."""
    rng = random.Random(seed)

    def near(x):
        return round(x * rng.uniform(0.9, 1.1), 12)

    return {
        "decaying_swirl": {"nu": NU, "amplitude": near(1.0)},
        "taylor_vortex_swirl": {"amplitude": near(0.3), "swirl": near(0.5),
                                "swirl_z": near(0.5)},
    }


def grid_centers(n: int):
    rho = (np.arange(n) + 0.5) * (RHO_MAX / n)
    z = Z_MIN + (np.arange(n) + 0.5) * ((Z_MAX - Z_MIN) / n)
    return np.meshgrid(rho, z, indexing="ij")


def exact_velocity(kind: str, params: dict, n: int, t: float):
    """(u_rho, u_phi, u_z) of the manufactured solution on the n x n grid.

    decaying_swirl:      u_phi = A J1(lam rho) exp(-nu lam^2 t), lam = j_{1,1}/R.
    taylor_vortex_swirl: w = (1 - rho^2/R^2)^3, k = 2 pi / L, e = exp(-mu t),
        u_rho = -A k rho w cos(kz) e,  u_z = A (2w + rho w') sin(kz) e,
        u_phi = S rho w (1 + S_z cos(kz)) e   (mu = 0.5, the package default).
    """
    rho, z = grid_centers(n)
    zero = np.zeros_like(rho)
    if kind == "decaying_swirl":
        lam = float(jn_zeros(1, 1)[0]) / RHO_MAX
        u_phi = params["amplitude"] * j1(lam * rho) * math.exp(-NU * lam**2 * t)
        return zero, u_phi, zero
    if kind == "taylor_vortex_swirl":
        k = 2.0 * math.pi / (Z_MAX - Z_MIN)
        e = math.exp(-0.5 * t)
        s = 1.0 - (rho / RHO_MAX) ** 2
        w = s**3
        dw = -6.0 * rho / RHO_MAX**2 * s**2
        amp, sw = params["amplitude"], params["swirl"]
        u_rho = -amp * k * rho * w * np.cos(k * z) * e
        u_z = amp * (2.0 * w + rho * dw) * np.sin(k * z) * e
        u_phi = sw * rho * w * (1.0 + params["swirl_z"] * np.cos(k * z)) * e
        return u_rho, u_phi, u_z
    raise ValueError(f"no analytic solution for {kind!r}")


# --- checkpoint files (format documented in axiswirl.cli) -------------------

def write_checkpoint(path, n: int, time: float, arrays) -> None:
    header = {
        "format": "axiswirl-checkpoint", "version": 1,
        "grid": {"n_rho": n, "n_z": n, "rho_max": RHO_MAX,
                 "z_min": Z_MIN, "z_max": Z_MAX},
        "time": time, "fields": list(FIELDS), "dtype": "<f8",
        "order": "rho-fastest",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr.T, dtype="<f8").tobytes())


def read_checkpoint(path):
    """Return (header, {field: (n_rho, n_z) array}); ValueError if malformed."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        g = header["grid"]
        nr, nz = int(g["n_rho"]), int(g["n_z"])
        fields = {}
        for name in header["fields"]:
            raw = fh.read(8 * nr * nz)
            if len(raw) != 8 * nr * nz:
                raise ValueError(f"{path}: truncated field {name}")
            fields[name] = np.frombuffer(raw, dtype="<f8").reshape(nz, nr).T
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes")
    return header, fields


# --- scenario generation -----------------------------------------------------

def scenario(kind, n, t_end, stride, out, params=None, forcing="zero",
             path=None):
    init = {"kind": kind, "params": params or {}}
    if path is not None:
        init["path"] = path
    return {
        "schema_version": 1,
        "grid": {"n_rho": n, "n_z": n, "rho_max": RHO_MAX,
                 "z_min": Z_MIN, "z_max": Z_MAX},
        "solver": {"nu": NU, "t_start": 0.0, "t_end": t_end, "dt": None,
                   "checkpoint_stride": stride},
        "exponents": {"a": 6, "b": 4, "gamma": 0},
        "monitor": {"q": 4},
        "initial_data": init,
        "forcing": {"kind": forcing},
        "output": {"directory": out, "write_checkpoints": True},
    }


def build(workload: str, seed: int, workdir: str):
    """Write the inputs of one workload into workdir.

    Returns (argv for axiswirl, [expectation per scenario]); an expectation
    names the output directory, the analytic kind and params (None when the
    run has no closed-form solution) and t_end.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = seeded_params(seed)
    t_end = T_END[workload]
    os.makedirs(workdir, exist_ok=True)

    def put(name, doc):
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

    def expect(doc, kind_params, increment=True):
        return {"out": doc["output"]["directory"], "t_end": doc["solver"]["t_end"],
                "n": doc["grid"]["n_rho"], "analytic": kind_params,
                "increment": increment}

    if workload == "decay-64":
        doc = scenario("decaying_swirl", 64, t_end, NEVER, "decay",
                       params=p["decaying_swirl"])
        put("scenario.json", doc)
        return ["run", "scenario.json"], [expect(doc, ("decaying_swirl", p["decaying_swirl"]))]
    if workload == "taylor-forced-32":
        tp = p["taylor_vortex_swirl"]
        doc = scenario("taylor_vortex_swirl", 32, t_end, 1, "taylor",
                       params=tp, forcing="manufactured")
        put("scenario.json", doc)
        return ["run", "scenario.json"], [expect(doc, ("taylor_vortex_swirl", tp))]
    if workload == "restart-128":
        n = 128
        vel = exact_velocity("taylor_vortex_swirl", p["taylor_vortex_swirl"], n, 0.0)
        write_checkpoint(os.path.join(workdir, "initial.bin"), n, 0.0,
                         [*vel, np.zeros((n, n))])
        doc = scenario("file", n, t_end, NEVER, "restart", path="initial.bin")
        put("scenario.json", doc)
        return ["run", "scenario.json"], [expect(doc, None)]
    # sweep-32: decaying and forced Taylor scenarios only.  rigid_rotation is
    # left out on purpose: its u_phi = omega rho does not vanish at the
    # no-slip wall, so at 32^2 `axiswirl run` exits 4 with quartic_identity
    # FAIL -- the documented code for an inconsistent scenario.
    os.makedirs(os.path.join(workdir, "sweep"), exist_ok=True)
    rng = random.Random(seed)
    expects = []
    for i in range(4):
        kind = ("decaying_swirl", "taylor_vortex_swirl")[i % 2]
        params = dict(p[kind], amplitude=round(
            p[kind]["amplitude"] * rng.uniform(0.95, 1.05), 12))
        forcing = "zero" if kind == "decaying_swirl" else "manufactured"
        doc = scenario(kind, 32, t_end, 5, f"sweep_{i}", params=params,
                       forcing=forcing)
        put(os.path.join("sweep", f"s{i}.json"), doc)
        # too short for the increment check (see checks.py)
        expects.append(expect(doc, (kind, params), increment=False))
    return ["sweep", "sweep"], expects
