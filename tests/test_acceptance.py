"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see every verdict;
without -s pytest only shows the lines of failing criteria.
"""

import json
import math

import numpy as np

from axiswirl.cli import OUTPUT_ROOT_ENV, SCHEMA_VERSION, run_scenario
from axiswirl.exponents import check_admissible, derive_exponents, holder_young_pairs
from axiswirl.fields import div_adjoint, divergence, curl_axisym, velocity_gradient, zero_forcing, zero_state
from axiswirl.grid import build_grid, moment, serrin_advance
from axiswirl.monitor import Diagnostics, MonitorConfig, checkpoint_view, monitor_for, transport_cancellation
from axiswirl.solver import SimConfig, kinetic_energy, project, run
from axiswirl import mms
from tests.conftest import NU, SUB_CHECKS

FOUR_PI = 4.0 * math.pi


def _verdict(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_exponent_identities():
    rng = np.random.default_rng(2024)
    ok = True
    checked = 0
    while checked < 70_000:  # interior finite-b triples
        a = 1.5 + rng.uniform(1e-3, 25.0)
        b = 1.0 + rng.uniform(1e-3, 25.0)
        slack = 1.0 - 3.0 / a - 2.0 / b
        if slack <= 0.0:
            continue
        gamma = rng.uniform(-0.99, slack)
        e = derive_exponents(a, b, gamma)
        ok &= abs(e.alpha - a) <= 1e-9 * a
        ok &= abs(e.theta - b / a) <= 1e-9
        ok &= e.beta >= a * gamma - 1e-9 * max(1.0, abs(a * gamma))
        checked += 1
    while checked < 85_000:  # boundary triples: equality of the weight power
        a = 1.5 + rng.uniform(1e-3, 25.0)
        b = 1.0 + rng.uniform(1e-3, 25.0)
        gamma = 1.0 - 3.0 / a - 2.0 / b
        if gamma <= -0.99:
            continue
        # rounding can push the sum one ulp past the boundary; nudge back
        while check_admissible(a, b, gamma):
            gamma = math.nextafter(gamma, -math.inf)
        e = derive_exponents(a, b, gamma)
        ok &= abs(e.alpha - a) <= 1e-9 * a
        ok &= abs(e.theta - b / a) <= 1e-9
        ok &= abs(e.beta - a * gamma) <= 1e-9 * max(1.0, abs(a * gamma))
        checked += 1
    while checked < 100_000:  # supremum branch with gamma = 1 - delta - 3/a
        a = 1.5 + rng.uniform(1e-3, 25.0)
        ceiling = (2.0 * a - 3.0) / a
        if ceiling <= 2e-3:
            continue
        delta = rng.uniform(1e-3, ceiling - 1e-3)
        gamma = 1.0 - delta - 3.0 / a
        if gamma <= -0.99:
            continue
        while check_admissible(a, math.inf, gamma):
            gamma = math.nextafter(gamma, -math.inf)
        e = derive_exponents(a, math.inf, gamma)
        ok &= abs(e.alpha - a) <= 1e-9 * a
        ok &= abs(e.beta - a * gamma) <= 1e-9 * max(1.0, abs(a * gamma))
        checked += 1
    _verdict(1, ok, "exponent identities on 1e5 random admissible triples")


def test_criterion_02_conjugate_pairs():
    rng = np.random.default_rng(7)
    ok = True
    checked = 0
    while checked < 2000:
        a = 1.5 + rng.uniform(1e-3, 25.0)
        b = 1.0 + rng.uniform(1e-3, 25.0)
        slack = 1.0 - 3.0 / a - 2.0 / b
        if slack <= 0.0:
            continue
        e = derive_exponents(a, b, rng.uniform(-0.99, slack))
        for _name, x, y in holder_young_pairs(e):
            ok &= abs(1.0 / x + 1.0 / y - 1.0) <= 1e-12
        checked += 1
    _verdict(2, ok, "Holder/Young conjugate pairs sum to 1 within 1e-12")


def test_criterion_03_quadrature():
    ok = True
    for n_rho, n_z in ((2, 2), (9, 5), (32, 32), (128, 128), (77, 13)):
        g = build_grid(n_rho, n_z)
        vol = moment(np.ones(g.shape), g)
        ok &= abs(vol - FOUR_PI) <= 1e-12 * FOUR_PI
    exact = 2.0 * math.pi * 8.0 / 3.0
    errs = []
    for n in (8, 16, 32):
        g = build_grid(n, 4)
        errs.append(abs(moment(np.broadcast_to(g.rho, g.shape), g) - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok &= all(o >= 1.9 for o in orders)
    _verdict(3, ok, "volume 4*pi within 1e-12 on any grid; "
                    "radial moment converges at order 2")


def test_criterion_04_operator_correctness():
    ok = True
    g = build_grid(64, 8)
    rho = np.broadcast_to(g.rho, g.shape)
    rot = zero_state(g).replace_fields(u_phi=rho)
    ok &= float(np.max(np.abs(
        curl_axisym(rot, velocity_gradient(rot))[2][:-1] - 2.0))) <= 1e-12
    rad = zero_state(g).replace_fields(u_rho=rho.copy())
    ok &= float(np.max(np.abs(divergence(rad)[:-1] - 2.0))) <= 1e-12
    kind = "taylor_vortex_swirl"
    grids = mms.grid_levels(12, 3)
    curl_orders = mms.convergence_order(kind, grids, quantity="curl")["orders"]
    div_orders = mms.convergence_order(kind, grids, quantity="divergence")["orders"]
    ok &= all(o >= 1.9 for o in curl_orders + div_orders)
    _verdict(4, ok, "rigid-rotation curl = 2 and linear-field divergence = 2 "
                    "within 1e-12; curl/divergence order >= 1.9")


def test_criterion_05_projection():
    g = build_grid(32, 32)
    sol = mms.make_solution("taylor_vortex_swirl", {}, g)
    v = mms.sample_state(sol, 0.0)

    def div_norm(s):
        return float(np.sqrt(np.sum(g.rho * divergence(s) ** 2)))

    before = div_norm(v)
    once = project(v)
    ok = div_norm(once) <= 1e-8 * before

    twice = project(once)
    scale = max(np.max(np.abs(once.u_rho)), np.max(np.abs(once.u_z)))
    drift = max(
        np.max(np.abs(twice.u_rho - once.u_rho)),
        np.max(np.abs(twice.u_z - once.u_z)),
    )
    ok &= drift <= 1e-12 * scale

    rho, z = g.meshgrid()
    phi = np.cos(2.0 * math.pi * z) * (1.0 - (rho / 2.0) ** 2) ** 2 + 0.3 * rho**2
    cr, cz = div_adjoint(phi, g)
    gscale = max(np.max(np.abs(cr)), np.max(np.abs(cz)))
    gp = project(zero_state(g).replace_fields(u_rho=cr, u_z=cz))
    ok &= max(np.max(np.abs(gp.u_rho)),
              np.max(np.abs(gp.u_z))) <= 1e-8 * gscale
    _verdict(5, ok, "projection: relative divergence <= 1e-8, idempotent "
                    "within 1e-12, gradient inputs map to zero within 1e-8")


def test_criterion_06_energy_audit(audit_run):
    energies = [kinetic_energy(s) for s in audit_run["states"]]
    ok = len(energies) == 201 and all(
        e1 - e0 <= 1e-10 * e0 for e0, e1 in zip(energies, energies[1:])
    )
    _verdict(6, ok, "unforced 200-step kinetic energy non-increasing per "
                    "step within 1e-10 relative")


def test_criterion_07_solver_convergence(solver_study, lopsided_study):
    ok = all(1.8 <= o <= 2.2 for o in solver_study["orders"])
    ok &= all(0.7 <= o <= 1.3 for o in lopsided_study["orders"])
    _verdict(7, ok, f"solver order {[round(o, 2) for o in solver_study['orders']]}"
                    f" in [1.8, 2.2]; negative control "
                    f"{[round(o, 2) for o in lopsided_study['orders']]} near 1")


def test_criterion_08_transport_cancellation():
    constants = []
    ok = True
    for n in (12, 24, 48):
        g = build_grid(n, n)
        sol = mms.make_solution("taylor_vortex_swirl", {}, g)
        v = project(mms.sample_state(sol, 0.0))
        delta = min(g.d_rho, g.d_z)
        tc = transport_cancellation(v, 4)
        ok &= abs(tc) <= 0.1 * delta**2
        constants.append(abs(tc) / delta**2)
    ok &= max(constants) <= 1.5 * min(constants)
    _verdict(8, ok, f"transport cancellation O(Delta^2) with stable constant "
                    f"{[round(c, 4) for c in constants]}")


def test_criterion_09_sub_margins(audit_run, forced_taylor):
    ok = True
    for runinfo in (audit_run, forced_taylor):
        for r in runinfo["records"]:
            if not r.margins:
                continue
            for name in SUB_CHECKS:
                scale = max(r.margins[name + "_scale"], 1e-300)
                ok &= r.margins[name] >= -1e-12 * scale
    _verdict(9, ok, "all Holder/Young sub-margins >= -1e-12 relative on "
                    "every checkpoint of both reference trajectories")


def test_criterion_10_growth_coefficient_contract(exp640):
    g = build_grid(16, 8)
    rho, z = g.meshgrid()
    m = MonitorConfig(exponents=exp640, nu=NU, c_sob=0.09)
    ok = True
    for amp in (0.0, 0.4, 1.7):
        v = zero_state(g).replace_fields(
            u_rho=amp * rho * (1.0 - (rho / 2.0) ** 2) * (1.1 + np.cos(z)))
        ok &= checkpoint_view(v, zero_forcing(g), m).d_t == float(m.q)
    c = 0.7
    f = np.full(g.shape, c)
    acc = 0.0
    for _ in range(40):
        acc = serrin_advance(acc, moment(f**6.0, g, 0.0), 6.0, 4.0, 0.005)
    exact = 0.2 * (c**6 * FOUR_PI) ** (4.0 / 6.0)
    ok &= abs(acc - exact) <= 1e-10 * exact
    _verdict(10, ok, "d(t) = q exactly for nonnegative radial flow; constant-"
                     "field Serrin accumulator matches closed form within 1e-10")


def test_criterion_11_gronwall_dominance(audit_run):
    records = audit_run["records"]
    m = audit_run["monitor"]
    premise = all(r.margins["swirl_budget"] >= 0.0
                  for r in records if r.margins)
    ok = premise
    for r in records:
        ok &= r.gronwall_envelope >= r.swirl_q_norm ** m.q * (1.0 - 1e-6)
    _verdict(11, ok, "envelope dominates the swirl norm on a 200-step run "
                     "with nonnegative per-step margins")


def test_criterion_12_eps_sequence_and_quartic_identity(audit_run, exp640):
    eps_list = audit_run["monitor"].epsilon_list
    ok = True
    for r in audit_run["records"]:
        if not r.margins:
            continue
        margins = [r.margins[f"vorticity_budget_eps_{e:g}"] for e in eps_list]
        gaps = [abs(b - a) for a, b in zip(margins, margins[1:])]
        ok &= all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:]))

    residuals = []
    for n in (16, 32, 64):
        g = build_grid(n, n)
        sol = mms.make_solution("decaying_swirl", {"nu": NU}, g)
        dt = 0.1 * min(g.d_rho, g.d_z) ** 2 / NU
        cfg = SimConfig(nu=NU, t_end=5 * dt, dt=dt)
        diagnostics = Diagnostics(monitor_for(g, exp640, NU))
        for s, _ in run(cfg, mms.sample_state(sol, 0.0)):
            diagnostics.add(s)
        residuals.append(max(abs(r.margins["quartic_identity_residual"])
                             for r in diagnostics.records if r.margins))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok &= all(o >= 1.0 for o in orders)
    _verdict(12, ok, f"vorticity margins converge as eps -> 0; quartic "
                     f"identity residual order {[round(o, 2) for o in orders]}"
                     f" >= 1 under joint refinement")


def test_criterion_13_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "grid": {"n_rho": 16, "n_z": 8},
        "solver": {"nu": NU, "t_end": 0.01, "dt": 1e-3},
        "exponents": {"a": 6, "b": 4, "gamma": 0},
        "initial_data": {"kind": "decaying_swirl", "params": {"nu": NU}},
    }
    blobs = []
    for name in ("d1", "d2"):
        doc["output"] = {"directory": name}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert run_scenario(str(path)) == 0
        blobs.append((tmp_path / name / "diagnostics.csv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _verdict(13, ok, "repeated identical scenarios produce byte-identical "
                     "diagnostics CSVs")
