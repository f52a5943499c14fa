"""Manufactured solutions and refinement studies."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axiswirl.errors import ConfigurationError
from axiswirl.fields import divergence
from axiswirl.grid import build_grid
from axiswirl.monitor import collect_diagnostics
from axiswirl import mms, monitor


def test_known_kinds():
    for kind in mms.KINDS:
        sol = mms.make_solution(kind, {})
        assert sol.kind == kind
    with pytest.raises(ConfigurationError):
        mms.make_solution("nonsense", {})


def test_rigid_rotation_is_unforced():
    sol = mms.make_solution("rigid_rotation", {"omega": 2.0})
    g = build_grid(16, 8)
    f = mms.forcing_for(sol, 0.05, g, 0.0)
    for comp in (f.h_rho, f.h_phi, f.h_z):
        assert np.max(np.abs(comp)) == 0.0


def test_decaying_swirl_forcing_matches_viscosity():
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1})
    g = build_grid(16, 8)
    matched = mms.forcing_for(sol, 0.1, g, 0.0)
    assert np.max(np.abs(matched.h_phi)) == 0.0
    mismatched = mms.forcing_for(sol, 0.2, g, 0.0)
    assert np.max(np.abs(mismatched.h_phi)) > 0.0


def test_decaying_swirl_wall_and_decay():
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1})
    lam = sol.meta["lambda"]
    rho = np.array([[2.0]])
    z = np.array([[0.0]])
    # J1 root at the wall: the swirl vanishes there
    assert abs(sol.u_phi.val(rho, z, 0.0)) <= 1e-12
    # exponential decay rate nu * lambda^2
    v0 = sol.u_phi.val(np.array([[0.5]]), z, 0.0)
    v1 = sol.u_phi.val(np.array([[0.5]]), z, 1.0)
    assert v1 / v0 == pytest.approx(math.exp(-0.1 * lam**2), rel=1e-12)


def test_taylor_sampled_divergence_refines():
    sol = mms.make_solution("taylor_vortex_swirl", {})
    result = mms.convergence_order(sol, mms.grid_levels(12, 3),
                                   quantity="divergence")
    assert all(o >= 1.9 for o in result["orders"]), result


def test_curl_convergence():
    sol = mms.make_solution("taylor_vortex_swirl", {})
    result = mms.convergence_order(sol, mms.grid_levels(12, 3), quantity="curl")
    assert all(o >= 1.9 for o in result["orders"]), result


def test_operator_convergence():
    sol = mms.make_solution("taylor_vortex_swirl", {})
    result = mms.convergence_order(sol, mms.grid_levels(16, 3),
                                   quantity="operator", nu=0.1)
    assert all(o >= 1.9 for o in result["orders"]), result


def test_solver_convergence_second_order(solver_study):
    assert all(1.8 <= o <= 2.2 for o in solver_study["orders"]), solver_study


def test_negative_control_first_order(lopsided_study):
    assert all(0.7 <= o <= 1.3 for o in lopsided_study["orders"]), lopsided_study


def test_negative_control_first_order_on_non_doubling_levels(taylor_sol):
    # levels 8, 12, 16 refine by 3/2 and 4/3, not by 2
    grids = [build_grid(n, n) for n in (8, 12, 16)]
    study = mms.convergence_order(taylor_sol, grids, quantity="lopsided_curl")
    assert all(0.7 <= o <= 1.3 for o in study["orders"]), study


def test_taylor_divergence_free_analytically():
    # the stream-function construction makes (u_rho, u_z) exactly
    # divergence-free in the continuum; check the analytic identity
    # (1/rho) d(rho u_rho)/drho + d(u_z)/dz = 0 pointwise
    sol = mms.make_solution("taylor_vortex_swirl", {})
    g = build_grid(20, 20)
    rho, z = g.meshgrid()
    div = (sol.u_rho.d_rho(rho, z, 0.1) + sol.u_rho.val(rho, z, 0.1) / rho
           + sol.u_z.d_z(rho, z, 0.1))
    assert np.max(np.abs(div)) <= 1e-12


def test_convergence_study_validation():
    sol = mms.make_solution("taylor_vortex_swirl", {})
    with pytest.raises(ConfigurationError):
        mms.convergence_order(sol, mms.grid_levels(8, 1))
    with pytest.raises(ConfigurationError):
        mms.convergence_order(sol, mms.grid_levels(8, 2), quantity="bogus")
    with pytest.raises(ConfigurationError, match="finer"):
        mms.convergence_order(sol, [build_grid(8, 8), build_grid(8, 8)])


def test_grid_levels():
    grids = mms.grid_levels(8, 3)
    assert [g.n_rho for g in grids] == [8, 16, 32]
    assert all(g.rho_max == 2.0 for g in grids)


def test_sampled_state_matches_analytic_curl_refinement():
    # the sampled discrete state feeds the monitor; its divergence must
    # already be small before projection on fine grids
    sol = mms.make_solution("taylor_vortex_swirl", {})
    g = build_grid(64, 64)
    v = mms.sample_state(sol, g, 0.0)
    assert np.max(np.abs(divergence(v)[:-1])) <= 0.05


# --- Bessel quadrature, separable sampling, forcing memo ----------------------

def test_bessel_quadrature_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.linspace(0.0, 12.0, 4801)
    assert np.max(np.abs(mms.J0(x) - special.j0(x))) <= 1e-15
    assert np.max(np.abs(mms.J1(x) - special.j1(x))) <= 1e-15
    # the swirl profile is J1 between the axis and its first zero
    x = np.concatenate([np.geomspace(1e-300, 1e-3, 200),
                        np.linspace(1e-3, 3.5, 3501)])
    assert np.max(np.abs(mms.J1(x) / special.j1(x) - 1.0)) <= 1e-14
    lam = mms.make_solution("decaying_swirl", {"rho_max": 1.0}).meta["lambda"]
    assert lam == pytest.approx(special.jn_zeros(1, 1)[0], rel=1e-15)


@given(amplitude=st.floats(1e-3, 1e3), rho_max=st.floats(0.1, 10.0))
def test_swirl_pressure_closed_form_matches_quadrature(amplitude, rho_max):
    # p(rho) = integral_0^rho u_phi^2 / r dr, the defining integral
    integrate = pytest.importorskip("scipy.integrate")
    sol = mms.make_solution("decaying_swirl", {"amplitude": amplitude,
                                               "rho_max": rho_max})
    t = 0.7
    rho = np.linspace(0.0, rho_max, 9)[1:]
    zero = np.zeros(1)
    closed = sol.p.val(rho[:, None], zero[None, :], t)[:, 0]

    def integrand(r):
        return float(sol.u_phi.val(np.array([[r]]), zero[None, :], t)[0, 0]) ** 2 / r

    ref = [integrate.quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-13)[0]
           for r in rho]
    scale = amplitude**2 * math.exp(-2.0 * sol.u_phi.terms[0].mu * t)
    assert np.max(np.abs(closed - ref)) <= 1e-14 * scale
    # p(0) = 0, the lower limit of the integral
    assert sol.p.val(np.array([[0.0]]), zero[None, :], t)[0, 0] == 0.0


def test_swirl_pressure_balances_the_centrifugal_force():
    # one separable term: d_rho p = u_phi^2 / rho, p'' by central
    # differences of p', and no z-dependence
    sol = mms.make_solution("decaying_swirl", {"amplitude": 1.3})
    g = build_grid(16, 8)
    on = sol.on_grid(g)
    rho, z = g.rho, g.z_centers[None, :]
    for t in (0.0, 0.4):
        centrifugal = on.u_phi.val(rho, z, t) ** 2 / rho
        assert np.max(np.abs(on.p.d_rho(rho, z, t) - centrifugal)) \
            <= 1e-15 * np.max(centrifugal)
        assert np.max(np.abs(on.p.d_z(rho, z, t))) == 0.0
    r, h = np.linspace(0.05, 2.0, 40)[:, None], 1e-5
    fd = (sol.p.d_rho(r + h, z, 0.0) - sol.p.d_rho(r - h, z, 0.0)) / (2 * h)
    assert np.max(np.abs(sol.p.d2_rho(r, z, 0.0) - fd)) <= 1e-8


def test_forcing_on_a_second_grid_matches_its_reference():
    # forcing_for samples the profiles once per grid: a second grid must get
    # its own samples, not the first grid's
    sol = mms.make_solution("taylor_vortex_swirl", {})
    nu, t = 0.05, 0.3
    for g in (build_grid(12, 10), build_grid(8, 6), build_grid(12, 10)):
        rho, z = g.meshgrid()
        forcing = mms.forcing_for(sol, nu, g, t)
        reference = mms.forcing_components(sol, nu, rho, z, t)
        for comp, ref in zip((forcing.h_rho, forcing.h_phi, forcing.h_z),
                             reference):
            assert np.array_equal(comp, ref)
        state = mms.sample_state(sol, g, t)
        assert np.array_equal(state.u_phi, sol.u_phi.val(rho, z, t))


def _assert_same(actual, expected, rtol):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


@pytest.mark.parametrize("kind", mms.KINDS)
def test_separable_sampling_matches_meshgrid(kind):
    # bit-equal for the polynomial kinds: the per-point arithmetic is the
    # same, only broadcast; the Bessel sums may reassociate
    rtol = 1e-15 if kind == "decaying_swirl" else 0.0
    sol = mms.make_solution(kind, {})
    g = build_grid(12, 10)
    rho, z = g.meshgrid()
    t, nu = 0.3, 0.05
    state = mms.sample_state(sol, g, t)
    for name, fld in (("u_rho", sol.u_rho), ("u_phi", sol.u_phi),
                      ("u_z", sol.u_z), ("pressure", sol.p)):
        _assert_same(getattr(state, name), fld.val(rho, z, t), rtol)
    forcing = mms.forcing_for(sol, nu, g, t)
    if sol.homogeneous_nu is not None and math.isinf(sol.homogeneous_nu):
        reference = (np.zeros(g.shape),) * 3
    else:
        reference = mms.forcing_components(sol, nu, rho, z, t)
    for comp, ref in zip((forcing.h_rho, forcing.h_phi, forcing.h_z), reference):
        _assert_same(comp, ref, rtol)


def test_forcing_callable_remembers_two_times(monkeypatch):
    calls = []
    real = mms.forcing_for

    def counted(sol, nu, grid, t):
        calls.append(t)
        return real(sol, nu, grid, t)

    monkeypatch.setattr(mms, "forcing_for", counted)
    sol = mms.make_solution("taylor_vortex_swirl", {})
    forcing_at = mms.forcing_callable(sol, 0.1, build_grid(8, 8))
    # the Heun pattern: t, t + dt, then t + dt again on the next step
    for t in (0.0, 0.1, 0.1, 0.2, 0.2, 0.3):
        forcing_at(t)
    assert calls == [0.0, 0.1, 0.2, 0.3]
    # back to the start of the last step, then on
    for t in (0.2, 0.3, 0.4, 0.2):
        forcing_at(t)
    assert calls == [0.0, 0.1, 0.2, 0.3, 0.4, 0.2]
    assert forcing_at(0.2) is forcing_at(0.2)


def test_monitor_evaluates_forcing_once_per_checkpoint(forced_taylor):
    times = []

    def forcing_at(t):
        times.append(t)
        return forced_taylor["forcing"](t)

    checkpoints = forced_taylor["traj"].checkpoints[:4]
    collect_diagnostics(checkpoints, forced_taylor["monitor"],
                        forcing_at=forcing_at)
    assert times == [v.time for v in checkpoints]


def test_monitor_evaluates_curl_once_per_checkpoint(forced_taylor, monkeypatch):
    calls = []
    real = monitor.curl_axisym

    def counted(v):
        calls.append(v.time)
        return real(v)

    monkeypatch.setattr(monitor, "curl_axisym", counted)
    checkpoints = forced_taylor["traj"].checkpoints[:4]
    collect_diagnostics(checkpoints, forced_taylor["monitor"],
                        forcing_at=forced_taylor["forcing"])
    assert calls == [v.time for v in checkpoints]


def test_import_generates_no_code():
    # the records are plain classes and the profiles coefficient arrays, so
    # importing the command line loads neither of these modules
    src = os.path.dirname(os.path.dirname(mms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, axiswirl.cli; "
            "print(sorted({'dataclasses', 'numpy.polynomial'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(mms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, axiswirl.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0
