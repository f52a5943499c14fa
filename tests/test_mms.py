"""Manufactured solutions and refinement studies."""

import glob
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axiswirl.cli import OUTPUT_ROOT_ENV, main, read_checkpoint
from axiswirl.errors import ConfigurationError
from axiswirl.fields import divergence
from axiswirl.grid import build_grid
from axiswirl.solver import J11
from axiswirl import mms, monitor
from tests.conftest import collect


def test_known_kinds():
    g = build_grid(8, 8)
    for kind in mms.KINDS:
        mms.make_solution(kind, {}, g)
    with pytest.raises(ConfigurationError):
        mms.make_solution("nonsense", {}, g)


def test_rigid_rotation_is_unforced():
    g = build_grid(16, 8)
    sol = mms.make_solution("rigid_rotation", {"omega": 2.0}, g)
    f = mms.forcing_callable(sol, 0.05)(0.0)
    assert f.shape == (3, *g.shape) and np.max(np.abs(f)) == 0.0


@pytest.mark.parametrize("params,field", [
    ({"amplitud": 5.0}, "amplitud"), ({"nu": 0.1}, "nu")])
def test_taylor_params_name_the_key_at_fault(params, field):
    with pytest.raises(ConfigurationError) as exc:
        mms.make_solution("taylor_vortex_swirl", params, build_grid(8, 8))
    assert exc.value.field == field
    with pytest.raises(ConfigurationError) as exc:
        mms.solution_params("zero", params)
    assert exc.value.field == field


def test_decaying_swirl_forcing_matches_viscosity():
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1}, build_grid(16, 8))
    matched = mms.forcing_callable(sol, 0.1)(0.0)
    assert np.max(np.abs(matched[1])) == 0.0
    mismatched = mms.forcing_callable(sol, 0.2)(0.0)
    assert np.max(np.abs(mismatched[1])) > 0.0


def test_decaying_swirl_wall_and_decay():
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1}, build_grid(2, 2))
    lam = J11 / sol.grid.rho_max
    # J1 root at the wall: the swirl vanishes there
    assert abs(mms._bessel_j1_profile(lam)[0](np.array([[2.0]]))) <= 1e-12
    # exponential decay rate nu * lambda^2, at the cell centre rho = 0.5
    v0 = sol.velocity(0.0)[1, 0, 0]
    v1 = sol.velocity(1.0)[1, 0, 0]
    assert v1 / v0 == pytest.approx(math.exp(-0.1 * lam**2), rel=1e-12)


def test_taylor_sampled_divergence_refines():
    result = mms.convergence_order("taylor_vortex_swirl", mms.grid_levels(12, 3),
                                   quantity="divergence")
    assert all(o >= 1.9 for o in result["orders"]), result


def test_curl_convergence():
    result = mms.convergence_order("taylor_vortex_swirl", mms.grid_levels(12, 3),
                                   quantity="curl")
    assert all(o >= 1.9 for o in result["orders"]), result


def test_operator_convergence():
    result = mms.convergence_order("taylor_vortex_swirl", mms.grid_levels(16, 3),
                                   quantity="operator", nu=0.1)
    assert all(o >= 1.9 for o in result["orders"]), result


def test_solver_convergence_second_order(solver_study):
    assert all(1.8 <= o <= 2.2 for o in solver_study["orders"]), solver_study


@pytest.mark.parametrize("base", [8, 16])
def test_forced_taylor_solver_second_order(base):
    # the one solver study of a flow with advection: criterion 07 runs the
    # decaying swirl, whose u_rho and u_z are 0.  Levels base, 2 base and
    # 4 base cells, against the bar of `axiswirl mms`
    result = mms.convergence_order("taylor_vortex_swirl",
                                   mms.grid_levels(base, 3), quantity="solver")
    assert all(o >= 1.9 for o in result["orders"]), result


def test_negative_control_first_order(lopsided_study):
    assert all(0.7 <= o <= 1.3 for o in lopsided_study["orders"]), lopsided_study


def test_negative_control_first_order_on_non_doubling_levels():
    # levels 8, 12, 16 refine by 3/2 and 4/3, not by 2
    grids = [build_grid(n, n) for n in (8, 12, 16)]
    study = mms.convergence_order("taylor_vortex_swirl", grids,
                                  quantity="lopsided_curl")
    assert all(0.7 <= o <= 1.3 for o in study["orders"]), study


def test_taylor_divergence_free_analytically():
    # the stream-function construction makes (u_rho, u_z) exactly
    # divergence-free in the continuum; check the analytic identity
    # (1/rho) d(rho u_rho)/drho + d(u_z)/dz = 0 pointwise
    g = build_grid(20, 20)
    sol = mms.make_solution("taylor_vortex_swirl", {}, g)
    div = (sol.velocity(0.1, "d_rho")[0] + sol.velocity(0.1)[0] / g.rho
           + sol.velocity(0.1, "d_z")[2])
    assert np.max(np.abs(div)) <= 1e-12


def test_convergence_study_validation():
    kind = "taylor_vortex_swirl"
    with pytest.raises(ConfigurationError):
        mms.convergence_order(kind, mms.grid_levels(8, 1))
    with pytest.raises(ConfigurationError):
        mms.convergence_order(kind, mms.grid_levels(8, 2), quantity="bogus")
    with pytest.raises(ConfigurationError, match="finer"):
        mms.convergence_order(kind, [build_grid(8, 8), build_grid(8, 8)])


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("quantity", ["solver", "operator", "curl",
                                      "divergence", "lopsided_curl"])
def test_convergence_order_rejects_nu(quantity, nu):
    # at entry, for every quantity: not a ZeroDivisionError in the solver
    # study's dt, a ContractViolation from viscous_rhs, or silently ignored
    with pytest.raises(ConfigurationError, match="nu must be a positive"):
        mms.convergence_order("taylor_vortex_swirl", mms.grid_levels(8, 2),
                              quantity=quantity, nu=nu)


def test_grid_levels():
    grids = mms.grid_levels(8, 3)
    assert [g.n_rho for g in grids] == [8, 16, 32]
    assert all(g.rho_max == 2.0 for g in grids)


def test_sampled_state_matches_analytic_curl_refinement():
    # the sampled discrete state feeds the monitor; its divergence must
    # already be small before projection on fine grids
    g = build_grid(64, 64)
    v = mms.sample_state(mms.make_solution("taylor_vortex_swirl", {}, g), 0.0)
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
    assert J11 == pytest.approx(special.jn_zeros(1, 1)[0], rel=1e-15)


@given(amplitude=st.floats(1e-3, 1e3), rho_max=st.floats(0.1, 10.0))
def test_swirl_pressure_closed_form_matches_quadrature(amplitude, rho_max):
    # p(rho) = integral_0^rho u_phi^2 / r dr, the defining integral
    # the points lie off the grid, so the profiles are evaluated directly,
    # each times its coef (A and A^2 / 2) and its field's decay factor
    integrate = pytest.importorskip("scipy.integrate")
    sol = mms.make_solution("decaying_swirl", {"amplitude": amplitude},
                            build_grid(8, 2, rho_max=rho_max))
    lam = J11 / rho_max
    swirl = (amplitude, sol.mu)
    pressure = (0.5 * amplitude * amplitude, 2.0 * sol.mu)
    t = 0.7

    def at(term, profile, r):
        coef, mu = term
        return coef * math.exp(-mu * t) * profile[0](r)

    rho = np.linspace(0.0, rho_max, 9)[1:]
    closed = at(pressure, mms._swirl_pressure_profile(lam), rho)

    def integrand(r):
        return float(at(swirl, mms._bessel_j1_profile(lam), r)) ** 2 / r

    ref = [integrate.quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-13)[0]
           for r in rho]
    scale = amplitude**2 * math.exp(-2.0 * sol.mu * t)
    assert np.max(np.abs(closed - ref)) <= 1e-14 * scale
    # p(0) = 0, the lower limit of the integral
    assert at(pressure, mms._swirl_pressure_profile(lam), 0.0) == 0.0


def test_swirl_pressure_balances_the_centrifugal_force():
    # one separable term: d_rho p = u_phi^2 / rho, p'' by central
    # differences of p', and no z-dependence
    g = build_grid(16, 8)
    sol = mms.make_solution("decaying_swirl", {"amplitude": 1.3}, g)
    for t in (0.0, 0.4):
        centrifugal = sol.velocity(t)[1] ** 2 / g.rho
        assert np.max(np.abs(sol.pressure(t, "d_rho") - centrifugal)) \
            <= 1e-15 * np.max(centrifugal)
        assert np.max(np.abs(sol.pressure(t, "d_z"))) == 0.0
    # off the grid, on the profile itself, times its coef A^2 / 2 at t = 0
    profile = mms._swirl_pressure_profile(J11 / g.rho_max)
    coef = 0.5 * 1.3 * 1.3
    r, h = np.linspace(0.05, 2.0, 40)[:, None], 1e-5
    fd = coef * (profile[1](r + h) - profile[1](r - h)) / (2 * h)
    assert np.max(np.abs(coef * profile[2](r) - fd)) <= 1e-8


def _closed_form(kind, grid, t):
    """(u_rho, u_phi, u_z, p) of kind at its default parameters on the
    grid's cell centres, from the formulas with R = rho_max and
    L = z_max - z_min of the grid (as perfbench/workloads.py writes them):

    rigid_rotation:      u_phi = rho, p = rho^2 / 2.
    decaying_swirl:      lam = j_{1,1} / R, e = exp(-0.1 lam^2 t),
        u_phi = J1(lam rho) e, p = (1 - J0(lam rho)^2 - J1(lam rho)^2) e^2 / 2.
    taylor_vortex_swirl: w = (1 - rho^2/R^2)^3, k = 2 pi / L, e = exp(-t/2),
        u_rho = -0.3 k rho w cos(kz) e,  u_z = 0.3 (2w + rho w') sin(kz) e,
        u_phi = 0.5 rho w (1 + 0.5 cos(kz)) e,  p = 0.2 rho^2 w cos(kz) e^2.
    """
    special = pytest.importorskip("scipy.special")
    rho, z = grid.meshgrid()
    big_r, length = grid.rho_max, grid.z_max - grid.z_min
    zero = np.zeros_like(rho)
    if kind == "rigid_rotation":
        return zero, rho, zero, 0.5 * rho**2
    if kind == "decaying_swirl":
        lam = special.jn_zeros(1, 1)[0] / big_r
        e = math.exp(-0.1 * lam**2 * t)
        j0, j1 = special.j0(lam * rho), special.j1(lam * rho)
        return zero, j1 * e, zero, 0.5 * (1.0 - j0**2 - j1**2) * e**2
    k = 2.0 * math.pi / length
    e = math.exp(-0.5 * t)
    s = 1.0 - (rho / big_r) ** 2
    w, dw = s**3, -6.0 * rho / big_r**2 * s**2
    return (-0.3 * k * rho * w * np.cos(k * z) * e,
            0.5 * rho * w * (1.0 + 0.5 * np.cos(k * z)) * e,
            0.3 * (2.0 * w + rho * dw) * np.sin(k * z) * e,
            0.2 * rho**2 * w * np.cos(k * z) * e**2)


def _assert_close(actual, expected, rtol):
    """Within rtol of expected's max-norm (exactly equal where that is 0)."""
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", mms.KINDS)
@given(n_rho=st.integers(2, 16), n_z=st.integers(2, 16),
       rho_max=st.floats(0.1, 10.0), z_min=st.floats(-5.0, 5.0),
       length=st.floats(0.1, 10.0), t=st.floats(0.0, 2.0))
@settings(max_examples=40)
def test_sample_state_matches_closed_forms_on_any_domain(kind, n_rho, n_z,
                                                         rho_max, z_min,
                                                         length, t):
    # a solution made on a grid solves the equations on that grid's domain
    g = build_grid(n_rho, n_z, rho_max=rho_max, z_min=z_min,
                   z_max=z_min + length)
    sol = mms.make_solution(kind, {}, g)
    state = mms.sample_state(sol, t)
    assert state.grid == g and state.time == t
    for name, ref in zip(("u_rho", "u_phi", "u_z", "pressure"),
                         _closed_form(kind, g, t)):
        _assert_close(getattr(state, name), ref, 1e-12)
    if kind != "decaying_swirl":
        return
    # lam = j_{1,1} / rho_max: the swirl vanishes at the wall
    lam = J11 / rho_max
    assert abs(mms._bessel_j1_profile(lam)[0](rho_max)) <= 1e-15
    # off its own nu the swirl needs h_phi = (nu - 0.1) lam^2 u_phi, and
    # the pressure balances the centrifugal force: h_rho = h_z = 0
    h_rho, h_phi, h_z = mms.forcing_callable(sol, 0.05)(t)
    _assert_close(h_phi, -0.05 * lam**2 * state.u_phi, 1e-12)
    assert np.max(np.abs(h_rho)) <= 1e-14 * np.max(state.u_phi**2 / g.rho)
    assert np.max(np.abs(h_z)) == 0.0


@pytest.mark.parametrize("kind,grid,t_start,c", [
    ("taylor_vortex_swirl", {"rho_max": 3.0, "z_min": 0.0, "z_max": 0.7},
     0.0, 4.0),
    ("decaying_swirl", {"rho_max": 1.0, "z_min": -1.0, "z_max": 1.0}, 0.0, 0.3),
    ("taylor_vortex_swirl", {}, 1.0, 4.0),
    ("taylor_vortex_swirl", {}, 4.0, 4.0),
], ids=["taylor_wide_short", "swirl_narrow_centred", "taylor_t_start_1",
        "taylor_t_start_4"])
def test_manufactured_run_follows_its_solution(tmp_path, monkeypatch, kind,
                                               grid, t_start, c):
    # a manufactured run on any domain, from any t_start, ends within the
    # bounds perfbench/checks.py sets on the default domain: relative
    # max-norm velocity error C h^2, h = 1/n
    n = 32
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = {"schema_version": 1, "grid": {"n_rho": n, "n_z": n, **grid},
           "solver": {"nu": 0.1, "t_start": t_start, "t_end": t_start + 0.05,
                      "checkpoint_stride": 10**9},
           "initial_data": {"kind": kind},
           "forcing": {"kind": "manufactured"},
           "output": {"directory": "out", "write_checkpoints": True}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    last = read_checkpoint(
        sorted(glob.glob(str(tmp_path / "out" / "checkpoint_*.bin")))[-1])
    assert last.time == pytest.approx(t_start + 0.05, rel=1e-12)
    exact = _closed_form(kind, last.grid, last.time)[:3]
    err = max(np.max(np.abs(getattr(last, name) - e))
              for name, e in zip(("u_rho", "u_phi", "u_z"), exact))
    assert err / max(np.max(np.abs(e)) for e in exact) <= c / n**2


@pytest.mark.parametrize("kind", mms.KINDS)
@pytest.mark.parametrize("key", ["rho_max", "z_min", "z_max", "amplitud"])
def test_make_solution_takes_only_its_kinds_parameters(kind, key):
    # the domain is the grid's: no kind takes an extent, nor a misspelling
    with pytest.raises(ConfigurationError, match=repr(key)):
        mms.make_solution(kind, {key: 1.0}, build_grid(8, 8))


# log-uniform over the positive floats (10^-300 to 10^300)
_EXTENT = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@given(kind=st.sampled_from(mms.KINDS), n_rho=st.integers(2, 16),
       n_z=st.integers(2, 16), rho_max=_EXTENT,
       z_min=st.just(0.0) | _EXTENT | _EXTENT.map(lambda x: -x),
       length=_EXTENT)
@settings(max_examples=300)
def test_extreme_extents_are_rejected_or_sampled_finite(kind, n_rho, n_z,
                                                        rho_max, z_min,
                                                        length):
    # a domain whose spacings or whose solution's constants leave the
    # floats is a ConfigurationError, never an OverflowError or a
    # ZeroDivisionError; any other gives finite samples
    try:
        sol = mms.make_solution(kind, {}, build_grid(
            n_rho, n_z, rho_max=rho_max, z_min=z_min, z_max=z_min + length))
    except ConfigurationError as exc:
        assert exc.field in (None, "rho_max", "z_max")
        return
    state = mms.sample_state(sol, 0.0)
    for f in (state.u_rho, state.u_phi, state.u_z, state.pressure):
        assert np.all(np.isfinite(f))


@given(kind=st.sampled_from(mms.KINDS), n_rho=st.integers(2, 16),
       n_z=st.integers(2, 16), rho_max=st.floats(0.1, 10.0),
       z_min=st.floats(-5.0, 5.0), length=st.floats(0.1, 10.0),
       nu=st.floats(1e-3, 10.0), t=st.floats(-2.0, 2.0))
@settings(max_examples=60)
def test_forcing_is_the_momentum_residual_at_t(kind, n_rho, n_z, rho_max,
                                               z_min, length, nu, t):
    # h = d_t u + (u . grad) u + swirl terms + grad p - nu Lap u, each
    # term from the analytic partials at t, to rounding of the largest
    g = build_grid(n_rho, n_z, rho_max=rho_max, z_min=z_min,
                   z_max=z_min + length)
    sol = mms.make_solution(kind, {}, g)
    h = mms.forcing_callable(sol, nu)(t)
    rho = g.rho
    u = sol.velocity(t)
    ur, uh, uz = u
    d = {k: sol.velocity(t, k) for k in ("d_rho", "d2_rho", "d_z", "d2_z")}

    def momentum(i, odd):
        out = [-sol.mu * u[i], ur * d["d_rho"][i], uz * d["d_z"][i],
               -nu * d["d2_rho"][i], -nu * d["d_rho"][i] / rho,
               -nu * d["d2_z"][i]]
        return out + [nu * u[i] / rho**2] if odd else out

    residual = (
        momentum(0, True) + [-uh**2 / rho, sol.pressure(t, "d_rho")],
        momentum(1, True) + [uh * ur / rho],
        momentum(2, False) + [sol.pressure(t, "d_z")],
    )
    for actual, parts in zip(h, residual):
        scale = max(float(np.max(np.abs(x))) for x in parts)
        assert np.max(np.abs(actual - sum(parts))) <= 1e-13 * scale


def test_monitor_evaluates_forcing_once_per_checkpoint(forced_taylor):
    times = []

    def forcing_at(t):
        times.append(t)
        return forced_taylor["forcing"](t)

    checkpoints = forced_taylor["states"][:4]
    collect(checkpoints, forced_taylor["monitor"], forcing_at=forcing_at)
    assert times == [v.time for v in checkpoints]


def _checkpoints_calling(name, forced_taylor, monkeypatch):
    """The times of the states that monitor.<name> is called on while four
    checkpoints are collected, and those of the checkpoints."""
    calls = []
    real = getattr(monitor, name)

    def counted(v, *grad):
        calls.append(v.time)
        return real(v, *grad)

    monkeypatch.setattr(monitor, name, counted)
    checkpoints = forced_taylor["states"][:4]
    collect(checkpoints, forced_taylor["monitor"],
            forcing_at=forced_taylor["forcing"])
    return calls, [v.time for v in checkpoints]


def test_monitor_evaluates_curl_once_per_checkpoint(forced_taylor, monkeypatch):
    calls, times = _checkpoints_calling("curl_axisym", forced_taylor,
                                        monkeypatch)
    assert calls == times


def test_monitor_differentiates_the_velocity_once_per_checkpoint(
        forced_taylor, monkeypatch):
    # one velocity_gradient per view, for the curl, ||grad u|| and the
    # quartic gradient term
    calls, times = _checkpoints_calling("velocity_gradient", forced_taylor,
                                        monkeypatch)
    assert calls == times


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
