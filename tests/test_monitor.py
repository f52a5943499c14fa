"""Estimate monitor: growth coefficient, budgets, envelope, indicator."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axiswirl.errors import ConfigurationError, ContractViolation
from axiswirl.fields import zero_state
from axiswirl.grid import build_grid
from axiswirl.monitor import (
    DiagnosticsRecord,
    MonitorConfig,
    _integ,
    blowup_indicator,
    calibrate_sobolev,
    collect_diagnostics,
    d_of_t,
    evaluate_checks,
    gronwall_envelope,
    margin_columns,
    monitor_for,
    negative_part,
    serrin_integrand,
    transport_cancellation,
    weighted_vorticity_budget,
)
from tests.conftest import SUB_CHECKS

FOUR_PI = 4.0 * math.pi


@pytest.fixture()
def m640(exp640):
    return MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09)


def test_config_validation(exp640):
    with pytest.raises(ConfigurationError):
        MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09, q=3)
    with pytest.raises(ConfigurationError):
        MonitorConfig(exponents=exp640, nu=0.0, c_sob=0.09)
    with pytest.raises(ConfigurationError):
        MonitorConfig(exponents=exp640, nu=0.1, c_sob=-1.0)
    with pytest.raises(ConfigurationError):
        MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09,
                      epsilon_list=(0.1, 0.2, 0.0))
    with pytest.raises(ConfigurationError):
        MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09,
                      epsilon_list=(0.4, 0.2))


def test_absorption_constants_oracle(exp640):
    # hand values at (a, b, gamma) = (6, 4, 0), nu = 0.1, q = 4:
    # p = 2, s = 6, eps1 = nu*p/2 = 0.1,
    # eps2 = (2*nu*3/4)*12*0.1 / (3*1*4*c_sob) = 0.015/c_sob,
    # c_grow = (4*1*3/12) * eps1^{-1} * eps2^{-1} = 10/eps2
    c_sob = 0.09
    m = MonitorConfig(exponents=exp640, nu=0.1, c_sob=c_sob)
    assert m.eps1 == pytest.approx(0.1, rel=1e-13)
    assert m.eps2 == pytest.approx(0.015 / c_sob, rel=1e-12)
    assert m.c_grow == pytest.approx(10.0 / m.eps2, rel=1e-12)


def test_d_of_t_equals_q_for_nonnegative_radial_flow(m640):
    g = build_grid(16, 8)
    rho, _ = g.meshgrid()
    v = zero_state(g).replace_fields(
        u_rho=rho * (1.0 - (rho / 2.0) ** 2), u_phi=0.3 * rho
    )
    assert d_of_t(v, m640) == float(m640.q)


def test_d_of_t_closed_form(exp640):
    # u_rho = -1 everywhere, beta = 0: the integrand is 1, the integral
    # the exact cylinder volume, so d = q + c_grow * (4*pi)^{2/3}
    g = build_grid(16, 8)
    v = zero_state(g).replace_fields(u_rho=np.full(g.shape, -1.0))
    m1 = MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09, c_grow=1.0)
    assert d_of_t(v, m1) == pytest.approx(4.0 + FOUR_PI ** (2.0 / 3.0), rel=1e-13)
    m2 = MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09, c_grow=2.5)
    assert d_of_t(v, m2) - 4.0 == pytest.approx(2.5 * (d_of_t(v, m1) - 4.0),
                                                rel=1e-12)


def test_serrin_integrand_only_sees_negative_part(exp640):
    g = build_grid(16, 8)
    rho, _ = g.meshgrid()
    up = zero_state(g).replace_fields(u_rho=np.abs(np.sin(rho)))
    assert serrin_integrand(up, exp640) == 0.0
    down = zero_state(g).replace_fields(u_rho=-np.full(g.shape, 0.5))
    assert serrin_integrand(down, exp640) == pytest.approx(
        0.5**6 * FOUR_PI, rel=1e-12
    )


@given(n_rho=st.integers(2, 24), n_z=st.integers(2, 24),
       rho_max=st.floats(0.1, 10.0), z_len=st.floats(0.1, 10.0),
       k=st.floats(-4.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_moment_quadrature_is_the_2d_midpoint_sum(n_rho, n_z, rho_max, z_len,
                                                  k, seed):
    # z-sums, then one dot product with the radial weight times rho^k
    g = build_grid(n_rho, n_z, rho_max=rho_max, z_min=-1.0, z_max=z_len - 1.0)
    vals = np.random.default_rng(seed).standard_normal(g.shape)
    direct = np.sum(vals * g.rho**k * g.cell_weight)
    scale = np.sum(np.abs(vals) * g.rho**k * g.cell_weight)
    assert abs(_integ(vals, g, k) - direct) <= 1e-13 * scale
    assert _integ(vals.sum(axis=1), g, k) == _integ(vals, g, k)


def test_negative_part():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(negative_part(x), [2.0, 0.0, 0.0])


def test_calibrate_sobolev_positive():
    g = build_grid(24, 12)
    c = calibrate_sobolev(g, 4)
    assert c > 0.0
    with pytest.raises(ConfigurationError):
        calibrate_sobolev(g, 5)


def test_transport_cancellation_small_on_projected_states(forced_taylor):
    for r in forced_taylor["records"]:
        delta = min(forced_taylor["grid"].d_rho, forced_taylor["grid"].d_z)
        assert abs(r.transport_cancellation) <= 10.0 * delta**2


def test_transport_cancellation_rejects_odd_power(forced_taylor):
    with pytest.raises(ContractViolation):
        transport_cancellation(forced_taylor["traj"].checkpoints[0], 3)


def test_sub_margins_nonnegative(audit_run, forced_taylor):
    tol = 1e-12
    for runinfo in (audit_run, forced_taylor):
        for r in runinfo["records"]:
            if not r.margins:
                continue
            for name in SUB_CHECKS:
                scale = max(r.margins[name + "_scale"], 1e-300)
                assert r.margins[name] >= -tol * scale, (name, r.time)


def test_swirl_budget_nonnegative_on_reference_runs(audit_run, forced_taylor):
    for runinfo in (audit_run, forced_taylor):
        for r in runinfo["records"]:
            if r.margins:
                assert r.margins["swirl_budget"] >= 0.0


def test_vorticity_budget_validation(audit_run):
    ck = audit_run["traj"].checkpoints
    m = audit_run["monitor"]
    with pytest.raises(ContractViolation):
        weighted_vorticity_budget(ck[0], ck[1], m, eps=1.5)
    with pytest.raises(ContractViolation):
        weighted_vorticity_budget(ck[1], ck[0], m, eps=0.1)


def test_vorticity_eps_gaps_shrink(audit_run):
    eps_list = audit_run["monitor"].epsilon_list
    for r in audit_run["records"]:
        if not r.margins:
            continue
        margins = [r.margins[f"vorticity_budget_eps_{e:g}"] for e in eps_list]
        gaps = [abs(b - a) for a, b in zip(margins, margins[1:])]
        assert all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:])), r.time


def test_quartic_identity_residual_band(audit_run):
    delta = min(audit_run["grid"].d_rho, audit_run["grid"].d_z)
    band = 100.0 * (audit_run["dt"] + delta**2)
    for r in audit_run["records"]:
        if not r.margins:
            continue
        scale = max(r.quartic_swirl_r2, 1.0)
        assert abs(r.margins["quartic_identity_residual"]) <= band * scale


def test_gronwall_envelope_dominates(audit_run):
    m = audit_run["monitor"]
    for r in audit_run["records"]:
        nq = r.swirl_q_norm ** m.q
        assert r.gronwall_envelope >= nq * (1.0 - 1e-6), r.time


def test_gronwall_envelope_closed_form(m640):
    # constant d and zero forcing: trapezoid integration of a constant is
    # exact, so the envelope is exp(d * (t - t0)) * N0
    def rec(t, d, n0):
        return DiagnosticsRecord(
            time=t, swirl_q_norm=n0 ** 0.25, d_t=d, serrin_running=0.0,
            forcing_q_norm=0.0, weighted_vort_energy=0.0, quartic_swirl_r2=0.0,
            quartic_swirl_r4=0.0, dissipation_swirl_grad=0.0,
            dissipation_swirl_axis=0.0, dissipation_vort=0.0,
            dissipation_quartic=0.0, grad_u_l2=0.0, vort_l2=0.0,
            transport_cancellation=0.0, f_indicator=0.0,
        )

    records = [rec(0.1 * i, 4.0, 2.0) for i in range(5)]
    env = gronwall_envelope(records, m640)
    for i, val in enumerate(env):
        assert val == pytest.approx(2.0 * math.exp(4.0 * 0.1 * i), rel=1e-12)


def test_gronwall_envelope_of_a_swirl_free_state_is_zero(m640):
    # no swirl and no forcing, with exp(int d) overflowing: the envelope
    # is 0 * inf, whose value is 0, not nan
    records = [DiagnosticsRecord(
        time=0.1 * i, swirl_q_norm=0.0, d_t=1e308, serrin_running=0.0,
        forcing_q_norm=0.0, weighted_vort_energy=0.0, quartic_swirl_r2=0.0,
        quartic_swirl_r4=0.0, dissipation_swirl_grad=0.0,
        dissipation_swirl_axis=0.0, dissipation_vort=0.0,
        dissipation_quartic=0.0, grad_u_l2=0.0, vort_l2=0.0,
        transport_cancellation=0.0, f_indicator=0.0,
    ) for i in range(3)]
    assert gronwall_envelope(records, m640) == [0.0, 0.0, 0.0]

def test_records_reject_negative_norms():
    with pytest.raises(ContractViolation):
        DiagnosticsRecord(
            time=0.0, swirl_q_norm=-1.0, d_t=4.0, serrin_running=0.0,
            forcing_q_norm=0.0, weighted_vort_energy=0.0, quartic_swirl_r2=0.0,
            quartic_swirl_r4=0.0, dissipation_swirl_grad=0.0,
            dissipation_swirl_axis=0.0, dissipation_vort=0.0,
            dissipation_quartic=0.0, grad_u_l2=0.0, vort_l2=0.0,
            transport_cancellation=0.0, f_indicator=0.0,
        )


def _checks_of(m, grid, nan_field=None):
    # a first record and one pair record, all margins 0 and scales 1,
    # with the named record field or margin set to nan
    margins = {name: 0.0 for name in margin_columns(m)}
    margins.update({name + "_scale": 1.0 for name in SUB_CHECKS})
    values = dict(swirl_q_norm=1.0, grad_u_l2=0.0, quartic_swirl_r2=0.0,
                  transport_cancellation=0.0, gronwall_envelope=1.0)
    if nan_field is not None:
        (margins if nan_field in margins else values)[nan_field] = math.nan
    records = [DiagnosticsRecord(time=0.0, **values),
               DiagnosticsRecord(time=0.1, margins=margins, **values)]
    return {c["name"]: c for c in evaluate_checks(records, m, grid, 0.01)}


@pytest.mark.parametrize("nan_field,check", [
    *((name, name) for name in SUB_CHECKS),
    ("quartic_identity_residual", "quartic_identity"),
    ("quartic_swirl_r2", "quartic_identity"),
    ("transport_cancellation", "transport_cancellation"),
    ("grad_u_l2", "transport_cancellation"),
])
def test_nan_margin_fails_its_check(m640, nan_field, check):
    g = build_grid(8, 8)
    assert all(c["status"] != "FAIL" for c in _checks_of(m640, g).values())
    c = _checks_of(m640, g, nan_field)[check]
    assert c["status"] == "FAIL" and math.isnan(c["margin"])


def test_collect_diagnostics_structure(audit_run):
    records = audit_run["records"]
    assert len(records) == 201
    assert not records[0].margins
    assert all(r.margins for r in records[1:])
    assert all(not r.truncated for r in records)
    # serrin accumulator is nondecreasing in time
    for r0, r1 in zip(records, records[1:]):
        assert r1.serrin_running >= r0.serrin_running
        assert r1.time > r0.time


def test_collect_diagnostics_truncates_on_nonfinite(exp640):
    g = build_grid(8, 8)
    good = zero_state(g).replace_fields(u_phi=0.1 * g.zeros() + 0.1, time=0.0)
    bad_vals = g.zeros()
    bad_vals[2, 2] = np.nan
    bad = zero_state(g).replace_fields(u_phi=bad_vals, time=0.1)
    m = monitor_for(g, exp640, 0.1)
    records = collect_diagnostics([good, bad], m)
    assert len(records) == 2
    assert records[-1].truncated
    report = blowup_indicator(records)
    assert report["truncated"]
    assert report["last_finite_time"] == 0.0
    assert report["window_end"] == 0.1


def test_blowup_indicator_on_regular_run(audit_run):
    report = blowup_indicator(audit_run["records"])
    assert not report["truncated"]
    assert report["f_max"] >= report["f_final"] > 0.0
    assert report["vort_l2_time_integral"] > 0.0
    assert report["grad_u_l2_max"] > 0.0
