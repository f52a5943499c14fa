"""Estimate monitor: growth coefficient, budgets, envelope, indicator."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axiswirl.errors import (
    ConfigurationError,
    ContractViolation,
    InadmissibleExponents,
)
from axiswirl.exponents import derive_exponents
from axiswirl.fields import velocity_grad_l2, zero_forcing, zero_state
from axiswirl.grid import build_grid, moment, serrin_advance
from axiswirl.monitor import (
    DiagnosticsRecord,
    MonitorConfig,
    _integ,
    blowup_indicator,
    calibrate_sobolev,
    checkpoint_view,
    collect_diagnostics,
    evaluate_checks,
    gronwall_envelope,
    margin_columns,
    monitor_for,
    negative_part,
    serrin_factors,
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
    assert checkpoint_view(v, zero_forcing(g), m640).d_t == float(m640.q)


def test_d_of_t_closed_form(exp640):
    # u_rho = -1 everywhere, beta = 0: the integrand is 1, the integral
    # the exact cylinder volume, so d = q + c_grow * (4*pi)^{2/3}
    g = build_grid(16, 8)
    v = zero_state(g).replace_fields(u_rho=np.full(g.shape, -1.0))
    d1, d2 = (checkpoint_view(v, zero_forcing(g), MonitorConfig(
        exponents=exp640, nu=0.1, c_sob=0.09, c_grow=c)).d_t for c in (1.0, 2.5))
    assert d1 == pytest.approx(4.0 + FOUR_PI ** (2.0 / 3.0), rel=1e-13)
    assert d2 - 4.0 == pytest.approx(2.5 * (d1 - 4.0), rel=1e-12)


def test_serrin_integrand_only_sees_negative_part(m640):
    g = build_grid(16, 8)
    rho, _ = g.meshgrid()

    def serrin(u_rho):
        v = zero_state(g).replace_fields(u_rho=u_rho)
        return checkpoint_view(v, zero_forcing(g), m640).serrin

    assert serrin(np.abs(np.sin(rho))) == 0.0
    assert serrin(-np.full(g.shape, 0.5)) == pytest.approx(
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


def test_calibrate_sobolev_is_memoised_per_grid_and_q():
    calibrate_sobolev.cache_clear()
    c = calibrate_sobolev(build_grid(24, 12), 4)
    # an equal grid built anew hits the cache and gets the same bits
    assert calibrate_sobolev(build_grid(24, 12), 4) == c
    assert calibrate_sobolev.cache_info().hits == 1
    assert calibrate_sobolev.__wrapped__(build_grid(24, 12), 4) == c
    assert calibrate_sobolev(build_grid(24, 12), 2) != c
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            calibrate_sobolev(build_grid(24, 12), 3)


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


@pytest.mark.parametrize("triple", [(6.0, 4.0, 0.0), (8.0, 8.0, 0.0)],
                         ids=["beta_is_a_gamma", "beta_3_a_gamma_0"])
def test_serrin_running_is_serrin_accumulate(forced_taylor, triple):
    # the view's one z-sum of (u_rho^-)^alpha feeds the running integral;
    # it must agree with serrin_advance fed a separate moment of each
    # checkpoint's (u_rho^-)^a, both where the d(t) moment beta equals
    # a*gamma and where it does not
    e = derive_exponents(*triple)
    g, traj = forced_taylor["grid"], forced_taylor["traj"]
    m = monitor_for(g, e, 0.1)
    records = collect_diagnostics(traj.checkpoints, m,
                                  forcing_at=forced_taylor["forcing"])
    acc, expected = 0.0, [0.0]
    for prev, nxt in zip(traj.checkpoints, traj.checkpoints[1:]):
        spatial = moment(negative_part(prev.u_rho) ** e.a, g, e.a * e.gamma)
        acc = serrin_advance(acc, spatial, e.a, e.b, nxt.time - prev.time)
        expected.append(acc)
    assert expected[-1] > 0.0
    assert len(records) == len(expected)
    for r, x in zip(records, expected):
        assert abs(r.serrin_running - x) <= 1e-13 * x


def test_d_of_t_is_the_monitors_d_t(forced_taylor):
    # the records hold d(t) = q + c_grow S^theta of the Serrin factor S,
    # exactly, on states with a negative radial part
    g, traj = forced_taylor["grid"], forced_taylor["traj"]
    m = monitor_for(g, derive_exponents(8.0, 8.0, 0.0), 0.1)
    records = collect_diagnostics(traj.checkpoints, m,
                                  forcing_at=forced_taylor["forcing"])
    factors = [serrin_factors(negative_part(v.u_rho), g, m.exponents)
               for v in traj.checkpoints]
    assert all(serrin > 0.0 for serrin, _, _ in factors)
    assert [r.d_t for r in records] == [m.q + m.c_grow * serrin_theta
                                        for _, serrin_theta, _ in factors]


def test_gradient_overflow_is_a_truncated_record(exp640):
    # u_rho = 1e154 > 0: finite, with finite squares, no negative part and
    # no vorticity, but (d_rho u_rho)^2 ~ 16e308 overflows, and only in
    # |grad u|^2
    g = build_grid(8, 8)
    v = zero_state(g).replace_fields(u_rho=g.zeros() + 1e154, time=0.0)
    m = monitor_for(g, exp640, 0.1)
    with np.errstate(over="ignore"):
        assert velocity_grad_l2(v) == math.inf
        records = collect_diagnostics([v], m)
    assert len(records) == 1 and records[0].truncated
    assert math.isnan(records[0].grad_u_l2)


def test_absorption_constants_once_per_config(exp640):
    m = MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09)
    p, s = exp640.p_hold, exp640.s
    assert m.young1 == m.eps1 ** (1.0 / (1.0 - p))
    assert m.young2 == m.eps2 ** (3.0 / (3.0 - s))
    # a = b = 1000: p - 1 = 1/399, so eps1^(1/(1-p)) = 0.05^-399 overflows,
    # with or without a given c_grow
    e = derive_exponents(1000.0, 1000.0, 0.0)
    for c_grow in (None, 1.0):
        with pytest.raises(InadmissibleExponents) as exc:
            MonitorConfig(exponents=e, nu=0.1, c_sob=0.09, c_grow=c_grow)
        assert f"p = {e.p_hold}, s = {e.s}, nu = 0.1" in str(exc.value)
