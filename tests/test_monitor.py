"""Estimate monitor: growth coefficient, budgets, envelope, indicator."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axiswirl import mms
from axiswirl.errors import (
    ConfigurationError,
    ContractViolation,
    InadmissibleExponents,
)
from axiswirl.exponents import derive_exponents
from axiswirl.fields import (
    explicit_rhs,
    velocity_grad_l2,
    velocity_gradient,
    zero_forcing,
    zero_state,
)
from axiswirl.grid import build_grid, moment, serrin_advance
from axiswirl.monitor import (
    IDENTITY_BAND,
    DiagnosticsRecord,
    MonitorConfig,
    _integ,
    blowup_indicator,
    calibrate_sobolev,
    checkpoint_view,
    evaluate_checks,
    margin_columns,
    monitor_for,
    negative_part,
    serrin_factors,
)
from axiswirl.solver import SimConfig
from tests.conftest import SUB_CHECKS, collect, run_through

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


def _quartic_identity(n, amplitude, exp640):
    """The quartic_identity check of unforced Taylor with amplitude =
    swirl, on n x n cells to t_end 0.1 with the automatic dt."""
    g = build_grid(n, n)
    sol = mms.make_solution("taylor_vortex_swirl",
                            {"amplitude": amplitude, "swirl": amplitude}, g)
    m = monitor_for(g, exp640, 0.1)
    states, _, failure = run_through(SimConfig(nu=0.1, t_end=0.1),
                                     mms.sample_state(sol, 0.0))
    assert failure is None, failure
    checks = evaluate_checks(collect(states, m), m, g)
    return next(c for c in checks if c["name"] == "quartic_identity")


def _halved_swirl_coupling(v, f):
    """explicit_rhs with half its -u_phi u_rho / rho term."""
    out = explicit_rhs(v, f)
    out[1] += 0.5 * v.u_phi * v.u_rho / v.grid.rho
    return out


@pytest.mark.parametrize("amplitude", [0.3, 1.0])
def test_quartic_identity_fails_a_wrong_swirl_coupling(exp640, amplitude):
    # the step's own scheme passes with room (3.7 and 1.5 of the band's
    # 100); halving one term of the u_phi equation fails it (126 and 206)
    check = _quartic_identity(32, amplitude, exp640)
    assert check["status"] == "PASS" and check["tolerance"] == IDENTITY_BAND
    assert check["margin"] < 0.1 * IDENTITY_BAND
    with mock.patch("axiswirl.solver.explicit_rhs", _halved_swirl_coupling):
        check = _quartic_identity(32, amplitude, exp640)
    assert check["status"] == "FAIL" and check["margin"] > IDENTITY_BAND


def test_quartic_identity_passes_a_fast_resolved_flow(exp640):
    # amplitude = swirl = 10 failed the first-order band 100 (dt +
    # Delta^2) max(int u^4 / rho^2, 1) by 4.1x at 16^2, and by more under
    # refinement; the trapezoidal residual reads 21 of the band's 100
    check = _quartic_identity(16, 10.0, exp640)
    assert check["status"] == "PASS" and check["margin"] < 0.5 * IDENTITY_BAND


def test_gronwall_envelope_dominates(audit_run):
    m = audit_run["monitor"]
    for r in audit_run["records"]:
        nq = r.swirl_q_norm ** m.q
        assert r.gronwall_envelope >= nq * (1.0 - 1e-6), r.time


def test_gronwall_envelope_closed_form(m640):
    # constant d and zero forcing: with no radial velocity d = q exactly,
    # and trapezoid integration of a constant is exact, so the envelope is
    # exp(d * (t - t0)) * N0
    g = build_grid(8, 8)
    v = zero_state(g).replace_fields(u_phi=g.zeros() + 0.1)
    records = collect([v.replace_fields(time=0.1 * i) for i in range(5)], m640)
    n0 = records[0].swirl_q_norm ** 4
    for i, r in enumerate(records):
        assert r.d_t == 4.0
        assert r.gronwall_envelope == pytest.approx(
            n0 * math.exp(4.0 * 0.1 * i), rel=1e-12)


def test_gronwall_envelope_of_a_swirl_free_state_is_zero(m640):
    # no swirl and no forcing, with exp(int d) overflowing: the envelope
    # is 0 * inf, whose value is 0, not nan
    g = build_grid(8, 8)
    records = collect([zero_state(g, time=200.0 * i) for i in range(3)], m640)
    # d = q: int d is 800 and 1600, where exp overflows
    assert all(r.d_t == 4.0 for r in records)
    assert [r.gronwall_envelope for r in records] == [0.0, 0.0, 0.0]

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
    margins.update({name + "_scale": 1.0
                    for name in (*SUB_CHECKS, "quartic_identity_residual")})
    values = dict(swirl_q_norm=1.0, grad_u_l2=0.0, quartic_swirl_r2=0.0,
                  transport_cancellation=0.0, gronwall_envelope=1.0)
    if nan_field is not None:
        (margins if nan_field in margins else values)[nan_field] = math.nan
    records = [DiagnosticsRecord(time=0.0, **values),
               DiagnosticsRecord(time=0.1, margins=margins, **values)]
    return {c["name"]: c for c in evaluate_checks(records, m, grid)}


@pytest.mark.parametrize("nan_field,check", [
    *((name, name) for name in SUB_CHECKS),
    ("quartic_identity_residual", "quartic_identity"),
    ("quartic_identity_residual_scale", "quartic_identity"),
    ("transport_cancellation", "transport_cancellation"),
    ("grad_u_l2", "transport_cancellation"),
    ("gronwall_envelope", "gronwall_dominance"),
])
def test_nan_margin_fails_its_check(m640, nan_field, check):
    g = build_grid(8, 8)
    assert all(c["status"] != "FAIL" for c in _checks_of(m640, g).values())
    c = _checks_of(m640, g, nan_field)[check]
    assert c["status"] == "FAIL" and math.isnan(c["margin"])


# every asserted check but these two must be at least -tolerance
_AT_MOST_TOLERANCE = ("quartic_identity", "transport_cancellation")


def _within(check):
    m, tol = check["margin"], check["tolerance"]
    return m <= tol if check["name"] in _AT_MOST_TOLERANCE else m >= -tol


_maybe_nan = st.one_of(st.floats(-1e6, 1e6), st.just(math.nan))
_size = st.one_of(st.floats(0.0, 1e6), st.just(math.nan))


@given(pairs=st.lists(st.fixed_dictionaries({
    "margins": st.fixed_dictionaries(
        {name: _maybe_nan for name in (*SUB_CHECKS, "quartic_identity_residual")}
        | {name + "_scale": _size
           for name in (*SUB_CHECKS, "quartic_identity_residual")}),
    "values": st.fixed_dictionaries({
        "swirl_q_norm": _size, "grad_u_l2": _size,
        "transport_cancellation": _maybe_nan, "gronwall_envelope": _size}),
}), min_size=1, max_size=4))
def test_asserted_checks_pass_exactly_within_tolerance(exp640, pairs):
    # a first record and one record per pair, the swirl budget margins 0
    # so that Gronwall dominance is asserted
    m = MonitorConfig(exponents=exp640, nu=0.1, c_sob=0.09)
    records = [DiagnosticsRecord(time=0.0, **pairs[0]["values"])]
    for i, pair in enumerate(pairs, 1):
        margins = {name: 0.0 for name in margin_columns(m)} | pair["margins"]
        records.append(DiagnosticsRecord(time=0.1 * i, margins=margins,
                                         **pair["values"]))
    asserted = [c for c in evaluate_checks(records, m, build_grid(8, 8))
                if c["asserted"]]
    assert len(asserted) == len(SUB_CHECKS) + 3
    for c in asserted:
        assert (c["status"] == "PASS") == _within(c), c


def test_sub_step_margin_is_the_worst_relative_margin(forced_taylor):
    checks = {c["name"]: c for c in evaluate_checks(
        forced_taylor["records"], forced_taylor["monitor"],
        forced_taylor["grid"])}
    pairs = forced_taylor["records"][1:]
    for name in SUB_CHECKS:
        worst = min(r.margins[name] / r.margins[name + "_scale"] for r in pairs)
        assert checks[name]["margin"] == worst > 0.0, name
        assert checks[name]["status"] == "PASS"


def test_checks_without_values_report_zero(m640):
    # one record: no pair, so no sub-step, identity or dominance value,
    # and dominance is not asserted
    values = dict(swirl_q_norm=1.0, grad_u_l2=0.0, quartic_swirl_r2=0.0,
                  transport_cancellation=0.0, gronwall_envelope=1.0)
    checks = {c["name"]: c for c in evaluate_checks(
        [DiagnosticsRecord(time=0.0, **values)], m640, build_grid(8, 8))}
    for name in (*SUB_CHECKS, "quartic_identity", "gronwall_dominance"):
        assert checks[name]["margin"] == 0.0, name
    assert checks["gronwall_dominance"]["status"] == "REPORT-ONLY"


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
    records = collect([good, bad, good.replace_fields(time=0.2)], m)
    # a truncated record is terminal: later states are ignored
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
    g = forced_taylor["grid"]
    m = monitor_for(g, e, 0.1)
    states = forced_taylor["states"]
    records = collect(states, m, forcing_at=forced_taylor["forcing"])
    acc, expected = 0.0, [0.0]
    for prev, nxt in zip(states, states[1:]):
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
    g, states = forced_taylor["grid"], forced_taylor["states"]
    m = monitor_for(g, derive_exponents(8.0, 8.0, 0.0), 0.1)
    records = collect(states, m, forcing_at=forced_taylor["forcing"])
    factors = [serrin_factors(negative_part(v.u_rho), g, m.exponents)
               for v in states]
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
        assert velocity_grad_l2(v, velocity_gradient(v)) == math.inf
        records = collect([v], m)
    assert len(records) == 1 and records[0].truncated
    assert math.isnan(records[0].grad_u_l2)


@pytest.mark.parametrize("kwargs,field", [
    ({"nu": 1e300}, "nu"),
    ({"nu": 1e-320}, "nu"),
    ({"c_sob": 1e-320}, "c_sob"),
    ({"c_sob": math.inf}, "c_sob"),
    ({"c_sob": -1.0}, "c_sob"),
    ({"q": 3}, "q"),
    ({"c_grow": 0.0}, "c_grow"),
    ({"epsilon_list": (0.1, 0.2, 0.0)}, "epsilon_list"),
], ids=["nu_cube_overflows", "nu_cube_underflows", "c_sob_overflows_eps2",
        "c_sob_infinite", "c_sob_negative", "q_odd", "c_grow_zero",
        "eps_increasing"])
def test_monitor_config_names_the_argument_at_fault(exp640, kwargs, field):
    with pytest.raises(ConfigurationError) as exc:
        MonitorConfig(exponents=exp640, **{"nu": 0.1, "c_sob": 0.09, **kwargs})
    assert exc.value.field == field
    # a = b = 1000: the exponents, not c_sob, overflow eps1^(1/(1-p))
    with pytest.raises(InadmissibleExponents) as exc:
        MonitorConfig(exponents=derive_exponents(1000.0, 1000.0, 0.0),
                      nu=0.1, c_sob=0.09)
    assert exc.value.field == "exponents"


def test_calibration_names_q_when_it_gives_no_constant():
    # every probe power underflows for q = 1e20; overflow and invalid
    # values are ignored, as in run_scenario
    with pytest.raises(ConfigurationError) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        calibrate_sobolev(build_grid(8, 8), 10**20)
    assert exc.value.field == "q"


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
