"""Pressure projection and time integration."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axiswirl.cli import state_hash
from axiswirl.errors import ConfigurationError
from axiswirl.fields import (
    div_adjoint,
    div_from_components,
    divergence,
    viscous_rhs,
    zero_state,
)
from axiswirl.grid import build_grid
from axiswirl.solver import (
    SimConfig,
    cfl_limits,
    kinetic_energy,
    project,
    run,
    solve_pressure_poisson,
    step,
    viscous_dt_limit,
    viscous_solve,
)
from axiswirl import mms, solver
from tests.conftest import run_through


def _div_norm(v):
    g = v.grid
    return float(np.sqrt(np.sum(g.rho * divergence(v) ** 2)))


@pytest.fixture()
def taylor_state():
    g = build_grid(32, 32)
    sol = mms.make_solution("taylor_vortex_swirl", {}, g)
    return mms.sample_state(sol, 0.0)


def test_projection_removes_divergence(taylor_state):
    before = _div_norm(taylor_state)
    projected = project(taylor_state)
    after = _div_norm(projected)
    assert after <= 1e-8 * before


def test_projection_idempotent(taylor_state):
    once = project(taylor_state)
    twice = project(once)
    scale = max(np.max(np.abs(once.u_rho)), np.max(np.abs(once.u_z)))
    drift = max(
        np.max(np.abs(twice.u_rho - once.u_rho)),
        np.max(np.abs(twice.u_z - once.u_z)),
    )
    assert drift <= 1e-12 * scale


def test_projection_annihilates_gradients():
    g = build_grid(32, 32)
    rho, z = g.meshgrid()
    phi = np.cos(2.0 * math.pi * z) * (1.0 - (rho / 2.0) ** 2) ** 2 + 0.3 * rho**2
    cr, cz = div_adjoint(phi, g)
    scale = max(np.max(np.abs(cr)), np.max(np.abs(cz)))
    v = zero_state(g).replace_fields(u_rho=cr, u_z=cz)
    projected = project(v)
    residual = max(
        np.max(np.abs(projected.u_rho)),
        np.max(np.abs(projected.u_z)),
    )
    assert residual <= 1e-8 * scale


def test_projection_never_increases_energy(taylor_state):
    projected = project(taylor_state)
    assert kinetic_energy(projected) <= kinetic_energy(taylor_state) * (1 + 1e-13)


def test_projection_preserves_swirl(taylor_state):
    projected = project(taylor_state)
    assert np.array_equal(projected.u_phi, taylor_state.u_phi)


def test_cfl_limits_and_violation(taylor_state):
    # run checks each step's dt against the state about to be stepped: a
    # given dt ten times the limit truncates before the first step, with
    # the initial state yielded and the limit in the reason
    projected = project(taylor_state)
    limit = min(cfl_limits(projected))
    assert 0.0 < limit < math.inf
    dt = 10.0 * limit
    states, _, failure = run_through(SimConfig(nu=0.1, t_end=2.0 * dt, dt=dt),
                                     taylor_state)
    assert failure == f"dt = {dt} exceeds stability limit {limit}"
    assert len(states) == 1 and states[0].time == 0.0


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(t_start=1.0, t_end=0.5)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=-0.1)
    with pytest.raises(ConfigurationError):
        SimConfig(nu=0.0)
    with pytest.raises(ConfigurationError):
        SimConfig(checkpoint_stride=0)


@pytest.mark.parametrize("kwargs,field", [
    ({"cfl_safety": 0.0}, "cfl_safety"),
    ({"cfl_safety": -1.0}, "cfl_safety"),
    ({"cfl_safety": math.nan}, "cfl_safety"),
    ({"checkpoint_stride": 1.5}, "checkpoint_stride"),
    ({"checkpoint_stride": math.nan}, "checkpoint_stride"),
    ({"nu": math.nan}, "nu"),
    ({"dt": math.nan}, "dt"),
    ({"t_end": math.nan}, "t_end"),
    ({"t_start": 1.0, "t_end": 0.5}, "t_end"),
], ids=["cfl_zero", "cfl_negative", "cfl_nan", "stride_fractional",
        "stride_nan", "nu_nan", "dt_nan", "t_end_nan", "t_end_early"])
def test_sim_config_names_the_setting_at_fault(kwargs, field):
    # rejected when built, not by run as a step count: cfl_safety -1 gave
    # "dt = -0.115878, inf steps ... more than 10000000"
    with pytest.raises(ConfigurationError) as exc:
        SimConfig(**kwargs)
    assert exc.value.field == field and field in str(exc.value)


def test_sim_config_keeps_an_integral_stride_as_an_int():
    stride = SimConfig(checkpoint_stride=3.0).checkpoint_stride
    assert stride == 3 and type(stride) is int


def test_run_deterministic():
    g = build_grid(16, 8)
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1}, g)
    cfg = SimConfig(nu=0.1, t_end=0.02, dt=1e-3)
    h1, h2 = ([state_hash(s) for s, _ in run(cfg, mms.sample_state(sol, 0.0))]
              for _ in range(2))
    assert len(h1) == 21 and h1 == h2


def test_run_truncates_on_blowup():
    g = build_grid(12, 8)
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1}, g)

    def poisoned(t):
        h = np.zeros((3, *g.shape))
        if t > 5e-3:
            h[:, 3, 3] = np.nan
        return h

    cfg = SimConfig(nu=0.1, t_end=0.05, dt=1e-3)
    states, _, failure = run_through(cfg, mms.sample_state(sol, 0.0),
                                     forcing_at=poisoned)
    assert "blow-up" in failure
    # the truncated state is yielded as blow-up data
    assert not np.all(np.isfinite(states[-1].u_phi))


def test_run_bounds_the_step_count(monkeypatch):
    monkeypatch.setattr(solver, "MAX_STEPS", 10)
    g = build_grid(8, 8)
    state = mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, g), 0.0)
    # ten steps of a given dt run; eleven are refused before the first
    dt = 2.0**-10
    assert len(run_through(SimConfig(t_end=10 * dt, dt=dt), state)[0]) == 11
    with pytest.raises(ConfigurationError, match="more than 10"):
        next(run(SimConfig(t_end=11 * dt, dt=dt), state))
    # the automatic dt: cfl_safety times the viscous limit alone needs
    # more than ten steps
    limit = viscous_dt_limit(g, 0.1)
    with pytest.raises(ConfigurationError):
        next(run(SimConfig(t_end=0.4 * limit * 10.5), state))
    # the flow's CFL limit needs more: truncated before the first step
    fast = state.replace_fields(u_rho=state.u_rho * 1e6,
                                u_z=state.u_z * 1e6)
    states, _, failure = run_through(SimConfig(t_end=0.4 * limit), fast)
    assert len(states) == 1 and "CFL" in failure


def test_run_refuses_its_settings_when_called(monkeypatch):
    # the refusal comes from run itself, before a generator exists: a
    # caller maps it to the settings with no next() to wrap
    monkeypatch.setattr(solver, "MAX_STEPS", 10)
    state = mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, build_grid(8, 8)), 0.0)
    dt = 2.0**-10
    with pytest.raises(ConfigurationError, match="more than 10"):
        run(SimConfig(t_end=11 * dt, dt=dt), state)


def test_energy_nonincreasing_unforced(audit_run):
    energies = [kinetic_energy(s) for s in audit_run["states"]]
    assert len(energies) == 201
    for e0, e1 in zip(energies, energies[1:]):
        assert e1 - e0 <= 1e-10 * e0


def test_kinetic_energy_scaling():
    g = build_grid(16, 8)
    u = np.full(g.shape, 0.5)
    v = zero_state(g).replace_fields(u_phi=u)
    # constant swirl magnitude c: E = c^2/2 * V with V = 4*pi exactly
    assert kinetic_energy(v) == pytest.approx(0.125 * 4.0 * math.pi, rel=1e-13)
    assert kinetic_energy(zero_state(g)) == 0.0


def test_every_projection_of_a_step_leaves_1e_10_of_its_divergence(
        monkeypatch):
    # both stages of each step project: a spy on the module's project
    # sees the initial projection and two per step
    ratios = []

    def spy(v, dt=None):
        out = project(v, dt)
        ratios.append(_div_norm(out) / _div_norm(v))
        return out

    monkeypatch.setattr(solver, "project", spy)
    g = build_grid(12, 8)
    sol = mms.make_solution("taylor_vortex_swirl", {}, g)
    state = solver.project(mms.sample_state(sol, 0.0))
    for _ in range(10):
        state = step(state, 0.1, 1e-3)
    assert len(ratios) == 21 and max(ratios) <= 1e-10


def test_run_holds_one_state():
    # the loop keeps weak references only: once the run has ended, every
    # yielded state but the last one has been freed
    g = build_grid(16, 16)
    sol = mms.make_solution("taylor_vortex_swirl", {}, g)
    refs = []
    for s, _ in run(SimConfig(nu=0.1, t_end=0.02, dt=1e-3),
                    mms.sample_state(sol, 0.0),
                    forcing_at=mms.forcing_callable(sol, 0.1)):
        refs.append(weakref.ref(s))
    assert len(refs) == 21 and s.time == pytest.approx(0.02, rel=1e-14)
    gc.collect()
    assert [r() for r in refs if r() is not None] == [s]


@pytest.mark.parametrize("dt,steps", [(0.03, 4), (0.04, 3), (0.05, 2),
                                      (0.06, 2)])
def test_run_ends_on_t_end(dt, steps):
    # a given dt that does not divide [t_start, t_end] is shortened to the
    # fewest equal steps that do, so the run neither stops short of t_end
    # nor steps past it
    g = build_grid(8, 8)
    state = mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, g), 0.0)
    states, used, failure = run_through(SimConfig(t_end=0.1, dt=dt), state)
    assert failure is None and len(states) == steps + 1
    assert used == 0.1 / steps <= dt
    assert states[-1].time == pytest.approx(0.1, rel=1e-14)


# log-uniform magnitudes from 1e-3 to 1e17, either sign
_TIMES = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-3.0, 17.0)).map(
    lambda se: se[0] * 10.0**se[1])


@given(t_start=_TIMES, span=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
       k=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
# t + 0.02 == t at 1e15, where the float spacing is 0.125
@example(1e15, 1.0, 50)
# a dt of half a float spacing: t_start + dt rounds up to an even
# mantissa, which then never advances
@example(2.0**52 + 1, 2.0, 4)
# t + dt > t at both ends, but the rounded times run ahead of t_end past
# 2^53, where the spacing doubles to 2 > 2 dt
@example(2.0**53 - 10, 9.0, 15)
def test_run_observes_strictly_increasing_times(t_start, span, k):
    # a run either refuses its settings before it yields a state, or
    # takes its k steps, each of which advances the time
    observed = []
    try:
        cfg = SimConfig(t_start=t_start, t_end=t_start + span,
                        dt=(t_start + span - t_start) / k)
        for s, _ in run(cfg, zero_state(build_grid(4, 4))):
            observed.append(s.time)
    except ConfigurationError:
        assert observed == []
        return
    assert len(observed) == k + 1
    assert all(t1 > t0 for t0, t1 in zip(observed, observed[1:])), observed


# --- properties on random grids ---------------------------------------------

@st.composite
def grids(draw, max_cells=24):
    z_min = draw(st.floats(-2.0, 2.0))
    return build_grid(
        draw(st.integers(2, max_cells)), draw(st.integers(2, max_cells)),
        draw(st.floats(0.25, 4.0)), z_min, z_min + draw(st.floats(0.25, 4.0)),
    )


seeds = st.integers(0, 2**32 - 1)


def _random(g, seed, count):
    return np.random.default_rng(seed).standard_normal((count,) + g.shape)


@given(grids(), seeds)
# the size of a 128^2 restart, where the radial blocks are worst conditioned
@example(build_grid(128, 128), 128)
def test_projection_properties(g, seed):
    u_rho, u_phi, u_z = _random(g, seed, 3)
    v = zero_state(g).replace_fields(u_rho=u_rho, u_phi=u_phi, u_z=u_z)
    once = project(v)
    assert _div_norm(once) <= 1e-10 * _div_norm(v)
    assert kinetic_energy(once) <= kinetic_energy(v) * (1 + 1e-13)
    twice = project(once)
    scale = max(np.max(np.abs(once.u_rho)), np.max(np.abs(once.u_z)))
    drift = max(
        np.max(np.abs(twice.u_rho - once.u_rho)),
        np.max(np.abs(twice.u_z - once.u_z)),
    )
    assert drift <= 1e-12 * scale


@given(grids(), seeds)
def test_projection_annihilates_random_gradients(g, seed):
    cr, cz = div_adjoint(_random(g, seed, 1)[0], g)
    scale = max(np.max(np.abs(cr)), np.max(np.abs(cz)))
    projected = project(zero_state(g).replace_fields(u_rho=cr, u_z=cz))
    residual = max(
        np.max(np.abs(projected.u_rho)),
        np.max(np.abs(projected.u_z)),
    )
    assert residual <= 1e-10 * scale


def _remove_null(b, grid):
    """Project out the rho-weighted null space of D*: constants and the
    z-checkerboard (only present for even n_z)."""
    w = np.broadcast_to(grid.rho, b.shape)
    b = b - np.sum(w * b) / np.sum(w)
    if grid.n_z % 2 == 0:
        cb = np.ones(grid.n_z)
        cb[1::2] = -1.0
        mode = np.broadcast_to(cb, b.shape)
        b = b - mode * (np.sum(w * b * mode) / np.sum(w))
    return b


@given(grids(max_cells=8), seeds)
def test_pressure_solve_matches_dense_reference(g, seed):
    def normal(phi):
        return div_from_components(*div_adjoint(phi, g), g)

    size = g.n_rho * g.n_z
    dense = np.stack(
        [normal(e.reshape(g.shape)).ravel() for e in np.eye(size)], axis=1
    )
    b = normal(_random(g, seed, 1)[0])
    ref = np.linalg.lstsq(dense, b.ravel(), rcond=None)[0].reshape(g.shape)
    ref = _remove_null(ref, g)
    phi = solve_pressure_poisson(b, g)
    assert np.max(np.abs(phi - ref)) <= 1e-9 * np.max(np.abs(ref))


# --- implicit viscous terms and the time step ----------------------------------

@pytest.mark.parametrize("kind", ["decaying_swirl", "taylor_vortex_swirl"])
def test_time_order_on_a_fixed_grid(kind):
    # on one 32^2 grid the spatial error cancels between runs, so the
    # differences to a T/128 reference measure the time error alone; the
    # largest step, T/4, is about twice the explicit diffusive limit
    g = build_grid(32, 32)
    sol = mms.make_solution(kind, {"nu": 0.1} if kind == "decaying_swirl" else {},
                            g)
    T = 0.02

    def final(dt):
        states, _, failure = run_through(
            SimConfig(nu=0.1, t_end=T, dt=dt), mms.sample_state(sol, 0.0),
            forcing_at=mms.forcing_callable(sol, 0.1))
        assert failure is None, failure
        s = states[-1]
        return np.stack([s.u_rho, s.u_phi, s.u_z])

    ref = final(T / 128)
    errs = [float(np.max(np.abs(final(T / m) - ref))) for m in (4, 8, 16)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.8 for o in orders), (errs, orders)


@given(grids(), st.floats(1e-4, 10.0), seeds)
# 128^2 at the restart's c = nu dt / 2 and at the largest c drawn
@example(build_grid(128, 128), 3e-6, 128)
@example(build_grid(128, 128), 10.0, 128)
def test_viscous_solve_inverts_the_implicit_operator(g, c, seed):
    b = _random(g, seed, 3)
    x = viscous_solve(b, g, c)
    v = zero_state(g).replace_fields(*x)
    # viscous_rhs(v, c) is c L x for the L the step treats implicitly
    for i, cl in enumerate(viscous_rhs(v, c)):
        residual = x[i] - cl - b[i]
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(b[i]))


def test_cfl_limits_are_advective_and_swirl_source():
    g = build_grid(16, 8)
    rho = np.broadcast_to(g.rho, g.shape)
    # rigid rotation: no advection, u_phi / rho = 1 everywhere
    adv, src = cfl_limits(zero_state(g).replace_fields(u_phi=rho.copy()))
    assert adv == np.inf and src == pytest.approx(0.5, rel=1e-15)
    u = np.full(g.shape, -4.0)
    adv, src = cfl_limits(zero_state(g).replace_fields(u_z=u))
    assert adv == pytest.approx(0.5 * g.d_z / 4.0, rel=1e-15) and src == np.inf


def test_slow_decaying_swirl_follows_the_analytic_decay():
    # nu t lam^2 = 3.67 over t_end 10: at amplitude 0.01 the advective and
    # swirl-source limits allow one step, in which Crank-Nicolson would
    # multiply the swirl by -0.29 instead of exp(-3.67) = 0.025; the
    # viscous accuracy limit sets the same dt for both amplitudes
    g = build_grid(16, 16)
    assert viscous_dt_limit(g, 0.1) == viscous_dt_limit(build_grid(64, 8), 0.1)
    steps = set()
    for amplitude in (0.01, 1.0):
        sol = mms.make_solution("decaying_swirl",
                                {"nu": 0.1, "amplitude": amplitude}, g)
        states, dt, failure = run_through(SimConfig(nu=0.1, t_end=10.0),
                                          mms.sample_state(sol, 0.0))
        assert failure is None, failure
        assert dt <= 0.4 * viscous_dt_limit(g, 0.1)
        steps.add(len(states) - 1)
        s = states[-1]
        exact = sol.velocity(s.time)[1]
        err = np.max(np.abs(s.u_phi - exact))
        assert err <= 0.02 * np.max(np.abs(exact)), (amplitude, err)
    assert len(steps) == 1


@pytest.mark.parametrize("kind,n,t_end,min_ratio", [
    ("decaying_swirl", 16, 2.0, 4.0),
    ("decaying_swirl", 48, 2.0, 40.0),
    ("taylor_vortex_swirl", 32, 0.3, 2.0),
])
def test_energy_nonincreasing_at_the_automatic_dt(kind, n, t_end, min_ratio):
    g = build_grid(n, n)
    sol = mms.make_solution(kind, {"nu": 0.1} if kind == "decaying_swirl" else {},
                            g)
    states, dt, failure = run_through(SimConfig(nu=0.1, t_end=t_end),
                                      mms.sample_state(sol, 0.0))
    assert failure is None and len(states) >= 11
    # beyond the explicit diffusive limit, which shrinks as 1/n^2 while the
    # automatic dt does not (4.7x at 16^2 and 42x at 48^2 for swirl)
    diffusive = 0.25 * min(g.d_rho, g.d_z) ** 2 / 0.1
    assert dt > min_ratio * diffusive
    energies = [kinetic_energy(s) for s in states]
    for e0, e1 in zip(energies, energies[1:]):
        assert e1 - e0 <= 1e-10 * e0


def test_stage_projection_makes_the_step_insensitive_to_the_initial_pressure():
    # decaying swirl at 64^2 in one automatic step from a zero pressure:
    # the stored pressure does not balance the centrifugal source, and
    # only the projection of the first stage keeps its splitting error
    # off the increment (62 h^2 without it, beyond the benchmark's
    # 25 h^2 bound; 14.5 h^2 with it, as from the analytic pressure)
    g = build_grid(64, 64)
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1}, g)
    s0 = mms.sample_state(sol, 0.0).replace_fields(pressure=np.zeros(g.shape))
    states, _, _ = run_through(SimConfig(nu=0.1, t_end=0.012), s0)
    assert len(states) == 2
    final = states[-1]
    exact = sol.velocity(final.time)[1]
    increment = exact - s0.u_phi
    got = final.u_phi - s0.u_phi
    others = max(np.max(np.abs(final.u_rho)), np.max(np.abs(final.u_z)))
    worst = max(np.max(np.abs(got - increment)), others)
    h = 1.0 / 64  # the benchmark's h = 1/n
    assert worst <= 25.0 * h**2 * np.max(np.abs(increment))
