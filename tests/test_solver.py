"""Pressure projection and time integration."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axiswirl.errors import CflViolation, ConfigurationError
from axiswirl.fields import (
    div_adjoint,
    div_from_components,
    divergence,
    viscous_rhs,
    zero_state,
    ForcingFields,
)
from axiswirl.grid import ScalarSample, build_grid
from axiswirl.solver import (
    SimConfig,
    _remove_null,
    cfl_limits,
    kinetic_energy,
    project,
    run,
    solve_pressure_poisson,
    step,
    viscous_dt_limit,
    viscous_solve,
)
from axiswirl import mms


def _div_norm(v):
    g = v.grid
    return float(np.sqrt(np.sum(g.rho * divergence(v).values ** 2)))


@pytest.fixture()
def taylor_state():
    sol = mms.make_solution("taylor_vortex_swirl", {})
    g = build_grid(32, 32)
    return mms.sample_state(sol, g, 0.0)


def test_projection_removes_divergence(taylor_state):
    before = _div_norm(taylor_state)
    projected, (iters, rel) = project(taylor_state)
    after = _div_norm(projected)
    assert after <= 1e-8 * before
    assert iters > 0 and rel <= 1e-8


def test_projection_idempotent(taylor_state):
    once, _ = project(taylor_state)
    twice, _ = project(once)
    scale = max(np.max(np.abs(once.u_rho.values)), np.max(np.abs(once.u_z.values)))
    drift = max(
        np.max(np.abs(twice.u_rho.values - once.u_rho.values)),
        np.max(np.abs(twice.u_z.values - once.u_z.values)),
    )
    assert drift <= 1e-12 * scale


def test_projection_annihilates_gradients():
    g = build_grid(32, 32)
    rho, z = g.meshgrid()
    phi = np.cos(2.0 * math.pi * z) * (1.0 - (rho / 2.0) ** 2) ** 2 + 0.3 * rho**2
    cr, cz = div_adjoint(phi, g)
    scale = max(np.max(np.abs(cr)), np.max(np.abs(cz)))
    v = zero_state(g).replace_fields(u_rho=cr, u_z=cz)
    projected, _ = project(v)
    residual = max(
        np.max(np.abs(projected.u_rho.values)),
        np.max(np.abs(projected.u_z.values)),
    )
    assert residual <= 1e-8 * scale


def test_projection_never_increases_energy(taylor_state):
    projected, _ = project(taylor_state)
    assert kinetic_energy(projected) <= kinetic_energy(taylor_state) * (1 + 1e-13)


def test_projection_preserves_swirl(taylor_state):
    projected, _ = project(taylor_state)
    assert np.array_equal(projected.u_phi.values, taylor_state.u_phi.values)


def test_cfl_limits_and_violation(taylor_state):
    cfg = SimConfig(n_rho=32, n_z=32, nu=0.1)
    adv, dif = cfl_limits(taylor_state)
    assert adv > 0 and dif > 0
    with pytest.raises(CflViolation) as exc:
        step(taylor_state, cfg, 10.0 * min(adv, dif))
    assert exc.value.suggested_dt < min(adv, dif)


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(t_start=1.0, t_end=0.5)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=-0.1)
    with pytest.raises(ConfigurationError):
        SimConfig(nu=0.0)
    with pytest.raises(ConfigurationError):
        SimConfig(checkpoint_stride=0)


def test_run_deterministic():
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1})
    g = build_grid(16, 8)
    cfg = SimConfig(n_rho=16, n_z=8, nu=0.1, t_end=0.02, dt=1e-3)
    t1 = run(cfg, mms.sample_state(sol, g, 0.0))
    t2 = run(cfg, mms.sample_state(sol, g, 0.0))
    assert len(t1.checkpoints) == len(t2.checkpoints)
    for i in range(len(t1.checkpoints)):
        assert t1.checkpoint_hash(i) == t2.checkpoint_hash(i)


def test_run_truncates_on_blowup():
    g = build_grid(12, 8)
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1})

    def poisoned(t):
        h = np.zeros(g.shape)
        if t > 5e-3:
            h[3, 3] = np.nan
        return ForcingFields(
            ScalarSample(h, g), ScalarSample(h, g), ScalarSample(h, g)
        )

    cfg = SimConfig(n_rho=12, n_z=8, nu=0.1, t_end=0.05, dt=1e-3)
    traj = run(cfg, mms.sample_state(sol, g, 0.0), forcing_at=poisoned)
    assert traj.failed
    assert "blow-up" in traj.failure_reason
    # the truncated checkpoint is kept as blow-up data
    last = traj.checkpoints[-1]
    assert not np.all(np.isfinite(last.u_phi.values))


def test_energy_nonincreasing_unforced(audit_run):
    energies = [kinetic_energy(s) for s in audit_run["traj"].checkpoints]
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


def test_run_records_every_projection():
    sol = mms.make_solution("taylor_vortex_swirl", {})
    g = build_grid(12, 8)
    cfg = SimConfig(n_rho=12, n_z=8, nu=0.1, t_end=0.01, dt=1e-3,
                    checkpoint_stride=4)
    traj = run(cfg, mms.sample_state(sol, g, 0.0))
    assert not traj.failed and traj.step_count == 10
    assert len(traj.projection_info) == traj.step_count + 1
    assert all(it == 1 and rel <= 1e-10 for it, rel in traj.projection_info)


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
def test_projection_properties(g, seed):
    u_rho, u_phi, u_z = _random(g, seed, 3)
    v = zero_state(g).replace_fields(u_rho=u_rho, u_phi=u_phi, u_z=u_z)
    once, (iters, rel) = project(v)
    assert _div_norm(once) <= 1e-10 * _div_norm(v)
    assert iters == 1 and rel <= 1e-10
    assert kinetic_energy(once) <= kinetic_energy(v) * (1 + 1e-13)
    twice, _ = project(once)
    scale = max(np.max(np.abs(once.u_rho.values)), np.max(np.abs(once.u_z.values)))
    drift = max(
        np.max(np.abs(twice.u_rho.values - once.u_rho.values)),
        np.max(np.abs(twice.u_z.values - once.u_z.values)),
    )
    assert drift <= 1e-12 * scale


@given(grids(), seeds)
def test_projection_annihilates_random_gradients(g, seed):
    cr, cz = div_adjoint(_random(g, seed, 1)[0], g)
    scale = max(np.max(np.abs(cr)), np.max(np.abs(cz)))
    projected, _ = project(zero_state(g).replace_fields(u_rho=cr, u_z=cz))
    residual = max(
        np.max(np.abs(projected.u_rho.values)),
        np.max(np.abs(projected.u_z.values)),
    )
    assert residual <= 1e-10 * scale


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
    sol = mms.make_solution(kind, {"nu": 0.1} if kind == "decaying_swirl" else {})
    g = build_grid(32, 32)
    T = 0.02

    def final(dt):
        cfg = SimConfig(n_rho=32, n_z=32, nu=0.1, t_end=T, dt=dt,
                        checkpoint_stride=10**9)
        traj = run(cfg, mms.sample_state(sol, g, 0.0),
                   forcing_at=mms.forcing_callable(sol, 0.1, g))
        assert not traj.failed, traj.failure_reason
        s = traj.checkpoints[-1]
        return np.stack([s.u_rho.values, s.u_phi.values, s.u_z.values])

    ref = final(T / 128)
    errs = [float(np.max(np.abs(final(T / m) - ref))) for m in (4, 8, 16)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.8 for o in orders), (errs, orders)


@given(grids(), st.floats(1e-4, 10.0), seeds)
def test_viscous_solve_inverts_the_implicit_operator(g, c, seed):
    b = _random(g, seed, 3)
    x = viscous_solve(np.stack(list(b), axis=1), g, c)
    v = zero_state(g).replace_fields(u_rho=x[:, 0], u_phi=x[:, 1], u_z=x[:, 2])
    # viscous_rhs(v, c) is c L x for the L the step treats implicitly
    for i, cl in enumerate(viscous_rhs(v, c)):
        residual = x[:, i] - cl.values - b[i]
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
                                {"nu": 0.1, "amplitude": amplitude})
        traj = run(SimConfig(n_rho=16, n_z=16, nu=0.1, t_end=10.0,
                             checkpoint_stride=10**9),
                   mms.sample_state(sol, g, 0.0))
        assert not traj.failed, traj.failure_reason
        assert traj.dt <= 0.4 * viscous_dt_limit(g, 0.1)
        steps.add(traj.step_count)
        s = traj.checkpoints[-1]
        exact = sol.u_phi.val(g.rho, g.z_centers[None, :], s.time)
        err = np.max(np.abs(s.u_phi.values - exact))
        assert err <= 0.02 * np.max(np.abs(exact)), (amplitude, err)
    assert len(steps) == 1


@pytest.mark.parametrize("kind,n,t_end,min_ratio", [
    ("decaying_swirl", 16, 2.0, 4.0),
    ("decaying_swirl", 48, 2.0, 40.0),
    ("taylor_vortex_swirl", 32, 0.3, 2.0),
])
def test_energy_nonincreasing_at_the_automatic_dt(kind, n, t_end, min_ratio):
    sol = mms.make_solution(kind, {"nu": 0.1} if kind == "decaying_swirl" else {})
    g = build_grid(n, n)
    traj = run(SimConfig(n_rho=n, n_z=n, nu=0.1, t_end=t_end),
               mms.sample_state(sol, g, 0.0))
    assert not traj.failed and traj.step_count >= 10
    # beyond the explicit diffusive limit, which shrinks as 1/n^2 while the
    # automatic dt does not (4.7x at 16^2 and 42x at 48^2 for swirl)
    diffusive = 0.25 * min(g.d_rho, g.d_z) ** 2 / 0.1
    assert traj.dt > min_ratio * diffusive
    energies = [kinetic_energy(s) for s in traj.checkpoints]
    assert len(energies) == traj.step_count + 1
    for e0, e1 in zip(energies, energies[1:]):
        assert e1 - e0 <= 1e-10 * e0


def test_stage_projection_makes_the_step_insensitive_to_the_initial_pressure():
    # decaying swirl at 64^2 in one automatic step from a zero pressure:
    # the stored pressure does not balance the centrifugal source, and
    # only the projection of the first stage keeps its splitting error
    # off the increment (62 h^2 without it, beyond the benchmark's
    # 25 h^2 bound; 14.5 h^2 with it, as from the analytic pressure)
    sol = mms.make_solution("decaying_swirl", {"nu": 0.1})
    g = build_grid(64, 64)
    s0 = mms.sample_state(sol, g, 0.0).replace_fields(pressure=np.zeros(g.shape))
    traj = run(SimConfig(n_rho=64, n_z=64, nu=0.1, t_end=0.012), s0)
    assert traj.step_count == 1
    t = traj.checkpoints[-1].time
    exact = sol.u_phi.val(g.rho, g.z_centers[None, :], t)
    increment = exact - s0.u_phi.values
    got = traj.checkpoints[-1].u_phi.values - s0.u_phi.values
    others = max(np.max(np.abs(traj.checkpoints[-1].u_rho.values)),
                 np.max(np.abs(traj.checkpoints[-1].u_z.values)))
    worst = max(np.max(np.abs(got - increment)), others)
    h = 1.0 / 64  # the benchmark's h = 1/n
    assert worst <= 25.0 * h**2 * np.max(np.abs(increment))
