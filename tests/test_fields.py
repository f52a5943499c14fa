"""Differential operators, ghost conventions, and the adjoint pair."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axiswirl.errors import ConfigurationError
from axiswirl.fields import (
    EVEN,
    EXTRAP,
    NOSLIP,
    ODD,
    VelocityState,
    curl_axisym,
    d_rho,
    d_z,
    d_zz,
    div_adjoint,
    div_from_components,
    divergence,
    explicit_rhs,
    radial_diffusion,
    radial_div,
    radial_div_adjoint,
    viscous_rhs,
    velocity_gradient,
    zero_forcing,
    zero_state,
)
from axiswirl.exponents import derive_exponents
from axiswirl.grid import build_grid
from axiswirl.monitor import MonitorConfig, checkpoint_view
from axiswirl import mms


def _curl(v):
    return curl_axisym(v, velocity_gradient(v))


def _grad_l2(v):
    m = MonitorConfig(exponents=derive_exponents(6.0, 4.0, 0.0), nu=0.1,
                      c_sob=0.09)
    return checkpoint_view(v, zero_forcing(v.grid), m).grad_u_l2


def _taylor_state(n):
    g = build_grid(n, n)
    sol = mms.make_solution("taylor_vortex_swirl", {}, g)
    return mms.sample_state(sol, 0.0), g


def test_d_rho_linear_odd_exact():
    g = build_grid(16, 4)
    f = np.broadcast_to(g.rho, g.shape).copy()
    df = d_rho(f, g, ODD)
    # odd axis ghost makes the first row exact too; the wall row uses the
    # no-slip ghost and is excluded
    assert np.max(np.abs(df[:-1] - 1.0)) <= 1e-13


def test_d_rho_constant_even_exact():
    g = build_grid(16, 4)
    f = np.full(g.shape, 3.0)
    df = d_rho(f, g, EVEN)
    assert np.max(np.abs(df[:-1])) <= 1e-13


def test_d_rho_extrap_exact():
    # the linearly extrapolated wall ghost reproduces any linear field, so
    # f = 1 + 3 rho gives 3 on every row but the axis row, the wall row
    # included
    g = build_grid(16, 4)
    f = 1.0 + 3.0 * np.broadcast_to(g.rho, g.shape)
    df = d_rho(f, g, EVEN, EXTRAP)
    assert np.max(np.abs(df[1:] - 3.0)) <= 1e-13


def test_d_z_trig_accuracy():
    g = build_grid(4, 64)
    _, z = g.meshgrid()
    k = 2.0 * math.pi
    f = np.sin(k * z)
    err = np.max(np.abs(d_z(f, g) - k * np.cos(k * z)))
    assert err <= k**3 * g.d_z**2 / 6.0 * 1.01
    err2 = np.max(np.abs(d_zz(f, g) + k**2 * np.sin(k * z)))
    assert err2 <= k**4 * g.d_z**2 / 12.0 * 1.01


@given(st.integers(2, 6), st.integers(2, 40), st.floats(0.1, 10.0),
       st.integers(0, 2**32 - 1))
def test_z_differences_equal_the_rolled_formulas(n_rho, n_z, length, seed):
    # the sliced periodic differences give the same bits as the np.roll
    # forms, wrap columns included
    g = build_grid(n_rho, n_z, 2.0, 0.0, length)
    f = np.random.default_rng(seed).standard_normal(g.shape)
    up, down = np.roll(f, -1, axis=1), np.roll(f, 1, axis=1)
    assert np.array_equal(d_z(f, g), (up - down) / (2.0 * g.d_z))
    assert np.array_equal(d_zz(f, g), (up - 2.0 * f + down) / g.d_z**2)
    assert np.array_equal(div_adjoint(f, g)[1],
                          -(up - down) / (2.0 * g.d_z))


@given(st.integers(2, 40), st.integers(2, 8), st.floats(0.1, 10.0),
       st.integers(0, 2**32 - 1))
def test_ghost_and_face_rules_equal_their_formulas(n_rho, n_z, rho_max, seed):
    # the ghost rules and the grid's face radii give the same bits as the
    # hand-built pads and the face radii written out
    g = build_grid(n_rho, n_z, rho_max)
    f = np.random.default_rng(seed).standard_normal(g.shape)
    below = {ODD: -f[0:1], EVEN: f[0:1]}
    past = {NOSLIP: f[-2:-1] / 3.0 - 2.0 * f[-1:],
            EXTRAP: 2.0 * f[-1:] - f[-2:-1]}
    for parity, lo in below.items():
        for wall, hi in past.items():
            pad = np.concatenate([lo, f, hi])
            assert np.array_equal(d_rho(f, g, parity, wall),
                                  (pad[2:] - pad[:-2]) / (2.0 * g.d_rho))
    inner = ((np.arange(n_rho - 1) + 1.0) * g.d_rho)[:, None]
    zero = np.zeros((1, n_z))
    flux = np.concatenate([zero, inner * 0.5 * (f[:-1] + f[1:]), zero])
    assert np.array_equal(radial_div(f, g),
                          np.diff(flux, axis=0) / (g.rho * g.d_rho))
    dphi = np.concatenate([zero, inner * (f[1:] - f[:-1]), zero])
    assert np.array_equal(radial_div_adjoint(f, g),
                          -(dphi[1:] + dphi[:-1]) / (2.0 * g.rho * g.d_rho))
    faces = np.arange(n_rho + 1) * g.d_rho
    diffs = np.diff(np.concatenate([f, past[NOSLIP]]), axis=0)
    flux = np.concatenate([zero, faces[1:, None] * diffs])
    assert np.array_equal(radial_diffusion(f, g),
                          np.diff(flux, axis=0) / (g.rho * g.d_rho**2))


def test_rigid_rotation_curl_exact():
    g = build_grid(32, 8)
    omega = 1.0
    u_phi = omega * np.broadcast_to(g.rho, g.shape)
    v = zero_state(g).replace_fields(u_phi=u_phi)
    w_rho, w_phi, w_z = _curl(v)
    # interior cells (the wall row uses the homogeneous-Dirichlet ghost)
    assert np.max(np.abs(w_z[:-1] - 2.0 * omega)) <= 1e-12
    assert np.max(np.abs(w_rho)) <= 1e-13
    assert np.max(np.abs(w_phi)) <= 1e-13


def test_divergence_of_linear_radial_field():
    g = build_grid(32, 8)
    u_rho = np.broadcast_to(g.rho, g.shape).copy()
    v = zero_state(g).replace_fields(u_rho=u_rho)
    div = divergence(v)
    # exact away from the wall cell (its outer face carries the no-slip
    # zero flux)
    assert np.max(np.abs(div[:-1] - 2.0)) <= 1e-12


@given(n_rho=st.integers(2, 64), n_z=st.integers(2, 64),
       rho_max=st.floats(0.1, 10.0), z_min=st.floats(-5.0, 5.0),
       length=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_divergence_adjoint_identity(n_rho, n_z, rho_max, z_min, length,
                                     seed):
    """<D u, phi>_rho == <u, D* phi>_rho for arbitrary fields on any grid,
    odd cell counts included: the exact summation-by-parts property the
    projection relies on."""
    g = build_grid(n_rho, n_z, rho_max=rho_max, z_min=z_min,
                   z_max=z_min + length)
    rng = np.random.default_rng(seed)
    ur, uz, phi = rng.normal(size=(3, *g.shape))
    lhs = float(np.sum(g.rho * div_from_components(ur, uz, g) * phi))
    cr, cz = div_adjoint(phi, g)
    rhs = float(np.sum(g.rho * (ur * cr + uz * cz)))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_radial_diffusion_quadratic_exact():
    # f = rho^2: (1/rho) d(rho f')/drho = 4, and both the face gradient of
    # a quadratic and the flux difference of the resulting quadratic flux
    # are exact, so interior rows reproduce 4 to rounding
    g = build_grid(64, 4)
    r = np.broadcast_to(g.rho, g.shape)
    got = radial_diffusion(r**2, g)
    assert np.max(np.abs(got[:-1] - 4.0)) <= 1e-11


def test_mis_shaped_components_are_rejected():
    g = build_grid(4, 4)
    ok, bad = np.zeros(g.shape), np.ones((3, 3))
    for make in (lambda: VelocityState(g, np.ones((3, 3, 3)), ok, 0.0),
                 lambda: zero_state(g).replace_fields(u_z=bad),
                 lambda: zero_state(g).replace_fields(pressure=bad)):
        with pytest.raises(ConfigurationError, match="does not match grid"):
            make()


def test_explicit_rhs_forcing_passthrough():
    g = build_grid(8, 8)
    v = zero_state(g)
    du = explicit_rhs(v, np.full((3, *g.shape), 2.5))
    for comp in du:
        assert np.max(np.abs(comp - 2.5)) <= 1e-13


def test_velocity_grad_l2():
    g = build_grid(16, 8)
    assert _grad_l2(zero_state(g)) == 0.0
    v, _ = _taylor_state(16)
    val = _grad_l2(v)
    assert val > 0.0
    doubled = v.replace_fields(
        u_rho=2 * v.u_rho, u_phi=2 * v.u_phi, u_z=2 * v.u_z
    )
    assert _grad_l2(doubled) == pytest.approx(2.0 * val, rel=1e-12)


def test_tendencies_balance_rigid_rotation():
    # u_phi = rho with p = rho^2 / 2 is steady: the explicit and viscous
    # tendencies add up to the pressure gradient (rho, 0, 0), since the
    # centrifugal term is rho and the laplacian of rho vanishes (the wall
    # row, whose no-slip ghost this flow does not satisfy, excluded)
    g = build_grid(16, 8)
    rho = np.broadcast_to(g.rho, g.shape)
    v = zero_state(g).replace_fields(u_phi=rho.copy(), pressure=0.5 * rho**2)
    tend = map(np.add, explicit_rhs(v, zero_forcing(g)), viscous_rhs(v, 0.1))
    for comp, grad_p in zip(tend, (rho, 0.0, 0.0)):
        assert np.max(np.abs(comp - grad_p)[:-1]) <= 1e-12
