"""Mesh construction and cylindrical quadrature."""

import math

import numpy as np
import pytest

from axiswirl import mms
from axiswirl.errors import ConfigurationError, ContractViolation
from axiswirl.exponents import derive_exponents
from axiswirl.fields import zero_forcing, zero_state
from axiswirl.grid import MAX_CELLS, build_grid, moment, serrin_advance
from axiswirl.monitor import checkpoint_view, monitor_for, negative_part
from axiswirl.solver import kinetic_energy, step

FOUR_PI = 4.0 * math.pi


def test_grid_geometry():
    g = build_grid(8, 4, rho_max=2.0, z_min=0.0, z_max=1.0)
    assert g.shape == (8, 4)
    assert g.d_rho == pytest.approx(0.25)
    assert g.d_z == pytest.approx(0.25)
    # axis-offset centers: no node at rho = 0
    assert g.rho_centers[0] == pytest.approx(0.125)
    assert g.rho_centers[-1] == pytest.approx(2.0 - 0.125)
    assert g.rho.shape == (8, 1)
    rho, z = g.meshgrid()
    assert rho.shape == g.shape and z.shape == g.shape


def test_equal_grids_compare_and_hash_on_their_parameters():
    a, b = build_grid(4, 4), build_grid(4, 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_grid(4, 4, rho_max=1.0)
    # a state on one grid may be stepped and monitored with a forcing on
    # a distinct but equal grid
    on_a, on_b = (mms.make_solution("taylor_vortex_swirl", {}, g) for g in (a, b))
    forcing = mms.forcing_callable(on_b, 0.1)(0.0)
    state = step(mms.sample_state(on_a, 0.0), 0.1, 1e-3,
                 forcing_at=lambda t: forcing)
    assert state.grid == b and np.all(np.isfinite(state.u_phi))
    m = monitor_for(a, derive_exponents(6.0, 4.0, 0.0), 0.1)
    assert math.isfinite(checkpoint_view(state, forcing, m).forcing_power)


def test_grid_repr_and_immutability():
    g = build_grid(4, 6, rho_max=1.5)
    assert repr(g) == "CylGrid(n_rho=4, n_z=6, rho_max=1.5, z_min=0.0, z_max=1.0)"
    with pytest.raises(AttributeError):
        g.n_rho = 8
    with pytest.raises(AttributeError):
        del g.d_rho
    state = zero_state(g)
    with pytest.raises(AttributeError):
        state.u_rho = np.ones(g.shape)
    assert g != (4, 6, 1.5, 0.0, 1.0)


def test_cell_weight_is_built_once_and_read_only():
    g = build_grid(8, 4)
    assert g.cell_weight is g.cell_weight
    assert np.array_equal(g.cell_weight,
                          2.0 * math.pi * g.rho * g.d_rho * g.d_z)
    with pytest.raises(ValueError):
        g.cell_weight[0, 0] = 1.0


@pytest.mark.parametrize("bad", [
    dict(n_rho=1, n_z=4),
    dict(n_rho=4, n_z=1),
    dict(n_rho=4, n_z=4, rho_max=0.0),
    dict(n_rho=4, n_z=4, rho_max=-1.0),
    dict(n_rho=4, n_z=4, z_min=1.0, z_max=1.0),
    dict(n_rho=4.5, n_z=4),
])
def test_grid_validation(bad):
    with pytest.raises(ConfigurationError):
        build_grid(**bad)


@pytest.mark.parametrize("bad,field", [
    (dict(n_rho=4.5, n_z=4), "n_rho"),
    (dict(n_rho=4, n_z="4"), "n_z"),
    (dict(n_rho=1, n_z=4), None),
    (dict(n_rho=4, n_z=4, rho_max=math.nan), "rho_max"),
    (dict(n_rho=4, n_z=4, z_min=1.0, z_max=0.5), "z_max"),
    # spacings whose square or reciprocal square leaves the floats
    (dict(n_rho=8, n_z=8, rho_max=1e-300), "rho_max"),
    (dict(n_rho=8, n_z=8, rho_max=1e160), "rho_max"),
    (dict(n_rho=8, n_z=8, z_max=1e-300), "z_max"),
    (dict(n_rho=8, n_z=8, z_min=-1e308, z_max=1e308), "z_max"),
    # finite spacings, but cell weights 2 pi rho d_rho d_z that overflow
    (dict(n_rho=8, n_z=8, rho_max=1e155), None),
    # finite spacings and weights, but a rho d_rho^2 that underflows or
    # overflows
    (dict(n_rho=8, n_z=8, rho_max=1e-150), "rho_max"),
    (dict(n_rho=8, n_z=8, rho_max=1e150), "rho_max"),
])
def test_grid_names_the_argument_at_fault(bad, field):
    # None: the bound on the cell counts holds both at once
    with pytest.raises(ConfigurationError) as exc:
        build_grid(**bad)
    assert exc.value.field == field


@pytest.mark.parametrize("n_rho,n_z", [(2, 2), (5, 3), (16, 16), (128, 128), (7, 31)])
def test_volume_exact_on_any_grid(n_rho, n_z):
    g = build_grid(n_rho, n_z, rho_max=2.0, z_min=0.0, z_max=1.0)
    assert abs(moment(np.ones(g.shape), g) - FOUR_PI) <= 1e-12 * FOUR_PI


def test_integral_of_rho_second_order():
    # integral of rho over the cylinder: 2*pi*L*R^3/3
    exact = 2.0 * math.pi * 8.0 / 3.0
    errs = []
    for n in (8, 16, 32):
        g = build_grid(n, 4)
        val = moment(np.broadcast_to(g.rho, g.shape), g)
        errs.append(abs(val - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders), orders


def test_weighted_lq_norm_constant():
    g = build_grid(16, 8)
    f = np.full(g.shape, 3.0)
    # plain Lq of a constant, (integral |f|^q dx)^{1/q} = c * V^{1/q}
    for q in (2.0, 4.0):
        assert moment(np.abs(f) ** q, g) ** (1.0 / q) == pytest.approx(
            3.0 * FOUR_PI ** (1.0 / q), rel=1e-13
        )


def test_weighted_lq_norm_gamma_consistency():
    g = build_grid(16, 8)
    rng = np.random.default_rng(7)
    v = rng.normal(size=g.shape)
    # the weight rho^gamma in the moment's power, q * gamma = 4.5, or in
    # the field
    lhs = moment(np.abs(v) ** 3.0, g, 4.5) ** (1.0 / 3.0)
    rhs = moment((np.abs(v) * g.rho**1.5) ** 3.0, g) ** (1.0 / 3.0)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_serrin_accumulate_finite_b_closed_form():
    g = build_grid(16, 8)
    c = 0.7
    f = np.full(g.shape, c)
    a, b = 6.0, 4.0
    acc = 0.0
    dt = 0.01
    for _ in range(25):
        acc = serrin_advance(acc, moment(f**a, g), a, b, dt)
    # gamma = 0: the quadrature of a constant is exact, so the closed form
    # T * (c^a * V)^{b/a} must be met to rounding
    exact = 0.25 * (c**a * FOUR_PI) ** (b / a)
    assert acc == pytest.approx(exact, rel=1e-10)


def test_serrin_accumulate_sup_branch():
    g = build_grid(8, 4)
    small = np.full(g.shape, 0.5)
    big = np.full(g.shape, 2.0)
    a = 6.0
    acc = 0.0
    for f in (small, big, small):
        acc = serrin_advance(acc, moment(f**a, g), a, math.inf, 0.1)
    assert acc == pytest.approx((2.0**a * FOUR_PI) ** (1.0 / a), rel=1e-12)


def test_serrin_accumulate_contracts():
    g = build_grid(8, 4)
    with pytest.raises(ContractViolation):
        serrin_advance(0.0, moment(np.ones(g.shape), g), 6.0, 4.0, -0.1)


def test_cell_counts_are_bounded():
    # rejected before any array of the grid is made
    for counts in ((MAX_CELLS + 1, 8), (8, MAX_CELLS + 1), (10**6, 10**6)):
        with pytest.raises(ConfigurationError, match=str(MAX_CELLS)):
            build_grid(*counts)
    assert build_grid(MAX_CELLS, 2).shape == (MAX_CELLS, 2)


def test_every_quadrature_is_the_radial_moment():
    # the kinetic energy and both Serrin factors of the monitor's view,
    # d(t)'s (beta = 3) and the running integral's (a * gamma = 2)
    g = build_grid(12, 6)
    rng = np.random.default_rng(3)
    ur, uh, uz = rng.normal(size=(3, *g.shape))
    v = zero_state(g).replace_fields(u_rho=ur, u_phi=uh, u_z=uz)
    assert kinetic_energy(v) == 0.5 * moment(ur**2 + uh**2 + uz**2, g)
    e = derive_exponents(8.0, 8.0, 0.25)
    view = checkpoint_view(v, zero_forcing(g), monitor_for(g, e, 0.1))
    un = negative_part(ur)
    assert view.serrin == moment(un**e.alpha, g, e.beta)
    assert view.serrin_spatial == moment(un**e.a, g, e.a * e.gamma)
    assert serrin_advance(1.0, view.serrin_spatial, e.a, e.b, 0.1) \
        == 1.0 + 0.1 * view.serrin_spatial ** (e.b / e.a)


def test_serrin_accumulate_overflow_is_inf():
    # (integral f^a)^(b/a) with b/a = 25 overflows a float: the running
    # integral is inf, for the monitor to read as blow-up, not an error
    g = build_grid(8, 4)
    f = np.full(g.shape, 1e20)
    assert serrin_advance(0.0, moment(f**4.0, g), 4.0, 100.0, 1e-6) == math.inf


def test_a_zero_sample_adds_zero_under_an_overflowing_weight():
    # on rho_max 1e100 the weight cell_weight * rho^4 overflows to inf:
    # zeros integrate to 0, not 0 * inf = nan, and a nonzero sample there
    # still gives inf
    g = build_grid(8, 8, rho_max=1e100)
    one = np.zeros(g.shape)
    one[-1, 3] = 1.0
    with np.errstate(over="ignore"):
        assert np.isinf(g.cell_weight[:, 0] * g.rho_centers ** 4.0).any()
        assert moment(np.zeros(g.shape), g, 4.0) == 0.0
        assert moment(np.zeros(g.n_rho), g, 4.0) == 0.0
        assert moment(one, g, 4.0) == math.inf
