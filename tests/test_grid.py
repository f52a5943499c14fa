"""Mesh construction and cylindrical quadrature."""

import math

import numpy as np
import pytest

from axiswirl.errors import ConfigurationError, ContractViolation, NumericError
from axiswirl.fields import VelocityState
from axiswirl.grid import (
    ScalarSample,
    build_grid,
    integrate,
    serrin_accumulate,
    weighted_lq_norm,
)

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
    # states may mix samples on distinct but equal grids
    z = np.zeros(a.shape)
    state = VelocityState(ScalarSample(z, a), ScalarSample(z, b),
                          ScalarSample(z, a), ScalarSample(z, b), 0.0)
    assert state.grid == b


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


@pytest.mark.parametrize("n_rho,n_z", [(2, 2), (5, 3), (16, 16), (128, 128), (7, 31)])
def test_volume_exact_on_any_grid(n_rho, n_z):
    g = build_grid(n_rho, n_z, rho_max=2.0, z_min=0.0, z_max=1.0)
    one = ScalarSample(np.ones(g.shape), g)
    assert abs(integrate(one) - FOUR_PI) <= 1e-12 * FOUR_PI
    assert abs(g.volume - FOUR_PI) <= 1e-12 * FOUR_PI


def test_integral_of_rho_second_order():
    # integral of rho over the cylinder: 2*pi*L*R^3/3
    exact = 2.0 * math.pi * 8.0 / 3.0
    errs = []
    for n in (8, 16, 32):
        g = build_grid(n, 4)
        val = integrate(ScalarSample(np.broadcast_to(g.rho, g.shape), g))
        errs.append(abs(val - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders), orders


def test_integrate_rejects_bad_input():
    g = build_grid(4, 4)
    with pytest.raises(ContractViolation):
        integrate(np.ones(g.shape))
    bad = np.ones(g.shape)
    bad[1, 1] = np.nan
    with pytest.raises(NumericError):
        integrate(ScalarSample(bad, g))
    with pytest.raises(ConfigurationError):
        ScalarSample(np.ones((3, 3)), g)


def test_weighted_lq_norm_constant():
    g = build_grid(16, 8)
    f = ScalarSample(np.full(g.shape, 3.0), g)
    # plain Lq of a constant: c * V^{1/q}
    for q in (2.0, 4.0):
        assert weighted_lq_norm(f, q) == pytest.approx(
            3.0 * FOUR_PI ** (1.0 / q), rel=1e-13
        )
    with pytest.raises(ContractViolation):
        weighted_lq_norm(f, 0.5)


def test_weighted_lq_norm_gamma_consistency():
    g = build_grid(16, 8)
    rng = np.random.default_rng(7)
    v = rng.normal(size=g.shape)
    lhs = weighted_lq_norm(ScalarSample(v, g), 3.0, gamma=1.5)
    rhs = weighted_lq_norm(ScalarSample(np.abs(v) * g.rho**1.5, g), 3.0)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_serrin_accumulate_finite_b_closed_form():
    g = build_grid(16, 8)
    c = 0.7
    f = ScalarSample(np.full(g.shape, c), g)
    a, b = 6.0, 4.0
    acc = 0.0
    dt = 0.01
    for _ in range(25):
        acc = serrin_accumulate(acc, f, a, b, 0.0, dt)
    # gamma = 0: the quadrature of a constant is exact, so the closed form
    # T * (c^a * V)^{b/a} must be met to rounding
    exact = 0.25 * (c**a * FOUR_PI) ** (b / a)
    assert acc == pytest.approx(exact, rel=1e-10)


def test_serrin_accumulate_sup_branch():
    g = build_grid(8, 4)
    small = ScalarSample(np.full(g.shape, 0.5), g)
    big = ScalarSample(np.full(g.shape, 2.0), g)
    a = 6.0
    acc = serrin_accumulate(0.0, small, a, math.inf, 0.0, 0.1)
    acc = serrin_accumulate(acc, big, a, math.inf, 0.0, 0.1)
    acc = serrin_accumulate(acc, small, a, math.inf, 0.0, 0.1)
    assert acc == pytest.approx((2.0**a * FOUR_PI) ** (1.0 / a), rel=1e-12)


def test_serrin_accumulate_contracts():
    g = build_grid(8, 4)
    with pytest.raises(ContractViolation):
        serrin_accumulate(0.0, ScalarSample(np.full(g.shape, -1.0), g),
                          6.0, 4.0, 0.0, 0.1)
    with pytest.raises(ContractViolation):
        serrin_accumulate(0.0, ScalarSample(np.ones(g.shape), g),
                          6.0, 4.0, 0.0, -0.1)
