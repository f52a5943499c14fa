"""Admissibility and derived-exponent algebra."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, strategies as st

from axiswirl.errors import InadmissibleExponents
from axiswirl.exponents import (
    check_admissible,
    derive_exponents,
    holder_young_pairs,
)


def test_oracle_a6_b4_g0():
    # hand derivation: denom = 2*6*4 - 2*6 - 3*4 = 24,
    # p = 1 + (12 + 12)/24 = 2, s = 12/4 + 3 = 6,
    # alpha = 6*2/2 = 6, beta = 0*6/2 = 0, theta = 2/3
    e = derive_exponents(6.0, 4.0, 0.0)
    assert e.p_hold == pytest.approx(2.0, abs=1e-14)
    assert e.s == pytest.approx(6.0, abs=1e-14)
    assert e.alpha == pytest.approx(6.0, abs=1e-13)
    assert e.beta == pytest.approx(0.0, abs=1e-13)
    assert e.theta == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_oracle_a9_b6():
    # denom = 108 - 18 - 18 = 72, p = 1 + 36/72 = 1.5, s = 3 + 3 = 6,
    # alpha = 6*1.5/(2*0.5) = 9, beta = 0.5*6/(2*0.5) = 3, theta = 2/3
    e = derive_exponents(9.0, 6.0, 0.0)
    assert e.p_hold == pytest.approx(1.5, abs=1e-14)
    assert e.s == pytest.approx(6.0, abs=1e-14)
    assert e.alpha == pytest.approx(9.0, abs=1e-13)
    assert e.beta == pytest.approx(3.0, abs=1e-13)
    assert e.theta == pytest.approx(2.0 / 3.0, abs=1e-14)
    # boundary case 3/9 + 2/6 + 1/3 = 1: the weight exponent meets a*gamma
    eb = derive_exponents(9.0, 6.0, 1.0 / 3.0)
    assert eb.beta == pytest.approx(9.0 / 3.0, abs=1e-12)
    assert eb.beta >= 9.0 * (1.0 / 3.0) - 1e-12


def test_oracle_sup_branch():
    # a = 6, gamma = 0, b = inf: delta = 1 - 3/6 = 1/2,
    # s = 3 + 3 = 6, p = 12/(12 - 3 - 3) = 2, beta = 0 = a*gamma
    e = derive_exponents(6.0, math.inf, 0.0)
    assert e.delta == pytest.approx(0.5, abs=1e-14)
    assert e.p_hold == pytest.approx(2.0, abs=1e-14)
    assert e.s == pytest.approx(6.0, abs=1e-14)
    assert e.alpha == pytest.approx(6.0, abs=1e-13)
    assert e.beta == pytest.approx(0.0, abs=1e-13)
    # explicit slack override below the default
    e2 = derive_exponents(6.0, math.inf, 0.0, delta=0.25)
    assert e2.s == pytest.approx(4.5, abs=1e-14)
    assert e2.alpha == pytest.approx(6.0, abs=1e-13)
    # beta exceeds a*gamma off the boundary
    assert e2.beta > 0.0


def test_sup_branch_delta_ceiling():
    # beta = a (1 - delta - 3/a) falls below a gamma once delta exceeds
    # the slack 1 - gamma - 3/a = 1/2 (a = 6, gamma = 0)
    for delta in (2.0, 0.0, 1.0, math.nextafter(0.5, 1.0)):
        with pytest.raises(InadmissibleExponents) as exc:
            derive_exponents(6.0, math.inf, 0.0, delta=delta)
        assert exc.value.field == "delta"
    for delta in (0.5, 0.25):
        assert derive_exponents(6.0, math.inf, 0.0, delta=delta).beta >= 0.0


def test_delta_is_rejected_with_a_finite_b():
    # p and s do not depend on delta for finite b: a given one is named,
    # not dropped
    with pytest.raises(InadmissibleExponents) as exc:
        derive_exponents(6.0, 4.0, 0.0, delta=123.0)
    assert exc.value.field == "delta" and "123" in str(exc.value)
    assert derive_exponents(6.0, 4.0, 0.0).delta is None


def test_a_infinite_unsupported():
    assert check_admissible(math.inf, 4.0, 0.0) == []
    with pytest.raises(InadmissibleExponents):
        derive_exponents(math.inf, 4.0, 0.0)


@pytest.mark.parametrize("a,b,gamma", [
    (1.5, 4.0, 0.0),        # a at the open lower end
    (1.0, 4.0, 0.0),
    (6.0, 1.0, 0.0),        # b at the open lower end
    (3.0, 2.0, 0.0),        # 3/a + 2/b = 2, not < 2
    (6.0, 4.0, 0.6),        # 3/a + 2/b + gamma > 1
    (6.0, math.inf, 0.5),   # 3/a + gamma = 1 on the sup branch
    (6.0, math.inf, -1.0),  # gamma floor on the sup branch
])
def test_inadmissible_triples(a, b, gamma):
    assert check_admissible(a, b, gamma)
    with pytest.raises(InadmissibleExponents):
        derive_exponents(a, b, gamma)


@pytest.mark.parametrize("a,b,gamma,delta,field", [
    (6.0, 1e300, 0.0, None, "b"),            # s = 2a/b + 3 rounds to 3
    (6.0, 6e16, 0.0, None, "b"),
    (6.0, math.inf, 0.0, 1e-300, "delta"),   # s = 3 + delta a rounds to 3
    (1e308, math.inf, -0.9, None, "gamma"),  # delta a overflows: s = inf
    (1e17, 1e17, 0.0, None, None),           # p = 1 + 5e17 / 2e34 rounds to 1
    (1e17, math.inf, 0.0, 1e-17, None),
])
def test_exponents_at_the_edge_of_the_floats(a, b, gamma, delta, field):
    # admissible, but theta = 2/(s - 3) or alpha = s p / (2(p - 1)) would
    # divide by zero (a ZeroDivisionError at b = 1e300)
    assert check_admissible(a, b, gamma) == []
    with pytest.raises(InadmissibleExponents) as exc:
        derive_exponents(a, b, gamma, delta)
    assert exc.value.field == field
    assert "must be a positive float" in str(exc.value)


@pytest.mark.parametrize("a,b,gamma,delta,field", [
    (6.0, math.inf, math.nextafter(-1.0, 0.0), None, "gamma"),
    (6.0, math.inf, math.nextafter(-1.0, 0.0), 1.5, "delta"),
    (1.6697886776570008, 9.834511350811216, -5.0, None, None),
])
def test_a_denominator_of_p_that_rounds_to_zero(a, b, gamma, delta, field):
    # admissible, and p's denominator is positive in exact arithmetic,
    # but 1 - gamma rounds to 2, so delta = 1.5 = (2a - 3)/a gives
    # 2a - delta a - 3 = 0, and 3/a + 2/b rounds below 2 while
    # 2ab - 2a - 3b rounds to 0 (each a ZeroDivisionError unchecked)
    assert check_admissible(a, b, gamma) == []
    with pytest.raises(InadmissibleExponents) as exc:
        derive_exponents(a, b, gamma, delta)
    assert exc.value.field == field
    assert "denominator of p must be a positive float" in str(exc.value)


def test_conjugate_pairs():
    for a, b, gamma in [(6.0, 4.0, 0.0), (9.0, 6.0, 0.2), (4.0, 30.0, 0.0),
                        (6.0, math.inf, 0.1)]:
        e = derive_exponents(a, b, gamma)
        for name, x, y in holder_young_pairs(e):
            assert abs(1.0 / x + 1.0 / y - 1.0) <= 1e-12, (name, x, y)
            assert x > 1.0 and y > 1.0


def test_identities_random_sample():
    rng = np.random.default_rng(42)
    count = 0
    while count < 1000:
        a = 1.5 + rng.uniform(0.01, 20.0)
        b = 1.0 + rng.uniform(0.01, 20.0)
        slack = 1.0 - 3.0 / a - 2.0 / b
        if slack <= 0.0 or not 3.0 / a + 2.0 / b < 2.0:
            continue
        gamma = rng.uniform(-1.0, slack)
        e = derive_exponents(a, b, gamma)
        assert abs(e.alpha - a) <= 1e-9 * a
        assert abs(e.theta - b / a) <= 1e-9
        assert e.beta >= a * gamma - 1e-9 * max(1.0, abs(a * gamma))
        count += 1


def test_as_dict_round_trip():
    e = derive_exponents(6.0, 4.0, 0.0)
    d = e.as_dict()
    assert d["p"] == e.p_hold and d["alpha"] == e.alpha
    assert d["delta"] is None


@pytest.mark.parametrize("a,b,gamma", [
    *((10.0 ** k, 10.0 ** k, 0.0) for k in range(6, 17)),
    (40.0, 3.0, -0.5),
])
def test_alpha_is_a_exactly(a, b, gamma):
    # alpha = s p / (2 (p - 1)) cancelled in p - 1: a = b = 1e9 gave
    # 1000000008.58, 1e16 12.6% above a, and (40, 3, -0.5) 39.99999999999999
    assert derive_exponents(a, b, gamma).alpha == a


@given(a=st.floats(1.5, 1e16, exclude_min=True),
       b=st.one_of(st.floats(1.0, 1e16, exclude_min=True), st.just(math.inf)),
       u=st.floats(0.0, 1.0))
def test_exponents_in_closed_form(a, b, u):
    # gamma in [slack - |slack| - 1, slack], where slack is the largest
    # admissible gamma: down to -1 on the b = inf branch, whose floor it is
    slack = 1.0 - 3.0 / a - (0.0 if math.isinf(b) else 2.0 / b)
    gamma = slack - u * (abs(slack) + 1.0)
    assume(check_admissible(a, b, gamma) == [])
    try:
        e = derive_exponents(a, b, gamma)
    except InadmissibleExponents:
        reject()  # 2a - s, s - 3 or p - 1 rounds to 0: see the tests above
    s = 3.0 + e.delta * a if math.isinf(b) else 2.0 * a / b + 3.0
    assert e.s == s and e.theta == 2.0 / (s - 3.0)
    assert e.alpha == a and e.beta == a - s
