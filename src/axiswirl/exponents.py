"""Admissibility and exponent bookkeeping for the weighted Serrin condition.

The monitored condition is integrability of the negative radial velocity
part in the weighted space-time norm with exponents (a, b) and radial
weight rho^gamma.  From (a, b) one auxiliary exponent is built,

    s = 2a/b + 3,

and for b = inf (running-supremum branch)

    s = 3 + delta*a,

with delta such that 3/a + gamma = 1 - delta.  The rest follow from a
and s in closed form:

    p     = 2a / (2a - s)    (Holder exponent of the swirl-norm estimate)
    alpha = a                (power of the negative part inside d(t))
    beta  = a - s            (power of the rho weight inside d(t))
    theta = 2 / (s-3)        (outer time exponent)

These are the construction's alpha = s*p / (2(p-1)) and
beta = (2-p)*s / (2(p-1)) with p - 1 = s / (2a - s) cancelled, so
alpha = a holds bit for bit; p - 1 is still checked, because the
monitor's Holder exponent p/(p-1) divides by it.  theta = b/a (finite
b), and beta >= a*gamma with equality exactly on the boundary
3/a + 2/b + gamma = 1.
"""

from __future__ import annotations

import math

from .errors import InadmissibleExponents
from .records import Frozen


class ExponentSet(Frozen):
    __slots__ = ("a", "b", "gamma", "p_hold", "s", "beta", "theta", "delta")

    def __init__(self, a, b, gamma, p_hold, s, beta, theta, delta=None):
        self._freeze(a, b, gamma, p_hold, s, beta, theta, delta)

    @property
    def alpha(self):
        """The power of u_rho^- inside d(t): a, by construction."""
        return self.a

    def as_dict(self):
        return {
            "a": self.a,
            "b": self.b,
            "gamma": self.gamma,
            "p": self.p_hold,
            "s": self.s,
            "alpha": self.alpha,
            "beta": self.beta,
            "theta": self.theta,
            "delta": self.delta,
        }


def check_admissible(a, b, gamma) -> list[str]:
    """Return the list of violated admissibility conditions (empty = admissible).

    Finite b: a in (3/2, inf], b in (1, inf), gamma finite, 3/a + 2/b +
    gamma <= 1 and 3/a + 2/b < 2.  b = inf uses the supremum-branch
    conditions 3/a + gamma < 1 and gamma > -1 (the latter keeps the slack
    delta <= 1 - gamma - 3/a below (2a-3)/a, where p's denominator
    vanishes, in exact arithmetic; derive_exponents checks the rounded
    denominator).
    """
    violations = []
    if not (a > 1.5):
        violations.append(f"a must lie in (3/2, inf], got {a}")
        return violations
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    if b == math.inf:
        if not (3.0 * inv_a + gamma < 1.0):
            violations.append(
                f"3/a + gamma must be < 1 for b = inf, got {3.0 * inv_a + gamma}"
            )
        if not (gamma > -1.0):
            violations.append(f"gamma must be > -1 for b = inf, got {gamma}")
        return violations
    if not (b > 1.0):
        violations.append(f"b must lie in (1, inf], got {b}")
        return violations
    if not math.isfinite(gamma):
        violations.append(f"gamma must be finite, got {gamma}")
        return violations
    serrin = 3.0 * inv_a + 2.0 / b
    if not (serrin + gamma <= 1.0):
        violations.append(f"3/a + 2/b + gamma must be <= 1, got {serrin + gamma}")
    if not (serrin < 2.0):
        violations.append(f"3/a + 2/b must be < 2, got {serrin}")
    return violations


def derive_exponents(a, b, gamma, delta=None) -> ExponentSet:
    """Build the full ExponentSet for an admissible (a, b, gamma).

    Raises InadmissibleExponents when the admissibility conditions fail,
    for a = inf, which the d(t) construction does not support (s would
    collapse to 3), for a delta given with a finite b, where s does not
    depend on it (naming delta), for a delta outside (0, 1 - gamma - 3/a],
    the range where beta >= a gamma (naming delta when given, gamma when
    derived), and where p's denominator 2a - s, s - 3 or p - 1, which p,
    theta and the monitor's Holder exponents divide by, is not a positive
    float.  2a - s and s - 3 name delta on the b = inf branch (gamma when
    delta is derived from it); for finite b, 2a - s names no one field
    (3/a + 2/b can round below 2 while 2a - s rounds to 0) and s - 3
    names b (b = 1e300 rounds s to exactly 3); p - 1 names no one field.
    """
    violations = check_admissible(a, b, gamma)
    if violations:
        raise InadmissibleExponents(violations)
    if math.isinf(a):
        raise InadmissibleExponents(
            ["a = inf is admissible for the criterion but unsupported by the "
             "d(t) construction (s -> 3); choose finite a"]
        )
    a = float(a)
    gamma = float(gamma)
    if b == math.inf:
        field = denom_field = "delta" if delta is not None else "gamma"
        # beta = a (1 - delta - 3/a) >= a gamma exactly up to the slack,
        # which is also the derived delta, bit for bit
        slack = 1.0 - gamma - 3.0 / a
        if delta is None:
            delta = slack
        if not (0.0 < delta <= slack):
            raise InadmissibleExponents(
                [f"delta must lie in (0, 1 - gamma - 3/a] = (0, {slack}], "
                 f"got {delta}"], field)
        s = 3.0 + delta * a
    else:
        if delta is not None:
            raise InadmissibleExponents(
                [f"delta is the slack of the b = inf branch; got {delta} "
                 f"with b = {b}"], "delta")
        b = float(b)
        s = 2.0 * a / b + 3.0
        field, denom_field = "b", None
    # positive in exact arithmetic for admissible exponents (3/a + 2/b < 2
    # for finite b, gamma > -1 for b = inf), but the rounded one can
    # vanish, and is -inf or NaN where delta*a overflows
    denom = 2.0 * a - s
    if not denom > 0.0:
        raise InadmissibleExponents(
            [f"the denominator of p must be a positive float, got {denom}"],
            denom_field)
    if not 0.0 < s - 3.0 < math.inf:
        raise InadmissibleExponents(
            [f"s - 3 must be a positive float, got {s - 3.0} (s = {s})"],
            field)
    p = 2.0 * a / denom
    if not 0.0 < p - 1.0 < math.inf:
        raise InadmissibleExponents(
            [f"p - 1 must be a positive float, got {p - 1.0} (p = {p})"])
    return ExponentSet(a, float(b), gamma, p, s, a - s, 2.0 / (s - 3.0),
                       delta)


def holder_young_pairs(e: ExponentSet) -> list[tuple[str, float, float]]:
    """Every conjugate pair used in the swirl-norm estimate chain.

    Each (x, y) satisfies 1/x + 1/y = 1.
    """
    p, s = e.p_hold, e.s
    return [
        ("holder_p", p / (p - 1.0), p),
        ("holder_s_half", s / 2.0, s / (s - 2.0)),
        ("holder_inner", (s - 2.0) / (s - 3.0), s - 2.0),
        ("young_s_thirds", s / 3.0, s / (s - 3.0)),
    ]
