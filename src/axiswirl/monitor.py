"""Per-checkpoint evaluation of the swirl regularity estimates.

Given consecutive solver checkpoints this module evaluates every
monitored quantity of the estimate chain: the growth coefficient d(t)
built from the negative part of the radial velocity, the weighted
swirl-norm budget with all of its intermediate Holder/Young steps, the
epsilon-weighted azimuthal-vorticity budget and its epsilon -> 0 limit,
the quartic swirl identity and its Young-absorbed inequality, the
Gronwall envelope, and the blow-up indicator time series.  Every
monitored integral is a row of checkpoint_view's table, evaluated once
per checkpoint as a radial moment of z-sums; every linear budget is a
list of terms for the one balance rule; each budget is one function of
two views and the pair's dt, which Diagnostics computes once per pair
as it folds the checkpoints into records (solver.run makes their times
increase, so dt > 0).  evaluate_checks turns the records' margins into
the PASS / FAIL / REPORT-ONLY checks of a run.  The settings' rules are
monitor_settings', met once, when the MonitorConfig is built.

Two classes of checks are distinguished throughout:

* constant-free discrete inequalities (Holder, Young, Cauchy-Schwarz on
  quadrature sums) hold exactly up to rounding and are asserted with a
  relative tolerance around 1e-12;
* assembled budget margins depend on empirical constants (c_grow,
  c_sob, c3) that the estimate chain does not pin down, so they are
  reported, never asserted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError, ContractViolation, InadmissibleExponents
from .exponents import ExponentSet
from .fields import (
    EVEN,
    EXTRAP,
    NOSLIP,
    ODD,
    VelocityState,
    curl_axisym,
    d_rho,
    d_z,
    grad_squared,
    velocity_gradient,
    zero_forcing,
)
from .grid import CylGrid, power, serrin_advance
from .grid import moment as _integ  # the package's one midpoint rule


# --- configuration --------------------------------------------------------

DEFAULT_EPSILON_LIST = (0.4, 0.2, 0.1, 0.04, 0.0)


def monitor_settings(q=4, epsilon_list=DEFAULT_EPSILON_LIST, c_grow=None,
                     c_sob=None) -> tuple:
    """The rules on the monitor's settings that hold whatever the
    exponents, nu and grid: q an even integer >= 2, epsilon_list strictly
    decreasing in [0, 1) to the limit 0 (or empty), and c_grow and c_sob,
    where given, positive and finite.  Returns epsilon_list as a tuple of
    floats; raises ConfigurationError naming the first setting, in that
    order, that breaks its rule."""
    if not (q >= 2 and q % 2 == 0):
        raise ConfigurationError(f"q must be an even integer >= 2, got {q}",
                                 "q")
    eps = tuple(float(e) for e in epsilon_list)
    if (any(not (0.0 <= e < 1.0) for e in eps)
            or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:]))
            or eps and eps[-1] != 0.0):
        raise ConfigurationError(
            f"epsilon_list must strictly decrease within [0, 1) and end at "
            f"the limit 0, got {list(eps)}", "epsilon_list")
    for name, value in (("c_grow", c_grow), ("c_sob", c_sob)):
        if value is not None and not (0.0 < value < math.inf):
            raise ConfigurationError(
                f"{name} must be positive and finite, got {value}", name)
    return eps


class MonitorConfig:
    """Constants and exponents for the estimate monitor.

    c_sob is the empirical embedding constant in
    ||u_phi||_{3q}^q <= c_sob * integral |grad(u_phi^{q/2})|^2 (see
    calibrate_sobolev).  eps1 and eps2 are the two absorption parameters,
    and young1 = eps1^{1/(1-p)} and young2 = eps2^{3/(3-s)} the weights
    the two Young steps put on their conjugate terms; all four are fixed
    by the exponents, nu and c_sob, so they are computed here, once.
    c_grow defaults to the coefficient the absorption steps produce for
    the d(t) growth term; c3 bounds the absorbed vorticity-forcing term
    and defaults to 0 (exact for unforced vorticity).

    Besides monitor_settings, the constructor holds the rules that join
    the settings with the exponents and nu, and raises ConfigurationError
    naming the argument at fault: nu when nu^3, which the quartic budget
    divides by, is not a positive finite float; c_sob when eps2, the
    term it divides, is not; and otherwise, for absorption constants (or
    a default c_grow) that are not positive and finite,
    InadmissibleExponents naming the exponents.
    """

    __slots__ = ("exponents", "nu", "c_sob", "q", "epsilon_list", "c_grow",
                 "c3", "eps1", "eps2", "young1", "young2")

    def __init__(self, exponents: ExponentSet, nu: float, c_sob: float,
                 q: int = 4, epsilon_list: tuple = DEFAULT_EPSILON_LIST,
                 c_grow: float | None = None, c3: float = 0.0):
        self.epsilon_list = monitor_settings(q, epsilon_list, c_grow, c_sob)
        self.exponents = exponents
        self.nu = nu
        self.c_sob = c_sob
        self.q = q
        self.c3 = c3
        if not (nu > 0.0 and 0.0 < nu * nu * nu < math.inf):
            raise ConfigurationError(
                f"nu must be positive with nu^3 a positive finite number, "
                f"got {nu}", "nu")
        p, s, qf = exponents.p_hold, exponents.s, float(q)
        # eps1: q*eps1/p eats half of nu*q*I2; eps2: the Sobolev-embedded
        # term eats half of the nu*4(q-1)/q gradient dissipation
        self.eps1 = nu * p / 2.0
        self.eps2 = (2.0 * nu * (qf - 1.0) / qf) * s * p \
            * power(self.eps1, 1.0 / (p - 1.0)) / (3.0 * (p - 1.0) * qf * c_sob)
        self.young1 = power(self.eps1, 1.0 / (1.0 - p))
        self.young2 = power(self.eps2, 3.0 / (3.0 - s))
        constants = {"eps1^(1/(1-p))": self.young1,
                     "eps2^(3/(3-s))": self.young2}
        if c_grow is None:
            # after both absorptions, scaled by q from the q-fold norm
            # estimate
            c_grow = constants["c_grow"] = qf * (p - 1.0) * (s - 3.0) \
                / (s * p) * self.young1 * self.young2
        if not all(0.0 < x < math.inf for x in constants.values()):
            message = ("the absorption constants must be positive and "
                       "finite, got " + ", ".join(
                           f"{k} = {x}" for k, x in constants.items())
                       + f" for p = {p}, s = {s}, nu = {nu} and c_sob = {c_sob}")
            if 0.0 < self.young1 < math.inf and not 0.0 < self.eps2 < math.inf:
                raise ConfigurationError(message, "c_sob")
            raise InadmissibleExponents([message], "exponents")
        self.c_grow = c_grow

    def growth(self, serrin_theta: float) -> float:
        """d(t) = q + c_grow * serrin_theta for serrin_theta =
        (integral (u_rho^-)^alpha rho^beta dx)^theta."""
        return float(self.q) + self.c_grow * serrin_theta


def probe_fields(grid: CylGrid):
    """Deterministic swirl probes vanishing at the wall, used for the
    embedding-constant calibration."""
    rho, z = grid.meshgrid()
    r = rho / grid.rho_max
    two_pi_z = 2.0 * math.pi * (z - grid.z_min) / (grid.z_max - grid.z_min)
    probes = []
    for k in (1, 2, 3):
        base = rho * (1.0 - r**2) ** k
        probes.append(base)
        probes.append(base * (1.0 + 0.5 * np.cos(two_pi_z)))
    probes.append(rho * (1.0 - r) ** 2 * (1.0 + 0.25 * np.sin(two_pi_z)))
    return probes


@functools.lru_cache(maxsize=16)
def calibrate_sobolev(grid: CylGrid, q: int = 4) -> float:
    """Empirical constant c_sob with ||u||_{3q}^q <= c_sob * integral
    |grad(u^{q/2})|^2, taken as the max Rayleigh quotient over the
    fixed probe family (reported, not proven).  Memoised per (grid, q),
    since a sweep calibrates the same grid once per scenario.  A q that
    breaks monitor_settings, or for which the constant is 0 (every probe
    power underflows) or inf (one overflows), raises ConfigurationError
    naming q, on every call (lru_cache keeps no exceptions).

    The probes grow with rho_max, but a scaled probe s u has the same
    quotient (both sides scale as s^q), so each is scaled by the power of
    two that is 1 for rho_max in [2, 4): exact, and it keeps the powers
    of a large or a small domain in range; those of a large q overflow to
    inf, without a warning."""
    monitor_settings(q)
    scale = 2 - math.frexp(grid.rho_max)[1]
    best = 0.0
    for probe in probe_fields(grid):
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.ldexp(probe, scale)
            num = _integ(np.abs(u ** (q // 2)) ** 6, grid) ** (1.0 / 3.0)
            den = _integ(swirl_grad_squared(u, grid, q), grid)
        if den > 0.0:
            best = max(best, num / den)
    if not 0.0 < best < math.inf:
        raise ConfigurationError(f"calibration on the grid gives no positive "
                                 f"finite c_sob for q = {q}", "q")
    return best


def monitor_for(grid: CylGrid, exponents: ExponentSet, nu: float, q: int = 4,
                **kwargs) -> MonitorConfig:
    """MonitorConfig with c_sob calibrated on the given grid."""
    c_sob = kwargs.pop("c_sob", None)
    if c_sob is None:
        c_sob = calibrate_sobolev(grid, q)
    return MonitorConfig(exponents=exponents, nu=nu, c_sob=c_sob, q=q, **kwargs)


# --- basic functionals ----------------------------------------------------

def negative_part(u_rho: np.ndarray) -> np.ndarray:
    """u_rho^-(x) = max(-u_rho(x), 0) >= 0."""
    return np.maximum(-u_rho, 0.0)


def swirl_grad_squared(u: np.ndarray, grid: CylGrid, q: int) -> np.ndarray:
    """|grad(u^{q/2})|^2 for a swirl u (odd across the axis, so u^{q/2} is
    odd for odd q/2) with the no-slip wall ghost: the integrand of the
    swirl budget's gradient dissipation and of calibrate_sobolev's
    denominator, so that c_sob bounds the functional the budget uses."""
    half = q // 2
    return grad_squared(u ** half, grid, ODD if half % 2 else EVEN, NOSLIP)


def _transport_integrand(v: VelocityState, uq: np.ndarray) -> np.ndarray:
    """u_rho d_rho(uq) + u_z d_z(uq) for uq = |u_phi|^q, an even power:
    even across the axis, 0 at the wall."""
    g = v.grid
    return v.u_rho * d_rho(uq, g, EVEN, NOSLIP) + v.u_z * d_z(uq, g)


def transport_cancellation(v: VelocityState, q: int) -> float:
    """Discrete value of integral u_rho d_rho(u_phi^q) + u_z d_z(u_phi^q),
    which vanishes for divergence-free fields; O(Delta^2) on projected
    states.  q is an even integer >= 2 (monitor_settings).  The same
    number as checkpoint_view's transport_cancellation row."""
    return _integ(_transport_integrand(v, np.abs(v.u_phi) ** q), v.grid)


# --- per-checkpoint view --------------------------------------------------

class CheckpointView(dict):
    """The integrals of one checkpoint by name, as checkpoint_view
    evaluates them; a string name reads as an attribute too."""

    __slots__ = ()

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def checkpoint_view(v: VelocityState, f,
                    m: MonitorConfig) -> CheckpointView:
    """Evaluate every monitored integral of one finite state and the
    forcing f = (h_rho, h_phi, h_z) at its time (h = h_phi; u = u_phi).
    Each integral is a row (name, z-sums, k) of one table: the moment of
    the z-sums of its integrand against rho^k, each z-sum formed once.
    A row that is a diagnostics.csv column bears the column's name.  An
    eps-weighted row gives one integral per configured epsilon (0 for an
    empty list), named (name, eps).  The numbers derived from the rows
    follow them.  A power that overflows is inf, never an exception."""
    g, q, e = v.grid, m.q, m.exponents
    p, s = e.p_hold, e.s
    ur, uh, h = v.u_rho, v.u_phi, f[1]
    u2 = uh**2
    # the one differentiation of v, dropped before the powers of u_phi are
    # formed so that its six arrays stay out of the view's peak memory
    grad = velocity_gradient(v)
    w = curl_axisym(v, grad)
    # |grad u|^2: the squared component derivatives plus the curvature
    # terms (u_rho^2 + u_phi^2)/rho^2
    grad_sq = (sum(r**2 + z**2 for r, z in zip(*grad))
               + (ur**2 + u2) / g.rho**2).sum(axis=1)
    grad_u2 = ((grad[0][1]**2 + grad[1][1]**2) * u2).sum(axis=1)
    del grad
    un, u_abs, h_abs, wh = negative_part(ur), np.abs(uh), np.abs(h), w[1]
    powers = {j: u_abs**j for j in {q, 4, q * s / (s - 2.0), 3 * q}}
    sums = {j: x.sum(axis=1) for j, x in powers.items()}
    uq, u4 = powers[q], powers[4]
    # alpha is a: one z-sum of (u_rho^-)^a gives both Serrin factors
    un_sums = (un ** e.a).sum(axis=1)
    w2 = wh**2
    w2_sums, ur_w2_sums = w2.sum(axis=1), (np.abs(ur) * w2).sum(axis=1)
    # u^2 / rho is odd^2 / odd: odd across the axis
    quartic_diss = grad_squared(u2 / g.rho, g, ODD, NOSLIP).sum(axis=1)
    rows = [
        ("serrin", un_sums, e.beta),
        ("serrin_spatial", un_sums, e.a * e.gamma),
        ("grad_u_sq", grad_sq, 0.0),
        ("transport_cancellation", _transport_integrand(v, uq).sum(axis=1),
         0.0),
        ("swirl_power", sums[q], 0.0),
        ("forcing_power", (h_abs**q).sum(axis=1), 0.0),
        ("dissipation_swirl_grad", swirl_grad_squared(uh, g, q).sum(axis=1),
         0.0),
        ("dissipation_swirl_axis", sums[q], -2.0),
        ("young_forcing_lhs", (h_abs * u_abs ** (q - 1)).sum(axis=1), 0.0),
        ("holder_lhs", (un * uq).sum(axis=1), -1.0),
        ("holder_y1", (un ** (p / (p - 1.0)) * uq).sum(axis=1),
         (2.0 - p) / (p - 1.0)),
        ("swirl_mid_power", sums[q * s / (s - 2.0)], 0.0),
        ("swirl_3q_power", sums[3 * q], 0.0),
        ("quartic_swirl_r2", sums[4], -2.0),
        ("quartic_swirl_r4", sums[4], -4.0),
        ("dissipation_quartic", quartic_diss, 0.0),
        ("quartic_transport", (ur * u4).sum(axis=1), -3.0),
        ("quartic_grad", grad_u2, -2.0),
        ("quartic_forcing", (h * uh**3).sum(axis=1), -2.0),
        ("quartic_source", (u4 * un).sum(axis=1), -3.0),
        ("quartic_young", (h**4).sum(axis=1), 4.0),
        ("vort_rz_sq", (w[0]**2 + w[2]**2).sum(axis=1), 0.0),
        ("vort_phi_sq", w2_sums, 0.0),
    ]
    for x in m.epsilon_list or (0.0,):
        # omega_phi / rho^{1-eps} is odd/odd-like: even across the axis
        vort_diss = grad_squared(wh / g.rho ** (1.0 - x), g, EVEN, EXTRAP)
        rows += [(("vort_enstrophy", x), w2_sums, x - 2.0),
                 (("vort_diss", x), vort_diss.sum(axis=1), -x),
                 (("vort_quartic", x), sums[4], x - 4.0),
                 (("vort_radial", x), ur_w2_sums, x - 3.0),
                 (("vort_curvature", x), w2_sums, x - 4.0)]
    view = CheckpointView({name: _integ(col, g, k) for name, col, k in rows})
    serrin_theta = power(view["serrin"], e.theta)
    d_t = m.growth(serrin_theta)
    view.update(
        time=v.time, serrin_theta=serrin_theta, d_t=d_t,
        swirl_growth=d_t * view["swirl_power"],
        vort_l2=math.sqrt(view["vort_rz_sq"] + view["vort_phi_sq"]),
        grad_u_l2=view["grad_u_sq"] ** 0.5)
    return view


# --- the balance rule -----------------------------------------------------

def balance(left, right, prev: CheckpointView, nxt: CheckpointView,
            dt: float) -> tuple:
    """(residual, scale) of a balance across a pair of views, dt apart.
    A term (c, field, evaluation) is c times the field's rate over the
    pair ("rate"), its trapezoid mean ("trapezoid") or its value at the
    pair's start ("start"); with field None it is c.  The residual is the
    left terms summed minus the right terms summed, each side in order,
    and the scale the sum of the magnitudes of all the terms."""
    def term(c, name, how):
        if name is None:
            return c
        if how == "rate":
            return c * (nxt[name] - prev[name]) / dt
        if how == "trapezoid":
            return c / 2.0 * (prev[name] + nxt[name])
        return c * prev[name]

    lhs, rhs = [term(*t) for t in left], [term(*t) for t in right]
    return (sum(lhs[1:], lhs[0]) - sum(rhs[1:], rhs[0]),
            sum(map(abs, lhs + rhs)))


# --- Step-1 budget --------------------------------------------------------

def swirl_lq_budget(prev: CheckpointView, nxt: CheckpointView,
                    m: MonitorConfig, dt: float) -> dict:
    """Margin of the q-norm growth inequality across one checkpoint pair,
    dt apart, as margin columns: swirl_budget plus, for every
    intermediate Holder/Young step, its margin and its scale
    (<name>_scale, for the relative tolerance).

    Instantaneous terms are those of the earlier state (forward
    difference in time).  The final margin depends on c_grow/c_sob and
    is reported; the six sub-margins are exact and must be >=
    -tolerance * scale.
    """
    q, nu = m.q, m.nu
    p, s = m.exponents.p_hold, m.exponents.s
    n_prev, h_q = prev.swirl_power, prev.forcing_power
    s_pow = prev.serrin ** (2.0 / s)  # S^{2/s}
    out = {"swirl_budget": balance(
        [(1.0, "forcing_power", "start"), (1.0, "swirl_growth", "start")],
        [(1.0, "swirl_power", "rate"),
         (nu * (2.0 * (q - 1.0) / q), "dissipation_swirl_grad", "start"),
         (nu * q / 2.0, "dissipation_swirl_axis", "start")], prev, nxt, dt)[0]}

    def record(name, lhs, rhs):
        out[name] = rhs - lhs
        out[name + "_scale"] = max(abs(lhs), abs(rhs))

    # forcing Young step: int |h| |u|^{q-1} against (1/q)((q-1)/q)^{q-1}
    # ||h||_q^q + ||u||_q^q
    record("young_forcing", prev.young_forcing_lhs,
           (1.0 / q) * ((q - 1.0) / q) ** (q - 1) * h_q + n_prev)

    y1, i2 = prev.holder_y1, prev.dissipation_swirl_axis
    holder = y1 ** ((p - 1.0) / p) * i2 ** (1.0 / p)
    record("holder_p", prev.holder_lhs, holder)

    record("young_eps1", holder,
           p / (p - 1.0) * m.young1 * y1 + m.eps1 / p * i2)

    mid = prev.swirl_mid_power ** ((s - 2.0) / s)
    record("holder_s_half", y1, s_pow * mid)

    n_3q = prev.swirl_3q_power ** (1.0 / 3.0)  # ||u||_{3q}^q
    record(
        "holder_inner",
        mid,
        n_prev ** ((s - 3.0) / s) * n_3q ** (3.0 / s),
    )

    record(
        "young_eps2",
        s_pow * n_prev ** ((s - 3.0) / s) * n_3q ** (3.0 / s),
        3.0 / s * m.eps2 * n_3q
        + (s - 3.0) / s * m.young2 * prev.serrin_theta * n_prev,
    )
    return out


# --- Step-2 budget --------------------------------------------------------

def vorticity_margin_sequence(prev: CheckpointView, nxt: CheckpointView,
                              m: MonitorConfig, dt: float) -> dict:
    """Signed margins of the eps-weighted azimuthal-vorticity inequality
    across one checkpoint pair, dt apart, one column per configured
    epsilon, ending at the limit 0 (evaluated directly: all weights are
    finite on the axis-offset grid).  The vorticity forcing enters only
    through the absorbed constant c3.
    """
    return {_vorticity_column(eps): balance(
        [(1.0 / (2.0 * m.nu), ("vort_quartic", eps), "start"),
         (eps / 2.0, ("vort_radial", eps), "start"),
         (m.nu * eps / 2.0 * (eps - 2.0), ("vort_curvature", eps), "start"),
         (m.c3, None, "start")],
        [(0.5, ("vort_enstrophy", eps), "rate"),
         (m.nu / 4.0, ("vort_diss", eps), "start")], prev, nxt, dt)[0]
        for eps in m.epsilon_list}


# --- Step-3 budget --------------------------------------------------------

def quartic_swirl_budget(prev: CheckpointView, nxt: CheckpointView,
                         m: MonitorConfig, dt: float) -> dict:
    """Quartic swirl balance across one checkpoint pair, dt apart, as
    margin columns.

    quartic_identity_residual is the defect of the exact quartic identity
    (an equality up to O(dt^2 + Delta^2) on smooth trajectories):

        (1/4) d/dt int u^4/rho^2 + (3/2) int u_rho u^4/rho^3
        + 3 nu int [(d_rho u)^2 + (d_z u)^2] u^2/rho^2
        = int h u^3/rho^2,

    with the rate a difference over the pair and the other three terms
    the means of their values at its two ends (the trapezoidal rule,
    second order in dt as Crank-Nicolson is).  Its scale,
    quartic_identity_residual_scale, is the sum of the magnitudes of the
    four terms, so the residual is measured against the size of what it
    balances.

    quartic_budget is the signed Young-absorbed inequality with the
    explicit constant 27/(4 nu^3) on the forcing term (reported, not
    asserted), with the terms of the earlier state:

        [(3/2) int u^4 u_rho^- /rho^3 + 27/(4 nu^3) int rho^4 h^4]
        - [(1/4) d/dt int u^4/rho^2 + (3/4) nu int |grad(u^2/rho)|^2
           + (nu/2) int u^4/rho^4].
    """
    nu = m.nu
    rate = (0.25, "quartic_swirl_r2", "rate")
    residual, scale = balance(
        [rate, (1.5, "quartic_transport", "trapezoid"),
         (3.0 * nu, "quartic_grad", "trapezoid")],
        [(1.0, "quartic_forcing", "trapezoid")], prev, nxt, dt)
    margin, _ = balance(
        [(1.5, "quartic_source", "start"),
         (27.0 / (4.0 * nu**3), "quartic_young", "start")],
        [rate, (0.75 * nu, "dissipation_quartic", "start"),
         (0.5 * nu, "quartic_swirl_r4", "start")], prev, nxt, dt)
    return {"quartic_budget": margin,
            "quartic_identity_residual": residual,
            "quartic_identity_residual_scale": scale}


# --- Gronwall envelope and records ----------------------------------------

# The diagnostics.csv columns of a record, in order; the margin columns
# follow them.  A number that a checkpoint view holds under a column's
# name is that column's value, Diagnostics.add derives seven more, and
# truncated marks blow-up data.
COLUMNS = ("time", "swirl_q_norm", "d_t", "serrin_running",
           "gronwall_envelope", "forcing_q_norm", "weighted_vort_energy",
           "quartic_swirl_r2", "quartic_swirl_r4", "dissipation_swirl_grad",
           "dissipation_swirl_axis", "dissipation_vort", "dissipation_quartic",
           "grad_u_l2", "vort_l2", "transport_cancellation", "f_indicator",
           "truncated")
# a record's fields but its margins: the columns, and the view's integral
# u_phi^q, which the checks read and no column holds
_FIELDS = (*COLUMNS, "swirl_power")


class DiagnosticsRecord:
    """One row of monitor output per checkpoint.

    Pair-based quantities (margins, rates) describe the interval ending
    at this checkpoint and are absent (NaN / empty) on the first record
    of a trajectory; a truncated record leaves its values at NaN.
    Built with keyword arguments; a value not given is NaN.
    """

    __slots__ = (*_FIELDS, "margins")

    def __init__(self, time: float, truncated: bool = False,
                 margins: dict | None = None, **values):
        unknown = values.keys() - set(_FIELDS)
        if unknown:
            raise TypeError(f"DiagnosticsRecord has no fields {sorted(unknown)}")
        values.update(time=time, truncated=truncated)
        for name in _FIELDS:
            setattr(self, name, values.get(name, math.nan))
        self.margins = {} if margins is None else margins
        for name in ("swirl_q_norm", "serrin_running", "weighted_vort_energy",
                     "quartic_swirl_r2", "quartic_swirl_r4", "grad_u_l2",
                     "vort_l2"):
            val = getattr(self, name)
            if not self.truncated and val < 0.0:
                raise ContractViolation(f"{name} must be nonnegative, got {val}")


_EXP_MAX = math.log(np.finfo(float).max)  # math.exp overflows beyond it


def blowup_indicator(records) -> dict:
    """Summary of the Step-4 quantities over a record sequence: the
    indicator F(t), the vorticity L2 norm and its running time integral,
    and the velocity-gradient L2 norm.  Reports values only; no
    regularity claim is encoded."""
    finite = [r for r in records if not r.truncated]
    report = {
        "truncated": any(r.truncated for r in records),
        "window_end": records[-1].time if records else math.nan,
        "last_finite_time": finite[-1].time if finite else math.nan,
    }
    if not finite:
        report.update({
            "f_max": math.nan, "f_final": math.nan, "vort_l2_max": math.nan,
            "vort_l2_time_integral": math.nan, "grad_u_l2_max": math.nan,
        })
        return report
    times = [r.time for r in finite]
    vort = [r.vort_l2 for r in finite]
    report["f_max"] = max(r.f_indicator for r in finite)
    report["f_final"] = finite[-1].f_indicator
    report["vort_l2_max"] = max(vort)
    report["vort_l2_time_integral"] = float(np.trapezoid(vort, times)) \
        if len(finite) > 1 else 0.0
    report["grad_u_l2_max"] = max(r.grad_u_l2 for r in finite)
    return report


def _view_or_blowup(v: VelocityState, f, m: MonitorConfig):
    """checkpoint_view of v, or None when v is blow-up data: non-finite
    fields, or finite fields whose squares and powers overflow in any
    number the view holds."""
    if not np.all(np.isfinite(v.u)):
        return None
    view = checkpoint_view(v, f, m)
    return view if all(map(math.isfinite, view.values())) else None


class Diagnostics:
    """The monitor as a fold over a run's checkpoints: add(state) appends
    the DiagnosticsRecord of the next checkpoint, in time order, to
    records.  forcing_at(t) returns the forcing h as one (3, n_rho,
    n_z) array (mms.forcing_callable); it defaults to zero forcing.

    Each checkpoint is evaluated once (checkpoint_view), and only the
    previous view is kept.  Margins for the interval (t_i, t_{i+1}) are
    stored on the later record.  Blow-up data (non-finite, or with
    overflowing integrals) gets a terminal truncated record: add ignores
    every later state.  The running Serrin integral and the Gronwall
    envelope exp(int d) * (int u_phi(t_start)^q + (t - t_start) * sup_s
    int |h_phi(s)|^q), the view's swirl_power and forcing_power, advance
    with each record, int d by the trapezoid rule.
    """

    def __init__(self, m: MonitorConfig, forcing_at=None):
        self.m = m
        self.forcing_at = forcing_at
        self.records = []
        self._prev = None  # the previous checkpoint's view
        # the running Serrin integral, int d, sup_s int |h_phi(s)|^q,
        # t_start and int u_phi(t_start)^q
        self._serrin = self._int_d = self._sup_h = self._t0 = self._n0 = 0.0

    def add(self, v: VelocityState):
        if self.records and self.records[-1].truncated:
            return
        m, prev = self.m, self._prev
        f = zero_forcing(v.grid) if self.forcing_at is None \
            else self.forcing_at(v.time)
        view = _view_or_blowup(v, f, m)
        if view is None:
            self.records.append(DiagnosticsRecord(
                time=v.time, serrin_running=self._serrin, truncated=True))
            return
        margins = {}
        if prev is None:
            self._t0, self._n0 = view.time, view.swirl_power
        else:
            e, dt = m.exponents, view.time - prev.time
            self._serrin = serrin_advance(self._serrin, prev.serrin_spatial,
                                          e.a, e.b, dt)
            self._int_d += 0.5 * (prev.d_t + view.d_t) * dt
            margins = {**swirl_lq_budget(prev, view, m, dt),
                       **quartic_swirl_budget(prev, view, m, dt),
                       **vorticity_margin_sequence(prev, view, m, dt)}
        self._sup_h = max(self._sup_h, view.forcing_power)
        base = self._n0 + (view.time - self._t0) * self._sup_h
        wv = 0.5 * view["vort_enstrophy", 0.0]
        self.records.append(DiagnosticsRecord(
            **{name: view[name] for name in _FIELDS if name in view},
            swirl_q_norm=view.swirl_power ** (1.0 / m.q),
            serrin_running=self._serrin,
            # a zero base (no swirl, no forcing) gives 0 even when
            # exp(int d) overflows to inf, where the product would be nan
            gronwall_envelope=0.0 if base == 0.0 else (
                math.exp(self._int_d) if self._int_d < _EXP_MAX else math.inf
            ) * base,
            forcing_q_norm=view.forcing_power ** (1.0 / m.q),
            weighted_vort_energy=wv,
            dissipation_vort=view["vort_diss", 0.0],
            f_indicator=1.0 / (2.0 * m.nu**2) * view.quartic_swirl_r2 + wv,
            margins=margins,
        ))
        self._prev = view


# --- check aggregation ----------------------------------------------------

# Tolerances of the asserted checks: the relative rounding allowance of
# the exact Holder/Young sub-steps, the constant c of the quartic
# identity's band c (Delta^2 + dt^2) relative to the size of its terms,
# the constant of the O(Delta^2) transport band, and the relative slack
# of Gronwall dominance.
SUB_MARGIN_REL = 1e-12
IDENTITY_BAND = 100.0
TRANSPORT_BAND = 100.0
ENVELOPE_REL = 1e-6

_SUB_CHECKS = ("young_forcing", "holder_p", "young_eps1", "holder_s_half",
               "holder_inner", "young_eps2")


def _vorticity_column(eps: float) -> str:
    return f"vorticity_budget_eps_{eps:g}"


def margin_columns(m: MonitorConfig) -> list[str]:
    """Names of the per-record margins, in diagnostics.csv column order."""
    return (["swirl_budget", *_SUB_CHECKS, "quartic_budget",
             "quartic_identity_residual"]
            + [_vorticity_column(e) for e in m.epsilon_list])


def _asserted_check(name, values, tolerance, at_most=False) -> dict:
    """One asserted check of values in its tolerance's units: PASS when
    every value is at most tolerance (at_most) or else at least
    -tolerance.  The reported margin is the worst value, 0 for none; a
    NaN value is the worst, and fails."""
    values = list(values)
    worst = float((np.max if at_most else np.min)(values)) if values else 0.0
    ok = worst <= tolerance if at_most else worst >= -tolerance
    return {"name": name, "status": "PASS" if ok else "FAIL",
            "margin": worst, "tolerance": tolerance, "asserted": True}


def evaluate_checks(records, m: MonitorConfig, grid: CylGrid) -> list[dict]:
    """Aggregate per-record margins into PASS / FAIL / REPORT-ONLY checks.

    Each asserted check is one _asserted_check of these values: for the
    exact Holder/Young sub-steps, margin / scale per pair (at least
    -SUB_MARGIN_REL); for the quartic identity, |residual| / scale /
    (Delta^2 + dt^2) per pair, dt the pair's (at most IDENTITY_BAND); for
    transport cancellation, |transport| / ((1 + ||grad u||) (1 + N)) per
    record (at most TRANSPORT_BAND * Delta^2); and for Gronwall
    dominance, (envelope - N) / N per record after the first, whose
    envelope is N (at least -ENVELOPE_REL); N = int u_phi^q is the
    record's swirl_power.  Everything involving c_grow, c_sob, or c3 is
    report-only.
    """
    finite = [r for r in records if not r.truncated]
    live = [r for r in finite if r.margins]

    def sub_step(r, name):
        return r.margins[name] / max(r.margins[name + "_scale"], 1e-300)

    checks = [_asserted_check(name, (sub_step(r, name) for r in live),
                              SUB_MARGIN_REL)
              for name in _SUB_CHECKS]

    delta_sq = grid.delta ** 2

    def identity(prev, r):
        res = abs(r.margins["quartic_identity_residual"])
        scale = r.margins["quartic_identity_residual_scale"]
        # res <= scale, so a zero scale is a zero residual
        return (res / scale if scale else 0.0) \
            / (delta_sq + (r.time - prev.time) ** 2)

    # every finite record after the first is live, and follows its pair's
    # first record
    checks.append(_asserted_check("quartic_identity",
                                  map(identity, finite, finite[1:]),
                                  IDENTITY_BAND, at_most=True))

    def transport(r):
        return abs(r.transport_cancellation) / (
            (1.0 + r.grad_u_l2) * (1.0 + r.swirl_power))

    checks.append(_asserted_check("transport_cancellation",
                                  map(transport, finite),
                                  TRANSPORT_BAND * delta_sq, at_most=True))

    for name in ["swirl_budget", "quartic_budget"] + [
        _vorticity_column(e) for e in m.epsilon_list
    ]:
        worst = float(np.min([r.margins[name] for r in live])) \
            if live else math.nan
        checks.append({
            "name": name, "status": "REPORT-ONLY", "margin": worst,
            "tolerance": None, "asserted": False,
        })

    def dominance(r):
        norm = r.swirl_power
        return (r.gronwall_envelope - norm) / norm if norm else 0.0

    gronwall = _asserted_check("gronwall_dominance",
                               map(dominance, finite[1:]), ENVELOPE_REL)
    # asserted only when its premise (all swirl margins nonnegative) holds
    if not (live and all(r.margins["swirl_budget"] >= 0.0 for r in live)):
        gronwall.update(status="REPORT-ONLY", asserted=False)
    checks.append(gronwall)
    return checks
