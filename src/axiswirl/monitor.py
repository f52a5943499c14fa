"""Per-checkpoint evaluation of the swirl regularity estimates.

Given consecutive solver checkpoints this module evaluates every
monitored quantity of the estimate chain: the growth coefficient d(t)
built from the negative part of the radial velocity, the weighted
swirl-norm budget with all of its intermediate Holder/Young steps, the
epsilon-weighted azimuthal-vorticity budget and its epsilon -> 0 limit,
the quartic swirl identity and its Young-absorbed inequality, the
Gronwall envelope, and the blow-up indicator time series.  Every
monitored integral is computed once per checkpoint (CheckpointView), as
a radial moment of z-sums; each budget is one function of two views and
the pair's dt, which Diagnostics computes once per pair as it folds the
checkpoints into records (solver.run makes their times increase, so
dt > 0).  evaluate_checks turns the records' margins into the PASS /
FAIL / REPORT-ONLY checks of a run.  The settings' rules are
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
    velocity_grad_l2,
    velocity_gradient,
    zero_forcing,
)
from .grid import CylGrid, power, serrin_advance
from .grid import moment as _integ  # the package's one midpoint rule
from .records import Frozen


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
    parity = _swirl_power_parity(q // 2)
    scale = 2 - math.frexp(grid.rho_max)[1]
    best = 0.0
    for u in probe_fields(grid):
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.ldexp(u, scale) ** (q // 2)
            num = _integ(np.abs(w) ** 6, grid) ** (1.0 / 3.0)
            den = _integ(grad_squared(w, grid, parity, NOSLIP), grid)
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


def serrin_factors(u_neg: np.ndarray, grid: CylGrid, e: ExponentSet):
    """(S, S^theta, spatial) for u_neg = u_rho^-: S = integral
    u_neg^alpha rho^beta dx, the factor of d(t), and spatial = integral
    (u_neg rho^gamma)^a dx, the running integral's.  alpha is a, so one
    z-sum of u_neg^a gives both.  A power that overflows is inf."""
    sums = (u_neg ** e.a).sum(axis=1)
    serrin = _integ(sums, grid, e.beta)
    return serrin, power(serrin, e.theta), _integ(sums, grid, e.a * e.gamma)


def transport_cancellation(v: VelocityState, q: int) -> float:
    """Discrete value of integral u_rho d_rho(u_phi^q) + u_z d_z(u_phi^q),
    which vanishes for divergence-free fields; O(Delta^2) on projected
    states.  q is an even integer >= 2 (monitor_settings)."""
    g = v.grid
    uq = v.u_phi ** q  # even power: even across the axis, 0 at wall
    val = v.u_rho * d_rho(uq, g, EVEN, NOSLIP) + v.u_z * d_z(uq, g)
    return _integ(val, g)


def _swirl_power_parity(q_half: int):
    return ODD if q_half % 2 == 1 else EVEN


# --- per-checkpoint view --------------------------------------------------

class CheckpointView(Frozen):
    """Every integral that the record of one checkpoint and the budgets of
    the pair starting at it read, evaluated once by checkpoint_view from
    the state and the forcing h at the checkpoint's time (u = u_phi).  The
    eps-keyed dicts hold one entry per configured epsilon (0 for an empty
    list).  Built with one keyword argument per field."""

    __slots__ = (
        "time",
        "swirl_power",  # integral u^q
        "forcing_power",  # integral |h|^q
        "serrin",  # S = integral (u_rho^-)^alpha rho^beta
        "serrin_theta",  # S^theta
        "serrin_spatial",  # integral (u_rho^- rho^gamma)^a
        "d_t",
        "swirl_grad_diss",  # integral |grad(u^{q/2})|^2
        "swirl_axis_diss",  # integral u^q / rho^2
        "young_forcing_lhs",  # integral |h| |u|^{q-1}
        "holder_lhs",  # integral u_rho^- u^q / rho
        "holder_y1",  # integral (u_rho^-)^{p/(p-1)} u^q rho^{(2-p)/(p-1)}
        "swirl_mid_power",  # integral |u|^{qs/(s-2)}
        "swirl_3q_power",  # integral |u|^{3q}
        "quartic_r2",  # integral u^4 / rho^2
        "quartic_r4",  # integral u^4 / rho^4
        "quartic_diss",  # integral |grad(u^2 / rho)|^2
        "quartic_transport",  # integral u_rho u^4 / rho^3
        "quartic_grad",  # integral |grad u|^2 u^2 / rho^2
        "quartic_forcing",  # integral h u^3 / rho^2
        "quartic_source",  # integral u_rho^- u^4 / rho^3
        "quartic_young",  # integral rho^4 h^4
        "vort_energy",  # (1/2) integral omega_phi^2 / rho^{2-eps}
        "vort_diss",  # integral |grad(omega_phi / rho^{1-eps})|^2 rho^{-eps}
        "vort_quartic",  # integral u^4 / rho^{4-eps}
        "vort_radial",  # integral |u_rho| omega_phi^2 / rho^{3-eps}
        "vort_curvature",  # integral omega_phi^2 / rho^{4-eps}
        "vort_l2",
        "grad_u_l2",
        "transport",
    )

    def __init__(self, **values):
        if values.keys() != set(self.__slots__):
            raise TypeError("CheckpointView fields differ in "
                            f"{sorted(values.keys() ^ set(self.__slots__))}")
        self._freeze(*(values[name] for name in self.__slots__))


def checkpoint_view(v: VelocityState, f,
                    m: MonitorConfig) -> CheckpointView:
    """Evaluate every monitored integral of one finite state and the
    forcing f = (h_rho, h_phi, h_z) at its time, of which only h_phi
    enters.  Each distinct power of u_phi is summed over z
    once; an integral of that power against rho^k is then one length-n_rho
    dot product.  A power that overflows is inf, never an exception."""
    g = v.grid
    q, e = m.q, m.exponents
    p, s = e.p_hold, e.s
    ur, uh, h = v.u_rho, v.u_phi, f[1]
    u2 = uh**2
    # the one differentiation of v, dropped before the powers of u_phi are
    # formed so that its six arrays stay out of the view's peak memory
    grad = velocity_gradient(v)
    w, grad_u_l2 = curl_axisym(v, grad), velocity_grad_l2(v, grad)
    quartic_grad = _integ((grad[0][1]**2 + grad[1][1]**2) * u2, g, -2.0)
    del grad
    un = negative_part(ur)
    u_abs = np.abs(uh)
    powers = {j: u_abs**j for j in {q, 4, q * s / (s - 2.0), 3 * q}}
    power_sums = {j: x.sum(axis=1) for j, x in powers.items()}
    uq, u4 = powers[q], powers[4]
    wh = w[1]
    w2 = wh**2
    w2_sums, ur_w2_sums = w2.sum(axis=1), (np.abs(ur) * w2).sum(axis=1)
    h_abs = np.abs(h)
    epsilons = m.epsilon_list or (0.0,)
    serrin, serrin_theta, serrin_spatial = serrin_factors(un, g, e)
    return CheckpointView(
        time=v.time,
        swirl_power=_integ(power_sums[q], g),
        forcing_power=_integ(h_abs**q, g),
        serrin=serrin,
        serrin_theta=serrin_theta,
        serrin_spatial=serrin_spatial,
        d_t=m.growth(serrin_theta),
        swirl_grad_diss=_integ(grad_squared(
            uh ** (q // 2), g, _swirl_power_parity(q // 2), NOSLIP), g),
        swirl_axis_diss=_integ(power_sums[q], g, -2.0),
        young_forcing_lhs=_integ(h_abs * u_abs ** (q - 1), g),
        holder_lhs=_integ(un * uq, g, -1.0),
        holder_y1=_integ(un ** (p / (p - 1.0)) * uq, g, (2.0 - p) / (p - 1.0)),
        swirl_mid_power=_integ(power_sums[q * s / (s - 2.0)], g),
        swirl_3q_power=_integ(power_sums[3 * q], g),
        quartic_r2=_integ(power_sums[4], g, -2.0),
        quartic_r4=_integ(power_sums[4], g, -4.0),
        # u_phi^2 / rho is odd^2 / odd: odd across the axis
        quartic_diss=_integ(grad_squared(u2 / g.rho, g, ODD, NOSLIP), g),
        quartic_transport=_integ(ur * u4, g, -3.0),
        quartic_grad=quartic_grad,
        quartic_forcing=_integ(h * uh**3, g, -2.0),
        quartic_source=_integ(u4 * un, g, -3.0),
        quartic_young=_integ(h**4, g, 4.0),
        vort_energy={x: 0.5 * _integ(w2_sums, g, x - 2.0) for x in epsilons},
        # omega_phi / rho^{1-eps} is odd/odd-like: even across the axis
        vort_diss={x: _integ(grad_squared(wh / g.rho ** (1.0 - x), g, EVEN,
                                          EXTRAP), g, -x) for x in epsilons},
        vort_quartic={x: _integ(power_sums[4], g, x - 4.0) for x in epsilons},
        vort_radial={x: _integ(ur_w2_sums, g, x - 3.0) for x in epsilons},
        vort_curvature={x: _integ(w2_sums, g, x - 4.0) for x in epsilons},
        vort_l2=math.sqrt(_integ(w[0]**2 + w[2]**2, g)
                          + _integ(w2_sums, g)),
        grad_u_l2=grad_u_l2,
        transport=transport_cancellation(v, q),
    )


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
    out = {"swirl_budget": (h_q + prev.d_t * n_prev) - (
        (nxt.swirl_power - n_prev) / dt
        + nu * (2.0 * (q - 1.0) / q) * prev.swirl_grad_diss
        + nu * q / 2.0 * prev.swirl_axis_diss
    )}

    def record(name, lhs, rhs):
        out[name] = rhs - lhs
        out[name + "_scale"] = max(abs(lhs), abs(rhs))

    # forcing Young step: int |h| |u|^{q-1} against (1/q)((q-1)/q)^{q-1}
    # ||h||_q^q + ||u||_q^q
    record("young_forcing", prev.young_forcing_lhs,
           (1.0 / q) * ((q - 1.0) / q) ** (q - 1) * h_q + n_prev)

    y1, i2 = prev.holder_y1, prev.swirl_axis_diss
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
    nu = m.nu
    out = {}
    for eps in m.epsilon_list:
        rate = (nxt.vort_energy[eps] - prev.vort_energy[eps]) / dt
        quartic = 1.0 / (2.0 * nu) * prev.vort_quartic[eps]
        radial = eps / 2.0 * prev.vort_radial[eps]
        curvature = nu * eps / 2.0 * (eps - 2.0) * prev.vort_curvature[eps]
        out[_vorticity_column(eps)] = (quartic + radial + curvature + m.c3) - (
            rate + nu / 4.0 * prev.vort_diss[eps])
    return out


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
    rate = 0.25 * (nxt.quartic_r2 - prev.quartic_r2) / dt
    terms = (rate,
             0.75 * (prev.quartic_transport + nxt.quartic_transport),
             1.5 * nu * (prev.quartic_grad + nxt.quartic_grad),
             -0.5 * (prev.quartic_forcing + nxt.quartic_forcing))
    margin = (1.5 * prev.quartic_source
              + 27.0 / (4.0 * nu**3) * prev.quartic_young) - (
        rate + 0.75 * nu * prev.quartic_diss + 0.5 * nu * prev.quartic_r4
    )
    return {"quartic_budget": margin,
            "quartic_identity_residual": sum(terms),
            "quartic_identity_residual_scale": sum(map(abs, terms))}


# --- Gronwall envelope and records ----------------------------------------

class DiagnosticsRecord:
    """One row of monitor output per checkpoint.

    Pair-based quantities (margins, rates) describe the interval ending
    at this checkpoint and are absent (NaN / empty) on the first record
    of a trajectory; a truncated record leaves its values at NaN.
    Built with keyword arguments; a value not given is NaN.  __slots__
    lists the fields in diagnostics.csv column order.
    """

    __slots__ = ("time", "swirl_q_norm", "d_t", "serrin_running",
                 "gronwall_envelope", "forcing_q_norm", "weighted_vort_energy",
                 "quartic_swirl_r2", "quartic_swirl_r4",
                 "dissipation_swirl_grad", "dissipation_swirl_axis",
                 "dissipation_vort", "dissipation_quartic", "grad_u_l2",
                 "vort_l2", "transport_cancellation", "f_indicator",
                 "truncated", "margins")

    def __init__(self, time: float, truncated: bool = False,
                 margins: dict | None = None, **values):
        unknown = values.keys() - set(self.__slots__)
        if unknown:
            raise TypeError(f"DiagnosticsRecord has no fields {sorted(unknown)}")
        self.time = time
        for name in self.__slots__[1:-2]:  # between time and truncated
            setattr(self, name, values.get(name, math.nan))
        self.truncated = truncated
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
    values = [getattr(view, name) for name in view.__slots__]
    values = [x for val in values
              for x in (val.values() if isinstance(val, dict) else (val,))]
    return view if all(math.isfinite(x) for x in values) else None


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
    envelope exp(int d) * (||u_phi(t_start)||_q^q + (t - t_start) *
    sup_s ||h_phi(s)||_q^q) advance with each record, int d by the
    trapezoid rule.
    """

    def __init__(self, m: MonitorConfig, forcing_at=None):
        self.m = m
        self.forcing_at = forcing_at
        self.records = []
        self._prev = None  # the previous checkpoint's view
        # the running Serrin integral, int d, sup_s ||h_phi(s)||_q^q,
        # t_start and ||u_phi(t_start)||_q^q
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
        swirl_q_norm = view.swirl_power ** (1.0 / m.q)
        forcing_q_norm = view.forcing_power ** (1.0 / m.q)
        margins = {}
        if prev is None:
            self._t0, self._n0 = view.time, power(swirl_q_norm, m.q)
        else:
            e, dt = m.exponents, view.time - prev.time
            self._serrin = serrin_advance(self._serrin, prev.serrin_spatial,
                                          e.a, e.b, dt)
            self._int_d += 0.5 * (prev.d_t + view.d_t) * dt
            margins = {**swirl_lq_budget(prev, view, m, dt),
                       **quartic_swirl_budget(prev, view, m, dt),
                       **vorticity_margin_sequence(prev, view, m, dt)}
        self._sup_h = max(self._sup_h, power(forcing_q_norm, m.q))
        base = self._n0 + (view.time - self._t0) * self._sup_h
        wv = view.vort_energy[0.0]
        self.records.append(DiagnosticsRecord(
            time=view.time,
            swirl_q_norm=swirl_q_norm,
            d_t=view.d_t,
            serrin_running=self._serrin,
            # a zero base (no swirl, no forcing) gives 0 even when
            # exp(int d) overflows to inf, where the product would be nan
            gronwall_envelope=0.0 if base == 0.0 else (
                math.exp(self._int_d) if self._int_d < _EXP_MAX else math.inf
            ) * base,
            forcing_q_norm=forcing_q_norm,
            weighted_vort_energy=wv,
            quartic_swirl_r2=view.quartic_r2,
            quartic_swirl_r4=view.quartic_r4,
            dissipation_swirl_grad=view.swirl_grad_diss,
            dissipation_swirl_axis=view.swirl_axis_diss,
            dissipation_vort=view.vort_diss[0.0],
            dissipation_quartic=view.quartic_diss,
            grad_u_l2=view.grad_u_l2,
            vort_l2=view.vort_l2,
            transport_cancellation=view.transport,
            f_indicator=1.0 / (2.0 * m.nu**2) * view.quartic_r2 + wv,
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


def record_columns() -> list[str]:
    """Names of the DiagnosticsRecord fields written to diagnostics.csv,
    in column order; the margin columns follow them."""
    return [name for name in DiagnosticsRecord.__slots__ if name != "margins"]


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
    transport cancellation, |transport| / ((1 + ||grad u||) (1 +
    ||u_phi||_q^q)) per record (at most TRANSPORT_BAND * Delta^2); and
    for Gronwall dominance, (envelope - ||u_phi||_q^q) / ||u_phi||_q^q
    per record after the first, whose envelope is that norm (at least
    -ENVELOPE_REL).  Everything involving c_grow, c_sob, or c3 is
    report-only.
    """
    finite = [r for r in records if not r.truncated]
    live = [r for r in finite if r.margins]

    def sub_step(r, name):
        return r.margins[name] / max(r.margins[name + "_scale"], 1e-300)

    checks = [_asserted_check(name, (sub_step(r, name) for r in live),
                              SUB_MARGIN_REL)
              for name in _SUB_CHECKS]

    delta_sq = min(grid.d_rho, grid.d_z) ** 2

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
            (1.0 + r.grad_u_l2) * (1.0 + power(r.swirl_q_norm, m.q)))

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
        norm = power(r.swirl_q_norm, m.q)
        return (r.gronwall_envelope - norm) / norm if norm else 0.0

    gronwall = _asserted_check("gronwall_dominance",
                               map(dominance, finite[1:]), ENVELOPE_REL)
    # asserted only when its premise (all swirl margins nonnegative) holds
    if not (live and all(r.margins["swirl_budget"] >= 0.0 for r in live)):
        gronwall.update(status="REPORT-ONLY", asserted=False)
    checks.append(gronwall)
    return checks
