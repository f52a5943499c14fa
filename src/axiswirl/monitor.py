"""Per-checkpoint evaluation of the swirl regularity estimates.

Given consecutive solver checkpoints this module evaluates every
monitored quantity of the estimate chain: the growth coefficient d(t)
built from the negative part of the radial velocity, the weighted
swirl-norm budget with all of its intermediate Holder/Young steps, the
epsilon-weighted azimuthal-vorticity budget and its epsilon -> 0 limit,
the quartic swirl identity and its Young-absorbed inequality, the
Gronwall envelope, and the blow-up indicator time series.  Each
checkpoint is evaluated once (CheckpointView); evaluate_checks turns
the margins into the PASS / FAIL / REPORT-ONLY checks of a run.

Two classes of checks are distinguished throughout:

* constant-free discrete inequalities (Holder, Young, Cauchy-Schwarz on
  quadrature sums) hold exactly up to rounding and are asserted with a
  relative tolerance around 1e-12;
* assembled budget margins depend on empirical constants (c_grow,
  c_sob, c3) that the estimate chain does not pin down, so they are
  reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericError
from .exponents import ExponentSet
from .fields import (
    EVEN,
    EXTRAP,
    NOSLIP,
    ODD,
    ForcingFields,
    VelocityState,
    VorticityFields,
    curl_axisym,
    d_rho,
    d_z,
    grad_squared,
    velocity_grad_l2,
    zero_forcing,
)
from .grid import CylGrid, ScalarSample, serrin_accumulate, weighted_lq_norm


# --- configuration --------------------------------------------------------

DEFAULT_EPSILON_LIST = (0.4, 0.2, 0.1, 0.04, 0.0)


def epsilon_sequence(values) -> tuple:
    """values as floats, strictly decreasing in [0, 1) to the limit 0 (or
    empty); ConfigurationError otherwise."""
    eps = tuple(float(e) for e in values)
    if any(not (0.0 <= e < 1.0) for e in eps):
        raise ConfigurationError("every epsilon must lie in [0, 1)")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigurationError("epsilon_list must be strictly decreasing")
    if eps and eps[-1] != 0.0:
        raise ConfigurationError("epsilon_list must end with the limit value 0")
    return eps


@dataclass
class MonitorConfig:
    """Constants and exponents for the estimate monitor.

    c_sob is the empirical embedding constant in
    ||u_phi||_{3q}^q <= c_sob * integral |grad(u_phi^{q/2})|^2 (see
    calibrate_sobolev).  c_grow defaults to the coefficient the
    absorption steps produce for the d(t) growth term; c3 bounds the
    absorbed vorticity-forcing term and defaults to 0 (exact for
    unforced vorticity).
    """

    exponents: ExponentSet
    nu: float
    c_sob: float
    q: int = 4
    epsilon_list: tuple = DEFAULT_EPSILON_LIST
    c_grow: float | None = None
    c3: float = 0.0
    tolerances: dict = field(default_factory=lambda: {
        "sub_margin_rel": 1e-12,
        "envelope_rel": 1e-6,
        "serrin_rel": 1e-10,
    })

    def __post_init__(self):
        if self.q < 2 or self.q % 2 != 0:
            raise ConfigurationError(f"q must be an even integer >= 2, got {self.q}")
        if not (self.nu > 0.0):
            raise ConfigurationError(f"nu must be positive, got {self.nu}")
        if not (self.c_sob > 0.0):
            raise ConfigurationError(f"c_sob must be positive, got {self.c_sob}")
        self.epsilon_list = epsilon_sequence(self.epsilon_list)
        if self.c_grow is None:
            self.c_grow = self.default_c_grow()
        if not (self.c_grow > 0.0):
            raise ConfigurationError(f"c_grow must be positive, got {self.c_grow}")

    @property
    def eps1(self) -> float:
        """First absorption parameter: q*eps1/p eats half of nu*q*I2."""
        return self.nu * self.exponents.p_hold / 2.0

    @property
    def eps2(self) -> float:
        """Second absorption parameter: the Sobolev-embedded term eats
        half of the nu*4(q-1)/q gradient dissipation."""
        e = self.exponents
        p, s, q = e.p_hold, e.s, float(self.q)
        return (2.0 * self.nu * (q - 1.0) / q) * s * p \
            * self.eps1 ** (1.0 / (p - 1.0)) / (3.0 * (p - 1.0) * q * self.c_sob)

    def growth(self, serrin: float) -> float:
        """d(t) = q + c_grow * serrin^theta for the Serrin integrand
        serrin = integral (u_rho^-)^alpha rho^beta dx."""
        return float(self.q) + self.c_grow * serrin ** self.exponents.theta

    def default_c_grow(self) -> float:
        """Coefficient of the Serrin-integrand growth term after both
        absorptions, scaled by q from the q-fold norm estimate."""
        e = self.exponents
        p, s, q = e.p_hold, e.s, float(self.q)
        return q * (p - 1.0) * (s - 3.0) / (s * p) \
            * self.eps1 ** (1.0 / (1.0 - p)) * self.eps2 ** (3.0 / (3.0 - s))


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


def calibrate_sobolev(grid: CylGrid, q: int = 4) -> float:
    """Empirical constant c_sob with ||u||_{3q}^q <= c_sob * integral
    |grad(u^{q/2})|^2, taken as the max Rayleigh quotient over the
    fixed probe family (reported, not proven)."""
    if q < 2 or q % 2 != 0:
        raise ConfigurationError(f"q must be an even integer >= 2, got {q}")
    parity = _swirl_power_parity(q // 2)
    best = 0.0
    for u in probe_fields(grid):
        w = u ** (q // 2)
        num = _integ(np.abs(w) ** 6, grid) ** (1.0 / 3.0)
        den = _integ(grad_squared(w, grid, parity, NOSLIP), grid)
        if den > 0.0:
            best = max(best, num / den)
    return best


def monitor_for(grid: CylGrid, exponents: ExponentSet, nu: float, q: int = 4,
                **kwargs) -> MonitorConfig:
    """MonitorConfig with c_sob calibrated on the given grid."""
    c_sob = kwargs.pop("c_sob", None)
    if c_sob is None:
        c_sob = calibrate_sobolev(grid, q)
    return MonitorConfig(exponents=exponents, nu=nu, c_sob=c_sob, q=q, **kwargs)


# --- basic functionals ----------------------------------------------------

def _integ(vals, grid: CylGrid) -> float:
    return float(np.sum(vals * grid.cell_weight))


def negative_part(u_rho: np.ndarray) -> np.ndarray:
    """u_rho^-(x) = max(-u_rho(x), 0) >= 0."""
    return np.maximum(-u_rho, 0.0)


def serrin_integrand(v: VelocityState, e: ExponentSet) -> float:
    """integral (u_rho^-)^alpha rho^beta dx, the spatial factor of both
    d(t) and the running Serrin accumulator."""
    g = v.grid
    un = negative_part(v.u_rho.values)
    return _integ(un ** e.alpha * g.rho ** e.beta, g)


def d_of_t(v: VelocityState, m: MonitorConfig) -> float:
    """Growth coefficient d(t) = q + c_grow * (integral (u_rho^-)^alpha
    rho^beta dx)^theta; equals q exactly when u_rho >= 0 everywhere."""
    return m.growth(serrin_integrand(v, m.exponents))


def transport_cancellation(v: VelocityState, q: int) -> float:
    """Discrete value of integral u_rho d_rho(u_phi^q) + u_z d_z(u_phi^q),
    which vanishes for divergence-free fields; O(Delta^2) on projected
    states."""
    if q < 2 or q % 2 != 0:
        raise ContractViolation(f"q must be an even integer >= 2, got {q}")
    g = v.grid
    uq = v.u_phi.values ** q  # even power: even across the axis, 0 at wall
    val = v.u_rho.values * d_rho(uq, g, EVEN, NOSLIP) + v.u_z.values * d_z(uq, g)
    return _integ(val, g)


def _swirl_power_parity(q_half: int):
    return ODD if q_half % 2 == 1 else EVEN


# --- per-checkpoint view --------------------------------------------------

@dataclass(frozen=True)
class CheckpointView:
    """Every per-state quantity the records and budgets read, evaluated
    once per checkpoint by checkpoint_view.  vort_energy and vort_diss map
    each configured epsilon (0 for an empty list) to (1/2) integral
    omega_phi^2 / rho^{2-eps} and integral |grad(omega_phi / rho^{1-eps})|^2
    rho^{-eps}."""

    state: VelocityState
    time: float
    u_neg: np.ndarray  # u_rho^-
    curl: VorticityFields
    swirl_q_norm: float  # ||u_phi||_q
    swirl_power: float  # integral u_phi^q
    serrin: float  # integral (u_rho^-)^alpha rho^beta
    d_t: float
    swirl_grad_diss: float  # integral |grad(u_phi^{q/2})|^2
    swirl_axis_diss: float  # integral u_phi^q / rho^2
    quartic_r2: float  # integral u_phi^4 / rho^2
    quartic_r4: float  # integral u_phi^4 / rho^4
    quartic_diss: float  # integral |grad(u_phi^2 / rho)|^2
    vort_energy: dict
    vort_diss: dict
    vort_l2: float
    grad_u_l2: float
    transport: float


def checkpoint_view(v: VelocityState, m: MonitorConfig) -> CheckpointView:
    """Evaluate the derived fields and integrals of one finite state."""
    g = v.grid
    q = m.q
    uh = v.u_phi.values
    w = curl_axisym(v)
    wh = w.w_phi.values
    serrin = serrin_integrand(v, m.exponents)
    vort_energy, vort_diss = {}, {}
    for eps in m.epsilon_list or (0.0,):
        vort_energy[eps] = 0.5 * _integ(wh**2 / g.rho ** (2.0 - eps), g)
        fld = wh / g.rho ** (1.0 - eps)  # odd/odd-like: even across the axis
        vort_diss[eps] = _integ(grad_squared(fld, g, EVEN, EXTRAP)
                                * g.rho ** (-eps), g)
    return CheckpointView(
        state=v,
        time=v.time,
        u_neg=negative_part(v.u_rho.values),
        curl=w,
        swirl_q_norm=weighted_lq_norm(v.u_phi, q),
        swirl_power=_integ(uh**q, g),
        serrin=serrin,
        d_t=m.growth(serrin),
        swirl_grad_diss=_integ(grad_squared(
            uh ** (q // 2), g, _swirl_power_parity(q // 2), NOSLIP), g),
        swirl_axis_diss=_integ(uh**q / g.rho**2, g),
        quartic_r2=_integ(uh**4 / g.rho**2, g),
        quartic_r4=_integ(uh**4 / g.rho**4, g),
        # u_phi^2 / rho is odd^2 / odd: odd across the axis
        quartic_diss=_integ(grad_squared(uh**2 / g.rho, g, ODD, NOSLIP), g),
        vort_energy=vort_energy,
        vort_diss=vort_diss,
        vort_l2=math.sqrt(_integ(w.w_rho.values**2 + wh**2 + w.w_z.values**2,
                                 g)),
        grad_u_l2=velocity_grad_l2(v),
        transport=transport_cancellation(v, q),
    )


def _pair_dt(prev, nxt) -> float:
    if nxt.time <= prev.time:
        raise ContractViolation("checkpoints must be in increasing time order")
    return nxt.time - prev.time


# --- Step-1 budget --------------------------------------------------------

@dataclass(frozen=True)
class SwirlBudget:
    """Signed margin of the weighted swirl-norm inequality plus the
    margins (and scales, for relative tolerance) of every intermediate
    Holder/Young step, each of which is an exact discrete inequality."""

    margin: float
    sub_margins: dict
    sub_scales: dict


def swirl_lq_budget(prev: CheckpointView, nxt: CheckpointView,
                    f: ForcingFields, m: MonitorConfig) -> SwirlBudget:
    """Margin of the q-norm growth inequality across one checkpoint pair.

    Instantaneous terms are evaluated on the earlier state (forward
    difference in time).  The final margin depends on c_grow/c_sob and
    is reported; the six sub-margins are exact and must be >=
    -tolerance * scale.
    """
    dt = _pair_dt(prev, nxt)
    g = prev.state.grid
    q = m.q
    e = m.exponents
    p, s = e.p_hold, e.s
    nu = m.nu

    uh = prev.state.u_phi.values
    h = f.h_phi.values
    n_prev = prev.swirl_power
    h_q = _integ(np.abs(h) ** q, g)

    margin = (h_q + prev.d_t * n_prev) - (
        (nxt.swirl_power - n_prev) / dt
        + nu * (2.0 * (q - 1.0) / q) * prev.swirl_grad_diss
        + nu * q / 2.0 * prev.swirl_axis_diss
    )

    # exact intermediate inequalities, evaluated on the earlier state
    sub_m, sub_s = {}, {}

    def record(name, lhs, rhs):
        sub_m[name] = rhs - lhs
        sub_s[name] = max(abs(lhs), abs(rhs))

    # forcing Young step: int |h| |u|^{q-1} against (1/q)((q-1)/q)^{q-1}
    # ||h||_q^q + ||u||_q^q
    lhs = _integ(np.abs(h) * np.abs(uh) ** (q - 1), g)
    rhs = (1.0 / q) * ((q - 1.0) / q) ** (q - 1) * h_q + n_prev
    record("young_forcing", lhs, rhs)

    un = prev.u_neg
    t1 = _integ(un / g.rho * uh**q, g)
    y1 = _integ(
        un ** (p / (p - 1.0)) * uh**q * g.rho ** ((2.0 - p) / (p - 1.0)), g
    )
    i2 = prev.swirl_axis_diss
    record("holder_p", t1, y1 ** ((p - 1.0) / p) * i2 ** (1.0 / p))

    eps1 = m.eps1
    record(
        "young_eps1",
        y1 ** ((p - 1.0) / p) * i2 ** (1.0 / p),
        p / (p - 1.0) * eps1 ** (1.0 / (1.0 - p)) * y1 + eps1 / p * i2,
    )

    s_int = prev.serrin
    mid = _integ(np.abs(uh) ** (q * s / (s - 2.0)), g) ** ((s - 2.0) / s)
    record("holder_s_half", y1, s_int ** (2.0 / s) * mid)

    n_3q = _integ(np.abs(uh) ** (3 * q), g) ** (1.0 / 3.0)  # ||u||_{3q}^q
    record(
        "holder_inner",
        mid,
        n_prev ** ((s - 3.0) / s) * n_3q ** (3.0 / s),
    )

    eps2 = m.eps2
    record(
        "young_eps2",
        s_int ** (2.0 / s) * n_prev ** ((s - 3.0) / s) * n_3q ** (3.0 / s),
        3.0 / s * eps2 * n_3q
        + (s - 3.0) / s * eps2 ** (3.0 / (3.0 - s))
        * s_int ** (2.0 / (s - 3.0)) * n_prev,
    )

    return SwirlBudget(margin=margin, sub_margins=sub_m, sub_scales=sub_s)


# --- Step-2 budget --------------------------------------------------------

@dataclass(frozen=True)
class VorticityBudget:
    margin: float
    eps: float
    energy_rate: float
    dissipation: float
    quartic_source: float
    radial_source: float
    curvature_term: float
    forcing_pairing: float


def weighted_vorticity_budget(prev: CheckpointView, nxt: CheckpointView,
                              g_force: ForcingFields, m: MonitorConfig,
                              eps: float) -> VorticityBudget:
    """Signed margin of the eps-weighted azimuthal-vorticity inequality;
    eps = 0 evaluates the limit form directly (all weights finite on the
    axis-offset grid).  eps must be one of the views' epsilons.

    The vorticity forcing enters the inequality only through the
    absorbed constant c3; its raw pairing integral |g_phi| |omega| /
    rho^{2-eps} is reported alongside so the adequacy of c3 is visible.
    """
    if not (0.0 <= eps < 1.0):
        raise ContractViolation(f"eps must lie in [0, 1), got {eps}")
    dt = _pair_dt(prev, nxt)
    g = prev.state.grid
    nu = m.nu

    rate = (nxt.vort_energy[eps] - prev.vort_energy[eps]) / dt
    diss = prev.vort_diss[eps]
    wh = prev.curl.w_phi.values
    uh = prev.state.u_phi.values
    ur = prev.state.u_rho.values
    quartic = 1.0 / (2.0 * nu) * _integ(uh**4 / g.rho ** (4.0 - eps), g)
    radial = eps / 2.0 * _integ(
        np.abs(ur) / g.rho * wh**2 / g.rho ** (2.0 - eps), g
    )
    curvature = nu * eps / 2.0 * (eps - 2.0) * _integ(
        wh**2 / g.rho ** (4.0 - eps), g
    )
    if g_force.g_phi is not None:
        pairing = _integ(
            np.abs(g_force.g_phi.values) * np.abs(wh) / g.rho ** (2.0 - eps), g
        )
    else:
        pairing = 0.0
    margin = (quartic + radial + curvature + m.c3) - (rate + nu / 4.0 * diss)
    return VorticityBudget(
        margin=margin, eps=eps, energy_rate=rate, dissipation=diss,
        quartic_source=quartic, radial_source=radial,
        curvature_term=curvature, forcing_pairing=pairing,
    )


def vorticity_margin_sequence(prev, nxt, g_force, m: MonitorConfig):
    """Margins over the configured epsilon list, ending at the limit 0."""
    return [
        weighted_vorticity_budget(prev, nxt, g_force, m, eps)
        for eps in m.epsilon_list
    ]


# --- Step-3 budget --------------------------------------------------------

@dataclass(frozen=True)
class QuarticBudget:
    margin: float
    identity_residual: float
    identity_scale: float


def quartic_swirl_budget(prev: CheckpointView, nxt: CheckpointView,
                         f: ForcingFields, m: MonitorConfig) -> QuarticBudget:
    """Quartic swirl balance across one checkpoint pair.

    identity_residual is the defect of the exact quartic identity
    (an equality up to O(Delta_t + Delta^2) on smooth trajectories):

        (1/4) d/dt int u^4/rho^2 + (3/2) int u_rho u^4/rho^3
        + 3 nu int [(d_rho u)^2 + (d_z u)^2] u^2/rho^2
        = int h u^3/rho^2.

    margin is the signed Young-absorbed inequality with the explicit
    constant 27/(4 nu^3) on the forcing term (reported, not asserted):

        [(3/2) int u^4 u_rho^- /rho^3 + 27/(4 nu^3) int rho^4 h^4]
        - [(1/4) d/dt int u^4/rho^2 + (3/4) nu int |grad(u^2/rho)|^2
           + (nu/2) int u^4/rho^4].
    """
    dt = _pair_dt(prev, nxt)
    g = prev.state.grid
    nu = m.nu
    uh = prev.state.u_phi.values
    ur = prev.state.u_rho.values
    h = f.h_phi.values

    rate = 0.25 * (nxt.quartic_r2 - prev.quartic_r2) / dt
    transport = 1.5 * _integ(ur * uh**4 / g.rho**3, g)
    grad_term = 3.0 * nu * _integ(
        (d_rho(uh, g, ODD, NOSLIP) ** 2 + d_z(uh, g) ** 2) * uh**2 / g.rho**2, g
    )
    forcing = _integ(h * uh**3 / g.rho**2, g)
    residual = rate + transport + grad_term - forcing
    scale = max(abs(rate), abs(transport), abs(grad_term), abs(forcing), 1e-300)

    source = 1.5 * _integ(uh**4 * prev.u_neg / g.rho**3, g)
    young = 27.0 / (4.0 * nu**3) * _integ(g.rho**4 * h**4, g)
    margin = (source + young) - (
        rate + 0.75 * nu * prev.quartic_diss + 0.5 * nu * prev.quartic_r4
    )
    return QuarticBudget(margin=margin, identity_residual=residual,
                         identity_scale=scale)


# --- Gronwall envelope and records ----------------------------------------

@dataclass
class DiagnosticsRecord:
    """One row of monitor output per checkpoint.

    Pair-based quantities (margins, rates) describe the interval ending
    at this checkpoint and are absent (NaN / empty) on the first record
    of a trajectory.
    """

    time: float
    swirl_q_norm: float
    d_t: float
    serrin_running: float
    forcing_q_norm: float
    weighted_vort_energy: float
    quartic_swirl_r2: float
    quartic_swirl_r4: float
    dissipation_swirl_grad: float
    dissipation_swirl_axis: float
    dissipation_vort: float
    dissipation_quartic: float
    grad_u_l2: float
    vort_l2: float
    transport_cancellation: float
    f_indicator: float
    gronwall_envelope: float = math.nan
    margins: dict = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self):
        for name in ("swirl_q_norm", "serrin_running", "weighted_vort_energy",
                     "quartic_swirl_r2", "quartic_swirl_r4", "grad_u_l2",
                     "vort_l2"):
            val = getattr(self, name)
            if not self.truncated and val < 0.0:
                raise ContractViolation(f"{name} must be nonnegative, got {val}")


_EXP_MAX = math.log(np.finfo(float).max)  # math.exp overflows beyond it


def gronwall_envelope(records, m: MonitorConfig):
    """Pointwise envelope exp(int d) * ||u_phi(t_start)||_q^q +
    (t - t_start) * sup_s ||h_phi(s)||_q^q * exp(int d), with the d(t)
    integral accumulated by the trapezoid rule over the records."""
    if not records:
        return []
    t0 = records[0].time
    n0 = records[0].swirl_q_norm ** m.q
    out = []
    int_d = 0.0
    sup_h = 0.0
    prev = None
    for r in records:
        if prev is not None:
            int_d += 0.5 * (prev.d_t + r.d_t) * (r.time - prev.time)
        sup_h = max(sup_h, r.forcing_q_norm ** m.q)
        base = n0 + (r.time - t0) * sup_h
        # a zero base (no swirl, no forcing) gives 0 even when exp(int d)
        # overflows to inf, where the product would be nan
        if base == 0.0:
            out.append(0.0)
        else:
            grow = math.exp(int_d) if int_d < _EXP_MAX else math.inf
            out.append(grow * base)
        prev = r
    return out


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


def _view_or_blowup(v: VelocityState, m: MonitorConfig):
    """checkpoint_view of v, or None when v is blow-up data: non-finite
    fields, or finite fields whose squares and powers overflow in the
    monitored integrals."""
    if not all(np.all(np.isfinite(s.values)) for s in (v.u_rho, v.u_phi, v.u_z)):
        return None
    try:
        view = checkpoint_view(v, m)
    except NumericError:  # grid.integrate met an overflowed integrand
        return None
    values = [getattr(view, f.name) for f in fields(view)]
    numbers = [x for x in values if isinstance(x, float)]
    numbers += [x for d in values if isinstance(d, dict) for x in d.values()]
    return view if all(map(math.isfinite, numbers)) else None


def collect_diagnostics(checkpoints, m: MonitorConfig, forcing_at=None):
    """Assemble the time-ordered DiagnosticsRecord sequence for a list of
    checkpoints.

    forcing_at(t) -> ForcingFields, called once per checkpoint; defaults
    to zero forcing.  Each checkpoint is evaluated once (checkpoint_view);
    its record and the budgets of both pairs it belongs to read that
    view.  Margins for the interval (t_i, t_{i+1}) are stored on the later
    record.  A checkpoint that is blow-up data (non-finite, or with
    overflowing integrals) produces a terminal truncated record.
    """
    if not checkpoints:
        return []
    g = checkpoints[0].grid
    if forcing_at is None:
        zf = zero_forcing(g)
        forcing_at = lambda t: zf  # noqa: E731
    e = m.exponents
    records = []
    serrin = 0.0
    prev = None
    for v in checkpoints:
        view = _view_or_blowup(v, m)
        if view is None:
            records.append(DiagnosticsRecord(
                time=v.time, swirl_q_norm=math.nan, d_t=math.nan,
                serrin_running=serrin, forcing_q_norm=math.nan,
                weighted_vort_energy=math.nan, quartic_swirl_r2=math.nan,
                quartic_swirl_r4=math.nan, dissipation_swirl_grad=math.nan,
                dissipation_swirl_axis=math.nan, dissipation_vort=math.nan,
                dissipation_quartic=math.nan, grad_u_l2=math.nan,
                vort_l2=math.nan, transport_cancellation=math.nan,
                f_indicator=math.nan, truncated=True,
            ))
            break
        f = forcing_at(v.time)
        margins = {}
        if prev is not None:
            neg = ScalarSample(prev.u_neg, g)
            serrin = serrin_accumulate(serrin, neg, e.a, e.b, e.gamma,
                                       view.time - prev.time)
            sb = swirl_lq_budget(prev, view, fp, m)
            qb = quartic_swirl_budget(prev, view, fp, m)
            margins["swirl_budget"] = sb.margin
            for name, val in sb.sub_margins.items():
                margins[name] = val
                margins[name + "_scale"] = sb.sub_scales[name]
            margins["quartic_budget"] = qb.margin
            margins["quartic_identity_residual"] = qb.identity_residual
            for vb in vorticity_margin_sequence(prev, view, fp, m):
                margins[_vorticity_column(vb.eps)] = vb.margin
        wv = view.vort_energy[0.0]
        rec = DiagnosticsRecord(
            time=view.time,
            swirl_q_norm=view.swirl_q_norm,
            d_t=view.d_t,
            serrin_running=serrin,
            forcing_q_norm=weighted_lq_norm(f.h_phi, m.q),
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
        )
        records.append(rec)
        prev, fp = view, f
    env = gronwall_envelope([r for r in records if not r.truncated], m)
    for r, val in zip(records, env):
        r.gronwall_envelope = val
    return records


# --- check aggregation ----------------------------------------------------

_SUB_CHECKS = ("young_forcing", "holder_p", "young_eps1", "holder_s_half",
               "holder_inner", "young_eps2")


def _vorticity_column(eps: float) -> str:
    return f"vorticity_budget_eps_{eps:g}"


def margin_columns(m: MonitorConfig) -> list[str]:
    """Names of the per-record margins, in diagnostics.csv column order."""
    return (["swirl_budget", *_SUB_CHECKS, "quartic_budget",
             "quartic_identity_residual"]
            + [_vorticity_column(e) for e in m.epsilon_list])


def _asserted_check(name, samples, worst_of, start, tolerance) -> dict:
    """PASS when every (value, passed) sample passed; the reported margin
    folds the values with worst_of (min or max), starting from start."""
    worst, ok = start, True
    for value, passed in samples:
        worst = worst_of(worst, value)
        ok = ok and passed
    return {"name": name, "status": "PASS" if ok else "FAIL",
            "margin": worst, "tolerance": tolerance, "asserted": True}


def evaluate_checks(records, m: MonitorConfig, grid: CylGrid,
                    dt: float) -> list[dict]:
    """Aggregate per-record margins into PASS / FAIL / REPORT-ONLY checks.

    Asserted: the exact Holder/Young sub-steps (margin >= -tol * scale),
    the quartic identity residual (O(dt + Delta^2) band), and transport
    cancellation (O(Delta^2) band).  Everything involving c_grow, c_sob,
    or c3 is report-only.  dt is the solver step.
    """
    finite = [r for r in records if not r.truncated]
    live = [r for r in finite if r.margins]
    tol = m.tolerances.get("sub_margin_rel", 1e-12)

    def sub_step(r, name):
        mg, sc = r.margins[name], r.margins[name + "_scale"]
        return mg, not mg < -tol * max(sc, 1e-300)

    checks = [_asserted_check(name, (sub_step(r, name) for r in live),
                              min, 0.0, tol) for name in _SUB_CHECKS]

    delta = min(grid.d_rho, grid.d_z)
    band = m.tolerances.get("identity_band", 100.0) * (dt + delta**2)

    def identity(r):
        res = abs(r.margins["quartic_identity_residual"])
        scale = max(r.quartic_swirl_r2, 1.0)
        return res / scale, not res > band * scale

    checks.append(_asserted_check("quartic_identity", map(identity, live),
                                  max, 0.0, band))

    tband = m.tolerances.get("transport_band", 100.0) * delta**2

    def transport(r):
        val = abs(r.transport_cancellation)
        scale = (1.0 + r.grad_u_l2) * (1.0 + r.swirl_q_norm ** m.q)
        return val / scale, not val > tband * scale

    checks.append(_asserted_check("transport_cancellation",
                                  map(transport, finite), max, 0.0, tband))

    for name in ["swirl_budget", "quartic_budget"] + [
        _vorticity_column(e) for e in m.epsilon_list
    ]:
        worst = min((r.margins[name] for r in live), default=math.nan)
        checks.append({
            "name": name, "status": "REPORT-ONLY", "margin": worst,
            "tolerance": None, "asserted": False,
        })

    # Gronwall dominance: asserted only when its premise (all swirl
    # margins nonnegative) holds on the run
    env_tol = m.tolerances.get("envelope_rel", 1e-6)

    def dominance(r):
        slack = r.gronwall_envelope - r.swirl_q_norm ** m.q * (1.0 - env_tol)
        return slack, not slack < 0.0

    gronwall = _asserted_check(
        "gronwall_dominance",
        (dominance(r) for r in finite if not math.isnan(r.gronwall_envelope)),
        min, math.inf, env_tol,
    )
    if gronwall["margin"] == math.inf:
        gronwall["margin"] = math.nan
    if not (live and all(r.margins["swirl_budget"] >= 0.0 for r in live)):
        gronwall.update(status="REPORT-ONLY", asserted=False)
    checks.append(gronwall)
    return checks
