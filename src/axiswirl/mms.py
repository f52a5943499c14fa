"""Manufactured solutions and convergence studies.

Each solution is a set of closed-form cylindrical velocity components
plus the forcing that makes them solve the momentum equations exactly.
Radial profiles are polynomials, held as coefficient arrays and evaluated
with np.polyval (derivatives by np.polyder), or Bessel functions with
hand-coded derivative identities; no symbolic-differentiation dependency.

J0 and J1 are Bessel's integrals, J0(x) = (1/pi) int_0^pi cos(x sin t) dt
and J1(x) = (1/pi) int_0^pi sin t sin(x sin t) dt, by the midpoint rule on
32 nodes: the integrands are smooth and periodic, so the rule converges
exponentially and is exact to rounding for |x| <= 12 (Trefethen & Weideman
2014, SIAM Rev. 56).  No scipy at run time.  The decaying swirl's
pressure is in closed form in J0 and J1 (_swirl_pressure_profile).

A solution is made on one grid and solves the equations on its domain
(PARAMS holds each kind's other parameters).  Every term is
coef * exp(-mu t) * F(rho) * G(z): F and G and their derivatives are
sampled on the axes rho (n_rho, 1) and z (1, n_z) when the solution is
made, and only the product (coef * exp(-mu t) * F) * G of a state or a
forcing takes the grid shape.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError
from .fields import (
    ForcingFields,
    VelocityState,
    curl_axisym,
    divergence,
    explicit_rhs,
    viscous_rhs,
    zero_forcing,
)
from .grid import CylGrid, build_grid, moment
from .solver import J11, SimConfig, run


# --- analytic building blocks --------------------------------------------

_BESSEL_SIN = np.sin((np.arange(32) + 0.5) * (math.pi / 32))


def J0(x):
    """Bessel J0 by the 32-node midpoint rule on Bessel's integral."""
    return np.mean(np.cos(np.multiply.outer(x, _BESSEL_SIN)), axis=-1)


def J1(x):
    """Bessel J1 in its sine form, free of cancellation at small x."""
    return np.mean(_BESSEL_SIN * np.sin(np.multiply.outer(x, _BESSEL_SIN)),
                   axis=-1)


class RadialProfile:
    """A radial factor with exact first and second derivatives."""

    __slots__ = ("f", "df", "d2f")

    def __init__(self, f, df, d2f):
        self.f, self.df, self.d2f = f, df, d2f

    @classmethod
    def from_coef(cls, coef):
        """The polynomial sum_j coef[j] rho^j.  The coefficients are lowest
        power first, the order in which np.convolve multiplies two
        polynomials; np.polyval takes them highest first."""
        c = np.asarray(coef, dtype=float)[::-1]
        d1 = np.polyder(c)
        return cls(*(functools.partial(np.polyval, p)
                     for p in (c, d1, np.polyder(d1))))


def _bessel_j1_profile(lam):
    """J1(lam*rho) with derivatives from J1' = J0 - J1/x and the Bessel ODE."""

    def f(rho):
        return J1(lam * rho)

    def df(rho):
        x = lam * rho
        return lam * (J0(x) - J1(x) / x)

    def d2f(rho):
        x = lam * rho
        j1x = J1(x)
        jp = J0(x) - j1x / x
        return lam**2 * ((1.0 - x**2) * j1x - x * jp) / x**2

    return RadialProfile(f, df, d2f)


def _swirl_pressure_profile(lam):
    """F = 1 - J0(lam rho)^2 - J1(lam rho)^2 with F(0) = 0: since
    d/dx (J0^2 + J1^2) = -2 J1^2 / x (Watson 1944, A Treatise on the
    Theory of Bessel Functions, 2nd ed.), F' = 2 J1(lam rho)^2 / rho, so
    the pressure (A^2/2) e^{-2 mu t} F of the swirl u_phi = A e^{-mu t}
    J1(lam rho) has d_rho p = u_phi^2 / rho.  F'' follows from
    J1' = J0 - J1/x."""

    def f(rho):
        x = lam * rho
        return 1.0 - J0(x) ** 2 - J1(x) ** 2

    def df(rho):
        return 2.0 * J1(lam * rho) ** 2 / rho

    def d2f(rho):
        x = lam * rho
        j1x = J1(x)
        return 2.0 * j1x * (2.0 * x * J0(x) - 3.0 * j1x) / rho**2

    return RadialProfile(f, df, d2f)


class Term:
    """coef * exp(-mu t) * F(rho) * G(z), holding F, G and their first two
    derivatives as samples on the grid's axes rho (n_rho, 1) and z (1, n_z)."""

    __slots__ = ("_fs", "_gs", "mu", "coef")

    def __init__(self, fs, gs, mu: float = 0.0, coef: float = 1.0):
        self._fs = fs
        self._gs = gs
        self.mu = mu
        self.coef = coef

    def _parts(self, t, r_order=0, z_order=0):
        return (self.coef * math.exp(-self.mu * t) * self._fs[r_order]
                * self._gs[z_order])


class AnalyticField:
    """Sum of separable terms on one grid, with all partials used by the
    assembly, each at time t."""

    def __init__(self, shape, terms=()):
        self.shape = shape
        self.terms = list(terms)

    def _sum(self, t, r_order=0, z_order=0, rate=False):
        """The sum of the terms' parts; rate gives d_t, -mu times each."""
        if not self.terms:
            return np.zeros(self.shape)
        if rate:
            return sum(-term.mu * term._parts(t) for term in self.terms)
        return sum(term._parts(t, r_order, z_order) for term in self.terms)

    def val(self, t):
        return self._sum(t)

    def d_t(self, t):
        return self._sum(t, rate=True)

    def d_rho(self, t):
        return self._sum(t, r_order=1)

    def d2_rho(self, t):
        return self._sum(t, r_order=2)

    def d_z(self, t):
        return self._sum(t, z_order=1)

    def d2_z(self, t):
        return self._sum(t, z_order=2)


class ManufacturedSolution:
    """One manufactured solution on the grid it was made on."""

    __slots__ = ("kind", "grid", "u_rho", "u_phi", "u_z", "p",
                 "homogeneous_nu", "meta")

    def __init__(self, kind: str, grid: CylGrid, u_rho: AnalyticField,
                 u_phi: AnalyticField, u_z: AnalyticField, p: AnalyticField,
                 homogeneous_nu: float | None = None, meta: dict | None = None):
        self.kind = kind
        self.grid = grid
        self.u_rho = u_rho
        self.u_phi = u_phi
        self.u_z = u_z
        self.p = p
        self.homogeneous_nu = homogeneous_nu  # nu for which the forcing vanishes
        self.meta = {} if meta is None else meta

    def curl(self, t):
        """Analytic vorticity components."""
        w_rho = -self.u_phi.d_z(t)
        w_phi = self.u_rho.d_z(t) - self.u_z.d_rho(t)
        w_z = self.u_phi.d_rho(t) + self.u_phi.val(t) / self.grid.rho
        return w_rho, w_phi, w_z


# Each kind's parameters and their defaults.  The domain is not among
# them: a solution takes it from the grid it is made on.
PARAMS = {
    "rigid_rotation": {"omega": 1.0},
    "decaying_swirl": {"amplitude": 1.0, "nu": 0.1},
    "taylor_vortex_swirl": {"amplitude": 0.3, "swirl": 0.5, "swirl_z": 0.5,
                            "p_amp": 0.2, "decay": 0.5},
}
KINDS = tuple(PARAMS)

# the polynomial rho; coefficient arrays are lowest power first, and
# np.convolve multiplies two of them
_RHO = np.array([0.0, 1.0])


def make_solution(kind, params, grid: CylGrid) -> ManufacturedSolution:
    """The solution of this kind on the grid's domain, PARAMS[kind]
    filling the parameters that params leaves out."""
    if kind not in PARAMS:
        raise ConfigurationError(f"unknown manufactured solution kind {kind!r}")
    for key in params or {}:
        if key not in PARAMS[kind]:
            raise ConfigurationError(f"{kind} takes no parameter {key!r}; "
                                     f"it takes {sorted(PARAMS[kind])}")
    params = {**PARAMS[kind], **(params or {})}
    rho, z = grid.rho, grid.z_centers[None, :]
    flat = (np.ones_like(z), np.zeros_like(z), np.zeros_like(z))  # G = 1
    field = functools.partial(AnalyticField, grid.shape)

    def term(radial: RadialProfile, g=flat, mu=0.0, coef=1.0):
        fs = (radial.f(rho), radial.df(rho), radial.d2f(rho))
        return Term(fs, g, mu, coef)

    if kind == "rigid_rotation":
        omega = params["omega"]
        u_phi = field([term(RadialProfile.from_coef([0.0, omega]))])
        p = field([term(RadialProfile.from_coef([0.0, 0.0, 0.5 * omega**2]))])
        return ManufacturedSolution(kind, grid, field(), u_phi, field(), p,
                                    homogeneous_nu=math.inf)
    if kind == "decaying_swirl":
        amp = params["amplitude"]
        nu = params["nu"]
        lam = J11 / grid.rho_max
        mu = nu * lam**2
        u_phi = field([term(_bessel_j1_profile(lam), mu=mu, coef=amp)])
        p = field([term(_swirl_pressure_profile(lam), mu=2.0 * mu,
                        coef=0.5 * amp * amp)])
        return ManufacturedSolution(
            kind, grid, field(), u_phi, field(), p,
            homogeneous_nu=nu, meta={"lambda": lam},
        )
    amp = params["amplitude"]
    swirl = params["swirl"]
    swirl_z = params["swirl_z"]
    p_amp = params["p_amp"]
    mu = params["decay"]
    k = 2.0 * math.pi / (grid.z_max - grid.z_min)
    cos = (np.cos(k * z), -k * np.sin(k * z), -(k**2) * np.cos(k * z))
    sin = (np.sin(k * z), k * np.cos(k * z), -(k**2) * np.sin(k * z))
    # w(rho) = (1 - (rho/R)^2)^3: triple zero at the wall keeps the
    # mirror-zero ghosts fourth-order accurate there
    base = np.array([1.0, 0.0, -1.0 / grid.rho_max**2])
    w = np.convolve(np.convolve(base, base), base)
    dw = w[1:] * np.arange(1, w.size)
    rho_w = RadialProfile.from_coef(np.convolve(_RHO, w))
    u_rho = field([term(
        RadialProfile.from_coef(np.convolve([-k], np.convolve(_RHO, w))),
        cos, mu=mu, coef=amp)])
    u_z = field([term(
        RadialProfile.from_coef(np.convolve([2.0], w) + np.convolve(_RHO, dw)),
        sin, mu=mu, coef=amp)])
    u_phi = field([
        term(rho_w, mu=mu, coef=swirl),
        term(rho_w, cos, mu=mu, coef=swirl * swirl_z),
    ])
    p = field([term(
        RadialProfile.from_coef(np.convolve(np.convolve(_RHO, _RHO), w)),
        cos, mu=2.0 * mu, coef=p_amp)])
    return ManufacturedSolution(kind, grid, u_rho, u_phi, u_z, p)


# --- sampling and forcing -------------------------------------------------

def sample_state(sol: ManufacturedSolution, t) -> VelocityState:
    return VelocityState(
        sol.grid, sol.u_rho.val(t), sol.u_phi.val(t), sol.u_z.val(t),
        sol.p.val(t), float(t),
    )


def forcing_components(sol: ManufacturedSolution, nu, t):
    """Analytic (h_rho, h_phi, h_z) closing the momentum equations."""
    ur, uh, uz, p = sol.u_rho, sol.u_phi, sol.u_z, sol.p
    rho = sol.grid.rho

    ur_v = ur.val(t)
    uh_v = uh.val(t)
    uz_v = uz.val(t)

    def visc(fieldv, v, odd):
        lap = fieldv.d2_rho(t) + fieldv.d_rho(t) / rho + fieldv.d2_z(t)
        if odd:
            lap = lap - v / rho**2
        return lap

    h_rho = (
        ur.d_t(t)
        + ur_v * ur.d_rho(t) + uz_v * ur.d_z(t)
        - uh_v**2 / rho + p.d_rho(t)
        - nu * visc(ur, ur_v, odd=True)
    )
    h_phi = (
        uh.d_t(t)
        + ur_v * uh.d_rho(t) + uz_v * uh.d_z(t)
        + uh_v * ur_v / rho
        - nu * visc(uh, uh_v, odd=True)
    )
    h_z = (
        uz.d_t(t)
        + ur_v * uz.d_rho(t) + uz_v * uz.d_z(t)
        + p.d_z(t)
        - nu * visc(uz, uz_v, odd=False)
    )
    return h_rho, h_phi, h_z


def forcing_for(sol: ManufacturedSolution, nu, t) -> ForcingFields:
    """Forcing on the solution's grid at time t."""
    if sol.homogeneous_nu is not None and (
        math.isinf(sol.homogeneous_nu) or math.isclose(sol.homogeneous_nu, nu)
    ):
        return zero_forcing(sol.grid)
    return ForcingFields(sol.grid, *forcing_components(sol, nu, t))


def forcing_callable(sol: ManufacturedSolution, nu):
    """forcing_at(t) for the solver and the monitor.

    Remembers its last two times (the returned fields are shared, not
    copied): each Heun step asks again for the t + dt of the step before,
    and a caller may go back and forth between the two ends of a step.
    """
    return functools.lru_cache(maxsize=2)(lambda t: forcing_for(sol, nu, t))


# --- convergence studies --------------------------------------------------

def lopsided_curl(v: VelocityState) -> np.ndarray:
    """Negative-control fixture: w_z from a one-sided radial difference.

    First-order by construction; convergence studies must detect it.
    """
    g = v.grid
    uh = v.u_phi
    ghost = -uh[-1:]
    fwd = (np.concatenate([uh[1:], ghost], axis=0) - uh) / g.d_rho
    return fwd + uh / g.rho


def _interior(arr):
    """Drop the outermost radial ring (wall ghosts are boundary-condition
    dependent and excluded from operator exactness measures)."""
    return arr[:-1, :]


def _max_err(a, b):
    return float(np.max(np.abs(_interior(a) - _interior(b))))


def _l2_err(a, b, grid: CylGrid):
    d = a - b
    d[-1] = 0.0  # the ring _interior drops
    return math.sqrt(moment(d * d, grid))


_VELOCITY = ("u_rho", "u_phi", "u_z")


def convergence_order(kind, grids, quantity="solver", nu=0.1, t_end=0.05,
                      params=None):
    """Refinement study of the solution kind (with params) made on each
    grid; returns {"errors": [...], "orders": [...], ...}.

    quantity selects what is measured, at t = 0 unless stated:
      solver        end-time velocity error of a forced solver run from
                    t = 0 with dt = 0.1 Delta^2 / nu: dt ~ Delta^2 keeps
                    the time error of higher order than the space error
      operator      explicit_rhs + viscous_rhs, the tendencies
                    solver.step evaluates, against the analytic
                    d_t u + grad p (step brings its own gradient, D* p)
      curl          discrete curl against the analytic curl
      divergence    max |div| of the sampled field
      lopsided_curl the first-order negative-control stencil

    The order of a pair of levels is p for errors that scale as Delta^p,
    Delta = min(d_rho, d_z): log2 of the error ratio over log2 of the
    Delta ratio, which is exactly 1 on a doubling.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ConfigurationError(f"nu must be a positive finite number, "
                                 f"got {nu}")
    if len(grids) < 2:
        raise ConfigurationError("need at least two grid levels")
    deltas = [min(g.d_rho, g.d_z) for g in grids]
    if any(not fine < coarse for coarse, fine in zip(deltas, deltas[1:])):
        raise ConfigurationError("every grid level must be finer than the "
                                 "one before it")
    errors = []
    for grid in grids:
        sol = make_solution(kind, params, grid)
        state = sample_state(sol, 0.0)
        if quantity == "solver":
            dt = 0.1 * min(grid.d_rho, grid.d_z) ** 2 / nu
            cfg = SimConfig(nu=nu, t_end=t_end, dt=dt, checkpoint_stride=10**9)
            traj = run(cfg, state, forcing_at=forcing_callable(sol, nu))
            if traj.failed:
                raise ConfigurationError(f"solver failed: {traj.failure_reason}")
            final = traj.checkpoints[-1]
            err = max(_max_err(getattr(final, c),
                               getattr(sol, c).val(final.time))
                      for c in _VELOCITY)
        elif quantity == "operator":
            f = forcing_for(sol, nu, 0.0)
            tend = map(np.add, explicit_rhs(state, f), viscous_rhs(state, nu))
            grad_p = (sol.p.d_rho(0.0), 0.0, sol.p.d_z(0.0))
            # volume-weighted L2: single boundary-adjacent rows carry
            # vanishing measure, matching the norm the time integration sees
            err = max(_l2_err(x, getattr(sol, c).d_t(0.0) + gp, grid)
                      for x, c, gp in zip(tend, _VELOCITY, grad_p))
        elif quantity == "curl":
            w = curl_axisym(state)
            err = max(map(_max_err, (w.w_rho, w.w_phi, w.w_z),
                          sol.curl(0.0)))
        elif quantity == "divergence":
            err = float(np.max(np.abs(_interior(divergence(state)))))
        elif quantity == "lopsided_curl":
            _, _, wz = sol.curl(0.0)
            err = _max_err(lopsided_curl(state), wz)
        else:
            raise ConfigurationError(f"unknown quantity {quantity!r}")
        errors.append(err)
    orders = [
        math.log2(errors[i] / errors[i + 1]) / math.log2(deltas[i] / deltas[i + 1])
        if errors[i + 1] > 0 else math.inf
        for i in range(len(errors) - 1)
    ]
    return {"quantity": quantity, "errors": errors, "orders": orders}


def grid_levels(base, levels):
    """levels default-domain grids of base * 2**i cells per direction."""
    return [build_grid(base * 2**i, base * 2**i) for i in range(levels)]
