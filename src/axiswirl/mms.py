"""Manufactured solutions and convergence studies.

Each solution is a set of closed-form cylindrical velocity components
plus the forcing that makes them solve the momentum equations exactly.
A radial factor is the triple (F, F', F'') of functions of rho: a
polynomial, evaluated with np.polyval (derivatives by np.polyder), or a
Bessel function with hand-coded derivative identities; no
symbolic-differentiation dependency.

J0 and J1 are Bessel's integrals, J0(x) = (1/pi) int_0^pi cos(x sin t) dt
and J1(x) = (1/pi) int_0^pi sin t sin(x sin t) dt, by the midpoint rule on
32 nodes: the integrands are smooth and periodic, so the rule converges
exponentially and is exact to rounding for |x| <= 12 (Trefethen & Weideman
2014, SIAM Rev. 56).  No scipy at run time.  The decaying swirl's
pressure is in closed form in J0 and J1 (_swirl_pressure_profile).

A solution is made on one grid and solves the equations on its domain
(PARAMS holds each kind's other parameters).  Its velocity decays by one
factor e^{-mu t} and its pressure by e^{-2 mu t}: each field is its factor
times a sum of terms coef * F(rho) * G(z).  A partial of the velocity
(one (3, n_rho, n_z) array) or of the pressure is summed on the grid
each time it is read, and nothing is kept.  So the forcing is two fixed
parts, h(t) = e^{-mu t} L + e^{-2 mu t} N, assembled once by
forcing_callable from the partials at t = 0; a call scales and adds
them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError
from .fields import (
    VelocityState,
    curl_axisym,
    divergence,
    explicit_rhs,
    velocity_gradient,
    viscous_rhs,
    zero_forcing,
)
from .grid import CylGrid, build_grid, moment, power
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


def _polynomial(coef):
    """(F, F', F'') of the polynomial F = sum_j coef[j] rho^j.  The
    coefficients are lowest power first, the order in which np.convolve
    multiplies two polynomials; np.polyval takes them highest first."""
    c = np.asarray(coef, dtype=float)[::-1]
    d1 = np.polyder(c)
    return tuple(functools.partial(np.polyval, p)
                 for p in (c, d1, np.polyder(d1)))


def _bessel_j1_profile(lam):
    """(F, F', F'') of F = J1(lam*rho), with derivatives from
    J1' = J0 - J1/x and the Bessel ODE."""

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

    return f, df, d2f


def _swirl_pressure_profile(lam):
    """(F, F', F'') of F = 1 - J0(lam rho)^2 - J1(lam rho)^2, F(0) = 0: since
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

    return f, df, d2f


# each partial: its orders (in rho, in z)
_PARTIALS = {"val": (0, 0), "d_rho": (1, 0), "d2_rho": (2, 0),
             "d_z": (0, 1), "d2_z": (0, 2)}


class ManufacturedSolution:
    """One manufactured solution on the grid it was made on.  terms holds
    the term lists of u_rho, u_phi, u_z and p; a term (coef, F, G) is
    coef * F(rho) * G(z), F the functions (F, F', F'') of rho and G the
    samples (G, G', G'') on the z axis.  The velocity decays by e^{-mu t}
    and the pressure by e^{-2 mu t}, on which the forcing's two parts
    rest.  A partial, named as in _PARTIALS, is sampled when it is read."""

    __slots__ = ("grid", "mu", "terms", "homogeneous_nu")

    def __init__(self, grid: CylGrid, mu: float, u_rho, u_phi, u_z, p,
                 homogeneous_nu: float | None = None):
        self.grid = grid
        self.mu = mu
        self.terms = (u_rho, u_phi, u_z, p)
        self.homogeneous_nu = homogeneous_nu  # nu for which the forcing vanishes

    def _sum(self, terms, partial):
        """The named partial at t = 0 of each field whose term list is in
        terms, one (len(terms), n_rho, n_z) array."""
        r, zo = _PARTIALS[partial]
        # np.full: each page faults once, a page of np.zeros twice
        out = np.full((len(terms), *self.grid.shape), 0.0)
        # a coefficient that overflows (amplitude 1e300, or omega 1e308 in
        # a radial polynomial) samples as inf, and as nan where a factor
        # is 0, as the run treats blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            for field, field_terms in zip(out, terms):
                for coef, f, g in field_terms:
                    field += (coef * f[r](self.grid.rho)) * g[zo]
        return out

    def velocity(self, t, partial="val"):
        """The named partial of (u_rho, u_phi, u_z) at time t."""
        return math.exp(-self.mu * t) * self._sum(self.terms[:3], partial)

    def pressure(self, t, partial="val"):
        """The named partial of p at time t."""
        p = self._sum(self.terms[3:], partial)[0]
        return math.exp(-2.0 * self.mu * t) * p

    def finite_at(self, t) -> bool:
        """Whether the velocity's factor e^{-mu t} and the pressure's
        e^{-2 mu t} are finite at t; the second overflows first."""
        try:
            return math.isfinite(math.exp(-2.0 * self.mu * t))
        except OverflowError:
            return False

    def curl(self, t):
        """The analytic vorticity in curl_axisym's layout, one
        (3, n_rho, n_z) array (w_rho, w_phi, w_z)."""
        dr, dz = self.velocity(t, "d_rho"), self.velocity(t, "d_z")
        return np.stack((-dz[1], dz[0] - dr[2],
                         dr[1] + self.velocity(t)[1] / self.grid.rho))


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


def solution_params(kind, params=None) -> dict:
    """PARAMS[kind] with params in place of its defaults; a kind that
    PARAMS does not list (a scenario's zero and file) takes none.  Raises
    ConfigurationError naming the first key that the kind does not take."""
    takes = PARAMS.get(kind, {})
    for key in params or {}:
        if key not in takes:
            raise ConfigurationError(f"{kind!r} takes no parameter {key!r}; "
                                     f"it takes {sorted(takes)}", key)
    return {**takes, **(params or {})}


def _constant(value, name, field):
    """value; ConfigurationError naming field if it is not positive finite."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} = {value} leaves the floats "
                                 f"on this domain", field)
    return value


def make_solution(kind, params, grid: CylGrid) -> ManufacturedSolution:
    """The solution of this kind on the grid's domain, PARAMS[kind]
    filling the parameters that params leaves out (solution_params).
    Raises ConfigurationError naming kind or the parameter at fault, or
    the extent whose constant leaves the floats: the swirl's mu = nu
    lambda^2 (naming nu), the Taylor vortex's k^2 (z_max) and its
    coefficients, up to 240 k / rho_max^6 in a second derivative.
    build_grid's rho d_rho^2 rule keeps rho_max^2 and the swirl's
    lambda^2 = (j_{1,1} / rho_max)^2 in range."""
    if kind not in PARAMS:
        raise ConfigurationError(
            f"unknown manufactured solution kind {kind!r}", "kind")
    params = solution_params(kind, params)
    z = grid.z_centers[None, :]
    flat = (np.ones_like(z), np.zeros_like(z), np.zeros_like(z))  # G = 1

    if kind == "rigid_rotation":
        omega = params["omega"]
        u_phi = ((1.0, _polynomial([0.0, omega]), flat),)
        # an omega^2 that overflows gives an infinite pressure: blow-up data
        p = ((1.0, _polynomial([0.0, 0.0, 0.5 * power(omega, 2)]), flat),)
        return ManufacturedSolution(grid, 0.0, (), u_phi, (), p,
                                    homogeneous_nu=math.inf)
    if kind == "decaying_swirl":
        amp = params["amplitude"]
        nu = params["nu"]
        lam = J11 / grid.rho_max
        mu = nu * lam**2
        if not math.isfinite(mu):
            raise ConfigurationError(f"the decay rate mu = nu lambda^2 = {mu} "
                                     f"is not finite", "nu")
        u_phi = ((amp, _bessel_j1_profile(lam), flat),)
        p = ((0.5 * amp * amp, _swirl_pressure_profile(lam), flat),)
        return ManufacturedSolution(grid, mu, (), u_phi, (), p,
                                    homogeneous_nu=nu)
    amp = params["amplitude"]
    swirl = params["swirl"]
    swirl_z = params["swirl_z"]
    p_amp = params["p_amp"]
    mu = params["decay"]
    k = grid.k_z
    k_sq = _constant(power(k, 2), "k^2", "z_max")
    cos = (np.cos(k * z), -k * np.sin(k * z), -k_sq * np.cos(k * z))
    sin = (np.sin(k * z), k * np.cos(k * z), -k_sq * np.sin(k * z))
    # w(rho) = (1 - (rho/R)^2)^3: triple zero at the wall keeps the
    # mirror-zero ghosts fourth-order accurate there
    base = np.array([1.0, 0.0, -1.0 / grid.rho_max**2])
    # numpy may flag an overflow for a finite product near the limit
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.convolve(np.convolve(base, base), base)
        dw = w[1:] * np.arange(1, w.size)
        # the radial factors of u_rho, u_phi, u_z and p
        coefs = (np.convolve([-k], np.convolve(_RHO, w)), np.convolve(_RHO, w),
                 np.convolve([2.0], w) + np.convolve(_RHO, dw),
                 np.convolve(np.convolve(_RHO, _RHO), w))
        f_rho, f_phi, f_z, f_p = map(_polynomial, coefs)
        # F'' (polyval's partial f[2]) has the largest coefficients
        if not all(np.all(np.isfinite(f[2].args[0]))
                   for f in (f_rho, f_phi, f_z, f_p)):
            raise ConfigurationError("the Taylor vortex's coefficients "
                                     "leave the floats", "rho_max")
    u_phi = ((swirl, f_phi, flat), (swirl * swirl_z, f_phi, cos))
    return ManufacturedSolution(grid, mu, ((amp, f_rho, cos),), u_phi,
                                ((amp, f_z, sin),), ((p_amp, f_p, cos),))


# --- sampling and forcing -------------------------------------------------

def sample_state(sol: ManufacturedSolution, t) -> VelocityState:
    return VelocityState(sol.grid, sol.velocity(t), sol.pressure(t), float(t))


def forcing_callable(sol: ManufacturedSolution, nu):
    """forcing_at(t), the analytic forcing h closing the momentum
    equations, for the solver and the monitor: one (3, n_rho, n_z) array
    (h_rho, h_phi, h_z), the layout of fields.explicit_rhs.

    h(t) = e^{-mu t} L + e^{-2 mu t} N, both parts stacked here, once,
    from the partials at t = 0: L = d_t u - nu Lap u (Lap the vector
    Laplacian) is linear in u, and N, the advection and swirl terms and
    grad p, is quadratic in u.  A part that overflows (a swirl of 1e308)
    holds inf or nan, which the run treats as blow-up.
    """
    grid = sol.grid
    if sol.homogeneous_nu is not None and (
        math.isinf(sol.homogeneous_nu) or math.isclose(sol.homogeneous_nu, nu)
    ):
        zero = zero_forcing(grid)
        return lambda t: zero
    rho = grid.rho
    u, dr, dz = (sol.velocity(0.0, k) for k in ("val", "d_rho", "d_z"))
    with np.errstate(over="ignore", invalid="ignore"):
        # each sum in its order, in place: few temporaries live at once
        quad = u[0] * dr
        quad += u[2] * dz
        quad[0] -= u[1]**2 / rho
        quad[0] += sol.pressure(0.0, "d_rho")
        quad[1] += u[1] * u[0] / rho
        quad[2] += sol.pressure(0.0, "d_z")
        lap = sol.velocity(0.0, "d2_rho") + dr / rho
        lap += sol.velocity(0.0, "d2_z")
        lap[:2] -= u[:2] / rho**2  # u_rho and u_phi are odd in rho
        lap *= nu
        lin = -sol.mu * u
        lin -= lap
    mu = sol.mu
    return lambda t: math.exp(-mu * t) * lin + math.exp(-2.0 * mu * t) * quad


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
    """Drop the outermost radial ring, the second-to-last axis of a field
    or of a stacked triple (wall ghosts are boundary-condition dependent
    and excluded from operator exactness measures)."""
    return arr[..., :-1, :]


def _max_err(a, b):
    return float(np.max(np.abs(_interior(a) - _interior(b))))


def _l2_err(a, b, grid: CylGrid):
    d = a - b
    d[-1] = 0.0  # the ring _interior drops
    return math.sqrt(moment(d * d, grid))


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
    Delta = grid.delta: log2 of the error ratio over log2 of the
    Delta ratio, which is exactly 1 on a doubling; inf where the finer
    error is 0, and -inf where only the coarser one is (an exact flow's
    errors are 0 or rounding).
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ConfigurationError(f"nu must be a positive finite number, "
                                 f"got {nu}", "nu")
    if len(grids) < 2:
        raise ConfigurationError("need at least two grid levels", "grids")
    deltas = [g.delta for g in grids]
    if any(not fine < coarse for coarse, fine in zip(deltas, deltas[1:])):
        raise ConfigurationError("the grid levels must strictly increase: "
                                 "each one finer than the one before it",
                                 "grids")
    errors = []
    for grid in grids:
        sol = make_solution(kind, params, grid)
        state = sample_state(sol, 0.0)
        if quantity == "solver":
            dt = 0.1 * grid.delta ** 2 / nu
            # on the default domain even 1024^2 cells (MAX_CELLS) take
            # 52 429 steps at nu = 0.1: a dt or a step count that the
            # solver refuses, or a run that fails at that dt, is nu's fault
            try:
                steps = run(SimConfig(nu=nu, t_end=t_end, dt=dt), state,
                            forcing_at=forcing_callable(sol, nu))
                while True:
                    final, _ = next(steps)
            except StopIteration as end:
                failure = end.value
            except ConfigurationError as exc:
                raise ConfigurationError(str(exc), "nu") from None
            if failure is not None:
                raise ConfigurationError(f"solver failed: {failure}", "nu")
            err = _max_err(final.u, sample_state(sol, final.time).u)
        elif quantity == "operator":
            tend = (explicit_rhs(state, forcing_callable(sol, nu)(0.0))
                    + viscous_rhs(state, nu))
            d_t = -sol.mu * sol.velocity(0.0)
            grad_p = (sol.pressure(0.0, "d_rho"), 0.0,
                      sol.pressure(0.0, "d_z"))
            # volume-weighted L2: single boundary-adjacent rows carry
            # vanishing measure, matching the norm the time integration sees
            err = max(_l2_err(x, dtx + gp, grid)
                      for x, dtx, gp in zip(tend, d_t, grad_p))
        elif quantity == "curl":
            err = _max_err(curl_axisym(state, velocity_gradient(state)),
                           sol.curl(0.0))
        elif quantity == "divergence":
            err = float(np.max(np.abs(_interior(divergence(state)))))
        elif quantity == "lopsided_curl":
            err = _max_err(lopsided_curl(state), sol.curl(0.0)[2])
        else:
            raise ConfigurationError(f"unknown quantity {quantity!r}")
        errors.append(err)
    ratios = [c / f if f > 0 else math.inf for c, f in zip(errors, errors[1:])]
    orders = [-math.inf if r == 0 else math.log2(r) / math.log2(dc / df)
              for r, dc, df in zip(ratios, deltas, deltas[1:])]
    return {"quantity": quantity, "errors": errors, "orders": orders}


def grid_levels(base, levels):
    """levels default-domain grids of base * 2**i cells per direction."""
    return [build_grid(base * 2**i, base * 2**i) for i in range(levels)]
