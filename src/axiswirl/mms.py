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

Every term is coef * exp(-mu t) * F(rho) * G(z).  On a grid, F and its
derivatives are sampled once on the radial axis rho (n_rho, 1) and G and
its derivatives once on z (1, n_z), the first time the solution meets
that grid (ManufacturedSolution.on_grid); every later state or forcing
on it is (coef * exp(-mu t) * F) * G, and only that product takes the
grid shape.
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
    momentum_rhs,
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
    """coef * exp(-mu t) * F(rho) * G(z), G in {1, sin(k z), cos(k z)}."""

    __slots__ = ("radial", "mu", "z_kind", "k", "coef")

    def __init__(self, radial: RadialProfile, mu: float = 0.0,
                 z_kind: str = "const", k: float = 0.0, coef: float = 1.0):
        self.radial = radial
        self.mu = mu
        self.z_kind = z_kind
        self.k = k
        self.coef = coef

    def _f(self, rho, order):
        return (self.radial.f, self.radial.df, self.radial.d2f)[order](rho)

    def _g(self, z, order):
        if self.z_kind == "const":
            one = np.ones_like(z)
            return one if order == 0 else np.zeros_like(z)
        k = self.k
        if self.z_kind == "sin":
            seq = (np.sin(k * z), k * np.cos(k * z), -(k**2) * np.sin(k * z))
        elif self.z_kind == "cos":
            seq = (np.cos(k * z), -k * np.sin(k * z), -(k**2) * np.cos(k * z))
        else:
            raise ConfigurationError(f"unknown z_kind {self.z_kind!r}")
        return seq[order]

    def _parts(self, rho, z, t, r_order=0, z_order=0):
        return (self.coef * math.exp(-self.mu * t) * self._f(rho, r_order)
                * self._g(z, z_order))

    def on(self, rho, z) -> SampledTerm:
        return SampledTerm(self, rho, z)

    def val(self, rho, z, t):
        return self._parts(rho, z, t)

    def d_t(self, rho, z, t):
        return -self.mu * self._parts(rho, z, t)

    def d_rho(self, rho, z, t):
        return self._parts(rho, z, t, r_order=1)

    def d2_rho(self, rho, z, t):
        return self._parts(rho, z, t, r_order=2)

    def d_z(self, rho, z, t):
        return self._parts(rho, z, t, z_order=1)

    def d2_z(self, rho, z, t):
        return self._parts(rho, z, t, z_order=2)


class SampledTerm(Term):
    """A Term with F, G and their first two derivatives sampled once on
    the axes rho, z.  Its methods take the same arguments as a Term's but
    answer for those axes whatever rho and z they are given."""

    __slots__ = ("_fs", "_gs")

    def __init__(self, term: Term, rho, z):
        super().__init__(term.radial, term.mu, term.z_kind, term.k, term.coef)
        self._fs = tuple(term._f(rho, order) for order in range(3))
        self._gs = tuple(term._g(z, order) for order in range(3))

    def _f(self, rho, order):
        return self._fs[order]

    def _g(self, z, order):
        return self._gs[order]


class AnalyticField:
    """Sum of separable terms, with all partials used by the assembly."""

    def __init__(self, terms=()):
        self.terms = list(terms)

    def on(self, rho, z) -> AnalyticField:
        """This field with every term sampled on the axes rho, z."""
        return AnalyticField(term.on(rho, z) for term in self.terms)

    def _sum(self, name, rho, z, t):
        if not self.terms:
            return np.zeros(np.broadcast(rho, z).shape)
        return sum(getattr(term, name)(rho, z, t) for term in self.terms)

    def val(self, rho, z, t):
        return self._sum("val", rho, z, t)

    def d_t(self, rho, z, t):
        return self._sum("d_t", rho, z, t)

    def d_rho(self, rho, z, t):
        return self._sum("d_rho", rho, z, t)

    def d2_rho(self, rho, z, t):
        return self._sum("d2_rho", rho, z, t)

    def d_z(self, rho, z, t):
        return self._sum("d_z", rho, z, t)

    def d2_z(self, rho, z, t):
        return self._sum("d2_z", rho, z, t)


class ManufacturedSolution:
    __slots__ = ("kind", "params", "u_rho", "u_phi", "u_z", "p",
                 "homogeneous_nu", "meta", "_on_grid")

    def __init__(self, kind: str, params: dict, u_rho: AnalyticField,
                 u_phi: AnalyticField, u_z: AnalyticField, p: AnalyticField,
                 homogeneous_nu: float | None = None, meta: dict | None = None):
        self.kind = kind
        self.params = params
        self.u_rho = u_rho
        self.u_phi = u_phi
        self.u_z = u_z
        self.p = p
        self.homogeneous_nu = homogeneous_nu  # nu for which the forcing vanishes
        self.meta = {} if meta is None else meta
        self._on_grid = {}

    def on_grid(self, grid: CylGrid) -> ManufacturedSolution:
        """This solution with every profile sampled on the grid's axes,
        built the first time a grid (by equality) is asked for and then
        kept.  Its fields answer for those axes only."""
        sampled = self._on_grid.get(grid)
        if sampled is None:
            rho, z = _axes(grid)
            sampled = self._on_grid[grid] = ManufacturedSolution(
                self.kind, self.params,
                *(f.on(rho, z) for f in (self.u_rho, self.u_phi, self.u_z,
                                         self.p)),
                homogeneous_nu=self.homogeneous_nu, meta=self.meta,
            )
        return sampled

    def curl(self, rho, z, t):
        """Analytic vorticity components."""
        w_rho = -self.u_phi.d_z(rho, z, t)
        w_phi = self.u_rho.d_z(rho, z, t) - self.u_z.d_rho(rho, z, t)
        w_z = self.u_phi.d_rho(rho, z, t) + self.u_phi.val(rho, z, t) / rho
        return w_rho, w_phi, w_z


KINDS = ("rigid_rotation", "decaying_swirl", "taylor_vortex_swirl")

# the polynomial rho; coefficient arrays are lowest power first, and
# np.convolve multiplies two of them
_RHO = np.array([0.0, 1.0])


def make_solution(kind, params=None) -> ManufacturedSolution:
    params = dict(params or {})
    if kind == "rigid_rotation":
        omega = params.setdefault("omega", 1.0)
        rho_max = params.setdefault("rho_max", 2.0)
        u_phi = AnalyticField([Term(RadialProfile.from_coef([0.0, omega]))])
        p = AnalyticField(
            [Term(RadialProfile.from_coef([0.0, 0.0, 0.5 * omega**2]))])
        return ManufacturedSolution(
            kind, params, AnalyticField(), u_phi, AnalyticField(), p,
            homogeneous_nu=math.inf, meta={"rho_max": rho_max},
        )
    if kind == "decaying_swirl":
        amp = params.setdefault("amplitude", 1.0)
        nu = params.setdefault("nu", 0.1)
        rho_max = params.setdefault("rho_max", 2.0)
        lam = J11 / rho_max
        mu = nu * lam**2
        u_phi = AnalyticField([Term(_bessel_j1_profile(lam), mu=mu, coef=amp)])
        p = AnalyticField([Term(_swirl_pressure_profile(lam), mu=2.0 * mu,
                                coef=0.5 * amp * amp)])
        return ManufacturedSolution(
            kind, params, AnalyticField(), u_phi, AnalyticField(), p,
            homogeneous_nu=nu, meta={"lambda": lam, "rho_max": rho_max},
        )
    if kind == "taylor_vortex_swirl":
        amp = params.setdefault("amplitude", 0.3)
        swirl = params.setdefault("swirl", 0.5)
        swirl_z = params.setdefault("swirl_z", 0.5)
        p_amp = params.setdefault("p_amp", 0.2)
        mu = params.setdefault("decay", 0.5)
        rho_max = params.setdefault("rho_max", 2.0)
        z_min = params.setdefault("z_min", 0.0)
        z_max = params.setdefault("z_max", 1.0)
        k = 2.0 * math.pi / (z_max - z_min)
        # w(rho) = (1 - (rho/R)^2)^3: triple zero at the wall keeps the
        # mirror-zero ghosts fourth-order accurate there
        base = np.array([1.0, 0.0, -1.0 / rho_max**2])
        w = np.convolve(np.convolve(base, base), base)
        dw = w[1:] * np.arange(1, w.size)
        rho_w = RadialProfile.from_coef(np.convolve(_RHO, w))
        u_rho = AnalyticField([Term(
            RadialProfile.from_coef(np.convolve([-k], np.convolve(_RHO, w))),
            mu=mu, z_kind="cos", k=k, coef=amp)])
        u_z = AnalyticField([Term(
            RadialProfile.from_coef(np.convolve([2.0], w)
                                    + np.convolve(_RHO, dw)),
            mu=mu, z_kind="sin", k=k, coef=amp)])
        u_phi = AnalyticField([
            Term(rho_w, mu=mu, coef=swirl),
            Term(rho_w, mu=mu, z_kind="cos", k=k, coef=swirl * swirl_z),
        ])
        p = AnalyticField([Term(
            RadialProfile.from_coef(np.convolve(np.convolve(_RHO, _RHO), w)),
            mu=2.0 * mu, z_kind="cos", k=k, coef=p_amp)])
        return ManufacturedSolution(
            kind, params, u_rho, u_phi, u_z, p, homogeneous_nu=None,
            meta={"k": k, "rho_max": rho_max},
        )
    raise ConfigurationError(f"unknown manufactured solution kind {kind!r}")


# --- sampling and forcing -------------------------------------------------

def _axes(grid: CylGrid):
    """The separable sample points rho (n_rho, 1) and z (1, n_z); every
    term ends in a rho-by-z product, so fields come out in grid shape."""
    return grid.rho, grid.z_centers[None, :]


def sample_state(sol: ManufacturedSolution, grid: CylGrid, t) -> VelocityState:
    on = sol.on_grid(grid)
    rho, z = _axes(grid)
    return VelocityState(
        grid, on.u_rho.val(rho, z, t), on.u_phi.val(rho, z, t),
        on.u_z.val(rho, z, t), on.p.val(rho, z, t), float(t),
    )


def forcing_components(sol: ManufacturedSolution, nu, rho, z, t):
    """Analytic (h_rho, h_phi, h_z) closing the momentum equations."""
    ur, uh, uz, p = sol.u_rho, sol.u_phi, sol.u_z, sol.p

    ur_v = ur.val(rho, z, t)
    uh_v = uh.val(rho, z, t)
    uz_v = uz.val(rho, z, t)

    def visc(fieldv, v, odd):
        lap = (
            fieldv.d2_rho(rho, z, t) + fieldv.d_rho(rho, z, t) / rho
            + fieldv.d2_z(rho, z, t)
        )
        if odd:
            lap = lap - v / rho**2
        return lap

    h_rho = (
        ur.d_t(rho, z, t)
        + ur_v * ur.d_rho(rho, z, t) + uz_v * ur.d_z(rho, z, t)
        - uh_v**2 / rho + p.d_rho(rho, z, t)
        - nu * visc(ur, ur_v, odd=True)
    )
    h_phi = (
        uh.d_t(rho, z, t)
        + ur_v * uh.d_rho(rho, z, t) + uz_v * uh.d_z(rho, z, t)
        + uh_v * ur_v / rho
        - nu * visc(uh, uh_v, odd=True)
    )
    h_z = (
        uz.d_t(rho, z, t)
        + ur_v * uz.d_rho(rho, z, t) + uz_v * uz.d_z(rho, z, t)
        + p.d_z(rho, z, t)
        - nu * visc(uz, uz_v, odd=False)
    )
    return h_rho, h_phi, h_z


def forcing_for(sol: ManufacturedSolution, nu, grid: CylGrid, t) -> ForcingFields:
    """Forcing sampled on the grid at time t."""
    if sol.homogeneous_nu is not None and (
        math.isinf(sol.homogeneous_nu) or math.isclose(sol.homogeneous_nu, nu)
    ):
        return zero_forcing(grid)
    return ForcingFields(
        grid, *forcing_components(sol.on_grid(grid), nu, *_axes(grid), t))


def forcing_callable(sol: ManufacturedSolution, nu, grid: CylGrid):
    """forcing_at(t) for the solver and the monitor.

    Remembers its last two times (the returned fields are shared, not
    copied): each Heun step asks again for the t + dt of the step before,
    and a caller may go back and forth between the two ends of a step.
    """
    return functools.lru_cache(maxsize=2)(
        lambda t: forcing_for(sol, nu, grid, t)
    )


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


def convergence_order(sol: ManufacturedSolution, grids, quantity="solver",
                      nu=0.1, t_end=0.05):
    """Refinement study; returns {"errors": [...], "orders": [...], ...}.

    quantity selects what is measured, at t = 0 unless stated:
      solver        end-time velocity error of a forced solver run from
                    t = 0 with dt = 0.1 Delta^2 / nu: dt ~ Delta^2 keeps
                    the time error of higher order than the space error
      operator      momentum_rhs tendency against the analytic d_t u
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
        rho, z = _axes(grid)
        state = sample_state(sol, grid, 0.0)
        if quantity == "solver":
            dt = 0.1 * min(grid.d_rho, grid.d_z) ** 2 / nu
            cfg = SimConfig(nu=nu, t_end=t_end, dt=dt, checkpoint_stride=10**9)
            traj = run(cfg, state, forcing_at=forcing_callable(sol, nu, grid))
            if traj.failed:
                raise ConfigurationError(f"solver failed: {traj.failure_reason}")
            final = traj.checkpoints[-1]
            err = max(_max_err(getattr(final, c),
                               getattr(sol, c).val(rho, z, final.time))
                      for c in _VELOCITY)
        elif quantity == "operator":
            tend = momentum_rhs(state, forcing_for(sol, nu, grid, 0.0), nu)
            # volume-weighted L2: single boundary-adjacent rows carry
            # vanishing measure, matching the norm the time integration sees
            err = max(_l2_err(x, getattr(sol, c).d_t(rho, z, 0.0), grid)
                      for x, c in zip(tend, _VELOCITY))
        elif quantity == "curl":
            w = curl_axisym(state)
            err = max(map(_max_err, (w.w_rho, w.w_phi, w.w_z),
                          sol.curl(rho, z, 0.0)))
        elif quantity == "divergence":
            err = float(np.max(np.abs(_interior(divergence(state)))))
        elif quantity == "lopsided_curl":
            _, _, wz = sol.curl(rho, z, 0.0)
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
