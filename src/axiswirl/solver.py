"""Time integration: Heun (RK2) for advection, the swirl sources and the
forcing, Crank-Nicolson for the viscous terms, and a pressure projection
after each of the two stages.

The projection removes the divergence through the exact adjoint pair
(D, D*): with D the face-flux divergence and D* its rho-weighted adjoint
(a consistent gradient away from the boundary rows), the correction
u* - D* phi with D D* phi = D u* is the rho-weighted least-norm
divergence remover, i.e. the orthogonal projection onto the discretely
divergence-free space.

The pressure is incremental (Brown, Cortez & Minion 2001, J. Comput.
Phys. 168): both stages carry the gradient D* p of the stored pressure,
and the final projection updates it to p - phi/dt.  Without it the
splitting is first order in time.  The stored pressure, and so a
checkpoint's, is the pressure half a step back, at t - dt/2 for a
velocity at t (the staggering of an incremental projection with
Crank-Nicolson): it is second-order accurate there, but only
first-order accurate against p(t).  The projection of the first stage
keeps a centrifugal source that the stored pressure does not balance (a
zero initial pressure, say) from leaving a first-order splitting error.

D D* and the viscous operator L are periodic and constant-coefficient
in z: each is a radial block plus a shift that depends only on the
z-mode.  So one eigenbasis per grid diagonalises both (the
matrix-diagonalisation method of Lynch, Rice & Thomas 1964, Numer.
Math. 6): the radial block's eigenvectors from `eigh` on its
diagonally symmetrised form, and in z a real orthonormal Fourier basis
Q, which diagonalises d_zz and d_z^T d_z.  A solve is two matrix
products into the basis, one elementwise divide and two products back.
D D*'s radial block is the pentadiagonal radial_div(radial_div_adjoint),
shifted by sin^2(2 pi k / n_z) / d_z^2; I - c L (c = nu dt / 2) has the
tridiagonal radial diffusion, with -1/rho^2 for u_rho and u_phi, and
d_zz's -4 sin^2(pi k / n_z) / d_z^2, so c enters the divide only.  The
bases are cached per grid.  The two singular pairs of D D*, the radial
eigenvector constant in rho with the z-modes k = 0 and k = n_z / 2
(even n_z), carry the null space of D* (constants and the
z-checkerboard); their reciprocals are zero, so the solve is the
rho-weighted pseudo-inverse.

With viscosity implicit, the step is limited for stability only by
advection and by the swirl sources (cfl_limits), not by the diffusive
dt ~ Delta^2 / nu.  The automatic dt of `run` is also held below a
viscous accuracy limit that depends on the domain, not on the grid
(viscous_dt_limit).

`step` is one IMEX step of the dt it is given; `run` holds every rule on
the steps (count, time advance, CFL limits), refuses settings that break
one when it is called, and yields each step's state as it reaches it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError
from .fields import (
    VelocityState,
    div_adjoint,
    div_from_components,
    explicit_rhs,
    radial_diffusion,
    radial_div,
    radial_div_adjoint,
    viscous_rhs,
    zero_forcing,
)
from .grid import CylGrid, moment


class SimConfig:
    """Viscosity and time-stepping settings of one run; the grid is the
    initial state's.  run does not read checkpoint_stride: the command
    line keeps every stride-th step.  __slots__ lists the fields in
    constructor order.

    The constructor holds every rule on the settings by themselves: nu,
    dt (when given) and cfl_safety positive, t_end above t_start, and
    checkpoint_stride an integer >= 1 (kept as an int).  It raises
    ConfigurationError naming the first field, in that order, that
    breaks one; NaN breaks every rule."""

    __slots__ = ("nu", "t_start", "t_end", "dt", "cfl_safety",
                 "checkpoint_stride")

    def __init__(self, nu: float = 0.1, t_start: float = 0.0,
                 t_end: float = 0.1, dt: float | None = None,
                 cfl_safety: float = 0.4, checkpoint_stride: int = 1):
        stride = checkpoint_stride
        for field, value, ok, rule in (
                ("nu", nu, nu > 0.0, "must be positive"),
                ("t_end", t_end, t_end > t_start, "must exceed t_start"),
                ("dt", dt, dt is None or dt > 0.0, "must be positive"),
                ("cfl_safety", cfl_safety, cfl_safety > 0.0,
                 "must be positive"),
                ("checkpoint_stride", stride,
                 stride >= 1 and float(stride).is_integer(),
                 "must be an integer >= 1")):
            if not ok:
                raise ConfigurationError(f"{field} {rule}, got {value!r}",
                                         field)
        self.nu = nu
        self.t_start = t_start
        self.t_end = t_end
        self.dt = dt
        self.cfl_safety = cfl_safety
        self.checkpoint_stride = int(stride)


# --- direct solves in a per-grid eigenbasis -----------------------------

def _read_only(*arrays):
    """The cached bases are shared by every caller: none may write them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _radial_basis(a, d):
    """(w, w_inv, lam) with a = w diag(lam) w_inv, for a radial block a
    that diag(d) a diag(1/d) makes symmetric: w = diag(1/d) v and
    w_inv = v^T diag(d), v the orthonormal eigenvectors of that form."""
    s = d[:, None] * a / d
    # eigh reads one triangle only, so a wrong d would solve a different
    # system without any error
    assert np.max(np.abs(s - s.T)) <= 1e-13 * np.max(np.abs(s)), \
        "radial block is not symmetric under the given scaling"
    lam, v = np.linalg.eigh(s)
    return v / d[:, None], v.T * d, lam


@functools.lru_cache(maxsize=16)
def _z_basis(n):
    """(q, k): a real orthonormal basis of periodic sequences of length n,
    the columns cos(2 pi k j / n) for k = 0..n/2 and sin(2 pi k j / n) for
    k = 1..(n-1)/2, and each column's wavenumber k.  q^T C q is diagonal
    for every symmetric circulant C, so for d_zz and d_z^T d_z."""
    k = np.concatenate([np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)])
    # the phase reduced mod n in integers keeps the angles in [0, 2 pi)
    theta = (2.0 * np.pi / n) * (np.outer(np.arange(n), k) % n)
    m = n // 2 + 1
    q = np.concatenate([np.cos(theta[:, :m]), np.sin(theta[:, m:])], axis=1)
    # the constant and checkerboard columns have norm sqrt(n), the others
    # sqrt(n / 2)
    q *= np.where((k == 0) | (2 * k == n), np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return _read_only(q, k)


@functools.lru_cache(maxsize=16)
def _pressure_basis(grid: CylGrid):
    """(w, w_inv, q, recip) with phi = w ((w_inv b q) * recip) q^T the
    solution of D D* phi = b; recip holds the reciprocal eigenvalue of
    every (radial, z) pair.  The radial block is symmetric under
    diag(sqrt(rho)), and positive semidefinite.

    The singular pairs get a zero reciprocal: the radial eigenvector
    constant in rho (picked by its vector, not by its place in the order)
    with the z-modes k = 0 and k = n_z / 2, picked by wavenumber (the
    shift sin^2(pi) is 1.5e-32, not 0).  b's part along them is rounding
    only, since b lies in range(D)."""
    n_rho, n_z = grid.shape
    a = radial_div(radial_div_adjoint(np.eye(n_rho), grid), grid)
    w, w_inv, lam = _radial_basis(a, np.sqrt(grid.rho_centers))
    q, k = _z_basis(n_z)
    denom = lam[:, None] + np.sin(2.0 * np.pi * k / n_z) ** 2 / grid.d_z**2
    # w_inv @ 1 holds the coordinates of the constant vector
    const = np.argmax(np.abs(w_inv.sum(axis=1)))
    denom[const, (k == 0) | (2 * k == n_z)] = np.inf
    return _read_only(w, w_inv, q, 1.0 / denom)


def solve_pressure_poisson(b, grid: CylGrid):
    """Direct solve of D D* phi = b, phi in the rho-weighted range of D D*
    (the rho-weighted pseudo-inverse applied to b)."""
    w, w_inv, q, recip = _pressure_basis(grid)
    return w @ ((w_inv @ b @ q) * recip) @ q.T


@functools.lru_cache(maxsize=16)
def _viscous_basis(grid: CylGrid):
    """(q, (odd, even)) with L x = w ((w_inv x q) * lam) q^T, where
    (w, w_inv, lam) is odd for u_rho and u_phi and even for u_z.  L is
    viscous_rhs / nu: the 3-point radial diffusion with the no-slip wall
    ghost, d_zz, and -1/rho^2 for the odd components.  The tridiagonal
    radial block is symmetric under d_0 = 1,
    d_{i+1} = d_i sqrt(a_{i,i+1} / a_{i+1,i}); the wall ghost makes its
    last row differ from the sqrt(rho) scaling.  lam <= 0, so
    1 - c lam >= 1 for c > 0."""
    n_rho, n_z = grid.shape
    a = radial_diffusion(np.eye(n_rho), grid)
    d = np.cumprod(np.concatenate(
        [[1.0], np.sqrt(np.diagonal(a, 1) / np.diagonal(a, -1))]))
    q, k = _z_basis(n_z)
    d_zz = -4.0 * np.sin(np.pi * k / n_z) ** 2 / grid.d_z**2
    bases = []
    for block in (a - np.diag(1.0 / grid.rho_centers**2), a):
        w, w_inv, lam = _radial_basis(block, d)
        bases.append(_read_only(w, w_inv, lam[:, None] + d_zz))
    return q, tuple(bases)


def viscous_solve(rhs, grid: CylGrid, c: float):
    """Solve (I - c L) x = rhs for the three velocity components at once;
    rhs and x have shape (3, n_rho, n_z), components u_rho, u_phi, u_z,
    the layout of explicit_rhs and viscous_rhs."""
    q, bases = _viscous_basis(grid)
    # one odd basis applied to both odd components by broadcasting
    return np.concatenate([w @ ((w_inv @ part @ q) / (1.0 - c * lam)) @ q.T
                           for (w, w_inv, lam), part
                           in zip(bases, (rhs[:2], rhs[2:]))])


def project(v: VelocityState, dt=None):
    """Project the state onto the discretely divergence-free space.

    The correction D* phi is the rho-weighted least-norm field removing
    the divergence, so the projection is orthogonal: it never increases
    kinetic energy.  Returns the projected state, or v itself when it is
    exactly divergence-free already.  With dt given, the pressure field
    is incremented by -phi/dt (D* phi plays the role of -grad phi).  The
    corrected velocity is a new u; v is not written.
    """
    g = v.grid
    b = div_from_components(v.u_rho, v.u_z, g)
    if np.sum(g.rho * b * b) == 0.0:  # NaN falls through
        return v
    phi = solve_pressure_poisson(b, g)
    cr, cz = div_adjoint(phi, g)
    p = v.pressure
    if dt is not None:
        p = p - phi / dt
    u = v.u.copy()
    u[0] -= cr
    u[2] -= cz
    return VelocityState(g, u, p, v.time)


# --- time stepping -------------------------------------------------------

def cfl_limits(v: VelocityState):
    """Return (advective_dt_max, swirl_source_dt_max) per the stability
    contract: 0.5 Delta / max(|u_rho|, |u_z|) and 0.5 / max(|u_phi| / rho).
    u_phi does not advect in axisymmetric flow but drives the explicit
    u_phi^2/rho and u_phi u_rho/rho sources.  The viscous terms are
    implicit and set no stability limit."""
    g = v.grid
    umax = max(float(np.max(np.abs(v.u_rho))), float(np.max(np.abs(v.u_z))))
    rate = float(np.max(np.abs(v.u_phi) / g.rho))
    adv = 0.5 * g.delta / umax if umax > 0.0 else np.inf
    src = 0.5 / rate if rate > 0.0 else np.inf
    return adv, src


J11 = 3.8317059702075125  # first positive zero of J1


def viscous_dt_limit(grid: CylGrid, nu: float) -> float:
    """Accuracy limit 0.5 / (nu lam1^2) of the Crank-Nicolson viscous
    terms, lam1^2 = (j_{1,1} / rho_max)^2 + k_z^2 (grid.k_z).

    Crank-Nicolson is stable at any dt but not L-stable: a mode that
    decays at the rate nu lam^2 is multiplied per step by
    (1 - x/2) / (1 + x/2), x = nu dt lam^2, which turns negative for
    x > 2.  Without this limit a slow flow, whose advective and
    swirl-source limits are large, would run in a few steps that reverse
    its fundamental modes instead of decaying them.  lam1 is the
    wavenumber of the first no-slip radial mode of u_phi and u_rho with
    the first z-harmonic (Taylor vortices); the same radial mode without
    it (decaying swirl) decays slower and so gets a smaller x.  At
    x = 0.5 the per-step factor is 1.1% below exp(-x); at x = 0.2, the
    default cfl_safety 0.4, it is 0.07% below.  The limit depends on the
    domain, not on the grid spacing."""
    lam1_sq = (J11 / grid.rho_max) ** 2 + grid.k_z**2
    return 0.5 / (nu * lam1_sq)


def step(state: VelocityState, nu: float, dt: float, forcing_at=None):
    """One IMEX step: Heun for explicit_rhs, Crank-Nicolson for
    viscous_rhs, and a projection after each stage.

    With E the explicit and nu L the viscous tendency, each stage solves
    (I - c L) du = dt (E + D* p^n + nu L u^n), c = nu dt / 2, for the
    increment du over u^n; E is E(u^n) in the first stage and the mean
    of E(u^n) and E(projected first stage) in the second, and p^n is the
    stored pressure, which the final projection updates.  u^n = state.u,
    E, nu L u and du are (3, n_rho, n_z) arrays, viscous_solve's layout,
    as is the forcing h = forcing_at(t), which defaults to zero; each
    stage's u^n + du is the u of its state, uncopied.  Returns the
    stepped state.  dt is not checked against cfl_limits: run does that.
    A non-finite result is returned unprojected; the caller treats it as
    blow-up data.
    """
    g = state.grid
    if forcing_at is None:
        zf = zero_forcing(g)
        forcing_at = lambda t: zf  # noqa: E731
    t = state.time
    c = 0.5 * nu * dt
    # the pressure gradient is D* p, the form the projection removes: a
    # centred gradient leaves forced flows first order in time
    cr, cz = div_adjoint(state.pressure, g)
    common = viscous_rhs(state, nu) + np.stack((cr, np.zeros_like(cr), cz))
    e0 = explicit_rhs(state, forcing_at(t))
    mid = project(VelocityState(
        g, state.u + viscous_solve(dt * (e0 + common), g, c),
        state.pressure, t + dt))
    e1 = explicit_rhs(mid, forcing_at(t + dt))
    u = state.u + viscous_solve(dt * (0.5 * (e0 + e1) + common), g, c)
    star = VelocityState(g, u, state.pressure, t + dt)
    if not np.all(np.isfinite(u)):
        return star  # blow-up: run truncates
    return project(star, dt=dt)


# Most steps a run takes.  A step costs about 1.6 ms even on an 8^2 grid
# (2-vCPU VM), so 10^7 steps run for hours: a longer run comes from a dt
# far below any accuracy or stability need (a huge nu, a tiny cfl_safety
# or dt), not from a computation someone wants.
MAX_STEPS = 10**7

# A step rounds t + dt by at most 2^-53 |t + dt|, so over MAX_STEPS steps
# |t| stays within 4e-9 of M = max(|t_start|, |t_end|), where the float
# spacing is at most 2^-52 M (1 + 4e-9).  run shortens a dt above 2^-50 M
# by less than half, so each step exceeds the spacing and advances the
# time.  t + dt > t at both ends is not enough: a dt of half a spacing
# rounds to even, and rounded times can drift past a power of 2, where
# the spacing doubles.
TIME_RESOLUTION = 2.0**-50


def _unusable(cfg: SimConfig, dt) -> str | None:
    """Why dt cannot take the run from t_start to t_end, or None."""
    steps = (cfg.t_end - cfg.t_start) / dt if dt > 0.0 else math.inf
    if not steps <= MAX_STEPS:
        return (f"dt = {dt:.6g}, {steps:.6g} steps from t_start to t_end, "
                f"more than {MAX_STEPS}")
    least = TIME_RESOLUTION * max(abs(cfg.t_start), abs(cfg.t_end))
    if not dt > least:
        return (f"dt = {dt:.6g}, a step that does not advance the time "
                f"from t_start = {cfg.t_start:.17g}: it needs dt > {least:.6g}")
    return None


def run(cfg: SimConfig, initial: VelocityState, forcing_at=None):
    """Integrate from t_start to t_end: returns a generator of (state,
    dt) for the projected initial state, then for each step's state,
    with the step dt (the initial state's is that of the steps to come).
    Its value when it ends (StopIteration.value) is why the run was
    truncated, or None at t_end.  No state is kept.

    The automatic dt (cfg.dt None) is cfl_safety times the smallest of
    cfl_limits and viscous_dt_limit.  Either dt is then shortened to
    span / n, n the fewest steps of at most dt (to a relative 1e-12), so
    the last step lands on t_end.
    Deterministic for a fixed config.  Blow-up (non-finite fields) ends
    the run after the state that has them, and a dt above the cfl_limits
    of the state about to be stepped (to a relative 1e-12) before that
    step, each with a failure reason.

    No run takes more than MAX_STEPS steps, or a step that does not
    advance the time (TIME_RESOLUTION), so the yielded times strictly
    increase.  Settings alone (the given dt, or cfl_safety times
    viscous_dt_limit) that break either rule raise ConfigurationError
    when run is called, before it returns the generator; the flow's CFL
    limits that break one end the run after the initial state.
    """
    # enforce the divergence invariant on the initial state
    state = project(initial.replace_fields(time=cfg.t_start))
    if cfg.dt is not None:
        dt = least = cfg.dt
    else:
        limit = viscous_dt_limit(state.grid, cfg.nu)
        least = cfg.cfl_safety * limit
        dt = cfg.cfl_safety * min(*cfl_limits(state), limit)
    why = _unusable(cfg, least)
    if why:
        raise ConfigurationError(f"the solver settings give {why}")
    return _steps(cfg, state, dt, forcing_at)


def _steps(cfg: SimConfig, state: VelocityState, dt, forcing_at):
    """run's generator, from the projected initial state and the dt that
    run picked for it."""
    why = _unusable(cfg, dt)
    if why:
        yield state, dt
        return f"the flow's CFL limits give {why}"
    span = cfg.t_end - cfg.t_start
    n_steps = max(1, math.ceil(span / dt * (1.0 - 1e-12)))
    dt = span / n_steps
    yield state, dt
    for _ in range(n_steps):
        limit = min(cfl_limits(state))
        if dt > limit * (1.0 + 1e-12):
            return f"dt = {dt} exceeds stability limit {limit}"
        state = step(state, cfg.nu, dt, forcing_at=forcing_at)
        yield state, dt
        if not (np.all(np.isfinite(state.u))
                and np.all(np.isfinite(state.pressure))):
            return f"blow-up: non-finite fields at t = {state.time}"


def kinetic_energy(v: VelocityState) -> float:
    return 0.5 * moment(np.sum(v.u**2, axis=0), v.grid)
