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
splitting is first order in time.  The projection of the first stage
keeps a centrifugal source that the stored pressure does not balance (a
zero initial pressure, say) from leaving a first-order splitting error.

D D* and the viscous operator L are periodic and constant-coefficient
in z, so an rfft along z splits each into one radial band system per
z-mode (Hockney 1965; Swarztrauber 1977, SIAM Rev. 19), solved directly
by `zbanded`: D D* is pentadiagonal, the radial block plus
sin^2(2 pi k / n_z) / d_z^2 on the diagonal; I - c L (c = nu dt / 2) is
tridiagonal, with d_zz's symbol -4 sin^2(pi k / n_z) / d_z^2 and the
-1/rho^2 of u_rho and u_phi on the diagonal.  The factors are cached
per grid and per (grid, c).  The two singular modes of D D*, k = 0 and
the Nyquist mode of even n_z, carry the null space of D* (constants and
the z-checkerboard).

With viscosity implicit, the step is limited for stability only by
advection and by the swirl sources (cfl_limits), not by the diffusive
dt ~ Delta^2 / nu.  The automatic dt of `run` is also held below a
viscous accuracy limit that depends on the domain, not on the grid
(viscous_dt_limit).
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from . import zbanded
from .errors import CflViolation, ConfigurationError
from .fields import (
    NOSLIP,
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
from .grid import CylGrid, ScalarSample, integrate


class SimConfig:
    """Viscosity and time-stepping settings of one run; the grid is the
    initial state's.  __slots__ lists the fields in constructor order."""

    __slots__ = ("nu", "t_start", "t_end", "dt", "cfl_safety",
                 "checkpoint_stride")

    def __init__(self, nu: float = 0.1, t_start: float = 0.0,
                 t_end: float = 0.1, dt: float | None = None,
                 cfl_safety: float = 0.4, checkpoint_stride: int = 1):
        self.nu = nu
        self.t_start = t_start
        self.t_end = t_end
        self.dt = dt
        self.cfl_safety = cfl_safety
        self.checkpoint_stride = checkpoint_stride
        if not (self.t_end > self.t_start):
            raise ConfigurationError("t_end must exceed t_start")
        if self.dt is not None and not (self.dt > 0.0):
            raise ConfigurationError("dt must be positive")
        if not (self.nu > 0.0):
            raise ConfigurationError("nu must be positive")
        if self.checkpoint_stride < 1:
            raise ConfigurationError("checkpoint_stride must be >= 1")


class Trajectory:
    """Checkpoints of one run.  projection_info holds the (iterations,
    rel_residual) of the initial projection and of every step, so
    step_count + 1 entries; a step that blew up before its projection
    records (0, nan)."""

    __slots__ = ("checkpoints", "failed", "failure_reason", "step_count",
                 "dt", "projection_info")

    def __init__(self, checkpoints: list[VelocityState], failed: bool = False,
                 failure_reason: str | None = None, step_count: int = 0,
                 dt: float = 0.0,
                 projection_info: list[tuple[int, float]] | None = None):
        self.checkpoints = checkpoints
        self.failed = failed
        self.failure_reason = failure_reason
        self.step_count = step_count
        self.dt = dt
        self.projection_info = [] if projection_info is None else projection_info

    def checkpoint_hash(self, i):
        s = self.checkpoints[i]
        h = hashlib.sha256()
        for f in (s.u_rho, s.u_phi, s.u_z, s.pressure):
            h.update(np.ascontiguousarray(f.values).tobytes())
        return h.hexdigest()


# --- pressure Poisson ---------------------------------------------------

def _remove_null(b, grid: CylGrid):
    """Project out the rho-weighted null space of D*: constants and the
    z-checkerboard (only present for even n_z)."""
    w = np.broadcast_to(grid.rho, b.shape)
    b = b - np.sum(w * b) / np.sum(w)
    if grid.n_z % 2 == 0:
        cb = np.ones(grid.n_z)
        cb[1::2] = -1.0
        mode = np.broadcast_to(cb, b.shape)
        b = b - mode * (np.sum(w * b * mode) / np.sum(w))
    return b


@functools.lru_cache(maxsize=16)
def _pressure_factors(grid: CylGrid):
    """Band LU factors of D D* for every rfft z-mode.  Each system is
    similar to a symmetric positive (semi)definite one through
    diag(sqrt(rho)).

    On the null modes the last diagonal entry is doubled.  For a
    consistent right-hand side (b orthogonal to the rho-weighted left
    null vector, whose last entry is nonzero) this pins phi's outer row
    to zero and leaves the other rows' equations unchanged.
    """
    n_rho, n_z = grid.shape
    a = radial_div(radial_div_adjoint(np.eye(n_rho), grid), grid)
    k = np.arange(n_z // 2 + 1)
    diag = np.tile(np.sin(2.0 * np.pi * k / n_z) ** 2 / grid.d_z**2, (n_rho, 1))
    # the singular modes: k = 0 (constants) and, for even n_z, the Nyquist
    # mode k = n_z / 2 (the z-checkerboard)
    null = [0, n_z // 2] if n_z % 2 == 0 else [0]
    diag[-1, null] += a[-1, -1]
    return zbanded.factor(a, diag)


def solve_pressure_poisson(b, grid: CylGrid):
    """Direct solve of D D* phi = b, phi in the rho-weighted range of D D*.

    b is the divergence to remove; its null-space part (rounding only,
    since b lies in range(D)) is stripped first so that every mode's
    system is consistent.  Cost: one rfft/irfft pair and a forward and a
    back substitution over the n_rho rows, each row a vector over the
    z-modes.
    """
    y = np.fft.rfft(_remove_null(b, grid), axis=-1)
    y = zbanded.solve(_pressure_factors(grid), y)
    phi = np.fft.irfft(y, n=grid.n_z, axis=-1)
    return _remove_null(phi, grid)


@functools.lru_cache(maxsize=16)
def _viscous_factors(grid: CylGrid, c: float):
    """Band LU factors of I - c L for u_rho, u_phi and u_z (batch axis 1)
    and every rfft z-mode (batch axis 2).  L is viscous_rhs / nu: the
    3-point radial diffusion with the no-slip wall ghost, d_zz, and
    -1/rho^2 for the odd components u_rho and u_phi.  Every system is
    strictly diagonally dominant for c > 0."""
    n_rho, n_z = grid.shape
    a = -c * radial_diffusion(np.eye(n_rho), grid, NOSLIP)
    k = np.arange(n_z // 2 + 1)
    d_zz = -4.0 * np.sin(np.pi * k / n_z) ** 2 / grid.d_z**2
    odd = np.array([1.0, 1.0, 0.0])[:, None]
    diag = 1.0 + c * (odd / grid.rho[:, :, None] ** 2 - d_zz)
    return zbanded.factor(a, diag)


def viscous_solve(rhs, grid: CylGrid, c: float):
    """Solve (I - c L) x = rhs for the three velocity components at once;
    rhs and x have shape (n_rho, 3, n_z), components u_rho, u_phi, u_z."""
    y = zbanded.solve(_viscous_factors(grid, c), np.fft.rfft(rhs, axis=-1))
    return np.fft.irfft(y, n=grid.n_z, axis=-1)


def project(v: VelocityState, dt=None):
    """Project the state onto the discretely divergence-free space.

    The correction D* phi is the rho-weighted least-norm field removing
    the divergence, so the projection is orthogonal: it never increases
    kinetic energy.  Returns (state, info) with info = (1, rel_residual),
    rel_residual = ||b - D D* phi|| / ||b|| in the rho-weighted norm for
    b = D u, i.e. the relative divergence left; info is (0, 0.0) when the
    state is exactly divergence-free already.  With dt given, the
    pressure field is incremented by -phi/dt (D* phi plays the role of
    -grad phi).
    """
    g = v.grid
    b = div_from_components(v.u_rho.values, v.u_z.values, g)
    bnorm = float(np.sqrt(np.sum(g.rho * b * b)))
    if bnorm == 0.0:
        return v, (0, 0.0)
    phi = solve_pressure_poisson(b, g)
    cr, cz = div_adjoint(phi, g)
    p = v.pressure.values
    if dt is not None:
        p = p - phi / dt
    u_rho = v.u_rho.values - cr
    u_z = v.u_z.values - cz
    left = div_from_components(u_rho, u_z, g)
    rel = float(np.sqrt(np.sum(g.rho * left * left))) / bnorm
    return v.replace_fields(u_rho=u_rho, u_z=u_z, pressure=p), (1, rel)


# --- time stepping -------------------------------------------------------

def cfl_limits(v: VelocityState):
    """Return (advective_dt_max, swirl_source_dt_max) per the stability
    contract: 0.5 Delta / max(|u_rho|, |u_z|) and 0.5 / max(|u_phi| / rho).
    u_phi does not advect in axisymmetric flow but drives the explicit
    u_phi^2/rho and u_phi u_rho/rho sources.  The viscous terms are
    implicit and set no stability limit."""
    g = v.grid
    delta = min(g.d_rho, g.d_z)
    umax = max(float(np.max(np.abs(v.u_rho.values))),
               float(np.max(np.abs(v.u_z.values))))
    rate = float(np.max(np.abs(v.u_phi.values) / g.rho))
    adv = 0.5 * delta / umax if umax > 0.0 else np.inf
    src = 0.5 / rate if rate > 0.0 else np.inf
    return adv, src


J11 = 3.8317059702075125  # first positive zero of J1


def viscous_dt_limit(grid: CylGrid, nu: float) -> float:
    """Accuracy limit 0.5 / (nu lam1^2) of the Crank-Nicolson viscous
    terms, lam1^2 = (j_{1,1} / rho_max)^2 + (2 pi / (z_max - z_min))^2.

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
    k_z = 2.0 * np.pi / (grid.z_max - grid.z_min)
    lam1_sq = (J11 / grid.rho_max) ** 2 + k_z**2
    return 0.5 / (nu * lam1_sq)


def _stack(components):
    """Three (rho, phi, z) ScalarSamples as one (n_rho, 3, n_z) array."""
    return np.stack([f.values for f in components], axis=1)


def _with_velocity(v: VelocityState, u, time):
    return v.replace_fields(u_rho=u[:, 0], u_phi=u[:, 1], u_z=u[:, 2], time=time)


def step(state: VelocityState, cfg: SimConfig, dt: float, forcing_at=None):
    """One IMEX step: Heun for explicit_rhs, Crank-Nicolson for
    viscous_rhs, and a projection after each stage.

    With E the explicit and nu L the viscous tendency, each stage solves
    (I - c L) du = dt (E + D* p^n + nu L u^n), c = nu dt / 2, for the
    increment du over u^n; E is E(u^n) in the first stage and the mean
    of E(u^n) and E(projected first stage) in the second, and p^n is the
    stored pressure, which the final projection updates.  forcing_at(t) ->
    ForcingFields; defaults to zero forcing.  Returns (state, projection
    info).  Raises CflViolation when dt exceeds the stability contract.
    A non-finite result is returned unprojected with info (0, nan); the
    caller treats it as blow-up data.
    """
    g = state.grid
    if forcing_at is None:
        zf = zero_forcing(g)
        forcing_at = lambda t: zf  # noqa: E731
    limit = min(cfl_limits(state))
    if dt > limit * (1.0 + 1e-12):
        raise CflViolation(
            f"dt = {dt} exceeds stability limit {limit}", suggested_dt=0.8 * limit
        )
    t = state.time
    c = 0.5 * cfg.nu * dt
    u0 = _stack((state.u_rho, state.u_phi, state.u_z))
    # the pressure gradient is D* p, the form the projection removes: the
    # centred gradient of momentum_rhs leaves forced flows first order in
    # time
    cr, cz = div_adjoint(state.pressure.values, g)
    common = _stack(viscous_rhs(state, cfg.nu)) + np.stack(
        [cr, np.zeros_like(cr), cz], axis=1)
    e0 = _stack(explicit_rhs(state, forcing_at(t)))
    mid, _ = project(_with_velocity(
        state, u0 + viscous_solve(dt * (e0 + common), g, c), t + dt))
    e1 = _stack(explicit_rhs(mid, forcing_at(t + dt)))
    u = u0 + viscous_solve(dt * (0.5 * (e0 + e1) + common), g, c)
    star = _with_velocity(state, u, t + dt)
    if not np.all(np.isfinite(u)):
        return star, (0, np.nan)  # blow-up: caller truncates
    return project(star, dt=dt)


def _is_finite(state: VelocityState) -> bool:
    return all(
        np.all(np.isfinite(f.values))
        for f in (state.u_rho, state.u_phi, state.u_z, state.pressure)
    )


# Most steps a run takes.  A step costs about 1.6 ms even on an 8^2 grid
# (2-vCPU VM), so 10^7 steps run for hours, and at checkpoint_stride 1
# they keep 10^7 states (20 GB of samples at 8^2): a longer run comes from
# a dt far below any accuracy or stability need (a huge nu, a tiny
# cfl_safety or dt), not from a computation someone wants.
MAX_STEPS = 10**7


def _step_count(span, dt):
    return span / dt if dt > 0.0 else math.inf


def run(cfg: SimConfig, initial: VelocityState, forcing_at=None) -> Trajectory:
    """Integrate from t_start to t_end, checkpointing every stride steps.

    The automatic dt (cfg.dt None) is cfl_safety times the smallest of
    cfl_limits and viscous_dt_limit, shortened to divide the interval.
    Deterministic for a fixed config.  Blow-up (non-finite fields) and
    CFL rejection truncate the trajectory with a failure marker instead
    of raising.

    No run takes more than MAX_STEPS steps.  When the settings alone (the
    given dt, or cfl_safety times viscous_dt_limit) need more, run raises
    ConfigurationError; when the flow's CFL limits need more, the
    trajectory is truncated before the first step, like a blow-up.
    """
    state = initial.replace_fields(time=cfg.t_start)
    # enforce the divergence invariant on the initial checkpoint
    state, info = project(state)
    span = cfg.t_end - cfg.t_start
    if cfg.dt is not None:
        dt = least = cfg.dt
    else:
        limit = viscous_dt_limit(state.grid, cfg.nu)
        least = cfg.cfl_safety * limit
        dt = cfg.cfl_safety * min(*cfl_limits(state), limit)
    if not _step_count(span, least) <= MAX_STEPS:
        raise ConfigurationError(
            f"the solver settings give dt = {least:.6g}, "
            f"{_step_count(span, least):.6g} steps from t_start to t_end, "
            f"more than {MAX_STEPS}")
    steps = _step_count(span, dt)
    if not steps <= MAX_STEPS:
        return Trajectory(
            [state], failed=True, dt=dt, projection_info=[info],
            failure_reason=f"the flow's CFL limits give dt = {dt:.6g}, "
                           f"{steps:.6g} steps, more than {MAX_STEPS}")
    if cfg.dt is None:
        dt = span / max(1, int(np.ceil(steps)))
    n_steps = max(1, int(round(span / dt)))
    traj = Trajectory([state], dt=dt, projection_info=[info])
    for i in range(n_steps):
        try:
            state, info = step(state, cfg, dt, forcing_at=forcing_at)
        except CflViolation as exc:
            traj.failed = True
            traj.failure_reason = str(exc)
            break
        traj.step_count = i + 1
        traj.projection_info.append(info)
        if not _is_finite(state):
            traj.failed = True
            traj.failure_reason = f"blow-up: non-finite fields at t = {state.time}"
            traj.checkpoints.append(state)
            break
        if (i + 1) % cfg.checkpoint_stride == 0 or i == n_steps - 1:
            traj.checkpoints.append(state)
    return traj


def kinetic_energy(v: VelocityState) -> float:
    g = v.grid
    sq = v.u_rho.values**2 + v.u_phi.values**2 + v.u_z.values**2
    return 0.5 * integrate(ScalarSample(sq, g))
