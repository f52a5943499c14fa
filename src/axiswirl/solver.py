"""Explicit RK2 time integration with pressure projection.

The projection removes the divergence through the exact adjoint pair
(D, D*): with D the face-flux divergence and D* its rho-weighted adjoint
(a consistent gradient away from the boundary rows), the correction
u* - D* phi with D D* phi = D u* is the rho-weighted least-norm
divergence remover, i.e. the orthogonal projection onto the discretely
divergence-free space.

D D* is periodic and constant-coefficient in z, so an rfft along z
splits it into one pentadiagonal radial system per z-mode k: the radial
block of D D* plus sin^2(2 pi k / n_z) / d_z^2 on the diagonal.  Each
system is similar to a symmetric positive (semi)definite one through
diag(sqrt(rho)), so banded LU without pivoting is stable; the factors
of all modes are computed once per grid and the solve is direct
(Hockney 1965; Swarztrauber 1977, SIAM Rev. 19).  The two singular
modes, k = 0 and the Nyquist mode of even n_z, carry the null space of
D* (constants and the z-checkerboard).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolation, ConfigurationError
from .fields import (
    VelocityState,
    div_adjoint,
    div_from_components,
    momentum_rhs,
    radial_div,
    radial_div_adjoint,
    zero_forcing,
)
from .grid import CylGrid, ScalarSample, integrate


@dataclass
class SimConfig:
    """Grid, viscosity and time-stepping settings of one run.

    projection_tol and projection_max_iter are accepted for scenario
    compatibility and ignored: the pressure solve is direct.
    """

    n_rho: int = 32
    n_z: int = 32
    rho_max: float = 2.0
    z_min: float = 0.0
    z_max: float = 1.0
    nu: float = 0.1
    t_start: float = 0.0
    t_end: float = 0.1
    dt: float | None = None
    cfl_safety: float = 0.4
    checkpoint_stride: int = 1
    projection_tol: float = 1e-10
    projection_max_iter: int = 20000

    def __post_init__(self):
        if not (self.t_end > self.t_start):
            raise ConfigurationError("t_end must exceed t_start")
        if self.dt is not None and not (self.dt > 0.0):
            raise ConfigurationError("dt must be positive")
        if not (self.nu > 0.0):
            raise ConfigurationError("nu must be positive")
        if self.checkpoint_stride < 1:
            raise ConfigurationError("checkpoint_stride must be >= 1")


@dataclass
class Trajectory:
    """Checkpoints of one run.  projection_info holds the (iterations,
    rel_residual) of the initial projection and of every step, so
    step_count + 1 entries; a step that blew up before its projection
    records (0, nan)."""

    checkpoints: list[VelocityState]
    config: SimConfig
    failed: bool = False
    failure_reason: str | None = None
    step_count: int = 0
    dt: float = 0.0
    projection_info: list[tuple[int, float]] = field(default_factory=list)

    @property
    def times(self):
        return [s.time for s in self.checkpoints]

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
def _mode_factors(grid: CylGrid):
    """Banded LU factors, without pivoting, of D D* for every rfft z-mode.

    Returns (l1, l2, u1, u2, dinv), arrays of shape (n_rho, n_z//2 + 1):
    the first and second subdiagonals of the unit lower factor, the first
    and second superdiagonals of the upper factor and its inverse
    pivots.  On the null modes the last pivot vanishes; its inverse is
    set to zero, which pins phi's outer row to zero on those modes.
    """
    n_rho, n_z = grid.shape
    a = radial_div(radial_div_adjoint(np.eye(n_rho), grid), grid)
    k = np.arange(n_z // 2 + 1)
    shift = np.sin(2.0 * np.pi * k / n_z) ** 2 / grid.d_z**2
    sub2 = np.diagonal(a, -2)
    sub1 = np.diagonal(a, -1)
    sup1 = np.diagonal(a, 1)
    l1 = np.zeros((n_rho, k.size))
    l2 = np.zeros((n_rho, k.size))
    u1 = np.zeros((n_rho, k.size))
    u2 = np.zeros((n_rho, k.size))
    u2[:-2] = np.diagonal(a, 2)[:, None]
    piv = np.diagonal(a)[:, None] + shift
    # rows i - 1, i - 2 < 0 index the last rows of u1 and u2, which stay zero
    for i in range(n_rho):
        if i >= 2:
            l2[i] = sub2[i - 2] / piv[i - 2]
        if i >= 1:
            l1[i] = (sub1[i - 1] - l2[i] * u1[i - 2]) / piv[i - 1]
            piv[i] = piv[i] - l1[i] * u1[i - 1] - l2[i] * u2[i - 2]
        if i + 1 < n_rho:
            u1[i] = sup1[i] - l1[i] * u2[i - 1]
    # the singular modes: k = 0 (constants) and, for even n_z, the Nyquist
    # mode k = n_z / 2 (the z-checkerboard)
    null = [0, n_z // 2] if n_z % 2 == 0 else [0]
    piv[-1, null] = 1.0
    dinv = 1.0 / piv
    dinv[-1, null] = 0.0
    for f in (l1, l2, u1, u2, dinv):
        f.setflags(write=False)
    return l1, l2, u1, u2, dinv


def solve_pressure_poisson(b, grid: CylGrid):
    """Direct solve of D D* phi = b, phi in the rho-weighted range of D D*.

    b is the divergence to remove; its null-space part (rounding only,
    since b lies in range(D)) is stripped first so that every mode's
    system is consistent.  Cost: one rfft/irfft pair and a forward and a
    back substitution over the n_rho rows, each row a vector over the
    z-modes.
    """
    l1, l2, u1, u2, dinv = _mode_factors(grid)
    y = np.fft.rfft(_remove_null(b, grid), axis=1)
    n = grid.n_rho
    for i in range(1, n):
        y[i] -= l1[i] * y[i - 1]
        if i >= 2:
            y[i] -= l2[i] * y[i - 2]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            y[i] -= u1[i] * y[i + 1]
        if i + 2 < n:
            y[i] -= u2[i] * y[i + 2]
        y[i] *= dinv[i]
    phi = np.fft.irfft(y, n=grid.n_z, axis=1)
    return _remove_null(phi, grid)


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

def cfl_limits(v: VelocityState, nu: float):
    """Return (advective_dt_max, diffusive_dt_max) per the stability contract."""
    g = v.grid
    delta = min(g.d_rho, g.d_z)
    umax = max(
        float(np.max(np.abs(v.u_rho.values))),
        float(np.max(np.abs(v.u_phi.values))),
        float(np.max(np.abs(v.u_z.values))),
    )
    adv = 0.5 * delta / umax if umax > 0.0 else np.inf
    dif = 0.25 * delta**2 / nu
    return adv, dif


def step(state: VelocityState, cfg: SimConfig, dt: float, forcing_at=None):
    """One Heun (RK2) advance of the momentum equations plus projection.

    forcing_at(t) -> ForcingFields; defaults to zero forcing.  Returns
    (state, projection info).  Raises CflViolation when dt exceeds the
    stability contract.  A non-finite result is returned unprojected with
    info (0, nan); the caller treats it as blow-up data.
    """
    g = state.grid
    if forcing_at is None:
        zf = zero_forcing(g)
        forcing_at = lambda t: zf  # noqa: E731
    adv, dif = cfl_limits(state, cfg.nu)
    limit = min(adv, dif)
    if dt > limit * (1.0 + 1e-12):
        raise CflViolation(
            f"dt = {dt} exceeds stability limit {limit}", suggested_dt=0.8 * limit
        )
    t = state.time
    # non-incremental splitting: the pressure enters only through the
    # projection, never through the stored-field gradient
    state = state.replace_fields(pressure=np.zeros(g.shape))
    f0 = forcing_at(t)
    k1 = momentum_rhs(state, f0, cfg.nu)
    mid = state.replace_fields(
        u_rho=state.u_rho.values + dt * k1[0].values,
        u_phi=state.u_phi.values + dt * k1[1].values,
        u_z=state.u_z.values + dt * k1[2].values,
        time=t + dt,
    )
    f1 = forcing_at(t + dt)
    k2 = momentum_rhs(mid, f1, cfg.nu)
    star = state.replace_fields(
        u_rho=state.u_rho.values + 0.5 * dt * (k1[0].values + k2[0].values),
        u_phi=state.u_phi.values + 0.5 * dt * (k1[1].values + k2[1].values),
        u_z=state.u_z.values + 0.5 * dt * (k1[2].values + k2[2].values),
        time=t + dt,
    )
    if not all(
        np.all(np.isfinite(f.values)) for f in (star.u_rho, star.u_phi, star.u_z)
    ):
        return star, (0, np.nan)  # blow-up: caller truncates
    return project(star, dt=dt)


def _is_finite(state: VelocityState) -> bool:
    return all(
        np.all(np.isfinite(f.values))
        for f in (state.u_rho, state.u_phi, state.u_z, state.pressure)
    )


def run(cfg: SimConfig, initial: VelocityState, forcing_at=None) -> Trajectory:
    """Integrate from t_start to t_end, checkpointing every stride steps.

    Deterministic for a fixed config.  Blow-up (non-finite fields) and
    CFL rejection truncate the trajectory with a failure marker instead
    of raising.
    """
    state = initial.replace_fields(time=cfg.t_start)
    # enforce the divergence invariant on the initial checkpoint
    state, info = project(state)
    if cfg.dt is not None:
        dt = cfg.dt
    else:
        adv, dif = cfl_limits(state, cfg.nu)
        dt = cfg.cfl_safety * min(adv, dif)
        n = max(1, int(np.ceil((cfg.t_end - cfg.t_start) / dt)))
        dt = (cfg.t_end - cfg.t_start) / n
    n_steps = max(1, int(round((cfg.t_end - cfg.t_start) / dt)))
    traj = Trajectory([state], cfg, dt=dt, projection_info=[info])
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
