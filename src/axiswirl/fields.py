"""Velocity/vorticity fields and the cylindrical differential operators.

Fields are plain float64 arrays, cell-centered on a CylGrid, shape
(n_rho, n_z), axis 0 radial; a triple (velocity, forcing, vorticity) is
one (3, n_rho, n_z) array, and the state that groups the velocity and
the pressure holds the grid.
Radial ghosts encode the axis regularity parities (u_rho, u_phi, w_rho,
w_phi odd across rho = 0; u_z, p, w_z even) and the no-slip wall at
rho = rho_max.  Each ghost rule is the function that makes its ghost row.
z is periodic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grid import CylGrid
from .records import Frozen

# The axis parities: each makes the ghost row below the axis from the
# first row.  PARITIES are those of a velocity or vorticity triple's rows
# (rho, phi, z).
ODD = np.negative
EVEN = np.positive
PARITIES = (ODD, ODD, EVEN)


# The wall rules: each makes the ghost row half a cell past the wall face
# from the last two rows.

def NOSLIP(f):
    """The quadratic through the last two cells and the zero wall value:
    third order in the ghost value, so wall-adjacent derivative rows stay
    second order."""
    return f[-2:-1] / 3.0 - 2.0 * f[-1:]


def EXTRAP(f):
    """Linear extrapolation, for the diagnostic gradients of fields that
    do not vanish at the wall."""
    return 2.0 * f[-1:] - f[-2:-1]


def _sample(values, grid: CylGrid, *lead):
    """values as a C-ordered float64 array of shape (*lead, *grid.shape),
    copied only when values is not one already; ConfigurationError for
    any other shape."""
    v = np.asarray(values, dtype=float, order="C")
    if v.shape != (*lead, *grid.shape):
        raise ConfigurationError(
            f"sample shape {v.shape} does not match grid {grid.shape}"
        )
    return v


class VelocityState(Frozen):
    """The velocity and the pressure at one time.  The velocity u is one
    (3, n_rho, n_z) array (u_rho, u_phi, u_z), the layout of explicit_rhs,
    viscous_rhs and the forcing; u_rho, u_phi and u_z are its rows."""

    __slots__ = ("grid", "u", "pressure", "time")

    def __init__(self, grid: CylGrid, u, pressure, time: float):
        self._freeze(grid, _sample(u, grid, 3), _sample(pressure, grid), time)

    u_rho = property(lambda self: self.u[0])
    u_phi = property(lambda self: self.u[1])
    u_z = property(lambda self: self.u[2])

    def replace_fields(self, u_rho=None, u_phi=None, u_z=None, pressure=None, time=None):
        """A copy with the given fields replaced; a replaced component
        is checked, then stacked into a new u."""
        parts = (u_rho, u_phi, u_z)
        u = self.u if all(x is None for x in parts) else np.stack(
            [old if new is None else _sample(new, self.grid)
             for old, new in zip(self.u, parts)])
        return VelocityState(
            self.grid, u,
            self.pressure if pressure is None else pressure,
            self.time if time is None else float(time),
        )


def zero_state(grid: CylGrid, time=0.0) -> VelocityState:
    return VelocityState(grid, np.zeros((3, *grid.shape)), grid.zeros(), time)


def zero_forcing(grid: CylGrid) -> np.ndarray:
    """The momentum forcing h = 0, in explicit_rhs's layout."""
    return np.zeros((3, *grid.shape))


# --- stencils -----------------------------------------------------------

def d_rho(f, grid: CylGrid, parity, wall=NOSLIP):
    fp = np.concatenate([parity(f[0:1]), f, wall(f)])
    return (fp[2:] - fp[:-2]) / (2.0 * grid.d_rho)


# The periodic z differences slice f, with the wrap columns apart, and
# keep the operation order of the np.roll forms, (f[j + 1] - f[j - 1]) / h
# and (f[j + 1] - 2 f[j] + f[j - 1]) / h^2, so their values are the same
# bits without the two rolled copies.  n_z >= 2.

def _z_diff(f):
    """f[:, j + 1] - f[:, j - 1]."""
    out = np.empty(f.shape)
    np.subtract(f[:, 2:], f[:, :-2], out=out[:, 1:-1])
    np.subtract(f[:, 1], f[:, -1], out=out[:, 0])
    np.subtract(f[:, 0], f[:, -2], out=out[:, -1])
    return out


def d_z(f, grid: CylGrid):
    out = _z_diff(f)
    out /= 2.0 * grid.d_z
    return out


def d_zz(f, grid: CylGrid):
    out = -2.0 * f
    out[:, :-1] += f[:, 1:]
    out[:, -1] += f[:, 0]
    out[:, 1:] += f[:, :-1]
    out[:, 0] += f[:, -1]
    out /= grid.d_z**2
    return out


def radial_diffusion(f, grid: CylGrid):
    """(1/rho) d/drho (rho df/drho) in conservative flux form.

    The axis face sits at rho = 0 and carries zero flux, so no axis ghost
    is needed; the wall face flux uses the no-slip wall ghost.
    """
    diffs = np.diff(np.concatenate([f, NOSLIP(f)]), axis=0)
    flux = np.concatenate([np.zeros_like(f[0:1]),
                           grid.rho_faces[1:, None] * diffs])
    return np.diff(flux, axis=0) / (grid.rho * grid.d_rho**2)


def laplacian(f, grid: CylGrid, parity):
    """The cylindrical viscous operator: radial diffusion + d_zz, minus
    f/rho^2 for the odd-parity components (u_rho, u_phi)."""
    lap = radial_diffusion(f, grid) + d_zz(f, grid)
    return lap - f / grid.rho**2 if parity is ODD else lap


# --- spec operators -----------------------------------------------------

def divergence(v: VelocityState) -> np.ndarray:
    """Discrete continuity residual, the finite-volume face-flux form of
    (1/rho) d_rho(rho u_rho) + d_z(u_z).

    Radial face values are the averages of the two adjacent cells; the
    axis face carries zero flux exactly and the no-slip wall face zero
    flux as well, so no radial ghosts enter.  This form has an exact
    discrete adjoint gradient, which lets the pressure projection remove
    the residual down to rounding.
    """
    return div_from_components(v.u_rho, v.u_z, v.grid)


def div_from_components(u_rho, u_z, grid: CylGrid):
    return radial_div(u_rho, grid) + d_z(u_z, grid)


def radial_div(u_rho, grid: CylGrid):
    """Radial part of the divergence, (1/rho) d_rho(rho u_rho) in face-flux
    form.  Acts along axis 0 only, so any array of n_rho rows is accepted
    (the pressure solver applies it to the columns of an identity matrix)."""
    flux = grid.rho_faces[1:-1, None] * 0.5 * (u_rho[:-1] + u_rho[1:])
    zero = np.zeros_like(u_rho[0:1])
    flux = np.concatenate([zero, flux, zero], axis=0)  # axis and wall faces
    return np.diff(flux, axis=0) / (grid.rho * grid.d_rho)


def div_adjoint(phi, grid: CylGrid):
    """(c_rho, c_z) = D* phi, the exact rho-weighted adjoint of
    div_from_components; c_rho is a consistent approximation of -d_rho phi
    away from the boundary rows."""
    c_z = _z_diff(phi)
    c_z /= -2.0 * grid.d_z
    return radial_div_adjoint(phi, grid), c_z


def radial_div_adjoint(phi, grid: CylGrid):
    """Radial component of D*, the rho-weighted adjoint of radial_div;
    acts along axis 0 only, like radial_div."""
    dphi = grid.rho_faces[1:-1, None] * (phi[1:] - phi[:-1])
    zero = np.zeros_like(phi[0:1])
    dphi = np.concatenate([zero, dphi, zero], axis=0)
    return -(dphi[1:] + dphi[:-1]) / (2.0 * grid.rho * grid.d_rho)


def velocity_gradient(v: VelocityState):
    """(dr, dz): the tuples of d_rho and d_z of (u_rho, u_phi, u_z), with
    the axis PARITIES and the no-slip wall ghost.  The step, the curl
    and the monitor's ||grad u|| read these."""
    g = v.grid
    return (tuple(d_rho(x, g, par) for x, par in zip(v.u, PARITIES)),
            tuple(d_z(x, g) for x in v.u))


def curl_axisym(v: VelocityState, grad) -> np.ndarray:
    """The vorticity w = curl u as one (3, n_rho, n_z) array (w_rho, w_phi,
    w_z), u's layout, from grad = velocity_gradient(v): w_rho = -d_z u_phi,
    w_phi = d_z u_rho - d_rho u_z, w_z = (1/rho) d_rho(rho u_phi)."""
    dr, dz = grad
    return np.stack((-dz[1], dz[0] - dr[2], dr[1] + v.u_phi / v.grid.rho))


def explicit_rhs(v: VelocityState, f):
    """The tendencies (du_rho/dt, du_phi/dt, du_z/dt) the time step treats
    explicitly, apart from the pressure gradient: advection, the swirl
    terms +-u_phi^2/rho and u_phi*u_rho/rho, and the forcing f = (h_rho,
    h_phi, h_z), as one (3, n_rho, n_z) array (solver.viscous_solve's
    layout, which f shares).  The step adds the pressure gradient in the
    form its projection removes (solver.step)."""
    rho = v.grid.rho
    ur, uh, uz = v.u
    dr, dz = velocity_gradient(v)
    out = np.stack((-(ur * dr[0] + uz * dz[0]) + uh**2 / rho,
                    -(ur * dr[1] + uz * dz[1]) - uh * ur / rho,
                    -(ur * dr[2] + uz * dz[2])))
    out += f
    return out


def viscous_rhs(v: VelocityState, nu: float):
    """nu times the laplacian of each velocity component, as one
    (3, n_rho, n_z) array like explicit_rhs.  The time step treats these
    implicitly (solver.viscous_solve inverts I - c L for exactly this L).
    nu > 0 is SimConfig's rule (convergence_order's for its studies)."""
    return nu * np.stack([laplacian(x, v.grid, par)
                          for x, par in zip(v.u, PARITIES)])


def grad_squared(f, grid: CylGrid, parity, wall=NOSLIP):
    """(d_rho f)^2 + (d_z f)^2 with the given ghost conventions."""
    return d_rho(f, grid, parity, wall) ** 2 + d_z(f, grid) ** 2
