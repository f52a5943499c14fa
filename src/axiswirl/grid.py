"""Cylindrical mesh and quadrature.

The domain is the cylinder rho in (0, rho_max], z periodic on
[z_min, z_max).  Cells are centered at rho_j = (j + 1/2) * d_rho so the
axis rho = 0 never carries a node and every 1/rho weight stays finite.
All volume integrals use the midpoint rule with the cylindrical measure
2*pi*rho drho dz, in one place (moment): the z-sums of a field, then one
dot product with the radial cell weights.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .records import Frozen

TWO_PI = 2.0 * math.pi


class CylGrid(Frozen):
    """Axis-offset cylindrical mesh.

    Arrays over the grid have shape (n_rho, n_z); axis 0 is radial.
    Equality, hash and repr use the five parameters only; the fields
    after them are derived.  cell_weight is the quadrature weight
    2*pi*rho_j*d_rho*d_z per cell, shape (n_rho, 1).
    """

    __slots__ = ("n_rho", "n_z", "rho_max", "z_min", "z_max",
                 "d_rho", "d_z", "rho_centers", "z_centers", "cell_weight")

    def __init__(self, n_rho, n_z, rho_max, z_min, z_max):
        d_rho = rho_max / n_rho
        d_z = (z_max - z_min) / n_z
        rho = (np.arange(n_rho) + 0.5) * d_rho
        zc = z_min + (np.arange(n_z) + 0.5) * d_z
        weight = TWO_PI * rho[:, None] * d_rho * d_z
        for arr in (rho, zc, weight):
            arr.setflags(write=False)
        self._freeze(n_rho, n_z, rho_max, z_min, z_max, d_rho, d_z, rho, zc,
                     weight)

    def _params(self):
        return (self.n_rho, self.n_z, self.rho_max, self.z_min, self.z_max)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self):
        return hash(self._params())

    def __repr__(self):
        return ("CylGrid(n_rho={!r}, n_z={!r}, rho_max={!r}, z_min={!r}, "
                "z_max={!r})".format(*self._params()))

    @property
    def shape(self):
        return (self.n_rho, self.n_z)

    @property
    def rho(self):
        """rho broadcast to grid shape, column vector (n_rho, 1)."""
        return self.rho_centers[:, None]

    def zeros(self):
        return np.zeros(self.shape)

    def meshgrid(self):
        """(rho, z) arrays of grid shape."""
        return np.meshgrid(self.rho_centers, self.z_centers, indexing="ij")


# Most cells along either axis.  The solver keeps dense per-grid bases of
# 8 n_rho^2 + n_z^2 doubles, built with eigh in O(n^3) time.  Measured at
# 1024 x 1024 on a 2-vCPU VM: the bases take 0.68 s and 215 MB peak RSS,
# and `axiswirl run` of one decaying-swirl step 2.4 s and 480 MB.  Each
# doubling of n multiplies that memory by about 4 and the time by 8, so
# a finer grid would fail for lack of memory on a small machine.
MAX_CELLS = 1024


def build_grid(n_rho, n_z, rho_max=2.0, z_min=0.0, z_max=1.0) -> CylGrid:
    """Build an axis-offset cylindrical grid.

    Raises ConfigurationError for counts outside [2, MAX_CELLS] or
    degenerate extents.
    """
    if int(n_rho) != n_rho or int(n_z) != n_z:
        raise ConfigurationError("cell counts must be integers")
    n_rho, n_z = int(n_rho), int(n_z)
    if not (2 <= n_rho <= MAX_CELLS and 2 <= n_z <= MAX_CELLS):
        raise ConfigurationError(
            f"need 2 <= n_rho, n_z <= {MAX_CELLS}, got ({n_rho}, {n_z})")
    if not (rho_max > 0.0):
        raise ConfigurationError(f"rho_max must be positive, got {rho_max}")
    if not (z_max > z_min):
        raise ConfigurationError(f"need z_max > z_min, got ({z_min}, {z_max})")
    return CylGrid(n_rho, n_z, float(rho_max), float(z_min), float(z_max))


def moment(vals, grid: CylGrid, k: float = 0.0) -> float:
    """Midpoint integral of vals * rho^k over the cylinder: the z-sums of
    vals, then one dot product with the radial cell weight times rho^k.
    vals is a grid field or its z-sums (shape (n_rho,)).  Overflowed
    samples give an inf or nan integral."""
    col = vals.sum(axis=1) if vals.ndim == 2 else vals
    return float(col @ (grid.cell_weight[:, 0] * grid.rho_centers ** k))


def power(x: float, y: float) -> float:
    """x ** y for x >= 0, inf where the float power overflows (or x = 0
    and y < 0) instead of raising."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def serrin_advance(prev, spatial, a, b, dt) -> float:
    """The running weighted Serrin integral after one more interval of
    length dt whose spatial factor is spatial = integral |f rho^gamma|^a
    dx: prev + dt * spatial^(b/a) for finite b, the running supremum of
    spatial^(1/a) for b = inf.  An overflowing power gives inf."""
    if math.isinf(b):
        return max(float(prev), power(spatial, 1.0 / a))
    if dt < 0.0:
        raise ContractViolation("dt must be nonnegative")
    return float(prev) + float(dt) * power(spatial, b / a)

