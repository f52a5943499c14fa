"""Cylindrical mesh and quadrature.

The domain is the cylinder rho in (0, rho_max], z periodic on
[z_min, z_max).  Cells are centered at rho_j = (j + 1/2) * d_rho so the
axis rho = 0 never carries a node and every 1/rho weight stays finite.
All volume integrals use the midpoint rule with the cylindrical measure
2*pi*rho drho dz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CylGrid:
    """Axis-offset cylindrical mesh.

    Arrays over the grid have shape (n_rho, n_z); axis 0 is radial.
    """

    n_rho: int
    n_z: int
    rho_max: float
    z_min: float
    z_max: float
    # derived from the five parameters above; equality and hash ignore them
    d_rho: float = field(init=False, repr=False, compare=False)
    d_z: float = field(init=False, repr=False, compare=False)
    rho_centers: np.ndarray = field(init=False, repr=False, compare=False)
    z_centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d_rho", self.rho_max / self.n_rho)
        object.__setattr__(self, "d_z", (self.z_max - self.z_min) / self.n_z)
        rho = (np.arange(self.n_rho) + 0.5) * self.d_rho
        zc = self.z_min + (np.arange(self.n_z) + 0.5) * self.d_z
        rho.setflags(write=False)
        zc.setflags(write=False)
        object.__setattr__(self, "rho_centers", rho)
        object.__setattr__(self, "z_centers", zc)

    @property
    def shape(self):
        return (self.n_rho, self.n_z)

    @property
    def rho(self):
        """rho broadcast to grid shape, column vector (n_rho, 1)."""
        return self.rho_centers[:, None]

    @property
    def cell_weight(self):
        """Quadrature weight 2*pi*rho_j*d_rho*d_z per cell, shape (n_rho, 1)."""
        return TWO_PI * self.rho * self.d_rho * self.d_z

    @property
    def volume(self):
        return math.pi * self.rho_max**2 * (self.z_max - self.z_min)

    def zeros(self):
        return np.zeros(self.shape)

    def meshgrid(self):
        """(rho, z) arrays of grid shape."""
        return np.meshgrid(self.rho_centers, self.z_centers, indexing="ij")


@dataclass(frozen=True)
class ScalarSample:
    """A scalar field sampled at cell centers of a CylGrid."""

    values: np.ndarray
    grid: CylGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ConfigurationError(
                f"sample shape {v.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", v)


def build_grid(n_rho, n_z, rho_max=2.0, z_min=0.0, z_max=1.0) -> CylGrid:
    """Build an axis-offset cylindrical grid.

    Raises ConfigurationError for counts < 2 or degenerate extents.
    """
    if int(n_rho) != n_rho or int(n_z) != n_z:
        raise ConfigurationError("cell counts must be integers")
    n_rho, n_z = int(n_rho), int(n_z)
    if n_rho < 2 or n_z < 2:
        raise ConfigurationError(f"need n_rho >= 2 and n_z >= 2, got ({n_rho}, {n_z})")
    if not (rho_max > 0.0):
        raise ConfigurationError(f"rho_max must be positive, got {rho_max}")
    if not (z_max > z_min):
        raise ConfigurationError(f"need z_max > z_min, got ({z_min}, {z_max})")
    return CylGrid(n_rho, n_z, float(rho_max), float(z_min), float(z_max))


def _values(f):
    if isinstance(f, ScalarSample):
        return f.values, f.grid
    raise ContractViolation("expected a ScalarSample")


def integrate(f: ScalarSample) -> float:
    """Midpoint-rule integral over the cylinder, measure 2*pi*rho drho dz."""
    v, g = _values(f)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite samples in integrand")
    return float(np.sum(v * g.cell_weight))


def weighted_lq_norm(f: ScalarSample, q: float, gamma: float = 0.0) -> float:
    """(integral |f * rho^gamma|^q dx)^(1/q); gamma = 0 is the plain Lq norm."""
    if q < 1.0:
        raise ContractViolation(f"q must be >= 1, got {q}")
    v, g = _values(f)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite samples")
    w = np.abs(v) * g.rho**gamma
    return float(np.sum(w**q * g.cell_weight)) ** (1.0 / q)


def serrin_accumulate(prev, f_neg: ScalarSample, a, b, gamma, dt) -> float:
    """Advance the running weighted Serrin integral by one interval.

    For finite b this accumulates dt * (integral |f * rho^gamma|^a dx)^(b/a);
    for b = inf it keeps the running supremum of the spatial norm
    (integral ...)^(1/a).  The finished accumulator raised to 1/b is the
    weighted space-time norm.
    """
    v, g = _values(f_neg)
    if np.any(v < 0.0):
        raise ContractViolation("negative entries in the negative-part field")
    spatial = float(np.sum((v * g.rho**gamma) ** a * g.cell_weight))
    if math.isinf(b):
        return max(float(prev), spatial ** (1.0 / a))
    if dt < 0.0:
        raise ContractViolation("dt must be nonnegative")
    return float(prev) + float(dt) * spatial ** (b / a)
