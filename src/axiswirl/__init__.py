"""Axisymmetric incompressible Navier-Stokes solver with swirl, plus a
monitor that evaluates weighted-norm regularity estimates on computed
trajectories."""

__version__ = "0.1.0"

from .grid import CylGrid, build_grid, moment, serrin_advance
from .exponents import ExponentSet, check_admissible, derive_exponents, holder_young_pairs

__all__ = [
    "CylGrid",
    "build_grid",
    "moment",
    "serrin_advance",
    "ExponentSet",
    "check_admissible",
    "derive_exponents",
    "holder_young_pairs",
]
