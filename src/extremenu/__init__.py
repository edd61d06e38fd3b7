"""Exact extreme-point analysis of finite-menu mechanisms in linear screening.

Decides, certifies, and explains whether a finite menu is an extreme point of
the incentive-compatible, individually-rational mechanisms over a polytopal
allocation space; produces verified Minkowski decompositions when it is not
and certified perturbations into extreme points when it is close. All
arithmetic is exact rational.
"""

from .geometry import (Fraction, Hyperplane, Polyhedron, faces, lp_solve, nullspace_basis,
                       polyhedron_from_generators, polyhedron_from_halfspaces, rank)
from .model import (
    AllocationSpace,
    ExtendedMenu,
    Menu,
    Scenario,
    TypeCone,
    agent_choice,
    extend_menu,
    polar_cone,
    validate_scenario,
)

__version__ = "0.1.0"
