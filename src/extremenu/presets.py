"""Problem presets: unit simplex, unit cube, and multi-good monopoly.

These build validated allocation spaces and type cones from generators, so
no irredundancy check is needed (the facet lists come out of the exact dual
description directly).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import model
from .geometry import as_vec, frac, zero_vec
from .model import AllocationSpace, TypeCone, allocation_space_from_points, make_type_cone


def simplex_space(d: int, veto=None) -> AllocationSpace:
    """Unit simplex {a >= 0, sum a_i <= 1} in R^d (lotteries over d+1 alternatives)."""
    if d < 1:
        raise model.ScenarioError("simplex preset needs d >= 1")
    pts = [zero_vec(d)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        pts.append(as_vec(e))
    return allocation_space_from_points(pts, veto=veto)


def cube_space(d: int, veto=None) -> AllocationSpace:
    """Unit cube [0,1]^d."""
    if d < 1:
        raise model.ScenarioError("cube preset needs d >= 1")
    pts = [as_vec(bits) for bits in product((0, 1), repeat=d)]
    return allocation_space_from_points(pts, veto=veto)


def monopoly_space(m: int, kappa=1) -> AllocationSpace:
    """[0,1]^m x [0,kappa]: m good probabilities plus a transfer coordinate.

    The veto is the origin (no trade, no payment).
    """
    if m < 1:
        raise model.ScenarioError("monopoly preset needs m >= 1")
    kappa = frac(kappa)
    if kappa <= 0:
        raise model.ScenarioError("monopoly preset needs kappa > 0")
    pts = [as_vec(list(bits) + [t]) for bits in product((0, 1), repeat=m) for t in (0, kappa)]
    return allocation_space_from_points(pts, veto=zero_vec(m + 1))


def monopoly_cone(m: int) -> TypeCone:
    """Types (w, -1) with per-good valuations w in [0,1]^m; money is the numeraire."""
    rays = [tuple(list(bits) + [-1]) for bits in product((0, 1), repeat=m)]
    return make_type_cone(rays)


@lru_cache(maxsize=64, typed=True)
def space_for_preset(name: str, d: int):
    """(space, cone) pair for a named preset; d is the ambient dimension, so
    monopoly has d - 1 goods.

    Cached: both members are frozen, so repeated calls share one pair.
    """
    if name == "simplex":
        return simplex_space(d), model.unrestricted_cone(d)
    if name == "cube":
        return cube_space(d), model.unrestricted_cone(d)
    if name == "monopoly":
        return monopoly_space(d - 1), monopoly_cone(d - 1)
    raise model.ScenarioError(f"unknown preset {name!r}")
