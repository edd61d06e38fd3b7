"""Scenario representation and extended-menu construction.

A scenario bundles the allocation polytope with its facet list, the type
cone with its polar, the finite menu, and an optional principal objective.
The extended menu conv(items) + polar cone is the payoff-equivalent closure
of the menu; its vertices, bounded edges, and per-vertex allocation-facet
incidences drive every downstream decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import geometry as geo
from .geometry import (
    Hyperplane,
    Polyhedron,
    as_vec,
    dot,
    is_zero,
    primitive,
    rank,
)


class ScenarioError(ValueError):
    """Scenario validation failure with a human-readable diagnostic."""


def render_linear(normal, offset) -> str:
    """Pretty-print n.x <= c with coordinates named a1..ad."""
    terms = []
    for i, c in enumerate(normal):
        if c == 0:
            continue
        name = f"a{i + 1}"
        if c == 1:
            terms.append(f"+ {name}" if terms else name)
        elif c == -1:
            terms.append(f"- {name}" if terms else f"-{name}")
        else:
            sign = "- " if c < 0 else ("+ " if terms else "")
            terms.append(f"{sign}{abs(c)}*{name}")
    lhs = " ".join(terms) if terms else "0"
    return f"{lhs} <= {offset}"


# ---------------------------------------------------------------------------
# allocation space


@dataclass(frozen=True)
class AllocationSpace:
    """Bounded full-dimensional polytope A with its veto."""

    poly: Polyhedron
    veto: tuple | None

    @property
    def dim(self) -> int:
        return self.poly.ambient_dim

    @property
    def facets(self) -> tuple:
        return self.poly.halfspaces

    def facet_set(self, x) -> frozenset:
        """Indices of facets of A containing the point x."""
        return self.poly.tight_set(x)

    def contains(self, x) -> bool:
        return self.poly.contains(x)

    def step_bound(self, moves) -> Fraction:
        """Largest eps <= 1 with p + eps t and p - eps t in A for every (p, t)
        in moves; 0 when some t leaves a facet that its p touches."""
        eps = Fraction(1)
        for p, t in moves:
            for h in self.facets:
                drift = h.value(t)
                if drift == 0:
                    continue
                slack = h.offset - h.value(p)
                if slack == 0:
                    return Fraction(0)
                eps = min(eps, slack / abs(drift))
        return eps


def allocation_space_from_points(points, veto=None) -> AllocationSpace:
    """Allocation space as the convex hull of the given points."""
    poly = geo.polyhedron_from_generators(points)
    return _finish_space(poly, veto)


def allocation_space_from_halfspaces(halfspaces, veto=None) -> AllocationSpace:
    """Allocation space from explicit halfspaces, each of which must be a facet.

    A bounded full-dimensional A has exactly its irredundant inputs as facets,
    so the first input (in order) that is no facet of A or is stated twice is
    reported as redundant.
    """
    hs = [h if isinstance(h, Hyperplane) else Hyperplane.make(*h) for h in halfspaces]
    poly = geo.polyhedron_from_halfspaces(hs)
    if poly.is_empty:
        raise ScenarioError("allocation space is empty")
    space = _finish_space(poly, veto)
    facet_keys = {h.key() for h in space.facets}
    keys = [h.key() for h in hs]
    for h, key in zip(hs, keys):
        if key not in facet_keys or keys.count(key) > 1:
            raise ScenarioError(f"redundant facet: {render_linear(h.normal, h.offset)}")
    return space


def _finish_space(poly: Polyhedron, veto) -> AllocationSpace:
    d = poly.ambient_dim
    if poly.rays:
        raise ScenarioError("allocation space must be bounded")
    if poly.dim != d:
        raise ScenarioError(
            f"allocation space is not full-dimensional (dim {poly.dim} in ambient {d})"
        )
    if veto is not None:
        veto = as_vec(veto)
        if veto not in poly.points:
            raise ScenarioError(f"veto allocation {veto} is not a vertex of A")
    return AllocationSpace(poly=poly, veto=veto)


# ---------------------------------------------------------------------------
# type cone


@dataclass(frozen=True)
class TypeCone:
    """Type cone given by generating rays, with its polar precomputed."""

    rays: tuple
    polar_rays: tuple
    unrestricted: bool

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    def contains(self, theta) -> bool:
        """theta in cone(rays), tested against the polar description."""
        return all(geo.idot(theta, r) <= 0 for r in self.polar_rays)


def polar_cone(rays):
    """Generators of {y : y . theta <= 0 for all theta in cone(rays)}.

    The double polar is verified to reproduce the input cone.
    """
    rays = [as_vec(r) for r in rays]
    if not rays:
        raise geo.GeometryError("polar_cone needs at least one ray")
    d = len(rays[0])
    for r in rays:
        if is_zero(r):
            raise geo.GeometryError("zero ray in cone input")
    lines, polar, _ = geo.cone_generators(rays, d)
    if lines:
        raise ScenarioError("type cone is not full-dimensional (polar has lineality)")
    # cross-validation: polar rays against cone rays, and double polar
    for p in polar:
        for r in rays:
            if geo.dot(as_vec(p), r) > 0:
                raise geo.InternalError("polar ray fails nonpositivity (internal)")
    if polar:
        lines2, rays2, _ = geo.cone_generators(polar, d)
        for r2 in rays2:
            if any(geo.idot(r2, p) > 0 for p in polar):
                raise geo.InternalError("double polar escaped the cone (internal)")
        if not rays2 and not lines2:
            raise geo.InternalError("double polar collapsed (internal)")
    return tuple(polar)


def make_type_cone(rays) -> TypeCone:
    rays = tuple(primitive(as_vec(r)) for r in rays)
    d = len(rays[0])
    if rank(rays) != d:
        raise ScenarioError("type cone is not full-dimensional")
    polar = polar_cone(rays)
    return TypeCone(rays=rays, polar_rays=polar, unrestricted=not polar)


def unrestricted_cone(d: int) -> TypeCone:
    rays = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        rays.append(tuple(e))
        rays.append(tuple(-x for x in e))
    return make_type_cone(rays)


# ---------------------------------------------------------------------------
# menus


@dataclass(frozen=True)
class Menu:
    items: tuple

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class AbsorbedItem:
    """A menu item payoff-dominated by the rest of the menu.

    The certificate expresses the item as a convex combination of surviving
    vertices plus a nonnegative combination of polar-cone rays. Vertex
    indices refer to ``ExtendedMenu.vertices``; ray indices refer to
    ``ExtendedMenu.poly.rays`` (the extended menu's minimal rays, not
    ``TypeCone.polar_rays``). Only positive weights are listed.

    The weights come from Carathéodory's theorem carried out on M's face
    lattice (``geometry.caratheodory_decomposition``): from the vertex of the
    item's minimal face, shoot through the item to a proper face and recurse;
    a direction no facet bounds is peeled into extreme rays of its minimal
    recession face. Each step drops a face dimension, so at most dim M + 1
    generators carry weight, and the certificate is replayed exactly.
    """

    item: tuple
    vertex_weights: tuple  # (index into vertices, Fraction) pairs
    polar_weights: tuple  # (index into poly.rays, Fraction) pairs


@dataclass(frozen=True)
class ExtendedMenu:
    """conv(items) + polar cone, with vertices, bounded edges and incidences."""

    poly: Polyhedron
    vertices: tuple
    edges: tuple  # pairs of indices into vertices, bounded 1-faces only
    ray_edges: tuple  # unbounded 1-faces (i, j): ray poly.rays[j - len(vertices)] leaves vertex i
    facet_incidence: tuple  # per vertex: frozenset of A-facet indices
    binding: frozenset  # union of facet incidences = F(x)
    items: tuple  # the menu items, absorbed ones included

    @property
    def dim(self) -> int:
        return self.poly.ambient_dim

    @cached_property
    def absorbed(self) -> tuple:
        """Certificates of the items that are no vertex, built on first read."""
        return tuple(AbsorbedItem(item, *geo.caratheodory_decomposition(self.poly, item))
                     for item in self.items if item not in self.vertices)


@dataclass(frozen=True)
class Scenario:
    space: AllocationSpace
    cone: TypeCone
    menu: Menu
    objective: object | None
    label: str

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True)
class ConstantObjective:
    v: tuple

    def value_at(self, theta):
        return self.v


@dataclass(frozen=True)
class TabulatedObjective:
    table: tuple  # ((theta, v), ...)

    def value_at(self, theta):
        theta = as_vec(theta)
        for t, v in self.table:
            if t == theta:
                return v
        raise ScenarioError(f"objective is not defined at type {theta}")


def validate_scenario(space, cone, menu_items, objective=None, label="") -> Scenario:
    """Check every scenario invariant and return the immutable Scenario.

    Diagnostics are specific: dimension mismatches, lower-dimensional A,
    non-full-dimensional cone, menu items outside A (naming the violated
    facet), duplicate items, and a veto missing from the menu.
    """
    if not isinstance(space, AllocationSpace):
        raise ScenarioError("space must be an AllocationSpace")
    if not isinstance(cone, TypeCone):
        raise ScenarioError("cone must be a TypeCone")
    d = space.dim
    if cone.dim != d:
        raise ScenarioError(f"cone dimension {cone.dim} != allocation dimension {d}")
    items = []
    seen = set()
    for raw in menu_items:
        p = as_vec(raw)
        if len(p) != d:
            raise ScenarioError(f"menu item {p} has dimension {len(p)}, expected {d}")
        if p in seen:
            raise ScenarioError(f"duplicate menu item {p}")
        seen.add(p)
        if not space.contains(p):
            h = next(h for h in space.facets if not h.contains(p))
            raise ScenarioError(f"item {tuple(map(str, p))} violates facet "
                                f"{render_linear(h.normal, h.offset)}")
        items.append(p)
    if not items:
        raise ScenarioError("menu must contain at least one item")
    if space.veto is not None and space.veto not in items:
        raise ScenarioError(f"IR requires the veto allocation {space.veto} in the menu")
    if isinstance(objective, ConstantObjective) and len(objective.v) != d:
        raise ScenarioError("objective dimension mismatch")
    return Scenario(
        space=space,
        cone=cone,
        menu=Menu(items=tuple(items)),
        objective=objective,
        label=label,
    )


# ---------------------------------------------------------------------------
# extended menu construction


def extend_menu(menu: Menu, cone: TypeCone, space: AllocationSpace) -> ExtendedMenu:
    """Build M = conv(items) + polar cone with vertices, edges, incidences.

    Items absorbed into the extension (payoff-irrelevant) are reported with a
    dominating-combination certificate when ``absorbed`` is first read.
    """
    poly = geo.polyhedron_from_generators(menu.items, cone.polar_rays)
    vertices = poly.points
    all_edges = geo.faces(poly)
    edges = tuple((i, j) for i, j in all_edges if j < len(vertices))
    ray_edges = tuple((i, j) for i, j in all_edges if j >= len(vertices))
    incid = tuple(space.facet_set(v) for v in vertices)
    binding = frozenset().union(*incid) if incid else frozenset()
    return ExtendedMenu(
        poly=poly,
        vertices=vertices,
        edges=edges,
        ray_edges=ray_edges,
        facet_incidence=incid,
        binding=binding,
        items=tuple(menu.items),
    )


@lru_cache(maxsize=4096)
def extended_menu(scenario: Scenario) -> ExtendedMenu:
    """Cached extend_menu for a validated scenario."""
    return extend_menu(scenario.menu, scenario.cone, scenario.space)


# ---------------------------------------------------------------------------
# agent behaviour


def agent_choice(menu: Menu, theta):
    """The lexicographically smallest utility maximizer over the menu items."""
    theta = as_vec(theta)
    if is_zero(theta):
        raise ScenarioError("agent_choice: type must be nonzero")
    best_val = None
    best = None
    for item in menu.items:
        v = dot(item, theta)
        if best_val is None or v > best_val or (v == best_val and item < best):
            best_val = v
            best = item
    return best
