"""Exhaustiveness: whether a menu can be scaled/translated to touch more facets.

One rule (``exhaustive_points``) decides it from a menu's distinct points and
binding facets, and every decision in the package goes through it; only a
failure builds a witness. The cross-check builds the homothety polytope in
(scale, translation) space and asks whether the identity homothety is one of
its vertices. The two encodings must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry as geo
from .geometry import as_vec, nullspace_basis, rank, solve_affine
from .kernels import rref_sparse
from .model import AllocationSpace, ExtendedMenu


@dataclass(frozen=True)
class ExhaustivenessReport:
    exhaustive: bool
    case: str  # "singleton-at-vertex" | "spanning-and-empty-intersection" | "failure"
    witness_translation: tuple | None = None  # t: slack direction, both +-t feasible
    witness_center: tuple | None = None  # z: common point of all binding facets
    binding: tuple = ()


def exhaustive_points(points, binding, space: AllocationSpace) -> bool:
    """The exhaustiveness rule for a menu with these distinct points and
    binding facet indices: one point is exhaustive iff it is a vertex of A, two
    or more iff the binding facets meet the spanning and empty-intersection
    conditions."""
    if len(points) == 1:
        return points[0] in space.poly.points
    return facet_conditions_hold(binding, space)


def is_exhaustive(em: ExtendedMenu, space: AllocationSpace) -> ExhaustivenessReport:
    """Decide exhaustiveness by the rule; only failures build a witness.

    With binding normals of rank < d (every singleton off the vertices of A)
    the witness is a translation t with ext M +- eps t in A; with rank d it is
    the common point z of the binding hyperplanes, the centre of a dilation.
    """
    binding = tuple(sorted(em.binding))
    if exhaustive_points(em.vertices, binding, space):
        case = "singleton-at-vertex" if len(em.vertices) == 1 else "spanning-and-empty-intersection"
        return ExhaustivenessReport(True, case, binding=binding)
    normals = [space.facets[i].normal for i in binding]
    if rank(normals) < space.dim:
        t = _translation_witness(normals, em, space)
        return ExhaustivenessReport(False, "failure", witness_translation=t, binding=binding)
    z = solve_affine(normals, [space.facets[i].offset for i in binding])
    if z is None or not all(space.facets[i].tight_at(z) for i in binding):
        raise geo.InternalError("rule failed at full rank but no tight dilation centre (internal)")
    return ExhaustivenessReport(False, "failure", witness_center=z, binding=binding)


def _translation_witness(normals, em, space):
    """A t orthogonal to the normals; ext M + eps t and ext M - eps t must
    stay in A for some eps > 0."""
    basis = nullspace_basis(normals) if normals else [as_vec([1] + [0] * (space.dim - 1))]
    if not basis:
        raise geo.InternalError("no translation witness despite rank deficiency (internal)")
    if space.step_bound((v, basis[0]) for v in em.vertices) == 0:
        raise geo.InternalError("translation witness admits no feasible step (internal)")
    return basis[0]


def facet_conditions_hold(facet_indices, space: AllocationSpace) -> bool:
    """Spanning + empty-intersection test on an explicit facet index set: both
    hold iff the rows [n | c] of the facets n.x <= c, scaled by c's denominator
    to integers, have rank d + 1 (normals of rank d, no common point)."""
    hs = [space.facets[i] for i in facet_indices]
    rows = [dict(enumerate([h.offset.denominator * a for a in h.normal] + [h.offset.numerator]))
            for h in hs]
    return len(rref_sparse(rows, space.dim + 1)[0]) == space.dim + 1


def minimal_exhaustive_subset(vertices, space: AllocationSpace, must_include=None):
    """Greedy subset of a menu's points whose touched facets alone make the
    menu pass the rule (2 points if the veto is included).

    While the touched normals have rank < d, adds the first point that raises
    that rank most (the scan stops at rank d); then, unless the rule holds,
    the first point after which it does. The rule reads the whole menu's
    point count, so a menu of two or more points never reduces to one. Each
    rank pick raises the rank by at least 1 and the rule adds at most one
    point, so the subset has at most d + 1 points, or d + 2 when
    ``must_include`` touches no facet of A.
    """
    vertices = [as_vec(v) for v in vertices]
    facet_sets = [space.facet_set(v) for v in vertices]
    chosen = []
    if must_include is not None:
        if as_vec(must_include) not in vertices:
            raise geo.GeometryError("must_include is not among the input vertices")
        chosen.append(vertices.index(as_vec(must_include)))

    def touched(extra=()):
        return frozenset().union(*(facet_sets[i] for i in chosen + list(extra)))

    def normal_rank(extra=()):
        return rank([space.facets[j].normal for j in touched(extra)])

    def passes(extra=()):
        return exhaustive_points(vertices, touched(extra), space)

    r = normal_rank()
    while r < space.dim or not passes():
        rest = [i for i in range(len(vertices)) if i not in chosen]
        if r < space.dim:
            ranks = {None: r}  # max: first point of highest rank, None if none raises r
            for i in rest:
                ranks[i] = normal_rank([i])
                if ranks[i] == space.dim:
                    break
            best = max(ranks, key=ranks.get)
            r = ranks[best]
        else:
            best = next((i for i in rest if passes([i])), None)
        if best is None:
            raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")
        chosen.append(best)
    bound = space.dim + (2 if must_include is not None and not facet_sets[chosen[0]] else 1)
    if len(chosen) > bound:
        raise geo.InternalError(f"minimal subset exceeded {bound} points (internal)")
    return tuple(vertices[i] for i in chosen)


def homothety_cross_check(em: ExtendedMenu, space: AllocationSpace) -> bool:
    """Exhaustiveness via the homothety polytope in (scale, translation) space.

    Hom(M) = {(lam, t): lam * h_M(n_H) + t . n_H <= c_H for all facets H of A,
    lam >= 0} contains (1, 0); the menu is exhaustive iff (1, 0) is a vertex,
    i.e. the active constraint normals (h_M(n_H), n_H) for binding H have rank
    d+1. Must agree with is_exhaustive on every non-singleton menu.
    """
    if len(em.vertices) < 2:
        raise geo.GeometryError("homothety_cross_check needs a non-singleton menu")
    active = []
    normals = [h.normal for h in space.facets]
    for h, support in zip(space.facets, geo.support_values(em.vertices, normals)):
        if support > h.offset:
            raise geo.InternalError("menu escapes the allocation space (internal)")
        if support == h.offset:
            active.append((support,) + h.normal)
    return rank(active) == space.dim + 1
