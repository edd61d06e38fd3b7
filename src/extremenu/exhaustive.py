"""Exhaustiveness: whether a menu can be scaled/translated to touch more facets.

Two independent encodings are provided. The direct test checks the spanning
and empty-intersection conditions on the binding facet set; the cross-check
builds the homothety polytope in (scale, translation) space and asks whether
the identity homothety is one of its vertices. They must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry as geo
from .geometry import Fraction, as_vec, nullspace_basis, rank, solve_affine
from .kernels import rref_sparse
from .model import AllocationSpace, ExtendedMenu


@dataclass(frozen=True)
class ExhaustivenessReport:
    exhaustive: bool
    case: str  # "singleton-at-vertex" | "spanning-and-empty-intersection" | "failure"
    witness_translation: tuple | None = None  # t: slack direction, both +-t feasible
    witness_center: tuple | None = None  # z: common point of all binding facets
    binding: tuple = ()


def is_exhaustive(em: ExtendedMenu, space: AllocationSpace) -> ExhaustivenessReport:
    """Decide exhaustiveness; failures ship a verifiable witness.

    Singleton menus are exhaustive iff their single vertex is a vertex of A.
    Otherwise the binding facet normals must span the ambient space and the
    binding facet hyperplanes must have empty common intersection.
    """
    binding = tuple(sorted(em.binding))
    if len(em.vertices) == 1 and em.vertices[0] in space.poly.points:
        return ExhaustivenessReport(True, "singleton-at-vertex", binding=binding)
    # a singleton off the vertices of A has binding normals of rank < d
    normals = [space.facets[i].normal for i in binding]
    offsets = [space.facets[i].offset for i in binding]
    if rank(normals) < space.dim:
        t = _translation_witness(normals, em, space)
        return ExhaustivenessReport(False, "failure", witness_translation=t, binding=binding)
    z = solve_affine(normals, offsets)
    if z is not None:
        for i in binding:
            if not space.facets[i].tight_at(z):
                raise geo.InternalError("dilation center fails a binding facet (internal)")
        return ExhaustivenessReport(False, "failure", witness_center=z, binding=binding)
    return ExhaustivenessReport(True, "spanning-and-empty-intersection", binding=binding)


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
    """Greedy exhaustive subset of at most d+1 points (2 if the veto is included).

    Chooses points whose touched-facet normals reach full rank, then one more
    point on a facet avoiding the common intersection point. The output is
    certified exhaustive before returning.
    """
    vertices = [as_vec(v) for v in vertices]
    d = space.dim
    facet_sets = [space.facet_set(v) for v in vertices]

    if len(vertices) == 1:
        if vertices[0] in space.poly.points:
            return tuple(vertices)
        raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")

    chosen = []
    chosen_idx = set()
    if must_include is not None:
        must_include = as_vec(must_include)
        try:
            k = vertices.index(must_include)
        except ValueError:
            raise geo.GeometryError("must_include is not among the input vertices")
        chosen.append(k)
        chosen_idx.add(k)

    def facet_union(sel):
        out = set()
        for i in sel:
            out |= facet_sets[i]
        return sorted(out)

    current_rank = rank([space.facets[i].normal for i in facet_union(chosen)]) if chosen else 0
    while current_rank < d:
        best = None
        best_rank = current_rank
        for i in range(len(vertices)):
            if i in chosen_idx:
                continue
            r = rank([space.facets[j].normal for j in facet_union(chosen + [i])])
            if r > best_rank:
                best = i
                best_rank = r
                if r == d:
                    break
        if best is None:
            raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")
        chosen.append(best)
        chosen_idx.add(best)
        current_rank = best_rank

    if not facet_conditions_hold(facet_union(chosen), space):
        added = False
        for i in range(len(vertices)):
            if i in chosen_idx:
                continue
            if facet_conditions_hold(facet_union(chosen + [i]), space):
                chosen.append(i)
                chosen_idx.add(i)
                added = True
                break
        if not added:
            raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")

    if len(chosen) > d + 1:
        raise geo.InternalError("minimal subset exceeded d+1 points (internal)")
    if not facet_conditions_hold(facet_union(chosen), space):
        raise geo.InternalError("minimal subset failed certification (internal)")
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
    for i, h in enumerate(space.facets):
        support = max(h.value(v) for v in em.vertices)
        if support > h.offset:
            raise geo.InternalError("menu escapes the allocation space (internal)")
        if support == h.offset:
            active.append((support,) + tuple(map(Fraction, h.normal)))
    return rank(active) == space.dim + 1
