"""Test oracles: exact predicates that only the tests need.

Each one restates a property the package relies on without depending on the
code that relies on it, so the tests can check verdicts and certificates from
outside: support values of an extended menu, deformations between extended
menus, the nullity of the full deformation system, the squared displacement
bound of a perturbation, and vertex and hyperplane identity on a polyhedron.
"""

import math
from fractions import Fraction

from extremenu import geometry as geo
from extremenu.geometry import as_vec, dot, rank, solve_affine, vsub
from extremenu.model import Menu, extend_menu


def support_value(em, theta):
    """sup of theta . y over the extended menu: exact max over vertices when
    theta lies in the type cone, +inf otherwise."""
    theta = as_vec(theta)
    for r in em.poly.rays:
        if dot(as_vec(r), theta) > 0:
            return math.inf
    return max(dot(v, theta) for v in em.vertices)


def is_deformation(em, other) -> bool:
    """Whether `other` is a deformation of `em`: parallel translates of em's
    facet-defining hyperplanes whose vertex-defining intersections survive.

    Offsets are read off as support values of `other`; each vertex-defining
    intersection must resolve to a single point that is a vertex of `other`,
    and the translated halfspaces must cut out exactly `other`.
    """
    if em.dim != other.dim:
        raise geo.GeometryError("ambient dimension mismatch")
    hm = em.poly.halfspaces
    offsets = [max(dot(as_vec(h.normal), v) for v in other.vertices) for h in hm]
    for r in other.poly.rays:
        for h in hm:
            if dot(as_vec(h.normal), as_vec(r)) > 0:
                return False
    vertex_set = set(other.vertices)
    for i in range(len(em.vertices)):
        inc = sorted(em.poly.incidence[i])
        normals = [hm[j].normal for j in inc]
        if rank(normals) != em.dim:
            raise geo.InternalError("vertex with deficient incidence rank (internal)")
        # uniqueness given full rank; the point must survive as a vertex
        z = solve_affine(normals, [offsets[j] for j in inc])
        if z is None or z not in vertex_set:
            return False
    translated = [geo.Hyperplane.make(h.normal, c) for h, c in zip(hm, offsets)]
    rebuilt = geo.polyhedron_from_halfspaces(translated)
    return rebuilt.points == other.poly.points and rebuilt.rays == other.poly.rays


def summand_extended_menus(cert, cone, space):
    return (extend_menu(Menu(items=cert.menu_plus), cone, space),
            extend_menu(Menu(items=cert.menu_minus), cone, space))


def deformation_nullity(em, space) -> int:
    """Nullity of the full deformation system, written densely: unknowns are
    d coordinates of psi per vertex, then one mu per bounded edge; rows are
    psi_i - psi_j - mu_e (v_i - v_j) = 0 per bounded edge e = (i, j) and
    coordinate, and n_f . psi_i = 0 per facet f of A through vertex i."""
    d, n = space.dim, len(em.vertices)
    ncols = d * n + len(em.edges)
    rows = []
    for e, (i, j) in enumerate(em.edges):
        diff = vsub(em.vertices[i], em.vertices[j])
        for c in range(d):
            row = [Fraction(0)] * ncols
            row[i * d + c], row[j * d + c], row[d * n + e] = Fraction(1), Fraction(-1), -diff[c]
            rows.append(row)
    for i, facets in enumerate(em.facet_incidence):
        for f in facets:
            row = [Fraction(0)] * ncols
            row[i * d:(i + 1) * d] = space.facets[f].normal
            rows.append(row)
    return ncols - rank(rows)


def hausdorff_bound(menu_a, menu_b):
    """Upper bound on the Hausdorff distance between the convex hulls of two
    equally-sized menus: the largest pairwise displacement, squared so that it
    stays rational."""
    best = Fraction(0)
    for a, b in zip(menu_a, menu_b):
        diff = vsub(as_vec(a), as_vec(b))
        best = max(best, dot(diff, diff))
    return best


def is_vertex(poly, x) -> bool:
    """x lies in poly and its tight halfspace normals have full rank."""
    if not poly.contains(x):
        return False
    return rank([poly.halfspaces[i].normal for i in poly.tight_set(x)]) == poly.ambient_dim


def same_hyperplane(h, g) -> bool:
    """Equality as point sets (orientation ignored)."""
    return h.key() in (g.key(), g.flipped().key())
