"""Extremality of finite-menu mechanisms via the deformation system.

A finite menu is an extreme point iff the homogeneous linear system built
from its bounded edges and binding allocation facets has a trivial nullspace:
unknowns are one displacement vector per vertex and one scale per bounded
edge, the edge equations force displacements to slide edges in parallel, and
the facet equations pin displacements to the touched facets of A. A nonzero
nullspace vector is a two-sided feasible deformation direction and yields a
verified Minkowski decomposition of the extended menu. Extraction builds no
system: it checks the two equation families on M's own edges and facet
incidences, and steps by AllocationSpace.step_bound, the feasible-step bound
that exhaustiveness also uses for its translation witness.

Many menus are decided without the system, by the paper's theorem that an
exhaustive menu whose extension M is indecomposable is an extreme point
(indecomposable bodies: Gale 1954, *Irreducible convex sets*), with
indecomposability shown by a chain of triangles (Shephard 1963, *Decomposable
convex polyhedra*). No three vertices of M are collinear, so on a triangle
a, b, c of M's bounded edge graph the three edge equations sum to
(mu_ab - mu_ca)(a - b) + (mu_bc - mu_ca)(b - c) = 0: the three scales equal
one lam and psi_i = lam v_i + t on the triangle. Triangles that share an edge
share lam and t, so each rigid component (triangles merged along shared
edges) moves as one homothety. When one component holds every vertex, the
facet equations reduce to lam c_f + n_f . t = 0 over the binding facets
n_f . x <= c_f, so the nullity is d + 1 - rank [c_f | n_f], and it is 0
exactly when the exhaustiveness rule holds.

The independent cross-check encodes the same question as a vertex test on
the lifted deformation polytope (offsets of the menu's own facet-defining
hyperplanes plus one point per vertex) and must always agree.
Both systems are written as sparse primitive integer rows {column: int} for
the integer kernels (kernels.nullspace, kernels.rref_sparse).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from .exhaustive import facet_conditions_hold
from .geometry import as_vec, is_zero, vadd, vscale, vsub
from .kernels import nullspace, rref_sparse
from .model import AllocationSpace, ExtendedMenu

@dataclass(frozen=True)
class DeformationSystem:
    """Homogeneous system whose nullspace decides extremality.

    Columns: d coordinates of psi_a per vertex (vertex-major), then one mu_e
    per bounded edge. Rows, as primitive integer dicts {column: int}: the edge
    equations mu_e (a - b) = psi_a - psi_b and the facet equations
    psi_a . n_H = 0 for H in F(a). The inequality family (facets not touched
    by a) is strict at the trivial solution, so it adds no row.
    """

    rows: tuple
    ncols: int


@dataclass(frozen=True)
class DeformationDirection:
    psi: tuple  # one Vec per vertex
    mu: tuple  # one Fraction per bounded edge


@dataclass(frozen=True)
class ExtremalityVerdict:
    extreme: bool
    nullity: int
    direction: DeformationDirection | None = None


@dataclass(frozen=True)
class DecompositionCertificate:
    """Verified pair of menus averaging back to the original extended menu."""

    direction: DeformationDirection
    epsilon: Fraction
    menu_plus: tuple
    menu_minus: tuple


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def build_deformation_system(em: ExtendedMenu, space: AllocationSpace) -> DeformationSystem:
    d = space.dim
    n = len(em.vertices)
    ncols = d * n + len(em.edges)
    rows = []
    for k, (i, j) in enumerate(em.edges):
        for c, x in enumerate(vsub(em.vertices[i], em.vertices[j])):
            # x mu_k - psi_i,c + psi_j,c = 0, cleared of x's denominator
            row = {i * d + c: -x.denominator, j * d + c: x.denominator}
            if x:
                row[d * n + k] = x.numerator
            rows.append(row)
    for i in range(n):
        for f in sorted(em.facet_incidence[i]):
            normal = space.facets[f].normal
            rows.append({i * d + c: a for c, a in enumerate(normal) if a})
    return DeformationSystem(rows=tuple(rows), ncols=ncols)


def is_extreme_finite(em: ExtendedMenu, space: AllocationSpace) -> ExtremalityVerdict:
    """Extreme iff the deformation system has only the zero solution.

    At the trivial solution every inequality of the deformation polytope is
    strict and every edge scale sits at 1, interior to its sign constraint,
    so two-sided feasible directions exist exactly when the nullspace is
    nontrivial; a nonzero direction is returned as the witness.

    An exhaustive menu with one rigid component holding every vertex of M is
    indecomposable and exhaustive, hence extreme (Gale 1954, Shephard 1963):
    the system then has nullity d + 1 - rank [c_f | n_f] over the binding
    facets, which is 0 by the exhaustiveness rule, so it is not built.
    """
    if facet_conditions_hold(em.binding, space):
        components = rigid_components(em)
        if components and len(components[0]) == len(em.vertices):
            return ExtremalityVerdict(extreme=True, nullity=0)
    system = build_deformation_system(em, space)
    basis = nullspace(system.rows, system.ncols)
    if not basis:
        return ExtremalityVerdict(extreme=True, nullity=0)
    direction = _decode_direction(as_vec(basis[0]), em, space.dim)
    return ExtremalityVerdict(extreme=False, nullity=len(basis), direction=direction)


def rigid_components(em: ExtendedMenu) -> tuple:
    """Vertex index sets of M's rigid components, largest first.

    A triangle is a 3-cycle i < j < k of the bounded edge graph, found on each
    edge (i, j) as a common neighbour k > j of i and j. Triangles that share an
    edge belong to one component: a union-find over the edges joins each
    triangle's three. On a component every edge scale is one lam and every
    displacement is lam v + t. Vertices on no triangle lie in no component.
    """
    nbrs = [set() for _ in em.vertices]
    for i, j in em.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    index = {e: k for k, e in enumerate(em.edges)}
    parent = list(range(len(em.edges)))

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    on_triangles = []
    for i, j in em.edges:
        for k in nbrs[i] & nbrs[j]:
            if k > j:
                triangle = (index[(i, j)], index[(i, k)], index[(j, k)])
                root = find(triangle[0])
                for e in triangle[1:]:
                    parent[find(e)] = root
                on_triangles.extend(triangle)
    members = {}
    for e in on_triangles:
        members.setdefault(find(e), set()).update(em.edges[e])
    return tuple(sorted((tuple(sorted(c)) for c in members.values()), key=lambda c: (-len(c), c)))


def _decode_direction(vec, em: ExtendedMenu, d: int) -> DeformationDirection:
    n = len(em.vertices)
    psi = tuple(tuple(vec[i * d + c] for c in range(d)) for i in range(n))
    mu = tuple(vec[n * d + k] for k in range(len(em.edges)))
    if all(is_zero(p) for p in psi):
        raise geo.InternalError("nullspace direction with zero displacements (internal)")
    return DeformationDirection(psi=psi, mu=mu)


# ---------------------------------------------------------------------------
# decomposition extraction and verification


def extract_decomposition(
    em: ExtendedMenu, space: AllocationSpace, direction: DeformationDirection
) -> DecompositionCertificate:
    """Largest symmetric step along the direction, halved for strictness.

    The direction is checked on M's own edges and facet incidences. The step
    is space.step_bound on the vertex moves, capped so that every edge scale
    1 +- eps*mu stays nonnegative. The certificate is proved correct by
    verify_certificate before it is returned; a failed proof raises
    GeometryError.
    """
    _require_direction_in_nullspace(em, space, direction)
    eps = min([space.step_bound(zip(em.vertices, direction.psi))]
              + [Fraction(1) / abs(m) for m in direction.mu if m]) / 2
    plus = _displace(em.vertices, direction.psi, eps)
    minus = _displace(em.vertices, direction.psi, -eps)
    if space.veto is not None:
        # an absorbed veto stays inside both summand extensions (IR survives
        # convex decomposition); re-listing it leaves support values unchanged
        if space.veto not in plus:
            plus = plus + (space.veto,)
        if space.veto not in minus:
            minus = minus + (space.veto,)
    cert = DecompositionCertificate(direction=direction, epsilon=eps, menu_plus=plus, menu_minus=minus)
    res = verify_certificate(cert, em, space)
    if not res:
        raise geo.InternalError(f"decomposition certificate failed verification: {res.failure} (internal)")
    return cert


def _require_direction_in_nullspace(em, space, direction):
    """The deformation equations, read off M: psi_i - psi_j = mu_k (v_i - v_j)
    on each bounded edge k = (i, j), and n_f . psi_i = 0 for f in F(v_i)."""
    psi, mu = direction.psi, direction.mu
    if (len(psi) != len(em.vertices) or len(mu) != len(em.edges)
            or any(len(p) != space.dim for p in psi)):
        raise geo.GeometryError("direction has wrong shape for this menu")
    if all(is_zero(p) for p in psi) and not any(mu):
        raise geo.GeometryError("direction must be nonzero")
    vs = em.vertices
    slides = all(vsub(psi[i], psi[j]) == vscale(vsub(vs[i], vs[j]), m)
                 for (i, j), m in zip(em.edges, mu))
    if not slides or any(space.facets[f].value(psi[i])
                         for i, fs in enumerate(em.facet_incidence) for f in fs):
        raise geo.GeometryError("direction is not in the deformation nullspace")


def _displace(vertices, psi, eps):
    out = []
    for v, p in zip(vertices, psi):
        w = vadd(v, vscale(p, eps))
        if w not in out:
            out.append(w)
    return tuple(out)


def verify_certificate(cert: DecompositionCertificate, em: ExtendedMenu, space: AllocationSpace) -> VerificationResult:
    """Complete exact proof that M = (P + Q) / 2.

    Here P = conv(menu_plus) + C and Q = conv(menu_minus) + C, with C the
    recession cone of M, so (P + Q) / 2 = conv{(p + q) / 2} + C. Both summands
    must be distinct valid menus: nonempty, without duplicates, inside A, and
    holding the veto allocation when A has one (IR). Then two finite checks
    decide the identity:

    (a) h_P(n) + h_Q(n) = 2 h_M(n) for every halfspace n . x <= b of M
        (facets and affine-hull cutters), so every pairwise midpoint lies in
        M and (P + Q) / 2 is inside M. Every halfspace of M is tight at a
        vertex, so h_M(n) is its offset b;
    (b) every vertex v of M has some p in menu_plus with 2v - p in
        menu_minus, so every vertex is a midpoint and M is inside (P + Q) / 2.
    """
    plus = list(cert.menu_plus)
    minus = list(cert.menu_minus)
    if not plus or not minus:
        return VerificationResult(False, "empty summand menu")
    for name, items in (("plus", plus), ("minus", minus)):
        if len(set(items)) != len(items):
            return VerificationResult(False, f"duplicate items in menu_{name}")
        for p in items:
            if not space.contains(p):
                return VerificationResult(False, f"menu_{name} item {p} outside A")
    if space.veto is not None:
        if space.veto not in plus or space.veto not in minus:
            return VerificationResult(False, "veto allocation missing from a summand (IR)")
    if set(plus) == set(minus):
        return VerificationResult(False, "summands are identical")
    hs = em.poly.halfspaces
    normals = [h.normal for h in hs]
    for h, h_p, h_n in zip(hs, geo.support_values(plus, normals), geo.support_values(minus, normals)):
        if h_p + h_n != 2 * h.offset:
            return VerificationResult(False, "support identity failed")
    minus_set = set(minus)
    for v in em.vertices:
        if not any(tuple(2 * a - b for a, b in zip(v, p)) in minus_set for p in plus):
            return VerificationResult(False, f"vertex {v} of M is no midpoint of the summands")
    return VerificationResult(True)


# ---------------------------------------------------------------------------
# deformation-polytope cross-check


def def_polytope_cross_check(em: ExtendedMenu, space: AllocationSpace) -> bool:
    """Vertex test on the lifted deformation polytope; must agree with
    is_extreme_finite.

    Variables are one offset per facet-defining hyperplane of M (the extended
    menu's own halfspace list, which carries affine-hull cutters for
    lower-dimensional menus) plus one point per vertex. Active constraints at
    the trivial point are the vertex-incidence equalities and the touched
    allocation facets; the menu is extreme iff their normals have full rank.
    """
    d = space.dim
    hm = em.poly.halfspaces
    k = len(hm)
    n = len(em.vertices)
    ncols = k + d * n
    rows = []
    for i in range(n):
        for h_idx in sorted(em.poly.incidence[i]):
            row = {k + i * d + c: a for c, a in enumerate(hm[h_idx].normal) if a}
            row[h_idx] = -1
            rows.append(row)
        for f in sorted(em.facet_incidence[i]):
            rows.append({k + i * d + c: a for c, a in enumerate(space.facets[f].normal) if a})
    pivots, _ = rref_sparse(rows, ncols)
    return len(pivots) == ncols
