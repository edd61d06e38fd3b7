"""Extremality of finite-menu mechanisms via the deformation system.

A finite menu is an extreme point iff the homogeneous linear system built
from its bounded edges and binding allocation facets has a trivial nullspace:
unknowns are one displacement vector per vertex and one scale per bounded
edge, the edge equations force displacements to slide edges in parallel, and
the facet equations pin displacements to the touched facets of A. A nonzero
nullspace vector is a two-sided feasible deformation direction and yields a
verified Minkowski decomposition of the extended menu.

The independent cross-check encodes the same question as a vertex test on
the lifted deformation polytope (offsets of the menu's own facet-defining
hyperplanes plus one point per vertex) and must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import geometry as geo
from .geometry import as_vec, dot, is_zero, nullspace_basis, rank, solve_affine, vadd, vscale, vsub
from .model import AllocationSpace, ExtendedMenu, Menu, TypeCone, extend_menu

@dataclass(frozen=True)
class DeformationSystem:
    """Homogeneous system whose nullspace decides extremality.

    Columns: d coordinates of psi_a per vertex (vertex-major), then one mu_e
    per bounded edge. Rows: the edge equations mu_e (a - b) = psi_a - psi_b
    and the facet equations psi_a . n_H = 0 for H in F(a). The inequality
    family (facets not touched by a) is strict at the trivial solution and is
    recorded with its slack.
    """

    vertices: tuple
    edges: tuple
    rows: tuple
    ncols: int
    strict_slacks: tuple  # (vertex_index, facet_index, positive slack)

    def psi_col(self, vertex: int, coord: int) -> int:
        d = len(self.vertices[0])
        return vertex * d + coord

    def mu_col(self, edge: int) -> int:
        d = len(self.vertices[0])
        return len(self.vertices) * d + edge


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
    failing_direction: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def build_deformation_system(em: ExtendedMenu, space: AllocationSpace) -> DeformationSystem:
    d = space.dim
    n = len(em.vertices)
    ncols = d * n + len(em.edges)
    rows = []
    for k, (i, j) in enumerate(em.edges):
        diff = vsub(em.vertices[i], em.vertices[j])
        for c in range(d):
            row = [Fraction(0)] * ncols
            row[d * n + k] = diff[c]
            row[i * d + c] -= 1
            row[j * d + c] += 1
            rows.append(tuple(row))
    for i, v in enumerate(em.vertices):
        for f in sorted(em.facet_incidence[i]):
            h = space.facets[f]
            row = [Fraction(0)] * ncols
            for c in range(d):
                row[i * d + c] = Fraction(h.normal[c])
            rows.append(tuple(row))
    slacks = []
    for i, v in enumerate(em.vertices):
        for f in range(len(space.facets)):
            if f in em.facet_incidence[i]:
                continue
            h = space.facets[f]
            s = h.offset - h.value(v)
            if s <= 0:
                raise geo.GeometryError("non-incident facet without slack (internal)")
            slacks.append((i, f, s))
    return DeformationSystem(
        vertices=em.vertices,
        edges=em.edges,
        rows=tuple(rows),
        ncols=ncols,
        strict_slacks=tuple(slacks),
    )


def is_extreme_finite(em: ExtendedMenu, space: AllocationSpace) -> ExtremalityVerdict:
    """Extreme iff the deformation system has only the zero solution.

    At the trivial solution every inequality of the deformation polytope is
    strict and every edge scale sits at 1, interior to its sign constraint,
    so two-sided feasible directions exist exactly when the nullspace is
    nontrivial; a nonzero direction is returned as the witness.
    """
    system = build_deformation_system(em, space)
    rows = list(system.rows)
    if not rows:
        rows = [tuple([Fraction(0)] * system.ncols)]
    basis = nullspace_basis(rows)
    if not basis:
        return ExtremalityVerdict(extreme=True, nullity=0)
    direction = _decode_direction(basis[0], em, space.dim)
    return ExtremalityVerdict(extreme=False, nullity=len(basis), direction=direction)


def _decode_direction(vec, em: ExtendedMenu, d: int) -> DeformationDirection:
    n = len(em.vertices)
    psi = tuple(tuple(vec[i * d + c] for c in range(d)) for i in range(n))
    mu = tuple(vec[n * d + k] for k in range(len(em.edges)))
    if all(is_zero(p) for p in psi):
        raise geo.GeometryError("nullspace direction with zero displacements (internal)")
    return DeformationDirection(psi=psi, mu=mu)


# ---------------------------------------------------------------------------
# decomposition extraction and verification


def extract_decomposition(
    em: ExtendedMenu, space: AllocationSpace, direction: DeformationDirection
) -> DecompositionCertificate:
    """Largest symmetric step along the direction, halved for strictness.

    The step keeps every untouched allocation facet satisfied on both sides
    and every edge scale 1 +- eps*mu nonnegative. The resulting certificate
    is proved correct by verify_certificate before it is returned; a failed
    proof raises GeometryError.
    """
    _require_direction_in_nullspace(em, space, direction)
    eps = Fraction(1)
    for i, v in enumerate(em.vertices):
        psi = direction.psi[i]
        for f in range(len(space.facets)):
            if f in em.facet_incidence[i]:
                continue
            h = space.facets[f]
            drift = dot(as_vec(h.normal), psi)
            if drift != 0:
                eps = min(eps, (h.offset - h.value(v)) / abs(drift))
    for m in direction.mu:
        if m != 0:
            eps = min(eps, Fraction(1) / abs(m))
    eps = eps / 2
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
        raise geo.GeometryError(f"decomposition certificate failed verification: {res.failure} (internal)")
    return cert


def _int_menu(items):
    """Scale a rational menu to an integer matrix; returns (rows, scale)."""
    scale = 1
    for v in items:
        for c in v:
            scale = scale * c.denominator // gcd(scale, c.denominator)
    rows = [tuple(int(c * scale) for c in v) for v in items]
    return rows, scale


def _isupport(rows, normal):
    """Exact integer support value max_r r . normal."""
    best = None
    for r in rows:
        s = 0
        for a, b in zip(r, normal):
            s += a * b
        if best is None or s > best:
            best = s
    return best


def _require_direction_in_nullspace(em, space, direction):
    system = build_deformation_system(em, space)
    flat = [x for p in direction.psi for x in p] + list(direction.mu)
    if len(flat) != system.ncols:
        raise geo.GeometryError("direction has wrong shape for this menu")
    if all(x == 0 for x in flat):
        raise geo.GeometryError("direction must be nonzero")
    for row in system.rows:
        if dot(as_vec(row), as_vec(flat)) != 0:
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
        M and (P + Q) / 2 is inside M;
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
            for h in space.facets:
                if not h.contains(p):
                    return VerificationResult(
                        False, f"menu_{name} item {p} outside A", as_vec(h.normal)
                    )
    if space.veto is not None:
        if space.veto not in plus or space.veto not in minus:
            return VerificationResult(False, "veto allocation missing from a summand (IR)")
    if set(plus) == set(minus):
        return VerificationResult(False, "summands are identical")
    rows_m, s_m = _int_menu(em.vertices)
    rows_p, s_p = _int_menu(plus)
    rows_n, s_n = _int_menu(minus)
    for h in em.poly.halfspaces:
        h_m = Fraction(_isupport(rows_m, h.normal), s_m)
        h_p = Fraction(_isupport(rows_p, h.normal), s_p)
        h_n = Fraction(_isupport(rows_n, h.normal), s_n)
        if h_p + h_n != 2 * h_m:
            return VerificationResult(False, "support identity failed", tuple(h.normal))
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
            row = [Fraction(0)] * ncols
            row[h_idx] = Fraction(-1)
            for c in range(d):
                row[k + i * d + c] = Fraction(hm[h_idx].normal[c])
            rows.append(row)
        for f in sorted(em.facet_incidence[i]):
            row = [Fraction(0)] * ncols
            for c in range(d):
                row[k + i * d + c] = Fraction(space.facets[f].normal[c])
            rows.append(row)
    return rank(rows) == ncols


def is_deformation(em: ExtendedMenu, other: ExtendedMenu) -> bool:
    """Whether `other` is a deformation of `em`: parallel translates of em's
    facet-defining hyperplanes whose vertex-defining intersections survive.

    Offsets are read off as support values of `other`; each vertex-defining
    intersection must resolve to a single point that is a vertex of `other`,
    and the translated halfspaces must cut out exactly `other`.
    """
    if em.dim != other.dim:
        raise geo.GeometryError("ambient dimension mismatch")
    hm = em.poly.halfspaces
    offsets = []
    for h in hm:
        offsets.append(max(dot(as_vec(h.normal), v) for v in other.vertices))
    for r in other.poly.rays:
        for h in hm:
            if geo._idot(h.normal, r) > 0:
                return False
    vertex_set = set(other.vertices)
    for i in range(len(em.vertices)):
        inc = sorted(em.poly.incidence[i])
        normals = [hm[j].normal for j in inc]
        rhs = [offsets[j] for j in inc]
        if rank(normals) != em.dim:
            raise geo.GeometryError("vertex with deficient incidence rank (internal)")
        z = solve_affine(normals, rhs)
        if z is None:
            return False
        # uniqueness given full rank; z must survive as a vertex
        if z not in vertex_set:
            return False
    translated = [geo.Hyperplane.make(h.normal, c) for h, c in zip(hm, offsets)]
    rebuilt = geo.polyhedron_from_halfspaces(translated)
    return rebuilt.points == other.poly.points and rebuilt.rays == other.poly.rays


def decomposition_summand_menus(cert: DecompositionCertificate):
    """The two summand menus as Menu objects (deduplicated item tuples)."""
    return Menu(items=cert.menu_plus), Menu(items=cert.menu_minus)


def summand_extended_menus(cert, cone: TypeCone, space: AllocationSpace):
    mp, mm = decomposition_summand_menus(cert)
    return extend_menu(mp, cone, space), extend_menu(mm, cone, space)
