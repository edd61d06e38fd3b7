"""Complete d=2 classification via the boundary partition and flexible chains.

Vertices of the extended menu are ordered clockwise (with a sentinel at both
ends when the type cone is restricted and the menu is unbounded) and split
into four classes: corners of A, interior points, and boundary points with or
without a co-edge neighbour. A menu of three or more vertices fails to be an
extreme point exactly when this ordering contains a flexible chain; for the
all-boundary cycle case the test is the exact equality of squared-sine
products, which is rational and avoids irrational norms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from .exhaustive import ExhaustivenessReport, is_exhaustive
from .geometry import dot, vsub
from .model import AllocationSpace, ExtendedMenu

SENTINEL = "*"


class PlanarError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryPartition:
    order: tuple  # vertex indices, clockwise
    sentinels: bool  # True when cone is restricted (unbounded extension)
    corner: frozenset  # V: ext M on ext A
    interior: frozenset  # I: ext M in int A
    boundary_lone: frozenset  # B1: on bd A, no co-edge menu neighbour
    boundary_paired: frozenset  # B2: on bd A with a co-edge menu neighbour

    def label(self, idx) -> str:
        if idx in self.corner:
            return "V"
        if idx in self.interior:
            return "I"
        if idx in self.boundary_lone:
            return "B1"
        return "B2"


@dataclass(frozen=True)
class Chain:
    elements: tuple  # vertex indices, with SENTINEL markers at restricted ends
    case: str  # "endpoint" | "closed-chain" | "all-B1-cycle"
    sine_sq_products: tuple | None = None  # (prod sin^2 alpha, prod sin^2 beta)


@dataclass(frozen=True)
class PlanarVerdict:
    extreme: bool
    method: str  # "small-menu" | "chain-search"
    chain: Chain | None = None
    exhaustiveness: ExhaustivenessReport | None = None


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _clockwise_cycle(points):
    """Indices of the points (convex position) in clockwise order, starting at
    the lexicographically smallest point."""
    n = len(points)
    idx = list(range(n))
    c0 = min(points)
    # angular sort around the centroid, then fix chirality by the signed area
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n

    def half(i):
        dx, dy = points[i][0] - cx, points[i][1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        c = _cross(vsub(points[i], (cx, cy)), vsub(points[j], (cx, cy)))
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    idx.sort(key=functools.cmp_to_key(compare))
    area2 = Fraction(0)
    for k in range(n):
        area2 += _cross(points[idx[k]], points[idx[(k + 1) % n]])
    if area2 > 0:  # counterclockwise; flip
        idx.reverse()
    s = idx.index(points.index(c0))
    return idx[s:] + idx[:s]


def _order_vertices(em: ExtendedMenu):
    """Clockwise vertex order; (order, sentinels)."""
    n = len(em.vertices)
    sentinels = bool(em.poly.rays)
    if n == 1:
        return [0], sentinels
    adj = {i: [] for i in range(n)}
    for (i, j) in em.edges:
        adj[i].append(j)
        adj[j].append(i)
    if not sentinels:
        if n == 2:
            order = sorted(range(n), key=lambda i: em.vertices[i])
            return order, False
        return _clockwise_cycle(list(em.vertices)), False
    # unbounded: bounded edges form a path; ends carry the unbounded edges
    ends = [i for i in range(n) if len(adj[i]) == 1]
    if n == 2 and not em.edges:
        ends = [0, 1]
    if len(ends) != 2:
        raise geo.InternalError("planar path structure violated (internal)")
    end_ray = {}
    for f in geo.faces(em.poly, 1):
        if not f.bounded:
            vi = [g for g in f.generator_indices if g < n]
            ri = [g - n for g in f.generator_indices if g >= n]
            if len(vi) == 1 and len(ri) == 1:
                end_ray.setdefault(vi[0], []).append(em.poly.rays[ri[0]])
    order = None
    for start in sorted(ends):
        path = [start]
        prev = None
        cur = start
        while len(path) < n:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            path.append(cur)
        if len(path) != n:
            raise geo.InternalError("planar path traversal failed (internal)")
        rs = end_ray.get(start, [])
        if not rs:
            raise geo.InternalError("path end without unbounded edge (internal)")
        incoming = tuple(-Fraction(x) for x in rs[0])
        step = vsub(em.vertices[path[1]], em.vertices[path[0]])
        c = _cross(incoming, step)
        if c < 0:
            order = path
            break
        if c == 0:
            raise geo.InternalError("unbounded edge collinear with first step (internal)")
    if order is None:
        raise geo.InternalError("could not orient planar path clockwise (internal)")
    return order, True


def partition_boundary(em: ExtendedMenu, space: AllocationSpace) -> BoundaryPartition:
    """Clockwise boundary partition of ext M into V, I, B1, B2."""
    if space.dim != 2:
        raise PlanarError(f"planar classifier requires d = 2, got d = {space.dim}")
    order, sentinels = _order_vertices(em)
    ext_a = set(space.poly.points)
    corner, interior, b1, b2 = set(), set(), set(), set()
    for i, v in enumerate(em.vertices):
        if v in ext_a:
            corner.add(i)
        elif not em.facet_incidence[i]:
            interior.add(i)
        else:
            paired = any(
                j != i and em.facet_incidence[i] & em.facet_incidence[j]
                for j in range(len(em.vertices))
            )
            (b2 if paired else b1).add(i)
    return BoundaryPartition(
        order=tuple(order),
        sentinels=sentinels,
        corner=frozenset(corner),
        interior=frozenset(interior),
        boundary_lone=frozenset(b1),
        boundary_paired=frozenset(b2),
    )


def find_flexible_chain(partition: BoundaryPartition, em: ExtendedMenu, space: AllocationSpace):
    """First flexible chain in the clockwise ordering, or None.

    Case 1: a contiguous run whose endpoints are interior, co-edge boundary
    points, or sentinels, avoiding corners of A throughout; a 2-element run of
    real vertices must not lie inside the boundary of A. Case 2: the whole
    vertex set is a lone-boundary cycle of even length over an unrestricted
    cone whose squared-sine products agree.
    """
    order = list(partition.order)
    n = len(order)
    ok_end = partition.interior | partition.boundary_paired
    not_corner = ok_end | partition.boundary_lone

    if partition.sentinels:
        elements = [SENTINEL] + order + [SENTINEL]
        if n == 0:
            raise geo.InternalError("two-sentinel chain on an empty menu (internal)")
        m = len(elements)
        for length in range(2, m + 1):
            for start in range(0, m - length + 1):
                seq = elements[start:start + length]
                ch = _endpoint_chain(seq, ok_end, not_corner, em, space)
                if ch:
                    return ch
    else:
        for length in range(2, n + 1):
            for start in range(n):
                seq = [order[(start + k) % n] for k in range(length)]
                ch = _endpoint_chain(seq, ok_end, not_corner, em, space)
                if ch:
                    return ch
        # closed chain: the whole cycle anchored at a single interior vertex
        # (every hyperplane translates; the interior anchor reconnects freely).
        # With two or more interior/co-edge vertices an open chain between
        # them exists and was found above.
        if n >= 3:
            anchors = [i for i in order if i in partition.interior]
            if len(anchors) == 1 and all(
                i in partition.boundary_lone or i == anchors[0] for i in order
            ):
                s = order.index(anchors[0])
                seq = [order[(s + k) % n] for k in range(n)] + [anchors[0]]
                return Chain(elements=tuple(seq), case="closed-chain")
        if (
            n >= 4
            and n % 2 == 0
            and partition.boundary_lone == frozenset(range(len(em.vertices)))
        ):
            prod_a, prod_b = _sine_sq_products(order, em, space)
            if prod_a == prod_b:
                return Chain(
                    elements=tuple(order),
                    case="all-B1-cycle",
                    sine_sq_products=(prod_a, prod_b),
                )
    return None


def _endpoint_chain(seq, ok_end, not_corner, em, space):
    first, last = seq[0], seq[-1]
    for e in (first, last):
        if e != SENTINEL and e not in ok_end:
            return None
    for e in seq[1:-1]:
        if e == SENTINEL:
            raise geo.InternalError("sentinel in chain interior (internal)")
        if e not in not_corner:
            return None
    if len(seq) == 2:
        if first == SENTINEL and last == SENTINEL:
            raise geo.InternalError("two-sentinel chain on a nonempty menu (internal)")
        if first != SENTINEL and last != SENTINEL:
            # the connecting edge must not run inside the boundary of A
            if em.facet_incidence[first] & em.facet_incidence[last]:
                return None
    return Chain(elements=tuple(seq), case="endpoint")


def _sine_sq_products(order, em: ExtendedMenu, space: AllocationSpace):
    """Exact squared-sine products for the all-B1 cycle angle condition."""
    a_cycle = _clockwise_cycle(list(space.poly.points))
    a_pts = space.poly.points
    n = len(order)
    prod_a = Fraction(1)
    prod_b = Fraction(1)
    for k in range(n):
        v_idx = order[k]
        v = em.vertices[v_idx]
        u = em.vertices[order[(k - 1) % n]]
        w = em.vertices[order[(k + 1) % n]]
        fset = em.facet_incidence[v_idx]
        if len(fset) != 1:
            raise geo.InternalError("B1 vertex with multiple facets (internal)")
        f = next(iter(fset))
        ends = [i for i in a_cycle if space.facets[f].tight_at(a_pts[i])]
        if len(ends) != 2:
            raise geo.InternalError("planar facet without two corners (internal)")
        # a precedes b on A's clockwise boundary
        i0 = a_cycle.index(ends[0])
        i1 = a_cycle.index(ends[1])
        if (i0 + 1) % len(a_cycle) == i1:
            a_pt, b_pt = a_pts[ends[0]], a_pts[ends[1]]
        elif (i1 + 1) % len(a_cycle) == i0:
            a_pt, b_pt = a_pts[ends[1]], a_pts[ends[0]]
        else:
            raise geo.InternalError("facet corners not adjacent on A (internal)")
        prod_a *= _sin_sq(vsub(u, v), vsub(a_pt, v))
        prod_b *= _sin_sq(vsub(w, v), vsub(b_pt, v))
    return prod_a, prod_b


def _sin_sq(u, v) -> Fraction:
    c = _cross(u, v)
    nu = dot(u, u)
    nv = dot(v, v)
    if nu == 0 or nv == 0:
        raise geo.InternalError("degenerate angle leg (internal)")
    return c * c / (nu * nv)


def classify_2d(em: ExtendedMenu, space: AllocationSpace) -> PlanarVerdict:
    """Extreme iff (menu size <= 2 and exhaustive) or (size >= 3, no chain)."""
    if space.dim != 2:
        raise PlanarError(f"classify_2d requires d = 2, got d = {space.dim}")
    if len(em.vertices) <= 2:
        rep = is_exhaustive(em, space)
        return PlanarVerdict(extreme=rep.exhaustive, method="small-menu", exhaustiveness=rep)
    part = partition_boundary(em, space)
    chain = find_flexible_chain(part, em, space)
    return PlanarVerdict(extreme=chain is None, method="chain-search", chain=chain)
