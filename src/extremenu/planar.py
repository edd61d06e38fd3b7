"""Complete d=2 classification via the boundary partition and flexible chains.

Vertices of the extended menu are ordered clockwise by walking its edges
(with a sentinel at both ends when the type cone is restricted and the menu
is unbounded) and split into four classes: corners of A, interior points, and
boundary points with or without a co-edge neighbour. A menu of three or more
vertices fails to be an extreme point exactly when this ordering contains a
flexible chain; for the all-boundary cycle case the test is the exact
equality of squared-sine products, which is rational and avoids irrational
norms. A facet's two corners are ordered clockwise by the side of the step
between them on which its outward normal points, so A is never ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from .exhaustive import is_exhaustive
from .geometry import dot, vsub
from .model import AllocationSpace, ExtendedMenu, ScenarioError

SENTINEL = "*"


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


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _walk(adj, start, first, n):
    """The n vertices met walking the edge graph from start through first."""
    path = [start, first]
    while len(path) < n:
        step = [x for x in adj[path[-1]] if x != path[-2]]
        if not step:
            raise geo.InternalError("planar path traversal failed (internal)")
        path.append(step[0])
    return path


def _order_vertices(em: ExtendedMenu):
    """Clockwise vertex order read off M's edges; (order, sentinels).

    A bounded M is walked from vertex 0, the lexicographically smallest,
    towards the neighbour that turns clockwise. An unbounded M's bounded edges
    form a path whose ends carry the unbounded edges; it is walked from the
    end where the incoming ray turns clockwise into the first step.
    """
    vs = em.vertices
    n = len(vs)
    sentinels = bool(em.poly.rays)
    if n == 1:
        return [0], sentinels
    adj = {i: [] for i in range(n)}
    for (i, j) in em.edges:
        adj[i].append(j)
        adj[j].append(i)
    if not sentinels:
        first, *other = adj[0]
        if other and _cross(vsub(vs[first], vs[0]), vsub(vs[other[0]], vs[0])) > 0:
            first = other[0]
        return _walk(adj, 0, first, n), False
    ends = [i for i in range(n) if len(adj[i]) == 1]
    if len(ends) != 2:
        raise geo.InternalError("planar path structure violated (internal)")
    end_ray = {}
    for i, j in em.ray_edges:
        end_ray.setdefault(i, em.poly.rays[j - n])
    for start in ends:
        if start not in end_ray:
            raise geo.InternalError("path end without unbounded edge (internal)")
        path = _walk(adj, start, adj[start][0], n)
        incoming = tuple(-x for x in end_ray[start])
        c = _cross(incoming, vsub(vs[path[1]], vs[path[0]]))
        if c < 0:
            return path, True
        if c == 0:
            raise geo.InternalError("unbounded edge collinear with first step (internal)")
    raise geo.InternalError("could not orient planar path clockwise (internal)")


def partition_boundary(em: ExtendedMenu, space: AllocationSpace) -> BoundaryPartition:
    """Clockwise boundary partition of ext M into V, I, B1, B2."""
    if space.dim != 2:
        raise ScenarioError(f"planar classifier requires d = 2, got d = {space.dim}")
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
        a_pt, b_pt = _facet_corners(space, next(iter(fset)))
        prod_a *= _sin_sq(vsub(u, v), vsub(a_pt, v))
        prod_b *= _sin_sq(vsub(w, v), vsub(b_pt, v))
    return prod_a, prod_b


def _facet_corners(space: AllocationSpace, f):
    """The two corners of A on facet f in clockwise order: walking clockwise,
    the outward normal points left of the step from the first to the second."""
    h = space.facets[f]
    ends = [p for p, inc in zip(space.poly.points, space.poly.incidence) if f in inc]
    if len(ends) != 2:
        raise geo.InternalError("planar facet without two corners (internal)")
    a, b = ends
    return (b, a) if _cross(h.normal, vsub(b, a)) > 0 else (a, b)


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
        raise ScenarioError(f"classify_2d requires d = 2, got d = {space.dim}")
    if len(em.vertices) <= 2:
        return PlanarVerdict(extreme=is_exhaustive(em, space).exhaustive, method="small-menu")
    part = partition_boundary(em, space)
    chain = find_flexible_chain(part, em, space)
    return PlanarVerdict(extreme=chain is None, method="chain-search", chain=chain)
