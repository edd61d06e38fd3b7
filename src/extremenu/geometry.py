"""Exact rational linear algebra and polyhedral computation.

Everything here is exact: coordinates are ``fractions.Fraction`` and
hyperplane normals are primitive integer vectors. Rank is decided by
integer elimination, incidence by cross-multiplying an integer numerator and
denominator of normal . x with the offset. V -> H takes no rank and no
incidence test: the double description's zero sets give each generator's
tight halfspaces, and minimal generators are those whose tight set no other
generator's contains. ``faces`` returns the edges only, as generator index
pairs from the combinatorial adjacency test on incidence sets, and
``support_values`` is the one exact support function of a point set. A
point's decomposition into generators comes from Carathéodory ray shooting
on the face lattice. The one LP, in standard form max c.x s.t. a_ub x <=
b_ub, a_eq x = b_eq, x >= 0 stated as plain rows, is read off the double
description and serves only the monopoly forward-segment test. Floating
point never appears. The scale target is
small (ambient dimension <= 6, tens of generators/halfspaces), so the
algorithms favour determinism and verifiability over asymptotics.

Vectors are tuples of Fractions. A polyhedron carries both descriptions
(irredundant halfspaces and minimal generators) plus generator/halfspace
incidence, with canonical ordering so outputs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .kernels import nullspace, rref_sparse

Vec = tuple  # tuple[Fraction, ...]


class GeometryError(ValueError):
    """Raised for invalid geometric input (dimension mismatch, lines, ...)."""


class InternalError(GeometryError):
    """A violated invariant of the core: a fault in the program, not the input."""


# ---------------------------------------------------------------------------
# scalars and vectors


def frac(x) -> Fraction:
    """Coerce an int (not a bool), Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, float):
        raise GeometryError(f"refusing float {x!r}: exact rationals only")
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise GeometryError(f"cannot interpret {x!r} as a rational")


def as_vec(coords) -> Vec:
    return tuple(frac(c) for c in coords)


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise GeometryError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(u, s) -> Vec:
    s = frac(s)
    return tuple(a * s for a in u)


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def zero_vec(d: int) -> Vec:
    return (Fraction(0),) * d


def unit_vec(d: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(d))


def primitive(u) -> tuple:
    """Scale a rational vector by a positive rational to coprime integers.

    The zero vector maps to integer zeros. Orientation is preserved.
    """
    if all(type(a) is int for a in u):
        ints = list(u)
    else:
        u = [frac(a) for a in u]
        den = lcm(*(a.denominator for a in u))
        ints = [a.numerator * (den // a.denominator) for a in u]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _sparse_int_rows(matrix):
    """Clear denominators per row and return sparse integer rows."""
    rows = []
    for r in matrix:
        ints = primitive(r)
        rows.append({c: v for c, v in enumerate(ints) if v != 0})
    return rows


# ---------------------------------------------------------------------------
# rank / nullspace / linear solve


def rank(matrix) -> int:
    """Rank over the rationals via exact elimination. Empty matrix has rank 0."""
    matrix = list(matrix)
    if not matrix:
        return 0
    ncols = len(matrix[0])
    for r in matrix:
        if len(r) != ncols:
            raise GeometryError("rank: rows must all have the same length")
    pivots, _ = rref_sparse(_sparse_int_rows(matrix), ncols)
    return len(pivots)


def nullspace_basis(matrix) -> list:
    """Basis of {x : Mx = 0} for a dense rational matrix, as primitive integer
    vectors (Fractions); see kernels.nullspace for the order.
    """
    matrix = list(matrix)
    if not matrix:
        return []
    return [as_vec(v) for v in nullspace(_sparse_int_rows(matrix), len(matrix[0]))]


def solve_affine(matrix, rhs):
    """One exact solution of M x = b, or None if inconsistent.

    Free variables are set to 0 (deterministic particular solution).
    """
    matrix = list(matrix)
    rhs = list(rhs)
    if not matrix:
        return None if any(b != 0 for b in rhs) else ()
    ncols = len(matrix[0])
    aug = [tuple(r) + (frac(b),) for r, b in zip(matrix, rhs)]
    pivots, reduced = rref_sparse(_sparse_int_rows(aug), ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for pc, row in zip(pivots, reduced):
        x[pc] = Fraction(row.get(ncols, 0), row[pc])
    return tuple(x)


# ---------------------------------------------------------------------------
# hyperplanes


def _int_dot(normal, x):
    """Integer normal . rational x as an unreduced (numerator, denominator > 0)."""
    if len(normal) != len(x):
        raise GeometryError(f"dimension mismatch: {len(normal)} vs {len(x)}")
    num, den = 0, 1
    for a, c in zip(normal, x):
        if a:
            q = c.denominator
            if q == den:
                num += a * c.numerator
            else:
                num = num * q + a * c.numerator * den
                den *= q
    return num, den


@dataclass(frozen=True)
class Hyperplane:
    """Halfspace {x : normal . x <= offset} with primitive integer normal.

    Stored canonically: the normal's entries are coprime integers (sign of the
    leading entry preserved, so orientation survives), the offset is scaled to
    match. Canonical storage makes equality testing exact.
    """

    normal: tuple
    offset: Fraction

    @staticmethod
    def make(normal, offset) -> "Hyperplane":
        normal = as_vec(normal)
        if is_zero(normal):
            raise GeometryError("hyperplane normal must be nonzero")
        offset = frac(offset)
        prim = primitive(normal)
        # scale factor from original to primitive (positive by construction)
        for a, b in zip(normal, prim):
            if a != 0:
                scale = Fraction(b, 1) / a
                break
        return Hyperplane(prim, offset * scale)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def value(self, x) -> Fraction:
        return Fraction(*_int_dot(self.normal, x))

    def contains(self, x) -> bool:
        num, den = _int_dot(self.normal, x)
        return num * self.offset.denominator <= self.offset.numerator * den

    def tight_at(self, x) -> bool:
        num, den = _int_dot(self.normal, x)
        return num * self.offset.denominator == self.offset.numerator * den

    def project(self, x) -> Vec:
        """Orthogonal projection of x onto the hyperplane normal . y = offset."""
        n = as_vec(self.normal)
        return vadd(x, vscale(n, (self.offset - dot(n, x)) / dot(n, n)))

    def flipped(self) -> "Hyperplane":
        return Hyperplane(tuple(-a for a in self.normal), -self.offset)

    def key(self):
        return (self.normal, self.offset)


# ---------------------------------------------------------------------------
# double description on cones

# A cone is {x in R^n : a . x <= 0 for each constraint a}. The routine returns
# a minimal generator description (lineality basis, extreme rays), processing
# constraints in the given order and keeping every vector primitive, so the
# output is reproducible.


def cone_generators(constraints, n: int):
    """Minimal (lines, rays, zero_sets) generating {x : a.x <= 0 for a in constraints}.

    zero_sets[i] is the frozenset of constraint indices tight at rays[i],
    tracked exactly through the iteration; every line is tight everywhere.
    """
    cons = [primitive(a) for a in constraints]
    for a in cons:
        if len(a) != n:
            raise GeometryError("cone constraint dimension mismatch")
    lines = [primitive(unit_vec(n, i)) for i in range(n)]
    rays = []  # list of (vector, zeroset frozenset of processed constraint idx)
    for k, a in enumerate(cons):
        if is_zero(a):
            # trivially satisfied; tight everywhere
            rays = [(r, z | {k}) for r, z in rays]
            continue
        lvals = [idot(a, l) for l in lines]
        hit = next((i for i, v in enumerate(lvals) if v != 0), None)
        if hit is not None:
            l0 = lines[hit]
            d0 = lvals[hit]
            if d0 > 0:
                l0 = tuple(-x for x in l0)
                d0 = -d0
            new_lines = []
            for i, l in enumerate(lines):
                if i == hit:
                    continue
                if lvals[i] == 0:
                    new_lines.append(l)
                else:
                    new_lines.append(primitive([d0 * x - lvals[i] * y for x, y in zip(l, l0)]))
            new_rays = []
            for r, z in rays:
                rv = idot(a, r)
                if rv == 0:
                    new_rays.append((r, z | {k}))
                else:
                    # shift along the line to the hyperplane, keeping the ray's
                    # own coefficient positive (d0 < 0 by orientation)
                    adj = primitive([(-d0) * x + rv * y for x, y in zip(r, l0)])
                    new_rays.append((adj, z | {k}))
            new_rays.append((primitive(l0), frozenset(range(k))))
            lines = new_lines
            rays = new_rays
        else:
            vals = [idot(a, r) for r, _ in rays]
            neg = [i for i, v in enumerate(vals) if v < 0]
            zero = [i for i, v in enumerate(vals) if v == 0]
            pos = [i for i, v in enumerate(vals) if v > 0]
            if pos:
                new_rays = [(rays[i][0], rays[i][1]) for i in neg]
                new_rays += [(rays[i][0], rays[i][1] | {k}) for i in zero]
                zsets = [z for _, z in rays]
                for ip in pos:
                    rp, zp = rays[ip]
                    for im in neg:
                        rm, zm = rays[im]
                        if not _adjacent(zsets, ip, im):
                            continue
                        w = primitive([vals[ip] * x - vals[im] * y for x, y in zip(rm, rp)])
                        new_rays.append((w, zp & zm | {k}))
                rays = new_rays
            else:
                rays = [(r, z | {k}) if i in zero else (r, z)
                        for i, (r, z) in enumerate(rays)]

    lines = _canonical_lines(lines, n)
    cands = {}
    for r, z in rays:
        r = reduce_mod_lines(r, lines)
        if not is_zero(r):
            cands[primitive(r)] = z
    # extreme iff the minimal face (mod lines) holds no second candidate
    out = sorted((r, z) for r, z in cands.items()
                 if not any(z <= z2 for r2, z2 in cands.items() if r2 != r))
    return lines, [r for r, _ in out], [z for _, z in out]


def _adjacent(zsets, i, j) -> bool:
    """Combinatorial adjacency: no third zero set contains zsets[i] & zsets[j]."""
    common = zsets[i] & zsets[j]
    return not any(common <= z for g, z in enumerate(zsets) if g != i and g != j)


def idot(a, b):
    return sum(x * y for x, y in zip(a, b))


def support_values(points, normals) -> list:
    """Exact support values max_p n.p of a finite point set, one per integer
    normal n; the points are scaled to one integer matrix once."""
    scale = lcm(*(c.denominator for p in points for c in p))
    rows = [[c.numerator * (scale // c.denominator) for c in p] for p in points]
    return [Fraction(max(idot(n, r) for r in rows), scale) for n in normals]


def _canonical_lines(lines, n):
    """RREF-canonical primitive basis of the span of the given vectors."""
    nonzero = [l for l in lines if not is_zero(l)]
    if not nonzero:
        return []
    _, reduced = rref_sparse([{c: v for c, v in enumerate(l) if v} for l in nonzero], n)
    return [tuple(row.get(c, 0) for c in range(n)) for row in reduced]


def reduce_mod_lines(v, lines_rref):
    """Canonical representative of v modulo the span of RREF lines."""
    v = list(v)
    for line in lines_rref:
        pc = next(c for c, x in enumerate(line) if x != 0)
        if v[pc] != 0:
            p = line[pc]
            f = v[pc]
            v = [p * x - f * y for x, y in zip(v, line)]
    return tuple(v)


# ---------------------------------------------------------------------------
# polyhedra


@dataclass(frozen=True)
class Polyhedron:
    """Dual description of a pointed polyhedron with incidence data.

    halfspaces: irredundant facet halfspaces; lower-dimensional sets carry
    their affine hull as pairs of opposite halfspaces (canonical RREF-based
    normals). points/rays: minimal generators (vertices, extreme recession
    rays). incidence[i]: indices of halfspaces tight at generator i, with
    points listed before rays. Everything is canonically ordered.
    """

    ambient_dim: int
    halfspaces: tuple
    points: tuple
    rays: tuple
    incidence: tuple
    dim: int
    is_empty: bool = False

    def contains(self, x) -> bool:
        return all(h.contains(x) for h in self.halfspaces)

    def tight_set(self, x) -> frozenset:
        return frozenset(i for i, h in enumerate(self.halfspaces) if h.tight_at(x))


def caratheodory_decomposition(poly: Polyhedron, x):
    """Write x in poly as vertices' convex combination plus rays' cone combination.

    Carathéodory by ray shooting on the face lattice: the vertex v0 of x's
    minimal face (lowest index whose incidence holds x's tight set) gives the
    direction u = x - v0; the ratio test over the halfspaces with n.u > 0 hits
    y = x + t u on a proper face, x = (y + t v0) / (1 + t), and the walk goes
    on from y. If nothing bounds the ray, u is a recession direction of the
    face and is peeled into extreme rays, each time subtracting the largest
    multiple of a ray of u's minimal face of the recession cone. Every step
    drops a face dimension, so at most poly.dim + 1 generators get weight.
    Returns (vertex_weights, ray_weights) as sorted (index, positive Fraction)
    pairs, indices into poly.points and poly.rays, after an exact replay.
    Callers pass points of poly (menu items of the extended menu), so a
    point outside it is an internal fault.
    """
    x = as_vec(x)
    hs = poly.halfspaces
    if not poly.contains(x):
        raise InternalError(f"point {tuple(map(str, x))} lies outside the polyhedron (internal)")
    n_pts = len(poly.points)
    lam, mu = {}, {}
    scale = Fraction(1)  # x = (vertex weights so far) + scale * cur
    cur = x
    while True:
        tight = poly.tight_set(cur)
        k = next(i for i in range(n_pts) if tight <= poly.incidence[i])
        u = vsub(cur, poly.points[k])
        steps = [(h.offset - h.value(cur)) / du for h in hs if (du := h.value(u)) > 0]
        if not steps:
            break
        t = min(steps)
        lam[k] = lam.get(k, 0) + scale * t / (1 + t)
        scale /= 1 + t
        cur = vadd(cur, vscale(u, t))
    lam[k] = lam.get(k, 0) + scale
    while not is_zero(u):
        vals = [h.value(u) for h in hs]
        zero = frozenset(i for i, v in enumerate(vals) if v == 0)
        j = next(j for j, r in enumerate(poly.rays) if zero <= poly.incidence[n_pts + j])
        r = poly.rays[j]
        s = min(v / nr for v, h in zip(vals, hs) if (nr := idot(h.normal, r)) < 0)
        mu[j] = scale * s
        u = vsub(u, vscale(r, s))
    vertex_weights, ray_weights = tuple(sorted(lam.items())), tuple(sorted(mu.items()))
    _replay_decomposition(poly, x, vertex_weights, ray_weights)
    return vertex_weights, ray_weights


def _replay_decomposition(poly: Polyhedron, x, vertex_weights, ray_weights):
    """Exact check of a Carathéodory certificate; any mismatch is internal."""
    weights = [w for _, w in vertex_weights] + [w for _, w in ray_weights]
    gens = [poly.points[i] for i, _ in vertex_weights] + [poly.rays[j] for j, _ in ray_weights]
    total = tuple(sum((w * g[c] for w, g in zip(weights, gens)), Fraction(0))
                  for c in range(len(x)))
    if (any(w <= 0 for w in weights) or len(weights) > poly.dim + 1
            or sum(w for _, w in vertex_weights) != 1 or total != tuple(x)):
        raise InternalError(f"decomposition of {tuple(map(str, x))} fails its replay (internal)")


def polyhedron_from_generators(points, rays=()) -> Polyhedron:
    """Build the canonical dual description of conv(points) + cone(rays)."""
    pts = []
    seen = set()
    for p in points:
        p = as_vec(p)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    if not pts:
        raise GeometryError("generator input needs at least one point")
    d = len(pts[0])
    rys = []
    seen_r = set()
    for r in rays:
        r = primitive(as_vec(r))
        if is_zero(r):
            raise GeometryError("zero ray in generator input")
        if r not in seen_r:
            seen_r.add(r)
            rys.append(r)
    return _assemble(pts, rys, d)


def polyhedron_from_halfspaces(halfspaces) -> Polyhedron:
    """Vertex/ray enumeration for an intersection of halfspaces.

    An empty intersection yields an explicit empty Polyhedron. A feasible set
    containing a full line is outside this toolkit's domain and is an error.
    """
    hs = [h if isinstance(h, Hyperplane) else Hyperplane.make(*h) for h in halfspaces]
    if not hs:
        raise GeometryError("halfspace input must be nonempty")
    d = hs[0].dim
    for h in hs:
        if h.dim != d:
            raise GeometryError("halfspace dimensions disagree")
    cons = [(-h.offset,) + h.normal for h in hs]
    cons.append((-1,) + (0,) * d)  # homogenizing x0 >= 0
    lines, rays, _ = cone_generators(cons, d + 1)
    if lines:
        raise GeometryError("polyhedron contains a line (not pointed)")
    pts = []
    recession = []
    for r in rays:
        if r[0] > 0:
            pts.append(tuple(Fraction(x, r[0]) for x in r[1:]))
        else:
            recession.append(primitive(r[1:]))
    if not pts:
        canon = tuple(sorted((h for h in hs), key=Hyperplane.key))
        return Polyhedron(d, canon, (), (), (), -1, is_empty=True)
    return _assemble(sorted(pts), sorted(recession), d)


def _assemble(pts, rys, d) -> Polyhedron:
    """Canonical Polyhedron from deduplicated generators (V -> H -> filter)."""
    # Valid inequalities y = (-c, n) of conv(pts)+cone(rys) form the polar cone
    # of the homogenized generators; its extreme rays are the facets, its
    # lineality encodes the affine hull. A polar ray's zero set names the
    # generators (points, then rays) tight on its halfspace.
    cons = [(1,) + p for p in pts] + [(0,) + r for r in rys]
    lines, polar_rays, zero_sets = cone_generators(cons, d + 1)
    n_pts, gens = len(pts), range(len(cons))

    tight_on = {}  # halfspace -> indices of the generators tight on it
    for line in lines:
        if not any(line[1:]):
            raise InternalError("unexpected trivial equality in dual description (internal)")
        h = _halfspace(line)
        tight_on[h] = tight_on[h.flipped()] = gens
    for ray, z in zip(polar_rays, zero_sets):
        if any(g < n_pts for g in z):  # else the horizon, not a supporting halfspace
            tight_on[_halfspace(ray)] = z
    halfspaces = sorted(tight_on, key=Hyperplane.key)
    inc = [[] for _ in gens]
    for i, h in enumerate(halfspaces):
        for g in tight_on[h]:
            inc[g].append(i)
    inc = [frozenset(s) for s in inc]  # ascending insertion fixes the iteration order

    # minimal generators: no other one lies in the generator's minimal face
    def minimal(g, rivals):
        return not any(inc[g] <= inc[o] for o in rivals if o != g)

    order_p = sorted((g for g in range(n_pts) if minimal(g, gens)), key=lambda g: pts[g])
    order_r = sorted((g for g in gens[n_pts:] if minimal(g, gens[n_pts:])),
                     key=lambda g: rys[g - n_pts])
    poly = Polyhedron(
        ambient_dim=d,
        halfspaces=tuple(halfspaces),
        points=tuple(pts[g] for g in order_p),
        rays=tuple(rys[g - n_pts] for g in order_r),
        incidence=tuple(inc[g] for g in order_p + order_r),
        dim=d - len(lines),  # each polar line is one equation of the affine hull
    )
    _check_polyhedron(poly, pts, rys)
    return poly


def _halfspace(y) -> Hyperplane:
    """Halfspace n.x <= -y0 of an integer polar vector y = (y0, n), n nonzero."""
    g = gcd(*y[1:])
    return Hyperplane(tuple(x // g for x in y[1:]), Fraction(-y[0], g))


def _check_polyhedron(poly, original_pts, original_rys):
    """Internal invariants: generators satisfy every halfspace; inputs too.
    In integers: n.p <= num/den iff (-num, den n).(L, L p) <= 0, where L is the
    common denominator of p."""
    hom = [primitive((1,) + p) for p in original_pts]
    for h in poly.halfspaces:
        c = h.offset
        y = (-c.numerator,) + tuple(c.denominator * a for a in h.normal)
        for p, hp in zip(original_pts, hom):
            if idot(y, hp) > 0:
                raise InternalError(f"generator {p} violates halfspace {h} (internal)")
        for r in original_rys:
            if idot(h.normal, r) > 0:
                raise InternalError(f"ray {r} violates halfspace {h} (internal)")
    if not poly.points:
        raise InternalError("pointed polyhedron lost all vertices (internal)")


# ---------------------------------------------------------------------------
# edges


def faces(poly: Polyhedron):
    """The 1-faces (edges), as sorted generator index pairs (i, j), i < j.

    The combinatorial adjacency test (Fukuda & Prodon 1996, *Double
    description method revisited*): generators i < j, at least one a vertex,
    span an edge iff no other generator is tight on every halfspace tight at
    both. Vertices come first, so i is a vertex; the edge is bounded when
    j < len(poly.points), else it is the ray j leaving vertex i.
    """
    inc = poly.incidence
    n_pts = len(poly.points)
    return [(i, j) for i in range(n_pts) for j in range(i + 1, len(inc)) if _adjacent(inc, i, j)]


# ---------------------------------------------------------------------------
# exact linear programming, read off the double description


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple | None = None


def lp_solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> LPResult:
    """Exact LP in standard form: max c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Rows are sequences of ints or Fractions; a zero ``c`` asks for
    feasibility. One double description of the homogenized cone x0 >= 0,
    x >= 0, a.x <= b x0 (an equality as two rows) gives the answer: its
    extreme rays with x0 > 0 are the vertices and those with x0 = 0 the
    recession rays. No vertex means infeasible, a ray r with c.r > 0
    unbounded; otherwise the optimum is the first vertex in sorted order of
    largest value, replayed against every row before returning.
    """
    c = as_vec(c)
    n = len(c)
    a_ub, a_eq = [as_vec(r) for r in a_ub], [as_vec(r) for r in a_eq]
    b_ub, b_eq = as_vec(b_ub), as_vec(b_eq)
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq) or any(len(r) != n for r in a_ub + a_eq):
        raise GeometryError("lp_solve: dimension mismatch")
    # equalities first: while the cone still has lines each one only projects
    # them, and the orthant and the inequality rows then cut a smaller cone
    cons = [row for r, b in zip(a_eq, b_eq) for row in ((-b,) + r, (b,) + vscale(r, -1))]
    cons += [(-1,) + (0,) * n] + [(0,) + tuple(-int(i == j) for j in range(n)) for i in range(n)]
    cons += [(-b,) + r for r, b in zip(a_ub, b_ub)]
    _, rays, _ = cone_generators(cons, n + 1)
    vertices = sorted(tuple(Fraction(v, r[0]) for v in r[1:]) for r in rays if r[0] > 0)
    if not vertices:
        return LPResult("infeasible")
    if any(idot(c, r[1:]) > 0 for r in rays if r[0] == 0):
        return LPResult("unbounded")
    x = max(vertices, key=lambda v: dot(c, v))  # the first of largest value
    if (any(v < 0 for v in x) or any(dot(r, x) > b for r, b in zip(a_ub, b_ub))
            or any(dot(r, x) != b for r, b in zip(a_eq, b_eq))):
        raise InternalError("lp_solve: optimum violates its rows (internal)")
    return LPResult("optimal", dot(c, x), x)
