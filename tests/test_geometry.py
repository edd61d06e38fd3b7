import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS

from extremenu import geometry as geo
from extremenu.geometry import (
    GeometryError,
    Hyperplane,
    as_vec,
    caratheodory_decomposition,
    dot,
    faces,
    lp_solve,
    nullspace_basis,
    polyhedron_from_generators,
    polyhedron_from_halfspaces,
    rank,
    solve_affine,
)
from extremenu.model import extended_menu, make_type_cone
from extremenu.presets import monopoly_cone
from oracles import is_vertex, same_hyperplane

SQUARE_HS = [
    Hyperplane.make((1, 0), 1),
    Hyperplane.make((-1, 0), 0),
    Hyperplane.make((0, 1), 1),
    Hyperplane.make((0, -1), 0),
]


# -- rank ---------------------------------------------------------------


def test_rank_identity():
    assert rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3


def test_rank_dependent_rows():
    assert rank([(1, 1), (2, 2)]) == 1


def test_rank_square_facet_normals():
    # hand elimination: (1,0) and (0,1) span the plane, the rest are negations
    assert rank([h.normal for h in SQUARE_HS]) == 2


def test_rank_empty_matrix():
    assert rank([]) == 0


# -- nullspace ----------------------------------------------------------


def test_nullspace_trivial():
    assert nullspace_basis([(1, 0), (0, 1)]) == []


def test_nullspace_one_dim():
    basis = nullspace_basis([(F(1), F(1))])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m, n, rnd):
    rows = [tuple(F(rnd.randrange(-4, 5)) for _ in range(n)) for _ in range(m)]
    assert rank(rows) + len(nullspace_basis(rows)) == n
    for v in nullspace_basis(rows):
        for row in rows:
            assert dot(as_vec(row), v) == 0


def test_solve_affine_inconsistent():
    assert solve_affine([(1, 0), (1, 0)], [0, 1]) is None


def test_solve_affine_particular():
    x = solve_affine([(1, 1)], [2])
    assert x is not None and x[0] + x[1] == 2


# -- dual description ---------------------------------------------------


def test_square_halfspaces_to_vertices():
    poly = polyhedron_from_halfspaces(SQUARE_HS)
    assert len(poly.points) == 4
    assert set(poly.points) == {
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))
    }
    assert poly.rays == ()
    assert poly.dim == 2


def test_simplex_points_to_facets():
    for d in (2, 3, 4):
        pts = [tuple(F(0) for _ in range(d))]
        for i in range(d):
            pts.append(tuple(F(1 if j == i else 0) for j in range(d)))
        poly = polyhedron_from_generators(pts)
        assert len(poly.halfspaces) == d + 1


def test_monopoly_extended_menu_three_facets():
    # hand double description: y >= 0, x - 2y <= 0 flipped ... the three
    # supporting lines derived by hand are frozen below
    poly = polyhedron_from_generators([(0, 0), (1, F(1, 2))], [(-1, 0), (1, 1)])
    got = {(h.normal, h.offset) for h in poly.halfspaces}
    assert got == {((0, -1), F(0)), ((1, -2), F(0)), ((1, -1), F(1, 2))}


def test_empty_halfspace_intersection_reports_empty():
    hs = [Hyperplane.make((1,), 0), Hyperplane.make((-1,), -1)]  # x<=0 and x>=1
    poly = polyhedron_from_halfspaces(hs)
    assert poly.is_empty


def test_halfspace_input_with_line_rejected():
    with pytest.raises(GeometryError):
        polyhedron_from_halfspaces([Hyperplane.make((1, 0), 1)])


def test_incidence_certifies_vertices():
    poly = polyhedron_from_halfspaces(SQUARE_HS)
    d = poly.ambient_dim
    for i, p in enumerate(poly.points):
        normals = [poly.halfspaces[j].normal for j in poly.incidence[i]]
        assert rank(normals) == d
        assert is_vertex(poly, p)


def test_lower_dimensional_generators_get_equality_pair():
    seg = polyhedron_from_generators([(0, 0), (1, 2)])
    assert seg.dim == 1
    # the affine hull is carried as a pair of opposite halfspaces
    eq = [h for h in seg.halfspaces for g in seg.halfspaces
          if h is not g and same_hyperplane(h, g)]
    assert eq


def test_duplicate_points_are_deduplicated():
    poly = polyhedron_from_generators([(0, 0), (0, 0), (1, 0)])
    assert len(poly.points) == 2


# -- faces ---------------------------------------------------------------


def test_square_faces():
    poly = polyhedron_from_halfspaces(SQUARE_HS)
    assert faces(poly) == [(0, 1), (0, 2), (1, 3), (2, 3)]  # all between vertices


def test_monopoly_menu_edges():
    poly = polyhedron_from_generators([(0, 0), (1, F(1, 2))], [(-1, 0), (1, 1)])
    n = len(poly.points)
    bounded = [(i, j) for i, j in faces(poly) if j < n]
    unbounded = [(i, j) for i, j in faces(poly) if j >= n]
    assert len(bounded) == 1 and len(unbounded) == 2
    assert bounded[0] == (0, 1)


# -- round trip property -------------------------------------------------


@given(
    st.integers(2, 4),
    st.integers(2, 12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_dual_description_round_trip(d, npts, rnd):
    pts = set()
    for _ in range(npts):
        pts.add(tuple(F(rnd.randrange(-8, 9), rnd.choice([1, 2, 4])) for _ in range(d)))
    poly = polyhedron_from_generators(sorted(pts))
    back = polyhedron_from_halfspaces(poly.halfspaces)
    assert back.points == poly.points
    assert back.rays == poly.rays
    assert back.halfspaces == poly.halfspaces


def test_round_trip_with_rays():
    poly = polyhedron_from_generators(
        [(0, 0), (1, F(1, 2))], [(-1, 0), (1, 1)]
    )
    back = polyhedron_from_halfspaces(poly.halfspaces)
    assert back.points == poly.points and back.rays == poly.rays


# -- Carathéodory decomposition -------------------------------------------


def _recombine(poly, vertex_weights, ray_weights):
    total = [F(0)] * poly.ambient_dim
    for i, w in vertex_weights:
        total = [a + w * b for a, b in zip(total, poly.points[i])]
    for j, w in ray_weights:
        total = [a + w * b for a, b in zip(total, poly.rays[j])]
    return tuple(total)


def test_decomposition_of_square_points():
    square = polyhedron_from_halfspaces(SQUARE_HS)
    assert caratheodory_decomposition(square, (1, 1)) == (((3, 1),), ())
    # an edge point needs its two endpoints, an interior point three vertices
    assert caratheodory_decomposition(square, (1, F(1, 4))) == (((2, F(3, 4)), (3, F(1, 4))), ())
    lam, mu = caratheodory_decomposition(square, (F(1, 3), F(1, 2)))
    assert len(lam) == 3 and mu == ()
    assert _recombine(square, lam, mu) == (F(1, 3), F(1, 2))


def test_decomposition_peels_recession_rays():
    poly = polyhedron_from_generators([(0, 0), (1, 0)], [(0, 1), (1, 1)])
    lam, mu = caratheodory_decomposition(poly, (F(1, 2), 5))
    assert sum(w for _, w in lam) == 1 and mu
    assert len(lam) + len(mu) <= 3
    assert _recombine(poly, lam, mu) == (F(1, 2), 5)
    # no facet is tight at (3, 5): the walk starts at the origin, and u = (3, 5)
    # peels 2 of (0, 1) (bounded by x - y <= 1), then 3 of (1, 1)
    assert caratheodory_decomposition(poly, (3, 5)) == (((0, 1),), ((0, 2), (1, 3)))


def test_decomposition_in_lower_dimensional_polyhedron():
    # a triangle in the plane x3 = 1 of R^3: the affine hull pair is tight
    # everywhere, so the walk needs no special case
    tri = polyhedron_from_generators([(0, 0, 1), (2, 0, 1), (0, 2, 1)])
    assert tri.dim == 2
    x = (F(1, 2), F(1, 3), 1)
    lam, mu = caratheodory_decomposition(tri, x)
    assert len(lam) == 3 and mu == ()
    assert _recombine(tri, lam, mu) == x


def test_decomposition_rejects_outside_point():
    # the only caller passes points of the polyhedron: an outside point is an
    # internal fault, which cli.main sends to exit 2
    square = polyhedron_from_halfspaces(SQUARE_HS)
    with pytest.raises(GeometryError, match=r"outside the polyhedron \(internal\)"):
        caratheodory_decomposition(square, (2, 0))


@pytest.mark.parametrize("x, vertex_weights", [
    ((1, F(1, 4)), ((2, F(1, 4)), (3, F(3, 4)))),  # weights swapped: wrong point
    ((1, F(1, 4)), ((0, F(0)), (2, F(3, 4)), (3, F(1, 4)))),  # a zero weight listed
    ((1, F(1, 4)), ((0, F(3, 4)), (1, F(-3, 4)), (3, F(1)))),  # a negative weight
    ((1, F(1, 4)), ((0, F(1, 2)), (2, F(3, 4)), (3, F(1, 4)))),  # weights sum to 3/2
    ((F(1, 2), F(1, 2)), tuple((i, F(1, 4)) for i in range(4))),  # four > dim + 1
], ids=["swapped", "zero", "negative", "sum", "too-many"])
def test_tampered_decomposition_fails_replay(x, vertex_weights):
    # every tampered certificate but the first recombines x exactly, so each
    # isolates one check of the replay
    square = polyhedron_from_halfspaces(SQUARE_HS)
    geo._replay_decomposition(square, (1, F(1, 4)), ((2, F(3, 4)), (3, F(1, 4))), ())
    with pytest.raises(GeometryError, match=r"fails its replay \(internal\)"):
        geo._replay_decomposition(square, x, vertex_weights, ())


@given(
    st.integers(2, 4),
    st.integers(1, 8),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_decomposition_of_random_combinations(d, npts, nrays, rnd):
    pts = [tuple(F(rnd.randrange(-4, 5), rnd.choice([1, 2, 3])) for _ in range(d))
           for _ in range(npts)]
    # rays inside the open positive orthant keep the polyhedron pointed
    rays = [tuple(rnd.randrange(0, 3) for _ in range(d - 1)) + (1,) for _ in range(nrays)]
    poly = polyhedron_from_generators(pts, rays)
    weights = [F(rnd.randrange(0, 4)) for _ in pts]
    weights = [w / sum(weights) for w in weights] if any(weights) else [F(1, len(pts))] * len(pts)
    x = tuple(sum(w * p[c] for w, p in zip(weights, pts)) + sum(
        F(k, 2) * r[c] for k, r in enumerate(rays)) for c in range(d))
    lam, mu = caratheodory_decomposition(poly, x)
    assert len(lam) + len(mu) <= poly.dim + 1
    assert all(w > 0 for _, w in lam + mu) and sum(w for _, w in lam) == 1
    assert _recombine(poly, lam, mu) == x


# -- LP -------------------------------------------------------------------


def test_lp_max_over_square():
    res = lp_solve((1, 0), a_ub=[(1, 0), (0, 1)], b_ub=[1, 1])
    assert res.status == "optimal" and res.value == 1
    assert res.x[0] == 1


def test_lp_infeasible_equalities():
    # x = 0 and x = 1; a zero objective asks for feasibility
    assert lp_solve((0,), a_eq=[(1,), (1,)], b_eq=[0, 1]).status == "infeasible"
    assert lp_solve((1,), a_eq=[(1,), (1,)], b_eq=[0, 1]).status == "infeasible"


def test_lp_simplex_facet():
    res = lp_solve((1, 1), a_ub=[(1, 1)], b_ub=[1])
    assert res.status == "optimal" and res.value == 1


def test_lp_unbounded_with_ray():
    # the nonnegative orthant with a rising objective
    assert lp_solve((1, 1), a_ub=[(-1, 0)], b_ub=[0]).status == "unbounded"


def test_lp_without_rows():
    assert lp_solve((1, 1)).status == "unbounded"
    res = lp_solve((-1, 0))
    assert res.status == "optimal" and res.value == 0
    assert res.x == (0, 0)
    assert lp_solve(()).value == 0


def test_lp_without_columns():
    # n = 0: each row reads 0 <= b, so feasibility is the sign of every b
    res = lp_solve((), a_ub=[()], b_ub=[2], a_eq=[()], b_eq=[0])
    assert res.status == "optimal" and res.value == 0 and res.x == ()
    assert lp_solve((), a_ub=[()], b_ub=[-1]).status == "infeasible"
    assert lp_solve((), a_eq=[()], b_eq=[1]).status == "infeasible"


def test_lp_zero_row_with_negative_bound_is_infeasible():
    # 0 <= -1 forces x0 = 0 in the homogenized cone, which leaves no vertex
    assert lp_solve((1, 0), a_ub=[(0, 0), (1, 1)], b_ub=[-1, 1]).status == "infeasible"
    assert lp_solve((1, 1), a_ub=[(0, 0)], b_ub=[-1]).status == "infeasible"
    assert lp_solve((1, 0), a_eq=[(0, 0)], b_eq=[1]).status == "infeasible"


def test_lp_tie_returns_first_vertex_in_sorted_order():
    # (0, 1) and (1, 0) both reach 1 on the facet x + y <= 1
    res = lp_solve((1, 1), a_ub=[(1, 1)], b_ub=[1])
    assert res.status == "optimal" and res.value == 1 and res.x == (0, 1)
    res = lp_solve((0, 0, 0), a_ub=[(1, 1, 1)], b_ub=[1])
    assert res.value == 0 and res.x == (0, 0, 0)


def test_lp_replay_rejects_a_tampered_description(monkeypatch):
    # a forged vertex x = 5 beats the true optimum x = 1 and breaks x <= 1
    real = geo.cone_generators

    def forged(constraints, n):
        lines, rays, zero_sets = real(constraints, n)
        return lines, rays + [(1, 5)], zero_sets + [frozenset()]

    monkeypatch.setattr(geo, "cone_generators", forged)
    with pytest.raises(geo.InternalError, match=r"lp_solve: .*\(internal\)"):
        lp_solve((1,), a_ub=[(1,)], b_ub=[1])


@given(st.integers(2, 3), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_lp_optimum_on_random_boxes(d, rnd):
    # box lo <= x <= hi with lo >= 0 and a random objective: the optimum
    # takes hi where the objective rises and lo where it falls
    a_ub, b_ub, lo, hi = [], [], [], []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        lo.append(rnd.randrange(0, 3))
        hi.append(lo[-1] + rnd.randrange(1, 5))
        a_ub += [e, [-x for x in e]]
        b_ub += [hi[-1], -lo[-1]]
    obj = tuple(F(rnd.randrange(-4, 5)) for _ in range(d))
    res = lp_solve(obj, a_ub, b_ub)
    assert res.status == "optimal"
    assert res.value == sum(c * (h if c > 0 else l) for c, l, h in zip(obj, lo, hi))


def test_lp_dimension_mismatch():
    bad = [
        dict(c=(1, 0, 0), a_ub=[(1, 0)], b_ub=[1]),  # objective vs rows
        dict(c=(1, 0), a_ub=[(1, 0), (1,)], b_ub=[1, 1]),  # ragged rows
        dict(c=(1, 0), a_ub=[(1, 0)], b_ub=[1, 2]),  # b_ub length
        dict(c=(1, 0), a_eq=[(1, 0)], b_eq=[]),  # b_eq length
        dict(c=(1, 0), a_eq=[(1, 0, 1)], b_eq=[1]),
    ]
    for kwargs in bad:
        with pytest.raises(GeometryError, match="lp_solve: dimension mismatch"):
            lp_solve(**kwargs)


_small = st.integers(-3, 3)


@st.composite
def _standard_form_lps(draw):
    n = draw(st.integers(0, 3))
    row = st.lists(_small, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=3))
    a_eq = draw(st.lists(row, max_size=2))
    b_ub = draw(st.lists(_small, min_size=len(a_ub), max_size=len(a_ub)))
    b_eq = draw(st.lists(_small, min_size=len(a_eq), max_size=len(a_eq)))
    return draw(row), a_ub, b_ub, a_eq, b_eq


def _basic_solutions(rows, extra, count):
    """Points fixed by ``count`` of the rows (as equations) plus the ``extra``
    equations, that satisfy every row: the vertices of {x : rows, extra}."""
    found = set()
    for subset in combinations(rows, count):
        eqs = list(subset) + extra
        matrix = [r for r, _ in eqs]
        if eqs and rank(matrix) < len(matrix[0]):
            continue
        x = solve_affine(matrix, [b for _, b in eqs])
        if x is not None and all(dot(as_vec(r), x) <= b for r, b in rows):
            found.add(x)
    return found


@given(_standard_form_lps())
@settings(max_examples=300, deadline=None)
def test_lp_matches_vertex_enumeration(lp):
    # oracle: basis enumeration over every n-subset of the rows, x >= 0
    # included, on the feasible set and on its recession cone cut by sum r = 1
    c, a_ub, b_ub, a_eq, b_eq = lp
    n = len(c)
    rows = list(zip(a_ub, b_ub)) + list(zip(a_eq, b_eq))
    rows += [([-a for a in r], -b) for r, b in zip(a_eq, b_eq)]
    rows += [([-int(i == j) for i in range(n)], 0) for j in range(n)]
    res = lp_solve(c, a_ub, b_ub, a_eq, b_eq)
    vertices = _basic_solutions(rows, [], n)
    rays = _basic_solutions([(r, 0) for r, _ in rows], [([1] * n, 1)], n - 1) if n else set()
    if not vertices:
        assert res.status == "infeasible"
    elif any(dot(as_vec(c), r) > 0 for r in rays):
        assert res.status == "unbounded"
    else:
        best = max(dot(as_vec(c), v) for v in vertices)
        assert res.status == "optimal" and res.value == best
        assert res.x == min(v for v in vertices if dot(as_vec(c), v) == best)


# -- hyperplane canonical form -------------------------------------------


def test_hyperplane_canonicalization():
    h = Hyperplane.make((F(2, 3), F(-4, 3)), F(2))
    assert h.normal == (1, -2)
    assert h.offset == F(3)


def test_hyperplane_zero_normal_rejected():
    with pytest.raises(GeometryError):
        Hyperplane.make((0, 0), 1)


def test_hyperplane_projection_is_the_orthogonal_foot():
    h = Hyperplane.make((F(2, 3), F(-4, 3), 0), F(2))  # x - 2y = 3
    for x in [(0, 0, 5), (F(1, 2), F(-7, 3), 1), (3, 0, F(1, 9)), (-1, 1, 0)]:
        x = as_vec(x)
        p = h.project(x)
        assert h.tight_at(p)
        # the displacement is a multiple of the normal
        assert rank([tuple(a - b for a, b in zip(p, x)), h.normal]) == 1
    on_plane = as_vec((5, 1, 7))
    assert h.project(on_plane) == on_plane


def test_float_coordinates_rejected():
    with pytest.raises(GeometryError):
        geo.frac(0.5)


@pytest.mark.parametrize("bad", [True, False, "abc", "1/0", "", None])
def test_frac_rejects_what_is_no_rational(bad):
    with pytest.raises(GeometryError, match=f"cannot interpret {bad!r} as a rational"):
        geo.frac(bad)


# -- integer incidence tests ---------------------------------------------

# plain ints, zeros, negatives, small mixed denominators, and large ones
COORDS = st.one_of(
    st.integers(-30, 30),
    st.just(0),
    st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 8, 12, 49, 1024])),
    st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_incidence_matches_fraction_dot(data):
    d = data.draw(st.integers(1, 6))
    normal = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d).filter(any))
    x = tuple(data.draw(st.lists(COORDS, min_size=d, max_size=d)))
    prim = Hyperplane.make(normal, 0).normal
    # an offset on, just inside or just outside the hyperplane through x
    shift = data.draw(st.sampled_from([0, 0, F(1, 1024), F(-1, 7), 3, -2]))
    h = Hyperplane.make(prim, dot(prim, x) + shift)
    assert h.normal == prim and all(type(a) is int for a in prim)
    for g in (h, h.flipped()):
        ref = dot(g.normal, x)  # the Fraction reference
        value = g.value(x)
        assert type(value) is F and value == ref
        assert g.contains(x) == (ref <= g.offset)
        assert g.tight_at(x) == (ref == g.offset)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_support_values_match_fraction_dots(data):
    d = data.draw(st.integers(1, 5))
    points = data.draw(st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=1, max_size=6))
    normals = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), max_size=4))
    values = geo.support_values(points, normals)
    assert values == [max(dot(n, p) for p in points) for n in normals]
    assert all(type(v) is F for v in values)


def test_incidence_tests_reject_dimension_mismatch():
    h = Hyperplane.make((1, 0), 1)
    for test in (h.value, h.contains, h.tight_at):
        with pytest.raises(GeometryError, match="dimension mismatch"):
            test((F(1), F(0), F(0)))


# -- edges: adjacency test against the rank definition -------------------


def span_dim(points, rays=()):
    """Dimension of aff(points) + span(rays), by rank on the difference vectors."""
    return rank([geo.vsub(p, points[0]) for p in points[1:]] + list(rays))


def closure_edges(poly):
    """Reference edges: close the generator tight sets under pairwise
    intersection and keep the candidate faces of dimension 1."""
    sets = set(poly.incidence)
    frontier = set(sets)
    while frontier:
        frontier = {a & b for a in frontier for b in sets} - sets
        sets |= frontier
    n = len(poly.points)
    found = set()
    for act in sets:
        gens = tuple(i for i, z in enumerate(poly.incidence) if act <= z)
        pts = [poly.points[i] for i in gens if i < n]
        rys = [poly.rays[i - n] for i in gens if i >= n]
        if pts and span_dim(pts, rys) == 1:
            found.add(gens)
    return sorted(found)


def edges_by_rank_definition(poly):
    """Generator pairs whose common tight set lies in exactly their two tight
    sets and whose affine rank is 1, with tight sets from Fraction dot
    products rather than poly.incidence."""
    tight = [frozenset(i for i, h in enumerate(poly.halfspaces) if dot(h.normal, p) == h.offset)
             for p in poly.points]
    tight += [frozenset(i for i, h in enumerate(poly.halfspaces) if dot(h.normal, r) == 0)
              for r in poly.rays]
    assert tuple(tight) == poly.incidence
    n = len(poly.points)
    out = []
    for i in range(len(tight)):
        for j in range(i + 1, len(tight)):
            common = tight[i] & tight[j]
            if [g for g, z in enumerate(tight) if common <= z] != [i, j]:
                continue
            pts = [poly.points[g] for g in (i, j) if g < n]
            rys = [poly.rays[g - n] for g in (i, j) if g >= n]
            if span_dim(pts, rys) == 1:
                out.append((i, j))
    return out


# polar rays of no cone, the monopoly cone, the orthant, and a halfspace of
# types (one polar ray)
POLAR_RAYS = {
    d: [
        (),
        monopoly_cone(d - 1).polar_rays,
        make_type_cone([tuple(int(i == j) for j in range(d)) for i in range(d)]).polar_rays,
        make_type_cone([tuple(s * int(i == j) for j in range(d))
                        for i in range(d - 1) for s in (1, -1)]
                       + [tuple(-int(j == d - 1) for j in range(d))]).polar_rays,
    ]
    for d in (2, 3, 4)
}


@st.composite
def generator_sets(draw):
    d = draw(st.integers(2, 4))
    coord = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 4]))
    vec = st.tuples(*[coord] * d)
    n = draw(st.integers(1, 10))
    span = draw(st.sampled_from([d, d, 1, 2]))  # full, collinear or coplanar points
    if span == d:
        pts = [draw(vec) for _ in range(n)]
    else:
        base = draw(vec)
        dirs = [draw(vec) for _ in range(span)]
        pts = []
        for _ in range(n):
            ts = [draw(coord) for _ in dirs]
            pts.append(tuple(b + sum(t * u[c] for t, u in zip(ts, dirs))
                             for c, b in enumerate(base)))
    return pts, draw(st.sampled_from(POLAR_RAYS[d] + [()]))  # () twice: many bounded sets


@given(generator_sets())
@settings(max_examples=200, deadline=None)
def test_edges_match_rank_definition(gens):
    pts, rays = gens
    poly = polyhedron_from_generators(pts, rays)
    edges = faces(poly)
    assert edges == edges_by_rank_definition(poly)
    assert edges == closure_edges(poly)


def test_lower_dimensional_edges():
    # a segment in R^3 has one edge; a square in a plane of R^4 has four
    seg = polyhedron_from_generators([(0, 0, 0), (1, 2, 3), (2, 4, 6)])
    assert faces(seg) == [(0, 1)]
    square = polyhedron_from_generators([(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)])
    assert square.dim == 2
    assert faces(square) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert faces(square) == edges_by_rank_definition(square)


def test_faces_match_closure_on_corpus():
    for case in CORPUS:
        for poly in (case.scenario.space.poly, extended_menu(case.scenario).poly):
            assert faces(poly) == closure_edges(poly), case.name


# -- V -> H minimal generators against the rank definitions ----------------


@given(generator_sets())
@settings(max_examples=200, deadline=None)
def test_minimal_generators_match_rank_definition(gens):
    # vertices have tight normals of rank d, extreme rays of rank d - 1, with
    # tight sets from Fraction dot products rather than the zero sets
    pts, rays = gens
    poly = polyhedron_from_generators(pts, rays)
    d, hs = poly.ambient_dim, poly.halfspaces
    vertices = sorted(p for p in set(map(as_vec, pts))
                      if rank([h.normal for h in hs if dot(h.normal, p) == h.offset]) == d)
    extreme = sorted(r for r in set(map(geo.primitive, rays))
                     if rank([h.normal for h in hs if dot(h.normal, r) == 0]) == d - 1)
    assert poly.points == tuple(vertices)
    assert poly.rays == tuple(extreme)
    assert poly.dim == span_dim(poly.points, poly.rays)


@st.composite
def constraint_lists(draw):
    n = draw(st.integers(2, 4))
    row = st.tuples(*[st.integers(-2, 2)] * n)
    cons = draw(st.lists(row, min_size=1, max_size=7))
    cons += draw(st.lists(st.sampled_from(cons), max_size=2))  # repeated rows
    if draw(st.booleans()):
        cons.insert(draw(st.integers(0, len(cons))), (0,) * n)
    return draw(st.permutations(cons)), n


def extreme_rays_by_rank(cons, n, lines):
    """Every extreme ray of {x : a.x <= 0} mod lines, by brute force: a set of
    n - lin_dim - 1 constraints of full rank fixes a direction up to sign;
    keep a sign that is feasible and whose tight constraints have rank
    n - lin_dim - 1 (the rank definition of an extreme ray)."""
    k = n - len(lines) - 1
    out = set()
    for sub in combinations(cons, k) if k >= 0 else ():
        basis = nullspace_basis(list(sub) + list(lines))
        if len(basis) != 1:
            continue
        for v in (basis[0], tuple(-x for x in basis[0])):
            if all(dot(a, v) <= 0 for a in cons) and \
                    rank([a for a in cons if dot(a, v) == 0]) == k:
                out.add(geo.primitive(geo.reduce_mod_lines(geo.primitive(v), lines)))
    return sorted(out)


@given(constraint_lists())
@settings(max_examples=200, deadline=None)
def test_cone_generators_match_rank_filter(case):
    cons, n = case
    lines, rays, zero_sets = geo.cone_generators(cons, n)
    assert len(lines) == n - rank(cons)
    assert all(dot(a, l) == 0 for a in cons for l in lines)
    assert rays == extreme_rays_by_rank(cons, n, lines)
    assert zero_sets == [frozenset(k for k, a in enumerate(cons) if dot(a, r) == 0)
                         for r in rays]


def test_non_pointed_generators_rejected():
    # (1, 2) + (-1, 0) + (0, -1) span a line, so (0, 0) is no vertex; its
    # halfspaces (none) are tight at every ray, not at another point
    with pytest.raises(GeometryError, match=r"^pointed polyhedron lost all vertices \(internal\)$"):
        polyhedron_from_generators([(0, 0)], [(1, 2), (-1, 0), (0, -1)])


@given(st.lists(st.one_of(COORDS, st.integers(-10**6, 10**6)), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_primitive_scales_to_coprime_integers(u):
    p = geo.primitive(u)
    assert len(p) == len(u) and all(type(v) is int for v in p)
    if not any(u):
        assert p == (0,) * len(u)
        return
    assert math.gcd(*p) == 1
    scale = {F(v) / a for v, a in zip(p, u) if a != 0}
    assert len(scale) == 1 and scale.pop() > 0  # one positive factor: orientation kept
    assert all(v == 0 for v, a in zip(p, u) if a == 0)


def test_check_polyhedron_rejects_a_doctored_halfspace():
    # conv{(0, 0), (1/3, 2/3)} + cone{(1, 0)}: x2 <= 2/3 is valid and tight at
    # the second point; x1 <= 1/4 cuts off that point and the ray, and each
    # must still surface as an internal fault
    pts = [as_vec((0, 0)), as_vec((F(1, 3), F(2, 3)))]
    rays = [(1, 0)]
    poly = polyhedron_from_generators(pts, rays)
    valid = replace(poly, halfspaces=poly.halfspaces + (Hyperplane.make((0, 1), F(2, 3)),))
    geo._check_polyhedron(valid, pts, rays)
    doctored = replace(poly, halfspaces=poly.halfspaces + (Hyperplane.make((1, 0), F(1, 4)),))
    with pytest.raises(GeometryError, match=r"^generator .* violates halfspace .* \(internal\)$"):
        geo._check_polyhedron(doctored, pts, [])
    with pytest.raises(GeometryError, match=r"^ray .* violates halfspace .* \(internal\)$"):
        geo._check_polyhedron(doctored, pts[:1], rays)
