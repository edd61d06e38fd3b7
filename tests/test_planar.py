from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS, CORPUS_BY_NAME
from extremenu import geometry as geo, planar
from extremenu.extremality import is_extreme_finite
from extremenu.geometry import faces, vadd, vsub
from extremenu.model import (
    Menu,
    ScenarioError,
    allocation_space_from_points,
    extend_menu,
    extended_menu,
    make_type_cone,
    unrestricted_cone,
    validate_scenario,
)
from extremenu.planar import SENTINEL, classify_2d, find_flexible_chain, partition_boundary
from extremenu.presets import cube_space, monopoly_cone


def em_of(name):
    case = CORPUS_BY_NAME[name]
    return case.scenario, extended_menu(case.scenario)


def labels_of(name):
    sc, em = em_of(name)
    part = partition_boundary(em, sc.space)
    return sc, em, part


def test_figc1_left_partition_classes():
    sc, em, part = labels_of("figc1_left_boundary_chain")
    by_vertex = {em.vertices[i]: part.label(i) for i in range(len(em.vertices))}
    assert by_vertex[(F(0), F(0))] == "V"
    assert by_vertex[(F(0), F(3))] == "B2"  # shares the x=0 edge with the corner
    assert by_vertex[(F(2), F(5))] == "B1"
    assert by_vertex[(F(5), F(3))] == "B1"
    assert by_vertex[(F(4), F(1))] == "I"
    assert not part.sentinels


def test_monopoly_three_item_partition_with_sentinels():
    sc, em, part = labels_of("monopoly_three_item")
    assert part.sentinels
    by_vertex = {em.vertices[i]: part.label(i) for i in range(len(em.vertices))}
    assert by_vertex[(F(0), F(0))] == "V"
    assert by_vertex[(F(1, 2), F(1, 8))] == "I"
    assert by_vertex[(F(1), F(1, 2))] == "B1"


def test_simplex_vertex_menu_all_corners():
    sc, em, part = labels_of("delta2_vertex_menu")
    assert part.corner == frozenset(range(3))


def test_partition_requires_d2():
    case = CORPUS_BY_NAME["pyramid_delta3"]
    with pytest.raises(ScenarioError, match="requires d = 2"):
        partition_boundary(extended_menu(case.scenario), case.scenario.space)


# -- chains ------------------------------------------------------------------


def test_figc1_left_chain_found():
    sc, em, part = labels_of("figc1_left_boundary_chain")
    chain = find_flexible_chain(part, em, sc.space)
    assert chain is not None and chain.case == "endpoint"
    members = {em.vertices[e] for e in chain.elements if e != SENTINEL}
    assert (F(0), F(0)) not in members  # the corner never joins a chain


def test_rotated_square_cycle_chain_with_equal_sines():
    sc, em, part = labels_of("rotated_square_midpoints")
    chain = find_flexible_chain(part, em, sc.space)
    assert chain is not None and chain.case == "all-B1-cycle"
    pa, pb = chain.sine_sq_products
    assert pa == pb == F(1, 16)  # four 45-degree angles on each side


def test_figc1_right_violates_angle_condition():
    sc, em, part = labels_of("figc1_right_angle_condition")
    chain = find_flexible_chain(part, em, sc.space)
    assert chain is None


def test_monopoly_sentinel_chain():
    sc, em, part = labels_of("monopoly_three_item")
    chain = find_flexible_chain(part, em, sc.space)
    assert chain is not None
    assert chain.elements[0] == SENTINEL or chain.elements[-1] == SENTINEL


def test_closed_chain_single_interior_anchor():
    sc, em, part = labels_of("delta2_closed_chain_anchor")
    chain = find_flexible_chain(part, em, sc.space)
    assert chain is not None and chain.case == "closed-chain"
    assert chain.elements[0] == chain.elements[-1]


# -- classification ------------------------------------------------------------


def test_classify_corpus_agrees_with_deformation_system():
    for case in CORPUS:
        if case.scenario.dim != 2:
            continue
        em = extended_menu(case.scenario)
        verdict = classify_2d(em, case.scenario.space)
        assert verdict.extreme == case.extreme, case.name
        assert verdict.extreme == is_extreme_finite(em, case.scenario.space).extreme, case.name


def test_classify_small_menu_uses_exhaustiveness():
    sc, em = em_of("posted_price_1_2")
    verdict = classify_2d(em, sc.space)
    assert verdict.extreme and verdict.method == "small-menu"


def test_classify_requires_d2():
    case = CORPUS_BY_NAME["prism_delta3"]
    with pytest.raises(ScenarioError, match="requires d = 2"):
        classify_2d(extended_menu(case.scenario), case.scenario.space)


def test_sine_products_scale_invariant():
    # homothety of the whole configuration (allocation square and menu)
    # leaves the all-B1 cycle verdict unchanged
    lam, shift = F(3), (F(7), F(11))
    pts = [(0, 0), (5, 0), (5, 5), (0, 5)]
    menu = [(F(5, 2), 0), (5, F(5, 2)), (F(5, 2), 5), (0, F(5, 2))]

    def transform(p):
        return tuple(lam * F(c) + s for c, s in zip(p, shift))

    space1 = allocation_space_from_points(pts)
    space2 = allocation_space_from_points([transform(p) for p in pts])
    cone = unrestricted_cone(2)
    sc1 = validate_scenario(space1, cone, menu)
    sc2 = validate_scenario(space2, cone, [transform(p) for p in menu])
    em1, em2 = extended_menu(sc1), extended_menu(sc2)
    c1 = find_flexible_chain(partition_boundary(em1, space1), em1, space1)
    c2 = find_flexible_chain(partition_boundary(em2, space2), em2, space2)
    assert (c1 is None) == (c2 is None)
    if c1 is not None and c1.sine_sq_products:
        assert c1.sine_sq_products == c2.sine_sq_products


def test_restricted_tangent_scenario_agreement():
    # the polar ray (-1,0) runs inside the bottom facet here; the chain rule
    # must still agree with the algebraic oracle
    sc, em = em_of("tangent_ray_no_veto")
    verdict = classify_2d(em, sc.space)
    assert verdict.extreme == is_extreme_finite(em, sc.space).extreme


def test_halfplane_and_narrow_cone_agreement():
    # exotic restricted cones: a halfplane type space (single polar ray, both
    # unbounded edges share its direction) and a narrow cone with an obtuse
    # polar; the chain rule must track the deformation system on both
    import random

    from extremenu.exhaustive import homothety_cross_check, is_exhaustive
    from extremenu.extremality import def_polytope_cross_check
    from extremenu.model import make_type_cone
    from extremenu.presets import cube_space

    space = cube_space(2)
    halfplane = make_type_cone([(1, 0), (-1, 0), (0, -1)])
    assert halfplane.polar_rays == ((0, 1),)
    narrow = make_type_cone([(2, -1), (-2, -1)])
    rng = random.Random(515)
    for cone in (halfplane, narrow):
        for _ in range(60):
            items = set()
            while len(items) < rng.randrange(2, 6):
                items.add((F(rng.randrange(0, 9), 8), F(rng.randrange(0, 9), 8)))
            sc = validate_scenario(space, cone, sorted(items))
            em = extended_menu(sc)
            alg = is_extreme_finite(em, space).extreme
            assert classify_2d(em, space).extreme == alg
            assert def_polytope_cross_check(em, space) == alg
            if len(em.vertices) >= 2:
                assert homothety_cross_check(em, space) == is_exhaustive(em, space).exhaustive


# -- clockwise order read off the edge graph ------------------------------------

ORDER_SPACES = {
    "square": cube_space(2),
    "pentagon": allocation_space_from_points([(-1, 0), (4, F(1, 2)), (3, 4), (-1, 3), (-2, 1)]),
    "skew": allocation_space_from_points([(0, 0), (5, 1), (4, 4), (-1, 3)]),
}
# unrestricted, the monopoly cone, a wedge and a halfplane of types
ORDER_CONES = (unrestricted_cone(2), monopoly_cone(1), make_type_cone([(1, 0), (1, 1)]),
               make_type_cone([(1, 0), (-1, 0), (0, -1)]))
ORDER_GRIDS = {
    name: [p for p in ((F(i, 4), F(j, 4)) for i in range(-8, 21) for j in range(0, 17))
           if space.contains(p)]
    for name, space in ORDER_SPACES.items()
}


def turn(a, b, c):
    """Cross product of the steps a -> b and b -> c; negative turns clockwise."""
    u, v = vsub(b, a), vsub(c, b)
    return u[0] * v[1] - u[1] * v[0]


@given(st.sampled_from(sorted(ORDER_SPACES)), st.sampled_from(ORDER_CONES), st.data())
@settings(max_examples=150, deadline=None)
def test_order_vertices_walks_clockwise(name, cone, data):
    space = ORDER_SPACES[name]
    items = data.draw(st.lists(st.sampled_from(ORDER_GRIDS[name]), min_size=1, max_size=7,
                               unique=True))
    em = extend_menu(Menu(items=tuple(items)), cone, space)
    vs = em.vertices
    order, sentinels = planar._order_vertices(em)
    assert sorted(order) == list(range(len(vs)))
    assert sentinels == bool(em.poly.rays)
    walk = [vs[i] for i in order]
    if not sentinels:
        assert order[0] == 0  # the lexicographically smallest vertex
        triples = zip(walk, walk[1:] + walk[:1], walk[2:] + walk[:2]) if len(walk) > 2 else ()
    elif len(walk) > 1:
        # the path comes in along the start's unbounded edge, goes out along the end's
        ray_at = {i: em.poly.rays[j - len(vs)] for i, j in faces(em.poly) if j >= len(vs)}
        walk = [vadd(walk[0], ray_at[order[0]])] + walk + [vadd(walk[-1], ray_at[order[-1]])]
        triples = zip(walk, walk[1:], walk[2:])
    else:
        triples = ()
    assert all(turn(a, b, c) < 0 for a, b, c in triples)


@pytest.mark.parametrize("name", ["pentagon", "skew"])
def test_facet_corners_follow_the_clockwise_walk_of_a(name):
    space = ORDER_SPACES[name]
    em = extend_menu(Menu(items=space.poly.points), unrestricted_cone(2), space)
    walk = [em.vertices[i] for i in planar._order_vertices(em)[0]]
    steps = list(zip(walk, walk[1:] + walk[:1]))
    assert sum(p[0] * q[1] - p[1] * q[0] for p, q in steps) < 0  # clockwise: negative area
    assert {planar._facet_corners(space, f) for f in range(len(space.facets))} == set(steps)


def test_classify_2d_reuses_the_edges_of_the_extended_menu(monkeypatch):
    # the walk reads the ray edges kept on the extended menu: one edge pass
    # per menu, made when the menu is extended
    calls = []
    monkeypatch.setattr(geo, "faces", lambda poly: calls.append(poly) or faces(poly))
    cases = [case for case in CORPUS if case.scenario.dim == 2]
    assert len(cases) == 23
    for case in cases:
        sc = case.scenario
        calls.clear()
        em = extend_menu(sc.menu, sc.cone, sc.space)
        assert em.ray_edges == tuple((i, j) for i, j in faces(em.poly) if j >= len(em.vertices))
        classify_2d(em, sc.space)
        assert len(calls) == 1, case.name
