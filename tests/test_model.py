import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS

from extremenu import geometry as geo
from extremenu import model
from extremenu.applications import genericity_experiment, sample_menu
from extremenu.geometry import as_vec
from extremenu.model import (
    Menu,
    ScenarioError,
    agent_choice,
    extend_menu,
    extended_menu,
    make_type_cone,
    polar_cone,
    unrestricted_cone,
    validate_scenario,
)
from extremenu.presets import monopoly_cone, monopoly_space, simplex_space, space_for_preset
from oracles import same_hyperplane, support_value


def monopoly_scenario(menu):
    return validate_scenario(monopoly_space(1, 1), monopoly_cone(1), menu)


# -- validation ----------------------------------------------------------


def test_simplex_menu_validates():
    sc = validate_scenario(simplex_space(2), unrestricted_cone(2),
                           [(0, 0), (1, 0), (0, 1)])
    assert len(sc.menu) == 3


def test_item_outside_simplex_names_facet():
    with pytest.raises(ScenarioError, match=r"violates facet a1 \+ a2 <= 1"):
        validate_scenario(simplex_space(2), unrestricted_cone(2), [(2, 0)])


def test_bool_coordinate_rejected():
    with pytest.raises(geo.GeometryError, match="cannot interpret True as a rational"):
        validate_scenario(simplex_space(2), unrestricted_cone(2), [(True, F(1, 2))])


def test_monopoly_preset_with_veto_validates():
    space = monopoly_space(2, 2)
    sc = validate_scenario(space, monopoly_cone(2), [(0, 0, 0), (1, 1, F(3, 2))])
    assert sc.space.veto == (0, 0, 0)


def test_veto_missing_from_menu():
    with pytest.raises(ScenarioError, match="veto"):
        validate_scenario(monopoly_space(1, 1), monopoly_cone(1), [(1, F(1, 2))])


def test_duplicate_items_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        validate_scenario(simplex_space(2), unrestricted_cone(2), [(0, 0), (0, 0)])


def test_dimension_mismatch_rejected():
    with pytest.raises(ScenarioError):
        validate_scenario(simplex_space(2), unrestricted_cone(3), [(0, 0)])


def test_cone_must_be_full_dimensional():
    with pytest.raises(ScenarioError):
        make_type_cone([(1, 0), (-1, 0)])


# -- polar cones ----------------------------------------------------------


def test_polar_of_unrestricted_is_origin():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert polar_cone(rays) == ()


def test_monopoly_polar_rays():
    # solve y.(0,-1) <= 0 and y.(1,-1) <= 0 by hand: generated by (-1,0), (1,1)
    assert set(polar_cone([(0, -1), (1, -1)])) == {(-1, 0), (1, 1)}


def test_orthant_polar_is_negative_orthant():
    assert set(polar_cone([(1, 0), (0, 1)])) == {(-1, 0), (0, -1)}


def test_double_polar_reproduces_cone():
    cone = make_type_cone([(0, -1), (1, -1)])
    back = polar_cone(cone.polar_rays)
    assert set(back) == {(0, -1), (1, -1)}


# -- extension -------------------------------------------------------------


def test_simplex_vertex_menu_extension():
    sc = validate_scenario(simplex_space(2), unrestricted_cone(2),
                           [(0, 0), (1, 0), (0, 1)])
    em = extended_menu(sc)
    assert len(em.vertices) == 3
    assert len(em.edges) == 3
    assert em.binding == frozenset(range(3))


def _replay_absorption_certificates(em):
    """Every certificate recombines its item exactly from em's generators."""
    for cert in em.absorbed:
        total = [F(0)] * em.dim
        for idx, w in cert.vertex_weights:
            assert w > 0
            total = [a + w * b for a, b in zip(total, em.vertices[idx])]
        for jdx, w in cert.polar_weights:
            assert w > 0
            total = [a + w * b for a, b in zip(total, em.poly.rays[jdx])]
        assert sum(w for _, w in cert.vertex_weights) == 1
        assert tuple(total) == cert.item


def test_monopoly_absorbed_item_certificate():
    sc = monopoly_scenario([(0, 0), (F(1, 2), F(1, 8)), (1, F(1, 2)),
                            (F(1, 4), F(1, 2))])
    em = extended_menu(sc)
    assert len(em.vertices) == 3
    assert len(em.absorbed) == 1
    assert em.absorbed[0].item == (F(1, 4), F(1, 2))
    _replay_absorption_certificates(em)
    # the same replay over the corpus and seeded menus of every preset
    scenarios = [case.scenario for case in CORPUS]
    for preset in ("simplex", "cube", "monopoly"):
        for seed in range(4):
            d = 2 + seed % 3
            space, cone = space_for_preset(preset, d=d)
            rng = random.Random(1000 * d + seed)
            scenarios.append(validate_scenario(space, cone, sample_menu(preset, d, 7, rng)))
    absorbed = 0
    for sc in scenarios:
        em = extended_menu(sc)
        _replay_absorption_certificates(em)
        absorbed += len(em.absorbed)
    assert absorbed >= 20


def _sampled_scenarios():
    scenarios = [case.scenario for case in CORPUS]
    for preset in ("simplex", "cube", "monopoly"):
        for d in (2, 3, 4):
            space, cone = space_for_preset(preset, d=d)
            for seed in range(6):
                rng = random.Random(7 * d + 100 * seed)
                scenarios.append(validate_scenario(space, cone,
                                                   sample_menu(preset, d, 3 + seed, rng)))
    return scenarios


def test_absorption_weights_at_most_dim_plus_one_generators():
    certificates = rays = 0
    for sc in _sampled_scenarios():
        em = extended_menu(sc)
        _replay_absorption_certificates(em)
        for cert in em.absorbed:
            assert len(cert.vertex_weights) + len(cert.polar_weights) <= em.poly.dim + 1
            certificates += 1
            rays += bool(cert.polar_weights)
    assert certificates >= 40 and rays >= 10


def test_absorption_in_lower_dimensional_extension():
    # collinear items: M is a segment carrying its affine hull as a
    # halfspace pair, and the middle item splits evenly between its ends
    sc = validate_scenario(simplex_space(2), unrestricted_cone(2),
                           [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))])
    em = extended_menu(sc)
    assert em.poly.dim == 1
    pairs = [h for h in em.poly.halfspaces
             if any(same_hyperplane(h, g) and h != g for g in em.poly.halfspaces)]
    assert len(pairs) == 2
    assert em.vertices == ((0, 0), (F(1, 2), F(1, 2)))
    (cert,) = em.absorbed
    assert cert.vertex_weights == ((0, F(1, 2)), (1, F(1, 2)))
    assert cert.polar_weights == ()


def test_absorption_through_polar_rays():
    # the monopoly item (1/4, 1/2) is the veto plus a positive combination of
    # both polar rays (-1, 0) and (1, 1): the ray-peeling branch
    sc = monopoly_scenario([(0, 0), (F(1, 2), F(1, 8)), (1, F(1, 2)), (F(1, 4), F(1, 2))])
    em = extended_menu(sc)
    (cert,) = em.absorbed
    assert em.poly.rays == ((-1, 0), (1, 1))
    assert cert.vertex_weights == ((0, 1),)
    assert cert.polar_weights == ((0, F(1, 4)), (1, F(1, 2)))
    _replay_absorption_certificates(em)


def test_absorption_certificates_repeat_exactly():
    for sc in _sampled_scenarios():
        first = extend_menu(sc.menu, sc.cone, sc.space)
        again = extend_menu(sc.menu, sc.cone, sc.space)
        assert first.absorbed == again.absorbed


def test_extend_menu_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("extend_menu reached lp_solve")

    monkeypatch.setattr(geo, "lp_solve", no_lp)
    absorbed = 0
    for case in CORPUS:
        sc = case.scenario
        absorbed += len(extend_menu(sc.menu, sc.cone, sc.space).absorbed)
    assert absorbed >= 3


def test_extend_menu_takes_no_rank(monkeypatch):
    # V -> H reads minimality, incidence and dimension off the DD zero sets
    def no_rank(*args, **kwargs):
        raise AssertionError("extend_menu reached rank")

    monkeypatch.setattr(geo, "rank", no_rank)
    for case in CORPUS:
        sc = case.scenario
        assert extend_menu(sc.menu, sc.cone, sc.space).poly.points


def test_preset_spaces_are_cached():
    for preset in ("simplex", "cube", "monopoly"):
        pair = space_for_preset(preset, d=3)
        assert space_for_preset(preset, d=3) is pair
        assert pair == space_for_preset.__wrapped__(preset, d=3)
    assert space_for_preset("monopoly", d=2) == (monopoly_space(1), monopoly_cone(1))


def test_cached_preset_spaces_give_unchanged_scenarios():
    for preset in ("simplex", "cube", "monopoly"):
        for d in (2, 3):
            items = sample_menu(preset, d, 5, random.Random(d))
            cached = validate_scenario(*space_for_preset(preset, d=d), items)
            fresh = validate_scenario(*space_for_preset.__wrapped__(preset, d=d), items)
            assert cached == fresh
            assert extended_menu(cached) == extend_menu(fresh.menu, fresh.cone, fresh.space)


def test_singleton_menu_extension():
    sc = monopoly_scenario([(0, 0)])
    em = extended_menu(sc)
    assert em.vertices == ((F(0), F(0)),)
    assert em.edges == ()


def test_extension_interior_item_retained_in_menu_dropped_from_vertices():
    sc = validate_scenario(simplex_space(2), unrestricted_cone(2),
                           [(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    em = extended_menu(sc)
    assert len(sc.menu.items) == 4
    assert len(em.vertices) == 3


# -- agent choice and support ----------------------------------------------


def test_agent_choice_simplex_vertices():
    menu = Menu(items=(as_vec((0, 0)), as_vec((1, 0)), as_vec((0, 1))))
    assert agent_choice(menu, (1, 0)) == (1, 0)


def test_agent_choice_posted_price():
    menu = Menu(items=(as_vec((0, 0)), as_vec((1, F(1, 2)))))
    assert agent_choice(menu, (F(3, 4), -1)) == (1, F(1, 2))


def test_agent_choice_tie_is_lexicographic_smallest():
    menu = Menu(items=(as_vec((0, 0)), as_vec((1, F(1, 2)))))
    assert agent_choice(menu, (F(1, 2), -1)) == (0, 0)


def test_agent_choice_zero_type_rejected():
    menu = Menu(items=(as_vec((0, 0)),))
    with pytest.raises(ScenarioError):
        agent_choice(menu, (0, 0))


def test_support_values():
    sc = validate_scenario(simplex_space(2), unrestricted_cone(2),
                           [(0, 0), (1, 0), (0, 1)])
    em = extended_menu(sc)
    assert support_value(em, (1, 1)) == 1

    sc2 = monopoly_scenario([(0, 0), (1, F(1, 2))])
    em2 = extended_menu(sc2)
    assert support_value(em2, (1, -1)) == F(1, 2)
    assert support_value(em2, (0, 1)) is math.inf


# -- support-function linearity under Minkowski averages -------------------


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_support_linearity_under_minkowski_average(seed):
    rng = random.Random(seed)
    space = monopoly_space(1, 1)
    cone = monopoly_cone(1)

    def rand_menu():
        items = {(F(0), F(0))}
        for _ in range(rng.randrange(1, 4)):
            items.add((F(rng.randrange(0, 17), 16), F(rng.randrange(0, 17), 16)))
        return sorted(items)

    m1 = rand_menu()
    m2 = rand_menu()
    avg = sorted({tuple((a + b) / 2 for a, b in zip(p, q)) for p in m1 for q in m2})
    em1 = extend_menu(Menu(items=tuple(m1)), cone, space)
    em2 = extend_menu(Menu(items=tuple(m2)), cone, space)
    # support values only need the vertex sets, so scenario validation is
    # bypassed deliberately for the averaged menu
    ema = extend_menu(Menu(items=tuple(avg)), cone, space)
    for _ in range(20):
        theta = (F(rng.randrange(0, 9)), F(-rng.randrange(1, 9)))
        lhs = support_value(ema, theta)
        rhs = (support_value(em1, theta) + support_value(em2, theta)) / 2
        assert lhs == rhs


def test_binding_facets_from_vertices_match_items():
    # absorbed items may not touch facets the surviving vertices miss
    rng = random.Random(5)
    space = monopoly_space(1, 1)
    cone = monopoly_cone(1)
    for _ in range(50):
        items = {(F(0), F(0))}
        for _ in range(rng.randrange(1, 5)):
            items.add((F(rng.randrange(0, 9), 8), F(rng.randrange(0, 9), 8)))
        sc = validate_scenario(space, cone, sorted(items))
        em = extended_menu(sc)
        item_binding = frozenset(
            i for i in range(len(space.facets))
            for p in sc.menu.items if space.facets[i].tight_at(p)
        )
        assert em.binding <= item_binding


def test_support_value_matches_choice_utility():
    # on cone types the support of the extension equals the utility of the
    # chosen item, absorbed items notwithstanding
    from extremenu.geometry import dot, vadd, vscale, zero_vec
    from extremenu.presets import cube_space

    space = cube_space(3)
    cone = make_type_cone([(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)])
    rng = random.Random(90)
    for _ in range(60):
        items = {tuple(F(rng.randrange(0, 9), 8) for _ in range(3)) for _ in range(4)}
        sc = validate_scenario(space, cone, sorted(items))
        em = extended_menu(sc)
        theta = zero_vec(3)
        for r in cone.rays:
            theta = vadd(theta, vscale(as_vec(r), rng.randrange(0, 5)))
        if all(t == 0 for t in theta):
            continue
        assert support_value(em, theta) == dot(theta, agent_choice(sc.menu, theta))


def test_absorption_certificates_are_built_on_first_read(monkeypatch):
    sc = monopoly_scenario([(0, 0), (F(1, 2), F(1, 8)), (1, F(1, 2)), (F(1, 4), F(1, 2))])
    built = []
    decompose = geo.caratheodory_decomposition
    monkeypatch.setattr(geo, "caratheodory_decomposition",
                        lambda poly, x: built.append(x) or decompose(poly, x))
    em = extend_menu(sc.menu, sc.cone, sc.space)
    assert built == []
    assert em.absorbed is em.absorbed and len(em.absorbed) == 1
    assert built == [(F(1, 4), F(1, 2))]


def test_genericity_experiment_builds_no_certificate(monkeypatch):
    # force_exhaustive and the verdicts read vertices, edges and incidences only
    def refuse(*args, **kwargs):
        raise AssertionError("an absorption certificate was built")

    absorbing = []
    build = model.extend_menu

    def spy(menu, cone, space):
        em = build(menu, cone, space)
        absorbing.append(len(em.vertices) < len(em.items))
        return em

    # forcing on the cube builds no extended menu; the experiment's own
    # build goes through the cached model.extended_menu
    extended_menu.cache_clear()
    monkeypatch.setattr(geo, "caratheodory_decomposition", refuse)
    monkeypatch.setattr(model, "extend_menu", spy)
    for s in range(4):
        genericity_experiment("cube", 4, 10, 3, s)
    assert any(absorbing)  # menus with absorbed items did pass through
