import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS_BY_NAME
from extremenu import applications as apps
from extremenu import geometry as geo
from extremenu.applications import (
    TypeSample,
    delegation_classify,
    dominance_check,
    expected_principal_utility,
    force_exhaustive,
    genericity_experiment,
    make_type_sample,
    monopoly_nudge,
    monopoly_pricing_analysis,
    seeded_type_sample,
    veto_undominated,
)
from extremenu.exhaustive import is_exhaustive
from extremenu.geometry import as_vec, dot, vadd, vscale
from extremenu.model import (
    ConstantObjective,
    Menu,
    ScenarioError,
    allocation_space_from_points,
    extend_menu,
    extended_menu,
    unrestricted_cone,
    validate_scenario,
)
from extremenu.presets import monopoly_cone, monopoly_space, simplex_space, space_for_preset


# -- delegation -----------------------------------------------------------


def test_dictator_menu():
    rep = delegation_classify(CORPUS_BY_NAME["delta3_dictator"].scenario)
    assert rep.kind == "dictates" and rep.extreme


def test_strike_triangle_extreme():
    rep = delegation_classify(CORPUS_BY_NAME["delta2_strike_triangle"].scenario)
    assert rep.kind == "grants_strike" and rep.menu_size == 3 and rep.extreme


def test_strike_quadrilateral_not_extreme():
    rep = delegation_classify(CORPUS_BY_NAME["delta2_strike_quadrilateral"].scenario)
    assert rep.kind == "grants_strike" and not rep.extreme


def test_prism_grants_strike_not_extreme():
    rep = delegation_classify(CORPUS_BY_NAME["prism_delta3"].scenario)
    assert rep.kind == "grants_strike" and not rep.extreme
    assert rep.source == "deformation-system"


def test_floating_menu_neither():
    rep = delegation_classify(CORPUS_BY_NAME["delta2_floating_triangle"].scenario)
    assert rep.kind == "neither" and not rep.extreme


def test_delegation_requires_simplex():
    with pytest.raises(ScenarioError):
        delegation_classify(CORPUS_BY_NAME["posted_price_1_2"].scenario)


# -- monopoly pricing --------------------------------------------------------


def test_posted_price_margins():
    for p in (F(1, 4), F(1, 2), F(3, 4)):
        name = f"posted_price_{p.numerator}_{p.denominator}"
        analysis = monopoly_pricing_analysis(CORPUS_BY_NAME[name].scenario)
        assert analysis.gradients == ((p,),)
        assert analysis.delta_margin == min(p, 1 - p)
        assert analysis.undominated_sufficient


def test_three_item_menu_two_gradients():
    analysis = monopoly_pricing_analysis(CORPUS_BY_NAME["monopoly_three_item"].scenario)
    assert analysis.gradients == ((F(1, 4),), (F(3, 4),))
    assert analysis.delta_margin == F(1, 4)


def test_free_good_inconclusive():
    analysis = monopoly_pricing_analysis(CORPUS_BY_NAME["monopoly_free_good"].scenario)
    assert analysis.delta_margin == 0
    assert not analysis.undominated_sufficient


def test_absorbed_item_does_not_distort_pricing():
    # the overpriced item vanishes from the schedule before gradients are read
    analysis = monopoly_pricing_analysis(CORPUS_BY_NAME["figa1_monopoly_absorbed"].scenario)
    assert analysis.gradients == ((F(1, 4),), (F(3, 4),))


def test_gradients_stay_in_unit_interval_random():
    rng = random.Random(23)
    space = monopoly_space(2, 1)
    cone = monopoly_cone(2)
    for _ in range(30):
        items = {(F(0),) * 3}
        for _ in range(rng.randrange(1, 5)):
            items.add(tuple(F(rng.randrange(0, 9), 8) for _ in range(3)))
        sc = validate_scenario(space, cone, sorted(items))
        analysis = monopoly_pricing_analysis(sc)
        for g in analysis.gradients:
            assert all(0 <= gi <= 1 for gi in g)


# -- nudge ---------------------------------------------------------------------


def test_nudge_free_good():
    rep = monopoly_nudge(CORPUS_BY_NAME["monopoly_free_good"].scenario, F(1, 10), F(1, 20))
    items = dict((tuple(p[:1]), p[1]) for p in rep.scenario.menu.items)
    assert items[(F(1),)] == F(1, 20)
    assert rep.margin > 0


def test_nudge_posted_price_arithmetic():
    rep = monopoly_nudge(CORPUS_BY_NAME["posted_price_1_2"].scenario, F(1, 10), F(1, 100))
    items = dict((tuple(p[:1]), p[1]) for p in rep.scenario.menu.items)
    assert items[(F(1),)] == F(9, 20) + F(1, 100)  # (1-eps) p + delta


def test_nudge_displacement_bound_shrinks_with_parameters():
    sc = CORPUS_BY_NAME["posted_price_1_2"].scenario
    b1 = monopoly_nudge(sc, F(1, 10), F(1, 100)).displacement_bound
    b2 = monopoly_nudge(sc, F(1, 100), F(1, 1000)).displacement_bound
    assert b2 < b1


def test_nudge_margin_floor():
    sc = CORPUS_BY_NAME["monopoly_three_item"].scenario
    eps, delta = F(1, 10), F(1, 20)
    rep = monopoly_nudge(sc, eps, delta)
    assert rep.margin >= min(delta, eps - delta)


def test_nudge_parameter_order_enforced():
    sc = CORPUS_BY_NAME["posted_price_1_2"].scenario
    with pytest.raises(ScenarioError):
        monopoly_nudge(sc, F(1, 20), F(1, 10))


# -- veto bargaining --------------------------------------------------------


def veto_scenario(menu):
    space = simplex_space(2, veto=(0, 0))
    return validate_scenario(space, unrestricted_cone(2), menu,
                             ConstantObjective(v=(F(1), F(2))))


def test_veto_verdicts():
    assert veto_undominated(veto_scenario([(0, 0), (0, 1)]))
    assert not veto_undominated(veto_scenario([(0, 0)]))
    assert not veto_undominated(veto_scenario([(0, 0), (1, 0)]))


def test_veto_requires_unique_argmax():
    space = simplex_space(2, veto=(0, 0))
    sc = validate_scenario(space, unrestricted_cone(2), [(0, 0), (0, 1)],
                           ConstantObjective(v=(F(1), F(1))))
    with pytest.raises(ScenarioError, match="unique"):
        veto_undominated(sc)


def test_veto_domination_exhibited():
    sc0 = veto_scenario([(0, 0)])
    sc1 = veto_scenario([(0, 0), (0, 1)])
    sample = seeded_type_sample(sc0.cone, 100, seed=4)
    rep = dominance_check(sc0.menu, sc1.menu, sc0.objective, sample, sc0.cone)
    assert rep.dominates
    assert rep.counterexample_types == ()
    assert rep.sample_only


# -- evaluation ---------------------------------------------------------------


def test_posted_price_revenue_enumeration():
    # valuations w/10 for w = 1..10; the tie at w = 5 resolves to no-trade by
    # the lexicographic rule, so exactly five types buy at price 1/2.
    sc = CORPUS_BY_NAME["posted_price_1_2"].scenario
    entries = [((F(w, 10), F(-1)), F(1, 10)) for w in range(1, 11)]
    sample = make_type_sample(entries, sc.cone)
    # independent oracle: direct enumeration of buyers
    buyers = [w for w in range(1, 11) if F(w, 10) * 1 - F(1, 2) > 0]
    expected = F(len(buyers), 10) * F(1, 2)
    assert expected == F(1, 4)
    value = expected_principal_utility(sc.menu, sc.objective, sample, sc.cone)
    assert value == expected


def test_dictator_menu_value():
    space = simplex_space(2)
    sc = validate_scenario(space, unrestricted_cone(2), [(1, 0)],
                           ConstantObjective(v=(F(3), F(1))))
    sample = seeded_type_sample(sc.cone, 10, seed=9)
    assert expected_principal_utility(sc.menu, sc.objective, sample, sc.cone) == 3


def test_empty_trade_menu_zero_revenue():
    sc = CORPUS_BY_NAME["posted_price_1_2"].scenario
    menu = Menu(items=((F(0), F(0)),))
    sample = seeded_type_sample(sc.cone, 16, seed=2)
    assert expected_principal_utility(menu, sc.objective, sample, sc.cone) == 0


def test_type_outside_cone_rejected():
    sc = CORPUS_BY_NAME["posted_price_1_2"].scenario
    sample = TypeSample(entries=(((F(0), F(1)), F(1)),))  # upward type: invalid
    with pytest.raises(ScenarioError):
        expected_principal_utility(sc.menu, sc.objective, sample, sc.cone)


def test_identical_menus_no_domination():
    sc = CORPUS_BY_NAME["posted_price_1_2"].scenario
    sample = seeded_type_sample(sc.cone, 50, seed=13)
    rep = dominance_check(sc.menu, sc.menu, sc.objective, sample, sc.cone)
    assert not rep.dominates and rep.counterexample_types == ()


def test_posted_price_revenues_cross():
    # prices 1/4 and 1/2 each win somewhere on a valuation grid
    space = monopoly_space(1, 1)
    cone = monopoly_cone(1)
    m_cheap = Menu(items=((F(0), F(0)), (F(1), F(1, 4))))
    m_dear = Menu(items=((F(0), F(0)), (F(1), F(1, 2))))
    obj = ConstantObjective(v=(F(0), F(1)))
    entries = [((F(w, 10), F(-1)), F(1, 10)) for w in range(1, 11)]
    sample = make_type_sample(entries, cone)
    a = dominance_check(m_cheap, m_dear, obj, sample, cone)
    b = dominance_check(m_dear, m_cheap, obj, sample, cone)
    assert not a.dominates and not b.dominates
    assert a.counterexample_types and b.counterexample_types


# -- sampling and the experiment harness -----------------------------------


def test_make_type_sample_validates_weights():
    cone = unrestricted_cone(2)
    with pytest.raises(ScenarioError, match="sum"):
        make_type_sample([((1, 0), F(1, 2))], cone)


def test_force_exhaustive_produces_exhaustive_menus():
    rng = random.Random(31)
    space = simplex_space(3)
    cone = unrestricted_cone(3)
    for i in range(20):
        items = apps.sample_menu("simplex", 3, 5, apps._instance_rng(55, i))
        items = force_exhaustive(items, space, cone)
        sc = validate_scenario(space, cone, dict.fromkeys(tuple(p) for p in items))
        assert is_exhaustive(extended_menu(sc), space).exhaustive


@pytest.mark.parametrize("preset,capacity", [("simplex", 153), ("cube", 289), ("monopoly", 289)])
def test_sample_menu_caps_k_at_the_grid(preset, capacity):
    # d = 2: C(2 + 16, 2) simplex points and 17^2 cube points on the 1/16 grid
    items = apps.sample_menu(preset, 2, capacity, random.Random(3))
    assert len(set(items)) == capacity
    rng = random.Random(3)
    with pytest.raises(ScenarioError, match=f"k = {capacity + 1} exceeds the {capacity} points"):
        apps.sample_menu(preset, 2, capacity + 1, rng)
    assert rng.random() == random.Random(3).random()  # nothing was drawn


def test_sample_menu_draw_guard_says_what_happened():
    class Stuck:
        def randrange(self, *args):
            return 0

    with pytest.raises(ScenarioError, match="10000 draws found only 1 of 2 distinct items"):
        apps.sample_menu("cube", 2, 2, Stuck())


def _former_force_exhaustive(items, space, cone):
    """The forcing loop as it was when every exit test built M."""
    items = [as_vec(p) for p in items]
    movable = set(range(len(items)))
    if space.veto is not None and space.veto in items:
        movable.discard(items.index(space.veto))
    for _ in range(2 * len(space.facets) + 2):
        em = extend_menu(Menu(items=tuple(dict.fromkeys(items))), cone, space)
        if is_exhaustive(em, space).exhaustive:
            return items
        untouched = [f for f in range(len(space.facets)) if f not in em.binding]
        if not untouched or not movable:
            break
        h = space.facets[untouched[0]]
        cand = max(movable, key=lambda i: (h.value(items[i]), -i))
        n = as_vec(h.normal)
        moved = vadd(items[cand], vscale(n, (h.offset - dot(n, items[cand])) / dot(n, n)))
        if not space.contains(moved):
            break
        items[cand] = moved
        movable.discard(cand)
    em = extend_menu(Menu(items=tuple(dict.fromkeys(items))), cone, space)
    if is_exhaustive(em, space).exhaustive:
        return items
    movable = sorted(set(range(len(items))) - ({items.index(space.veto)} if space.veto in items else set()))
    if len(items) == 1 and movable:
        return [space.poly.points[0]]
    if len(movable) < 2:
        raise ScenarioError("cannot force exhaustiveness with so few movable items")
    vtx = space.poly.points[0]
    items[movable[0]] = vtx
    vertex_facets = space.facet_set(vtx)
    h = space.facets[next(i for i in range(len(space.facets)) if i not in vertex_facets)]
    n = as_vec(h.normal)
    base = items[movable[1]]
    items[movable[1]] = vadd(base, vscale(n, (h.offset - dot(n, base)) / dot(n, n)))
    items = list(dict.fromkeys(items))
    if not is_exhaustive(extend_menu(Menu(items=tuple(items)), cone, space), space).exhaustive:
        raise ScenarioError("exhaustiveness forcing failed")
    return items


def _outcome(force, items, space, cone):
    try:
        return force(list(items), space, cone)
    except ScenarioError as e:
        return str(e)


def test_force_exhaustive_matches_former_loop_duplicate_free():
    raised = duplicated = 0
    for preset in ("simplex", "cube", "monopoly"):
        for d in (2, 3, 4):
            space, cone = space_for_preset(preset, d=d)
            for k in (1, 2, 3, 5, 8):
                for s in range(4):
                    items = apps.sample_menu(preset, d, k, random.Random(100 * d + 10 * k + s))
                    old = _outcome(_former_force_exhaustive, items, space, cone)
                    new = _outcome(force_exhaustive, items, space, cone)
                    if isinstance(old, str):
                        assert new == old
                        raised += 1
                        continue
                    duplicated += len(set(old)) < len(old)
                    assert new == list(dict.fromkeys(old))
                    validate_scenario(space, cone, new)  # duplicate-free, inside A
    assert raised and duplicated


def test_fallback_projects_only_where_a_holds_the_result():
    # both menus reach the fallback, which pins (-3, -2) resp. (-3, -1), a
    # vertex of A; the first facet missing it would project the second item
    # to (-149/136, -3) resp. (-2, 3), outside A
    cone = unrestricted_cone(2)
    space = allocation_space_from_points([(-3, -2), (-1, -3), (0, 3), (2, 1), (3, -3)])
    forced = force_exhaustive([(F(5, 9), F(-17, 9)), (F(1, 6), F(5, 12))], space, cone)
    assert forced == [(-3, -2), (F(149, 408), F(1075, 408))]
    validate_scenario(space, cone, forced)  # inside A
    triangle = allocation_space_from_points([(-3, -1), (1, 3), (3, 3)])
    with pytest.raises(ScenarioError, match="no facet projection stays in A"):
        force_exhaustive([(F(1, 3), F(5, 3)), (F(-2), F(0))], triangle, cone)


def test_forcing_runs_until_no_item_is_movable():
    # twelve items in the one-good monopoly space: forcing needs more passes
    # than twice the facet count plus two, a cap the loop no longer has
    space, cone = space_for_preset("monopoly", d=2)
    items = apps.sample_menu("monopoly", 2, 12, apps._instance_rng(17, 10))
    forced = force_exhaustive(items, space, cone)
    assert 2 * len(space.facets) + 2 < len(items)
    em = extended_menu(validate_scenario(space, cone, forced))
    assert is_exhaustive(em, space).exhaustive


@st.composite
def unrestricted_menus(draw):
    preset = draw(st.sampled_from(["simplex", "cube"]))
    d = draw(st.integers(2, 5))
    items = []
    for _ in range(draw(st.integers(1, 6))):
        left = 4  # coordinates on the 1/4 grid
        coords = []
        for _ in range(d):
            c = draw(st.integers(0, left))
            coords.append(F(c, 4))
            if preset == "simplex":
                left -= c
        items.append(tuple(coords))
    return preset, d, items


@settings(max_examples=60, deadline=None)
@given(unrestricted_menus())
def test_binding_is_union_of_item_facet_sets(case):
    preset, d, items = case
    space, cone = space_for_preset(preset, d=d)
    em = extend_menu(Menu(items=tuple(dict.fromkeys(items))), cone, space)
    union = frozenset().union(*map(space.facet_set, items))
    assert em.binding == union
    assert apps._exhaustive_binding(items, space, cone) == (is_exhaustive(em, space).exhaustive, union)


def test_forcing_builds_no_extended_menu_on_unrestricted_cones(monkeypatch):
    spaces = {p: space_for_preset(p, d=3) for p in ("simplex", "cube", "monopoly")}
    built = []
    build = geo.polyhedron_from_generators

    def spy(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(geo, "polyhedron_from_generators", spy)
    for preset in ("simplex", "cube"):
        space, cone = spaces[preset]
        for s in range(10):
            force_exhaustive(apps.sample_menu(preset, 3, 6, random.Random(s)), space, cone)
    assert built == []
    space, cone = spaces["monopoly"]
    force_exhaustive(apps.sample_menu("monopoly", 3, 6, random.Random(0)), space, cone)
    assert built  # polar rays: M is still built


def test_monopoly_binding_is_read_off_m():
    # (1/2, 1) lies on the transfer cap, but M = conv(items) + polar cone has
    # the single vertex (0, 0): the cap is no binding facet of M
    space, cone = monopoly_space(1, 1), monopoly_cone(1)
    items = [(F(0), F(0)), (F(1, 4), F(3, 4)), (F(1, 2), F(1))]
    em = extend_menu(Menu(items=tuple(items)), cone, space)
    assert em.vertices == ((F(0), F(0)),)
    assert frozenset().union(*map(space.facet_set, items)) == {0, 1, 2}
    assert apps._exhaustive_binding(items, space, cone) == (True, frozenset({0, 1}))


def test_experiment_d3_general_position_fraction_one():
    summary = genericity_experiment("simplex", 3, 6, 25, seed=101)
    assert summary.exhaustive_after_forcing >= 20
    assert summary.extreme == summary.exhaustive_after_forcing
    assert summary.mean_nullity == 0


def test_experiment_d2_strike_quads_fraction_zero():
    summary = genericity_experiment("simplex", 2, 4, 25, seed=7)
    # size-4 strike menus in the plane are never extreme
    assert summary.extreme <= summary.exhaustive_after_forcing
    # some instances may collapse to 3 essential items; none with 4 are extreme
    assert summary.extreme_fraction < 1


def test_experiment_deterministic():
    a = genericity_experiment("cube", 3, 5, 10, seed=42)
    b = genericity_experiment("cube", 3, 5, 10, seed=42)
    assert a == b


def test_experiment_counts_forcing_failures():
    # monopoly d = 3: some sampled menus cannot be forced; each is counted
    space, cone = space_for_preset("monopoly", d=3)
    failed = 0
    for i in range(25):
        try:
            force_exhaustive(apps.sample_menu("monopoly", 3, 6, apps._instance_rng(7, i)), space, cone)
        except ScenarioError:
            failed += 1
    summary = genericity_experiment("monopoly", 3, 6, 25, seed=7)
    assert summary.forcing_failed == failed > 0
    assert summary.exhaustive_after_forcing + summary.forcing_failed == summary.samples


def test_expected_utility_linear_under_minkowski_average():
    # value(avg menu) = avg of values when no sample type is tied on either
    # summand (ties are excluded by filtering the sample)
    import random as _random

    space = monopoly_space(1, 1)
    cone = monopoly_cone(1)
    obj = ConstantObjective(v=(F(0), F(1)))
    rng = _random.Random(64)
    checked = 0
    for _ in range(20):
        m1 = sorted({(F(0), F(0))} | {
            (F(rng.randrange(0, 17), 16), F(rng.randrange(0, 17), 16))
            for _ in range(rng.randrange(1, 4))})
        m2 = sorted({(F(0), F(0))} | {
            (F(rng.randrange(0, 17), 16), F(rng.randrange(0, 17), 16))
            for _ in range(rng.randrange(1, 4))})
        avg = sorted({tuple((a + b) / 2 for a, b in zip(p, q)) for p in m1 for q in m2})
        menus = [Menu(items=tuple(m)) for m in (m1, m2, avg)]
        entries = []
        for w in range(1, 17):
            theta = (F(w, 16), F(-1))
            # exclude types tied on either summand
            tied = False
            for m in (m1, m2):
                vals = sorted({sum(a * b for a, b in zip(item, theta)) for item in m})
                if len(vals) != len(m):
                    tied = True
            if not tied:
                entries.append(theta)
        if not entries:
            continue
        w = F(1, len(entries))
        sample = TypeSample(entries=tuple((t, w) for t in entries))
        v1 = expected_principal_utility(menus[0], obj, sample, cone)
        v2 = expected_principal_utility(menus[1], obj, sample, cone)
        va = expected_principal_utility(menus[2], obj, sample, cone)
        assert va == (v1 + v2) / 2
        checked += 1
    assert checked >= 10
