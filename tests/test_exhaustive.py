import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS, CORPUS_BY_NAME
from extremenu import exhaustive, geometry as geo
from extremenu.exhaustive import (
    ExhaustivenessReport,
    facet_conditions_hold,
    homothety_cross_check,
    is_exhaustive,
    minimal_exhaustive_subset,
)
from extremenu.geometry import as_vec, dot, rank, solve_affine
from extremenu.model import (
    Menu,
    allocation_space_from_points,
    extend_menu,
    extended_menu,
    unrestricted_cone,
    validate_scenario,
)
from extremenu.presets import simplex_space, space_for_preset


def em_of(name):
    case = CORPUS_BY_NAME[name]
    return extended_menu(case.scenario), case.scenario.space


def test_simplex_full_touch_is_exhaustive():
    em, space = em_of("delta2_vertex_menu")
    rep = is_exhaustive(em, space)
    assert rep.exhaustive and rep.case == "spanning-and-empty-intersection"


def test_parallel_facet_segment_translation_witness():
    em, space = em_of("fig3_left_parallel_segment")
    rep = is_exhaustive(em, space)
    assert not rep.exhaustive
    t = rep.witness_translation
    assert t is not None
    # witness is orthogonal to every binding facet normal and slides both ways
    for i in rep.binding:
        assert dot(as_vec(space.facets[i].normal), t) == 0
    assert abs(t[0]) > 0 and t[1] == 0  # horizontal, matching the figure


def test_two_facet_segment_dilation_center():
    em, space = em_of("fig3_right_two_facet_segment")
    rep = is_exhaustive(em, space)
    assert not rep.exhaustive
    z = rep.witness_center
    assert z is not None
    for i in rep.binding:
        assert space.facets[i].tight_at(z)


def test_singleton_cases():
    em, space = em_of("delta3_dictator")
    assert is_exhaustive(em, space).case == "singleton-at-vertex"
    em, space = em_of("delta2_singleton_interior")
    rep = is_exhaustive(em, space)
    assert not rep.exhaustive and rep.witness_translation is not None


def test_corpus_exhaustiveness_verdicts():
    for case in CORPUS:
        em = extended_menu(case.scenario)
        rep = is_exhaustive(em, case.scenario.space)
        assert rep.exhaustive == case.exhaustive, case.name


def test_homothety_cross_check_agrees_on_corpus():
    for case in CORPUS:
        em = extended_menu(case.scenario)
        if len(em.vertices) < 2:
            continue
        assert homothety_cross_check(em, case.scenario.space) == case.exhaustive, case.name


def test_homothety_cross_check_rejects_singletons():
    em, space = em_of("delta3_dictator")
    with pytest.raises(geo.GeometryError):
        homothety_cross_check(em, space)


# -- minimal exhaustive subsets -------------------------------------------


def test_simplex_vertex_menu_minimal_subset_two_points():
    em, space = em_of("delta2_vertex_menu")
    sub = minimal_exhaustive_subset(em.vertices, space)
    assert len(sub) == 2
    assert facet_conditions_hold(
        [i for i in range(len(space.facets))
         for v in sub if space.facets[i].tight_at(v)],
        space,
    )


def test_cube_pair_suffices():
    # two cube corners already span all coordinate directions with an empty
    # common intersection (antipodal corners touch all six facets; corners
    # differing in one coordinate already give an infeasible facet pair)
    em, space = em_of("cube3_full_vertex_menu")
    sub = minimal_exhaustive_subset(em.vertices, space)
    assert len(sub) == 2
    binding = [i for i in range(len(space.facets))
               for v in sub if space.facets[i].tight_at(v)]
    assert facet_conditions_hold(binding, space)
    # the antipodal pair named in the derivation is itself exhaustive too
    anti = [(F(0),) * 3, (F(1),) * 3]
    anti_binding = [i for i in range(len(space.facets))
                    for v in anti if space.facets[i].tight_at(v)]
    assert len(set(anti_binding)) == 6
    assert facet_conditions_hold(anti_binding, space)


def test_subset_with_must_include():
    em, space = em_of("delta2_vertex_menu")
    sub = minimal_exhaustive_subset(em.vertices, space, must_include=(0, 0))
    assert (F(0), F(0)) in sub
    assert len(sub) <= 3


def test_subset_with_a_facetless_must_include_takes_d_plus_two():
    # (1/2, 1/2) is interior to the square: the two rank picks and the rule's
    # pick come on top of it, one more point than the d + 1 bound allows
    space = space_for_preset("cube", d=2)[0]
    menu = [(0, F(1, 4)), (F(1, 4), 0), (1, F(1, 8)), (F(1, 2), F(1, 2))]
    sub = minimal_exhaustive_subset(menu, space, must_include=(F(1, 2), F(1, 2)))
    assert sub == tuple(as_vec(v) for v in menu[3:] + menu[:3])
    binding = [i for i in range(len(space.facets)) for v in sub if space.facets[i].tight_at(v)]
    assert facet_conditions_hold(binding, space)


def test_singleton_subset_is_itself():
    em, space = em_of("delta3_dictator")
    assert minimal_exhaustive_subset(em.vertices, space) == em.vertices


def test_subset_of_non_exhaustive_input_rejected():
    em, space = em_of("delta2_floating_triangle")
    with pytest.raises(geo.GeometryError):
        minimal_exhaustive_subset(em.vertices, space)


def test_subset_bound_d_plus_one_random():
    rng = random.Random(17)
    space = simplex_space(3)
    cone = unrestricted_cone(3)
    for _ in range(25):
        items = {(F(0), F(0), F(0)), (F(1), F(0), F(0))}
        while len(items) < 6:
            p = tuple(F(rng.randrange(0, 9), 8) for _ in range(3))
            if sum(p) <= 1:
                items.add(p)
        sc = validate_scenario(space, cone, sorted(items))
        em = extended_menu(sc)
        if not is_exhaustive(em, space).exhaustive:
            continue
        sub = minimal_exhaustive_subset(em.vertices, space)
        assert len(sub) <= 4
        binding = [i for i in range(len(space.facets))
                   for v in sub if space.facets[i].tight_at(v)]
        assert facet_conditions_hold(binding, space)


def _random_rational_space(seed):
    rng = random.Random(seed)
    d = 2 + seed % 2
    pts = [tuple(F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(d))
           for _ in range(d + 3)]
    return allocation_space_from_points(pts)


@pytest.mark.parametrize("space", [space_for_preset(p, d=d)[0]
                                   for p in ("simplex", "cube", "monopoly") for d in (2, 3, 4)]
                         + [_random_rational_space(seed) for seed in range(4)])
def test_facet_conditions_match_rank_and_solve(space):
    # one elimination on [q n | q c] against the former rank + solve_affine pair;
    # the random polytopes have offsets with denominators
    d = space.dim
    for r in range(len(space.facets) + 1):
        for sub in combinations(range(len(space.facets)), r):
            normals = [space.facets[i].normal for i in sub]
            offsets = [space.facets[i].offset for i in sub]
            expected = rank(normals) == d and solve_affine(normals, offsets) is None
            assert facet_conditions_hold(sub, space) == expected, sub


# -- one rule against the former stepwise decision --------------------------


def _former_is_exhaustive(em, space):
    """The former decision: a singleton test, then the rank of the binding
    normals, then solve_affine for a common point."""
    binding = tuple(sorted(em.binding))
    if len(em.vertices) == 1 and em.vertices[0] in space.poly.points:
        return ExhaustivenessReport(True, "singleton-at-vertex", binding=binding)
    normals = [space.facets[i].normal for i in binding]
    offsets = [space.facets[i].offset for i in binding]
    if rank(normals) < space.dim:
        t = exhaustive._translation_witness(normals, em, space)
        return ExhaustivenessReport(False, "failure", witness_translation=t, binding=binding)
    z = solve_affine(normals, offsets)
    if z is not None:
        for i in binding:
            if not space.facets[i].tight_at(z):
                raise geo.InternalError("dilation center fails a binding facet (internal)")
        return ExhaustivenessReport(False, "failure", witness_center=z, binding=binding)
    return ExhaustivenessReport(True, "spanning-and-empty-intersection", binding=binding)


def _former_minimal_exhaustive_subset(vertices, space, must_include=None):
    """The former greedy with its own singleton branch and bookkeeping."""
    vertices = [as_vec(v) for v in vertices]
    d = space.dim
    facet_sets = [space.facet_set(v) for v in vertices]
    if len(vertices) == 1:
        if vertices[0] in space.poly.points:
            return tuple(vertices)
        raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")
    chosen = []
    if must_include is not None:
        must_include = as_vec(must_include)
        try:
            chosen.append(vertices.index(must_include))
        except ValueError:
            raise geo.GeometryError("must_include is not among the input vertices")

    def facet_union(sel):
        out = set()
        for i in sel:
            out |= facet_sets[i]
        return sorted(out)

    current_rank = rank([space.facets[i].normal for i in facet_union(chosen)]) if chosen else 0
    while current_rank < d:
        best, best_rank = None, current_rank
        for i in range(len(vertices)):
            if i in chosen:
                continue
            r = rank([space.facets[j].normal for j in facet_union(chosen + [i])])
            if r > best_rank:
                best, best_rank = i, r
                if r == d:
                    break
        if best is None:
            raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")
        chosen.append(best)
        current_rank = best_rank
    if not facet_conditions_hold(facet_union(chosen), space):
        extra = next((i for i in range(len(vertices)) if i not in chosen
                      and facet_conditions_hold(facet_union(chosen + [i]), space)), None)
        if extra is None:
            raise geo.GeometryError("minimal_exhaustive_subset: input is not exhaustive")
        chosen.append(extra)
    bound = d + (2 if must_include is not None and not facet_sets[chosen[0]] else 1)
    if len(chosen) > bound:
        raise geo.InternalError(f"minimal subset exceeded {bound} points (internal)")
    if not facet_conditions_hold(facet_union(chosen), space):
        raise geo.InternalError("minimal subset failed certification (internal)")
    return tuple(vertices[i] for i in chosen)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (geo.GeometryError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


@st.composite
def menus(draw):
    """(space, cone, items): grid points of a preset, or rational convex
    combinations of two vertices of a random polytope (vertices, edge and
    chord points), so that many menus touch several facets."""
    if draw(st.booleans()):
        preset = draw(st.sampled_from(["simplex", "cube", "monopoly"]))
        space, cone = space_for_preset(preset, d=draw(st.integers(2, 4)))
        grid = st.tuples(*[st.integers(0, 4)] * space.dim).map(
            lambda c: tuple(F(x, 4) for x in c)).filter(space.contains)
        items = draw(st.lists(grid, min_size=1, max_size=6))
        if space.veto is not None and draw(st.booleans()):
            items.append(space.veto)
    else:
        space = _random_rational_space(draw(st.integers(0, 10_000)))
        cone = unrestricted_cone(space.dim)
        pts = space.poly.points
        pair = st.tuples(st.sampled_from(pts), st.sampled_from(pts),
                         st.sampled_from([F(0), F(1, 3), F(1, 2)]))
        items = [tuple(a + w * (b - a) for a, b in zip(p, q))
                 for p, q, w in draw(st.lists(pair, min_size=1, max_size=6))]
    return space, cone, tuple(dict.fromkeys(items))


@settings(max_examples=150, deadline=None)
@given(menus(), st.data())
def test_rule_matches_former_decision_and_greedy(menu, data):
    space, cone, items = menu
    em = extend_menu(Menu(items=items), cone, space)
    assert _outcome(is_exhaustive, em, space) == _outcome(_former_is_exhaustive, em, space)
    must = data.draw(st.sampled_from((None,) + em.vertices))
    assert (_outcome(minimal_exhaustive_subset, em.vertices, space, must_include=must)
            == _outcome(_former_minimal_exhaustive_subset, em.vertices, space, must_include=must))


def test_exhaustive_verdict_builds_no_witness(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return solve_affine(*args)

    monkeypatch.setattr(exhaustive, "solve_affine", spy)
    for case in CORPUS:
        if case.exhaustive:
            assert is_exhaustive(extended_menu(case.scenario), case.scenario.space).exhaustive
    assert calls == []
    em, space = em_of("fig3_right_two_facet_segment")
    assert is_exhaustive(em, space).witness_center is not None
    assert len(calls) == 1


def test_greedy_scan_stops_at_full_rank(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(exhaustive, "rank", spy)
    space = simplex_space(2)
    menu = [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 2), 0)]
    assert minimal_exhaustive_subset(menu, space) == (as_vec((0, 0)), as_vec((1, 0)))
    # only the first candidate is ranked: it reaches rank d and ends the scan
    assert len([rows for rows in calls if rows]) == 1
