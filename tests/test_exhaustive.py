import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from corpus import CORPUS, CORPUS_BY_NAME
from extremenu import geometry as geo
from extremenu.exhaustive import (
    facet_conditions_hold,
    homothety_cross_check,
    is_exhaustive,
    minimal_exhaustive_subset,
)
from extremenu.geometry import as_vec, dot, rank, solve_affine
from extremenu.model import (
    allocation_space_from_points,
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
