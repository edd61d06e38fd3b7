from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import CORPUS_BY_NAME
from extremenu import perturb
from extremenu.exhaustive import is_exhaustive
from extremenu.extremality import ExtremalityVerdict, is_extreme_finite
from extremenu.geometry import as_vec, dot, nullspace_basis, rank, vadd, vsub
from extremenu.model import Menu, extend_menu, extended_menu, validate_scenario
from extremenu.perturb import (
    GeneralPositionReport,
    PerturbationError,
    is_general_position,
    perturb_to_extreme,
)
from extremenu.presets import monopoly_cone, monopoly_space, simplex_space, space_for_preset
from extremenu.model import unrestricted_cone
from oracles import hausdorff_bound


def test_few_points_always_general():
    assert is_general_position([(0, 0, 0), (1, 0, 0), (0, 1, 0)]).general


def test_pyramid_base_violates_general_position():
    case = CORPUS_BY_NAME["pyramid_delta3"]
    rep = is_general_position(case.scenario.menu.items)
    assert not rep.general
    normal, offset = rep.violating_hyperplane
    # witness plane contains all violating points
    from extremenu.geometry import as_vec, dot

    for p in rep.violating_points:
        assert dot(as_vec(normal), p) == offset
    assert len(rep.violating_points) == 4


def test_simplex_vertices_general():
    case = CORPUS_BY_NAME["delta3_dictator"]
    s3 = case.scenario.space
    assert is_general_position(s3.poly.points).general


def test_perturb_idempotent_on_extreme():
    case = CORPUS_BY_NAME["pyramid_delta3"]
    sc = case.scenario
    res = perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 100), seed=5)
    assert res.already_extreme
    assert res.menu == sc.menu.items
    assert all(all(c == 0 for c in mv) for mv in res.moved)


def test_perturb_prism_certified_extreme():
    case = CORPUS_BY_NAME["prism_delta3"]
    sc = case.scenario
    res = perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 20), seed=3)
    assert not res.already_extreme
    assert res.extremality.extreme
    assert len(res.menu) == len(sc.menu.items)
    assert hausdorff_bound(sc.menu.items, res.menu) <= F(1, 400)  # delta^2
    # the result is independently certified, not inferred from positions
    em = extended_menu(validate_scenario(sc.space, sc.cone, res.menu))
    assert is_extreme_finite(em, sc.space).extreme


def test_perturb_rejects_d2():
    case = CORPUS_BY_NAME["delta2_strike_quadrilateral"]
    sc = case.scenario
    with pytest.raises(PerturbationError, match="d = 2"):
        perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 20), seed=1)


def test_perturb_rejects_non_exhaustive():
    space = simplex_space(3)
    cone = unrestricted_cone(3)
    sc = validate_scenario(space, cone, [(F(1, 4), F(1, 4), F(1, 4)),
                                         (F(1, 8), F(1, 8), F(1, 8)),
                                         (F(1, 2), F(1, 8), F(1, 8)),
                                         (F(1, 8), F(1, 2), F(1, 8))])
    with pytest.raises(PerturbationError, match="exhaustive"):
        perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 20), seed=1)


def test_perturb_rejects_nonpositive_delta():
    case = CORPUS_BY_NAME["prism_delta3"]
    sc = case.scenario
    with pytest.raises(PerturbationError):
        perturb_to_extreme(sc.menu, sc.space, sc.cone, 0, seed=1)


def test_perturb_deterministic():
    case = CORPUS_BY_NAME["prism_delta3"]
    sc = case.scenario
    a = perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 20), seed=11)
    b = perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 20), seed=11)
    assert a.menu == b.menu and a.retries == b.retries
    c = perturb_to_extreme(sc.menu, sc.space, sc.cone, F(1, 20), seed=12)
    assert c.extremality.extreme


# -- integer predicates against the rank definitions they replace ----------


def general_position_by_rank(pts):
    """The former rank test on every (d+1)-subset, with the same witness."""
    d = len(pts[0])
    for combo in combinations(range(len(pts)), d + 1):
        base = pts[combo[0]]
        rows = [vsub(pts[i], base) for i in combo[1:]]
        if rank(rows) <= d - 1:
            normal = nullspace_basis(rows)[0]
            return GeneralPositionReport(False, tuple(pts[i] for i in combo),
                                         (normal, dot(normal, base)))
    return GeneralPositionReport(True)


COORD = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 3, 4]))


@st.composite
def affine_combination(draw, pts, d):
    """A point on the flat through up to d of pts (weights summing to 1)."""
    k = draw(st.integers(1, min(len(pts), d)))
    chosen = draw(st.permutations(pts))[:k]
    w = draw(st.lists(COORD, min_size=k - 1, max_size=k - 1))
    w.append(1 - sum(w, F(0)))
    return tuple(sum((a * p[c] for a, p in zip(w, chosen)), F(0)) for c in range(d))


@st.composite
def point_sets(draw):
    d = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[COORD] * d), min_size=1, max_size=d + 3))
    for _ in range(draw(st.integers(0, 3))):
        pts.append(draw(affine_combination(pts, d)))
    return [as_vec(p) for p in draw(st.permutations(pts))]


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_general_position_matches_rank_definition(pts):
    assert is_general_position(pts) == general_position_by_rank(pts)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(*[COORD] * (m + 1)), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(0, 3), min_size=m + 1, max_size=m + 1),
    st.integers(0, 4))))
def test_pairwise_domination_loses_a_vertex(case):
    # an item w + p, p != 0 in the polar cone, is the midpoint of w + p/2 and
    # w + 3p/2 in M, so the vertex count alone rejects pairwise absorption
    m, items, weights, which = case
    cone = monopoly_cone(m)
    p = tuple(sum(c * r[k] for c, r in zip(weights, cone.polar_rays)) for k in range(m + 1))
    assume(any(p))
    w = items[which % len(items)]
    v = vadd(w, as_vec(p))
    assume(v not in items)
    assert all(dot(r, vsub(v, w)) <= 0 for r in cone.rays)
    menu = Menu(items=tuple(as_vec(x) for x in items) + (v,))
    em = extend_menu(menu, cone, monopoly_space(m))
    assert len(em.vertices) < len(menu.items)


# criterion-12 prisms 0 and 14 (test_acceptance._nonextreme_exhaustive_prism)
# with their seeds; the second needs a second attempt
PINNED = {
    "prism-0": (
        [("0", "0", "0"), ("0", "1/8", "0"), ("1/4", "1/16", "3/16"),
         ("1/4", "3/16", "3/16"), ("1/2", "0", "0"), ("3/4", "1/16", "3/16")],
        9000, 1,
        [("0", "0", "0"), ("7/1920", "943/7680", "1/192"), ("233/960", "87/1280", "1477/7680"),
         ("653/2560", "473/2560", "1423/7680"), ("3851/7680", "7/7680", "3/512"),
         ("3/4", "1/16", "3/16")],
    ),
    "prism-14": (
        [("0", "0", "0"), ("0", "3/16", "0"), ("3/16", "3/16", "1/4"),
         ("3/16", "3/8", "1/4"), ("3/8", "0", "0"), ("9/16", "3/16", "1/4")],
        9014, 2,
        [("0", "0", "0"), ("11/3840", "691/3840", "1/1536"), ("295/1536", "1499/7680", "619/2560"),
         ("731/3840", "1441/3840", "1909/7680"), ("1471/3840", "1/128", "1/128"),
         ("9/16", "3/16", "1/4")],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_perturbation_draws_are_pinned(name):
    items, seed, retries, menu = PINNED[name]
    space, cone = space_for_preset("simplex", d=3)
    sc = validate_scenario(space, cone, items)
    res = perturb_to_extreme(sc.menu, space, cone, F(1, 20), seed=seed)
    assert res.retries == retries
    assert res.menu == tuple(as_vec(p) for p in menu)


def test_general_position_is_checked_on_each_sampled_menu(monkeypatch):
    # a rejected general-position check costs one attempt and no draws: the
    # run then succeeds one retry later, with an exact general-position report
    items, seed, retries, _ = PINNED["prism-0"]
    space, cone = space_for_preset("simplex", d=3)
    sc = validate_scenario(space, cone, items)
    calls = []

    def fail_first(points):
        calls.append(points)
        return GeneralPositionReport(False) if len(calls) == 1 else is_general_position(points)

    monkeypatch.setattr(perturb, "is_general_position", fail_first)
    res = perturb_to_extreme(sc.menu, space, cone, F(1, 20), seed=seed)
    assert res.retries == retries + 1 == len(calls)
    assert res.general_position == is_general_position(res.menu) == GeneralPositionReport(True)
    monkeypatch.setattr(perturb, "is_general_position", lambda points: GeneralPositionReport(False))
    with pytest.raises(PerturbationError, match=r"within 64 retries .*: perturbed items not in general position$"):
        perturb_to_extreme(sc.menu, space, cone, F(1, 20), seed=seed)


def test_still_decomposable_names_the_rigid_components(monkeypatch):
    # a forced monopoly menu (d = 3) whose perturbations keep M a path of two
    # bounded edges: no triangle, so no rigid component, and nullity 1
    space, cone = space_for_preset("monopoly", d=3)
    menu = Menu(items=tuple(as_vec(p) for p in [
        (0, 0, 0), (F(13, 16), F(13, 16), 1), (F(5, 8), F(7, 16), F(9, 16))]))
    em = extend_menu(menu, cone, space)
    assert len(em.edges) == 2 and is_exhaustive(em, space).exhaustive
    assert not is_extreme_finite(em, space).extreme
    with pytest.raises(PerturbationError, match=r": perturbed menu still decomposable \(largest rigid "
                                                r"component covers 0 of 3 vertices, nullity 1\)$"):
        perturb_to_extreme(menu, space, cone, F(1, 20), seed=0)
    # a perturbed prism is one rigid component; a verdict forced to
    # "decomposable" is reported with its component and nullity
    items, seed, _, _ = PINNED["prism-0"]
    space, cone = space_for_preset("simplex", d=3)
    monkeypatch.setattr(perturb, "is_extreme_finite", lambda em, space: ExtremalityVerdict(False, 2))
    with pytest.raises(PerturbationError, match=r"covers 6 of 6 vertices, nullity 2\)$"):
        perturb_to_extreme(validate_scenario(space, cone, items).menu, space, cone, F(1, 20), seed=seed)
