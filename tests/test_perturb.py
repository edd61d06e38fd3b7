from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS_BY_NAME
from extremenu import perturb
from extremenu.exhaustive import minimal_exhaustive_subset
from extremenu.extremality import is_extreme_finite
from extremenu.geometry import as_vec, dot, nullspace_basis, primitive, rank, vsub
from extremenu.model import extended_menu, validate_scenario
from extremenu.perturb import (
    GeneralPositionReport,
    PerturbationError,
    _avoids_spanned_hyperplanes,
    _homogeneous,
    _spanned_hyperplanes,
    hausdorff_bound,
    is_general_position,
    perturb_to_extreme,
)
from extremenu.presets import monopoly_cone, simplex_space, space_for_preset
from extremenu.model import unrestricted_cone


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


def avoids_by_rank(x, current, d):
    """The former test: x off every hyperplane spanned by d current points."""
    for combo in combinations(range(len(current)), d):
        base = current[combo[0]]
        rows = [vsub(current[i], base) for i in combo[1:]]
        if rank(rows) < d - 1:
            continue
        if rank(rows + [vsub(x, base)]) == d - 1:
            return False
    return True


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
@given(point_sets(), st.data())
def test_spanned_hyperplanes_match_rank_definition(pts, data):
    d = len(pts[0])
    # built as the perturbation builds them: the first d points at once, then
    # one accepted point at a time
    hom = [_homogeneous(p) for p in pts[:d]]
    planes = _spanned_hyperplanes(combinations(hom, d))
    for p in pts[d:]:
        hp = _homogeneous(p)
        planes += _spanned_hyperplanes(c + (hp,) for c in combinations(hom, d - 1))
        hom.append(hp)
    for _ in range(4):
        x = data.draw(st.one_of(st.tuples(*[COORD] * d), affine_combination(pts, d)))
        assert _avoids_spanned_hyperplanes(_homogeneous(x), planes) == avoids_by_rank(x, pts, d)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.tuples(*[COORD] * (m + 1)), min_size=2, max_size=6, unique=True))))
def test_convex_position_matches_polar_definition(case):
    # the former test: no difference v - w of two items lies in the polar cone
    m, items = case
    cone = monopoly_cone(m)
    absorbed = any(i != j and all(dot(r, vsub(v, w)) <= 0 for r in cone.rays)
                   for i, v in enumerate(items) for j, w in enumerate(items))
    assert perturb._convex_position(items, cone) == (not absorbed)


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


def test_attempt_screens_against_every_spanned_hyperplane(monkeypatch):
    # each candidate meets the planes spanned by d of the points placed so far:
    # the core's, built once, plus those through each accepted point
    items, seed, _, _ = PINNED["prism-0"]
    space, cone = space_for_preset("simplex", d=3)
    sc = validate_scenario(space, cone, items)
    calls = []
    screen = perturb._avoids_spanned_hyperplanes

    def spy(x, planes):
        calls.append((x, list(planes), screen(x, planes)))
        return calls[-1][2]

    monkeypatch.setattr(perturb, "_avoids_spanned_hyperplanes", spy)
    res = perturb_to_extreme(sc.menu, space, cone, F(1, 20), seed=seed)
    assert res.retries == 1  # every call belongs to the one attempt
    core = minimal_exhaustive_subset(extended_menu(sc).vertices, space)
    placed = [_homogeneous(res.menu[sc.menu.items.index(v)]) for v in core]

    def unsigned(planes):
        return {max(primitive(c), primitive([-a for a in c])) for c in planes}

    for x, planes, accepted in calls:
        assert unsigned(planes) == unsigned(_spanned_hyperplanes(combinations(placed, 3)))
        if accepted:
            placed.append(x)
    assert len(placed) == len(res.menu)
