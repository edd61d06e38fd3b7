import dataclasses
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS, CORPUS_BY_NAME
from extremenu import applications as apps, cli, extremality, geometry as geo
from extremenu.exhaustive import is_exhaustive
from extremenu.extremality import (
    DecompositionCertificate,
    DeformationDirection,
    build_deformation_system,
    def_polytope_cross_check,
    extract_decomposition,
    is_extreme_finite,
    rigid_components,
    verify_certificate,
)
from extremenu.geometry import as_vec
from extremenu.kernels import rref_sparse
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
from extremenu.presets import cube_space, simplex_space, space_for_preset
from oracles import deformation_nullity, is_deformation, summand_extended_menus


def em_of(name):
    case = CORPUS_BY_NAME[name]
    return case.scenario, extended_menu(case.scenario)


# -- deformation system ----------------------------------------------------


def test_posted_price_system_shape_and_rank():
    sc, em = em_of("posted_price_1_2")
    system = build_deformation_system(em, sc.space)
    # 2 vertices in dimension 2 plus one bounded edge: 5 unknowns, full rank
    assert system.ncols == 5
    assert len(rref_sparse(system.rows, system.ncols)[0]) == 5


def test_floating_segment_nullspace_contains_translations():
    space = cube_space(2)
    cone = unrestricted_cone(2)
    sc = validate_scenario(space, cone, [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))])
    em = extended_menu(sc)
    verdict = is_extreme_finite(em, sc.space)
    assert not verdict.extreme
    assert verdict.nullity >= 2  # translations at least


def test_corpus_extremality_and_cross_check():
    for case in CORPUS:
        em = extended_menu(case.scenario)
        verdict = is_extreme_finite(em, case.scenario.space)
        assert verdict.extreme == case.extreme, case.name
        assert def_polytope_cross_check(em, case.scenario.space) == case.extreme, case.name


def test_extreme_implies_exhaustive_on_corpus():
    for case in CORPUS:
        if case.extreme:
            em = extended_menu(case.scenario)
            assert is_exhaustive(em, case.scenario.space).exhaustive, case.name


def test_pyramid_extreme_despite_coplanar_base():
    sc, em = em_of("pyramid_delta3")
    assert is_extreme_finite(em, sc.space).extreme
    assert def_polytope_cross_check(em, sc.space)


# -- decomposition certificates ---------------------------------------------


def test_prism_certificate_verifies():
    sc, em = em_of("prism_delta3")
    verdict = is_extreme_finite(em, sc.space)
    assert not verdict.extreme
    cert = extract_decomposition(em, sc.space, verdict.direction)
    assert verify_certificate(cert, em, sc.space).ok
    assert set(cert.menu_plus) != set(cert.menu_minus)


def test_matching_facet_supports_without_vertex_midpoints_rejected():
    # M = unit square, P = the diamond through its edge midpoints, Q = M.
    # Support values agree on every facet normal of M (check (a) passes),
    # but (P + Q) / 2 misses the corners of M, so check (b) must reject.
    space = cube_space(2)
    sc = validate_scenario(space, unrestricted_cone(2), [(0, 0), (1, 0), (0, 1), (1, 1)])
    em = extended_menu(sc)
    half = F(1, 2)
    diamond = tuple(as_vec(p) for p in ((half, 0), (1, half), (half, 1), (0, half)))
    cert = DecompositionCertificate(
        direction=DeformationDirection(psi=(), mu=()),
        epsilon=F(0),
        menu_plus=diamond,
        menu_minus=em.vertices,
    )
    res = verify_certificate(cert, em, space)
    assert not res.ok
    assert any(f"vertex {v} " in res.failure for v in em.vertices), res.failure


def test_parallel_segment_translation_decomposition():
    sc, em = em_of("fig3_left_parallel_segment")
    verdict = is_extreme_finite(em, sc.space)
    cert = extract_decomposition(em, sc.space, verdict.direction)
    # the two summands are horizontal translates of the original segment
    for a, b in zip(cert.menu_plus, cert.menu_minus):
        assert a[1] == b[1]
        assert a[0] != b[0]


def test_tampered_certificate_rejected():
    sc, em = em_of("prism_delta3")
    verdict = is_extreme_finite(em, sc.space)
    cert = extract_decomposition(em, sc.space, verdict.direction)
    bad_menu = list(cert.menu_plus)
    bad_menu[0] = tuple(c + F(1, 1000) for c in bad_menu[0])
    tampered = dataclasses.replace(cert, menu_plus=tuple(bad_menu))
    res = verify_certificate(tampered, em, sc.space)
    assert not res.ok
    assert res.failure is not None


def test_every_shifted_summand_item_rejected_on_corpus():
    # shift each non-veto item of either summand by +-1/1000 in one
    # coordinate; the exact check must reject every such certificate
    tried = rejected = 0
    for case in CORPUS:
        sc = case.scenario
        em = extended_menu(sc)
        verdict = is_extreme_finite(em, sc.space)
        if verdict.extreme:
            continue
        cert = extract_decomposition(em, sc.space, verdict.direction)
        for field in ("menu_plus", "menu_minus"):
            items = getattr(cert, field)
            for k, p in enumerate(items):
                if p == sc.space.veto:
                    continue
                for c in range(len(p)):
                    for step in (F(1, 1000), F(-1, 1000)):
                        q = p[:c] + (p[c] + step,) + p[c + 1:]
                        shifted = items[:k] + (q,) + items[k + 1:]
                        tampered = dataclasses.replace(cert, **{field: shifted})
                        tried += 1
                        rejected += not verify_certificate(tampered, em, sc.space).ok
    assert rejected == tried == 360


def test_support_of_m_is_its_halfspace_offset_on_corpus():
    # verify_certificate reads h_M(n) off M's halfspace n.x <= b: each one is
    # tight at a vertex of M, so max over the vertices of n.v is b
    for case in CORPUS:
        em = extended_menu(case.scenario)
        hs = em.poly.halfspaces
        assert geo.support_values(em.vertices, [h.normal for h in hs]) == [h.offset for h in hs]


def test_certificate_without_veto_rejected():
    sc, em = em_of("monopoly_three_item")
    verdict = is_extreme_finite(em, sc.space)
    cert = extract_decomposition(em, sc.space, verdict.direction)
    stripped = dataclasses.replace(
        cert, menu_plus=tuple(p for p in cert.menu_plus if p != sc.space.veto)
    )
    res = verify_certificate(stripped, em, sc.space)
    assert not res.ok


def test_direction_not_in_nullspace_rejected():
    # each input check of extract_decomposition, with its own message; these
    # are caller errors, so none may carry the "(internal)" marker. The
    # common translation `off` breaks only a facet equation; the verdict's own
    # direction with mu_0 raised by 1 breaks only the equation of edge 0
    sc, em = em_of("prism_delta3")
    own = is_extreme_finite(em, sc.space).direction
    off = tuple(as_vec((1, 0, 0)) for _ in em.vertices)
    zero = tuple(as_vec((0, 0, 0)) for _ in em.vertices)
    still = tuple(F(0) for _ in em.edges)
    for psi, mu, message in [
        (off, still, "is not in the deformation nullspace"),
        (own.psi, (own.mu[0] + 1,) + own.mu[1:], "is not in the deformation nullspace"),
        (off[:-1], still, "has wrong shape"),
        (zero, still, "must be nonzero"),
    ]:
        with pytest.raises(geo.GeometryError, match=message) as info:
            extract_decomposition(em, sc.space, DeformationDirection(psi=psi, mu=mu))
        assert "(internal)" not in str(info.value)


def test_analyze_builds_one_deformation_system(monkeypatch):
    # the verdict builds the system; extraction checks the direction on M
    # itself and builds none
    build = extremality.build_deformation_system
    calls = []
    monkeypatch.setattr(extremality, "build_deformation_system",
                        lambda em, space: calls.append(em) or build(em, space))
    checked = 0
    for case in CORPUS:
        if case.extreme:
            continue
        calls.clear()
        report = cli.run_command("analyze", case.scenario, None)
        assert isinstance(report["extremality"]["certificate"], dict), case.name
        assert len(calls) == 1, case.name
        checked += 1
    assert checked >= 10


def test_extraction_step_is_maximal():
    # 2 eps, the step before halving, keeps every vertex in A and every edge
    # scale 1 +- 2 eps mu_k nonnegative, and it meets one of these bounds: the
    # cap 1, some 1/|mu_k|, or the slack of a facet that v_i does not touch
    checked = 0
    for case in CORPUS:
        sc, em = case.scenario, extended_menu(case.scenario)
        verdict = is_extreme_finite(em, sc.space)
        if verdict.extreme:
            continue
        direction = verdict.direction
        step = 2 * extract_decomposition(em, sc.space, direction).epsilon
        moves = [(h.offset - h.value(v), abs(h.value(p)))
                 for v, p, touched in zip(em.vertices, direction.psi, em.facet_incidence)
                 for f, h in enumerate(sc.space.facets) if f not in touched and h.value(p)]
        assert 0 < step <= 1, case.name
        assert all(step * abs(m) <= 1 for m in direction.mu), case.name
        assert all(step * drift <= slack for slack, drift in moves), case.name
        assert (step == 1 or any(step * abs(m) == 1 for m in direction.mu)
                or any(step * drift == slack for slack, drift in moves)), case.name
        checked += 1
    assert checked >= 10


def test_summand_average_rebuilds_extension_exactly():
    # structural identity, independent of verify_certificate's support and
    # midpoint checks: the polyhedron generated by all pairwise midpoints of
    # the two summand menus (plus the polar rays) is canonically identical to
    # the original extension
    import extremenu.geometry as geo

    checked = 0
    for case in CORPUS:
        em = extended_menu(case.scenario)
        space = case.scenario.space
        verdict = is_extreme_finite(em, space)
        if verdict.extreme:
            continue
        cert = extract_decomposition(em, space, verdict.direction)
        avg = sorted({tuple((a + b) / 2 for a, b in zip(p, q))
                      for p in cert.menu_plus for q in cert.menu_minus})
        rebuilt = geo.polyhedron_from_generators(avg, case.scenario.cone.polar_rays)
        assert rebuilt.points == em.poly.points, case.name
        assert rebuilt.rays == em.poly.rays, case.name
        assert rebuilt.halfspaces == em.poly.halfspaces, case.name
        checked += 1
    assert checked >= 10


def test_binding_constraint_intersection_identity():
    # F(M) = F(M+) & F(M-) and both summands are deformations of M
    for name in ("prism_delta3", "delta2_strike_quadrilateral", "monopoly_three_item"):
        sc, em = em_of(name)
        verdict = is_extreme_finite(em, sc.space)
        cert = extract_decomposition(em, sc.space, verdict.direction)
        em_p, em_m = summand_extended_menus(cert, sc.cone, sc.space)
        assert em.binding == (em_p.binding & em_m.binding), name
        assert is_deformation(em, em_p), name
        assert is_deformation(em, em_m), name


# -- is_deformation ----------------------------------------------------------


def test_identity_deformation():
    sc, em = em_of("prism_delta3")
    assert is_deformation(em, em)


def test_collapsed_edge_is_deformation():
    space = cube_space(2)
    cone = unrestricted_cone(2)
    rect = validate_scenario(space, cone, [(0, 0), (1, 0), (0, F(1, 2)), (1, F(1, 2))])
    seg = validate_scenario(space, cone, [(0, 0), (1, 0)])
    em_rect = extended_menu(rect)
    em_seg = extended_menu(seg)
    assert is_deformation(em_rect, em_seg)


def test_rotation_is_not_deformation():
    space = cube_space(2)
    cone = unrestricted_cone(2)
    sq = validate_scenario(
        space, cone,
        [(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(3, 4), F(3, 4)), (F(1, 4), F(3, 4))],
    )
    rot = validate_scenario(
        space, cone,
        [(F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(1, 4), F(1, 2))],
    )
    assert not is_deformation(extended_menu(sq), extended_menu(rot))


def test_deformation_ambient_mismatch():
    _, em2 = em_of("delta2_vertex_menu")
    _, em3 = em_of("prism_delta3")
    with pytest.raises(geo.GeometryError):
        is_deformation(em2, em3)


# -- menu size bound (d=2) ----------------------------------------------------


def test_menu_size_bound_d2_on_corpus():
    for case in CORPUS:
        if case.scenario.dim != 2 or not case.extreme:
            continue
        em = extended_menu(case.scenario)
        assert len(em.vertices) <= len(case.scenario.space.facets), case.name


# -- rigid components and the triangle-chain shortcut ---------------------------


def test_simplex_is_one_rigid_component():
    space = simplex_space(3)
    em = extend_menu(Menu(items=space.poly.points), unrestricted_cone(3), space)
    assert rigid_components(em) == ((0, 1, 2, 3),)


def test_forced_cube4_menu_is_covered():
    space, cone = space_for_preset("cube", d=4)
    items = apps.force_exhaustive(apps.sample_menu("cube", 4, 10, apps._instance_rng(3, 0)), space, cone)
    em = extended_menu(validate_scenario(space, cone, dict.fromkeys(items)))
    (first, *_) = rigid_components(em)
    assert first == tuple(range(len(em.vertices))) and len(first) >= 4


def test_prism_has_two_rigid_components():
    # triangle x segment: the two triangles share no edge, and the three
    # quadrilateral sides hold no triangle of edges
    _, em = em_of("prism_delta3")
    components = rigid_components(em)
    assert [len(c) for c in components] == [3, 3]
    assert sorted(components[0] + components[1]) == list(range(6))
    for c in components:
        assert {tuple(sorted((i, j))) for i in c for j in c if i < j} <= set(em.edges)


def test_pyramid_is_covered_through_its_apex():
    _, em = em_of("pyramid_delta3")
    assert rigid_components(em) == (tuple(range(5)),)


def test_experiment_on_cube4_builds_no_deformation_system(monkeypatch):
    calls = []
    monkeypatch.setattr(extremality, "build_deformation_system", lambda *args: calls.append(args))
    summary = apps.genericity_experiment("cube", 4, 10, 20, 5)
    assert summary.exhaustive_after_forcing == summary.extreme == 20
    assert calls == []


def _random_scenario(rng, d):
    """A, the hull of d + 1 to d + 5 integer points in [-3, 3]^d; an
    unrestricted cone (40%) or one spanned by d to d + 2 integer rays in
    [-2, 2]^d; items that are rational convex combinations of A's vertices,
    each of at most three vertices half of the time."""
    while True:
        try:
            space = allocation_space_from_points(
                [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 5))])
            break
        except ScenarioError:
            continue
    while rng.random() >= 0.4:
        try:
            cone = make_type_cone([tuple(rng.randint(-2, 2) for _ in range(d))
                                   for _ in range(rng.randint(d, d + 2))])
            break
        except (ScenarioError, geo.GeometryError):
            continue
    else:
        cone = unrestricted_cone(d)
    pts = space.poly.points
    items = []
    for _ in range(rng.randint(1, 7)):
        support = rng.sample(pts, rng.randint(1, min(3, len(pts)) if rng.random() < 0.5 else len(pts)))
        weights = [rng.randint(1, 4) for _ in support]
        items.append(tuple(sum(F(w, sum(weights)) * p[c] for w, p in zip(weights, support))
                           for c in range(d)))
    return space, cone, tuple(dict.fromkeys(items))


def _preset_scenario(rng, d):
    """A preset space and cone with a sampled menu, forced when forcing succeeds."""
    preset = rng.choice(["simplex", "cube", "monopoly"])
    space, cone = space_for_preset(preset, d=d)
    items = apps.sample_menu(preset, d, rng.randint(2, 8), rng)
    try:
        items = apps.force_exhaustive(items, space, cone)
    except ScenarioError:
        pass
    return space, cone, tuple(dict.fromkeys(tuple(p) for p in items))


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 2**32))
def test_shortcut_matches_full_system(d, preset, seed):
    space, cone, items = (_preset_scenario if preset else _random_scenario)(random.Random(seed), d)
    em = extend_menu(Menu(items=items), cone, space)
    with mock.patch.object(extremality, "build_deformation_system",
                           wraps=extremality.build_deformation_system) as built:
        verdict = is_extreme_finite(em, space)
    nullity = deformation_nullity(em, space)
    assert (verdict.extreme, verdict.nullity) == (nullity == 0, nullity)
    assert def_polytope_cross_check(em, space) == verdict.extreme
    components = rigid_components(em)
    covered = bool(components) and len(components[0]) == len(em.vertices)
    exhaustive = is_exhaustive(em, space).exhaustive
    # the theorem: on a covered menu, extreme iff exhaustive; the shortcut
    # answers exactly the covered exhaustive menus
    assert not covered or verdict.extreme == exhaustive
    assert (built.call_count == 0) == (covered and exhaustive)


# -- random agreement fuzz -----------------------------------------------------


def test_random_oracle_agreement_small():
    from extremenu import applications as apps
    from extremenu.presets import space_for_preset

    rng_presets = ["simplex", "cube", "monopoly"]
    for d in (2, 3):
        spaces = {p: space_for_preset(p, d=d) for p in rng_presets}
        for i in range(60):
            rng = apps._instance_rng(777 + d, i)
            preset = rng_presets[i % 3]
            space, cone = spaces[preset]
            items = apps.sample_menu(preset, d, rng.randrange(2, 7), rng)
            sc = validate_scenario(space, cone, items)
            em = extended_menu(sc)
            verdict = is_extreme_finite(em, space)
            assert def_polytope_cross_check(em, space) == verdict.extreme
            if not verdict.extreme:
                cert = extract_decomposition(em, space, verdict.direction)
                assert verify_certificate(cert, em, space).ok


def test_restricted_3d_cone_agreement():
    import random

    from extremenu.exhaustive import homothety_cross_check
    from extremenu.model import make_type_cone
    from extremenu.presets import simplex_space

    cones = [
        make_type_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        make_type_cone([(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)]),
        make_type_cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1)]),
    ]
    spaces = [cube_space(3), simplex_space(3)]
    rng = random.Random(31337)
    for cone in cones:
        for space in spaces:
            for _ in range(12):
                items = set()
                guard = 0
                while len(items) < rng.randrange(2, 7) and guard < 500:
                    guard += 1
                    p = tuple(F(rng.randrange(0, 9), 8) for _ in range(3))
                    if space.contains(p):
                        items.add(p)
                sc = validate_scenario(space, cone, sorted(items))
                em = extended_menu(sc)
                verdict = is_extreme_finite(em, space)
                assert def_polytope_cross_check(em, space) == verdict.extreme
                if len(em.vertices) >= 2:
                    assert homothety_cross_check(em, space) == \
                        is_exhaustive(em, space).exhaustive
                if not verdict.extreme:
                    cert = extract_decomposition(em, space, verdict.direction)
                    assert verify_certificate(cert, em, space).ok
