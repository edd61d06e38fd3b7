import dataclasses
from fractions import Fraction as F

import pytest

from corpus import CORPUS, CORPUS_BY_NAME
from extremenu import geometry as geo
from extremenu.exhaustive import is_exhaustive
from extremenu.extremality import (
    DecompositionCertificate,
    DeformationDirection,
    build_deformation_system,
    def_polytope_cross_check,
    extract_decomposition,
    is_deformation,
    is_extreme_finite,
    summand_extended_menus,
    verify_certificate,
)
from extremenu.geometry import as_vec
from extremenu.model import extended_menu, unrestricted_cone, validate_scenario
from extremenu.presets import cube_space


def em_of(name):
    case = CORPUS_BY_NAME[name]
    return case.scenario, extended_menu(case.scenario)


# -- deformation system ----------------------------------------------------


def test_posted_price_system_shape_and_rank():
    sc, em = em_of("posted_price_1_2")
    system = build_deformation_system(em, sc.space)
    # 2 vertices in dimension 2 plus one bounded edge: 5 unknowns, full rank
    assert system.ncols == 5
    assert geo.rank(system.rows) == 5
    assert all(s > 0 for (_, _, s) in system.strict_slacks)


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
    sc, em = em_of("prism_delta3")
    bogus = DeformationDirection(
        psi=tuple(as_vec((1, 0, 0)) for _ in em.vertices),
        mu=tuple(F(0) for _ in em.edges),
    )
    with pytest.raises(geo.GeometryError):
        extract_decomposition(em, sc.space, bogus)


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
