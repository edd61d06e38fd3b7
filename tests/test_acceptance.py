"""Acceptance suite: one test per criterion, exact tolerances, fixed seeds.

The random suites (1000 scenarios per dimension) are generated once per
session and shared across criteria; every verdict carries its cross-checks
and, when decomposable, a fully verified certificate. Each criterion prints
one pass line (run with -s to see them live).
"""

from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from corpus import CORPUS, CORPUS_BY_NAME
from extremenu import applications as apps
from extremenu import cli
from extremenu.exhaustive import homothety_cross_check, is_exhaustive
from extremenu.extremality import (
    def_polytope_cross_check,
    extract_decomposition,
    is_extreme_finite,
    verify_certificate,
)
from extremenu.model import (
    ConstantObjective,
    extended_menu,
    unrestricted_cone,
    validate_scenario,
)
from extremenu.perturb import PerturbationError, is_general_position, perturb_to_extreme
from extremenu.planar import classify_2d
from extremenu.presets import simplex_space, space_for_preset
from oracles import hausdorff_bound

N_RANDOM = 1000
SUITE_SEED = 987101
PRESETS = ("simplex", "cube", "monopoly")


@dataclass
class SuiteEntry:
    preset: str
    scenario: object
    menu_size: int
    extreme: bool
    defpoly: bool
    exhaustive: bool
    hom_check: bool | None
    planar_extreme: bool | None
    certificate_ok: bool | None


def _build_suite(d, n=N_RANDOM):
    spaces = {p: space_for_preset(p, d=d) for p in PRESETS}
    out = []
    for i in range(n):
        rng = apps._instance_rng(SUITE_SEED + d, i)
        preset = PRESETS[i % 3]
        space, cone = spaces[preset]
        k = rng.randrange(2, 9)
        items = apps.sample_menu(preset, d, k, rng)
        sc = validate_scenario(space, cone, items, label=f"random-d{d}-{i}")
        em = extended_menu(sc)
        verdict = is_extreme_finite(em, space)
        rep = is_exhaustive(em, space)
        hom = homothety_cross_check(em, space) if len(em.vertices) >= 2 else None
        pla = classify_2d(em, space).extreme if d == 2 else None
        cert_ok = None
        if not verdict.extreme:
            cert = extract_decomposition(em, space, verdict.direction)
            cert_ok = verify_certificate(cert, em, space).ok
        out.append(SuiteEntry(
            preset=preset,
            scenario=sc,
            menu_size=len(em.vertices),
            extreme=verdict.extreme,
            defpoly=def_polytope_cross_check(em, space),
            exhaustive=rep.exhaustive,
            hom_check=hom,
            planar_extreme=pla,
            certificate_ok=cert_ok,
        ))
    return out


@pytest.fixture(scope="session")
def suites():
    return {d: _build_suite(d) for d in (2, 3, 4)}


def test_criterion_01_oracle_agreement(suites):
    disagreements = 0
    for case in CORPUS:
        em = extended_menu(case.scenario)
        space = case.scenario.space
        v = is_extreme_finite(em, space).extreme
        if v != case.extreme or def_polytope_cross_check(em, space) != v:
            disagreements += 1
        if case.scenario.dim == 2 and classify_2d(em, space).extreme != v:
            disagreements += 1
    assert len(CORPUS) >= 20
    counted = 0
    for d, suite in suites.items():
        for e in suite:
            counted += 1
            if e.defpoly != e.extreme:
                disagreements += 1
            if e.planar_extreme is not None and e.planar_extreme != e.extreme:
                disagreements += 1
    assert counted == 3 * N_RANDOM
    assert disagreements == 0
    print(f"\n[PASS] criterion 1: oracle agreement on {len(CORPUS)} golden + "
          f"{counted} random scenarios, 0 disagreements")


def test_criterion_02_d2_delegation_size_rule():
    space, cone = space_for_preset("simplex", d=2)
    matches = 0
    total = 500
    for i in range(total):
        rng = apps._instance_rng(424242, i)
        items = apps.sample_menu("simplex", 2, rng.randrange(2, 7), rng)
        items = apps.force_exhaustive(items, space, cone)
        sc = validate_scenario(space, cone, dict.fromkeys(tuple(p) for p in items))
        em = extended_menu(sc)
        assert em.binding == frozenset(range(3))  # grants a strike
        extreme = is_extreme_finite(em, space).extreme
        if extreme == (len(em.vertices) <= 3):
            matches += 1
    assert matches == total
    print(f"\n[PASS] criterion 2: extreme <=> menu size <= 3 on {total}/{total} "
          f"strike-granting planar menus")


def test_criterion_03_menu_size_bound(suites):
    violations = 0
    for e in suites[2]:
        if e.extreme and e.menu_size > len(e.scenario.space.facets):
            violations += 1
    assert violations == 0
    print("\n[PASS] criterion 3: no planar extreme point exceeds the facet count")


def test_criterion_04_general_position_implies_extreme():
    total = 0
    extreme = 0
    for offset, preset in ((0, "simplex"), (500, "cube")):
        space, cone = space_for_preset(preset, d=3)
        produced = 0
        i = 0
        while produced < 100:
            rng = apps._instance_rng(313131 + offset, i)
            i += 1
            k = rng.randrange(4, 9)
            items = apps.sample_menu(preset, 3, k, rng)
            try:
                items = apps.force_exhaustive(items, space, cone)
            except Exception:
                continue
            items = list(dict.fromkeys(tuple(p) for p in items))
            if not is_general_position(items).general:
                continue
            sc = validate_scenario(space, cone, items)
            em = extended_menu(sc)
            if not is_exhaustive(em, space).exhaustive:
                continue
            produced += 1
            total += 1
            if is_extreme_finite(em, space).extreme:
                extreme += 1
    assert total == 200 and extreme == total
    print(f"\n[PASS] criterion 4: {extreme}/{total} exhaustive general-position "
          f"menus in dimension 3 are extreme")


def test_criterion_05_pyramid_vs_prism():
    pyr = CORPUS_BY_NAME["pyramid_delta3"].scenario
    em = extended_menu(pyr)
    assert is_extreme_finite(em, pyr.space).extreme
    pri = CORPUS_BY_NAME["prism_delta3"].scenario
    em2 = extended_menu(pri)
    verdict = is_extreme_finite(em2, pri.space)
    assert not verdict.extreme
    cert = extract_decomposition(em2, pri.space, verdict.direction)
    assert verify_certificate(cert, em2, pri.space).ok
    print("\n[PASS] criterion 5: pyramid extreme, prism decomposed with a "
          "verified certificate")


def test_criterion_06_exhaustiveness_double_encoding(suites):
    disagreements = 0
    checked = 0
    for d, suite in suites.items():
        for e in suite:
            if e.hom_check is None:
                continue
            checked += 1
            if e.hom_check != e.exhaustive:
                disagreements += 1
    assert disagreements == 0
    print(f"\n[PASS] criterion 6: direct and homothety-polytope exhaustiveness "
          f"verdicts identical on {checked} menus")


def test_criterion_07_extreme_implies_exhaustive(suites):
    counterexamples = 0
    for case in CORPUS:
        em = extended_menu(case.scenario)
        if is_extreme_finite(em, case.scenario.space).extreme:
            if not is_exhaustive(em, case.scenario.space).exhaustive:
                counterexamples += 1
    for suite in suites.values():
        for e in suite:
            if e.extreme and not e.exhaustive:
                counterexamples += 1
    assert counterexamples == 0
    print("\n[PASS] criterion 7: every extreme verdict is exhaustive")


def test_criterion_08_decomposition_soundness(suites):
    rejected = 0
    shipped = 0
    for suite in suites.values():
        for e in suite:
            if e.extreme:
                continue
            shipped += 1
            if e.certificate_ok is not True:
                rejected += 1
    assert rejected == 0 and shipped > 0
    print(f"\n[PASS] criterion 8: {shipped} decomposition certificates, "
          f"0 rejected")


def test_criterion_09_posted_prices():
    for p in (F(1, 4), F(1, 2), F(3, 4)):
        name = f"posted_price_{p.numerator}_{p.denominator}"
        sc = CORPUS_BY_NAME[name].scenario
        em = extended_menu(sc)
        assert is_extreme_finite(em, sc.space).extreme
        assert is_exhaustive(em, sc.space).exhaustive
        analysis = apps.monopoly_pricing_analysis(sc)
        assert analysis.undominated_sufficient
        assert analysis.delta_margin == min(p, 1 - p)
    print("\n[PASS] criterion 9: posted prices 1/4, 1/2, 3/4 extreme, "
          "exhaustive, margins exactly min(p, 1-p)")


def test_criterion_10_flexible_chain_reproduction():
    sc = CORPUS_BY_NAME["monopoly_three_item"].scenario
    em = extended_menu(sc)
    verdict = classify_2d(em, sc.space)
    assert not verdict.extreme
    assert verdict.chain is not None
    assert "*" in verdict.chain.elements
    assert not is_extreme_finite(em, sc.space).extreme
    print("\n[PASS] criterion 10: three-item monopoly menu rejected by a "
          "sentinel-endpoint chain; rank oracle agrees")


def test_criterion_11_veto_bargaining():
    space = simplex_space(2, veto=(0, 0))
    cone = unrestricted_cone(2)
    objective = ConstantObjective(v=(F(1), F(2)))

    def sc(menu):
        return validate_scenario(space, cone, menu, objective)

    s_veto = sc([(0, 0)])
    s_good = sc([(0, 0), (0, 1)])
    s_bad = sc([(0, 0), (1, 0)])
    assert apps.veto_undominated(s_veto) is False
    assert apps.veto_undominated(s_good) is True
    assert apps.veto_undominated(s_bad) is False
    sample = apps.seeded_type_sample(cone, 100, seed=8)
    rep = apps.dominance_check(s_veto.menu, s_good.menu, objective, sample, cone)
    assert rep.dominates
    print("\n[PASS] criterion 11: veto verdicts false/true/false and the "
          "augmented menu dominates on a 100-type sample")


def _nonextreme_exhaustive_prism(i):
    """Seeded triangle-plus-segment menus in the 3-simplex: exhaustive by
    construction and always decomposable."""
    rng = apps._instance_rng(121212, i)
    h = F(rng.randrange(2, 7), 16)
    c1 = F(rng.randrange(0, 5), 16)
    c2 = F(rng.randrange(0, 5), 16)
    a = 1 - c1 - c2 - h
    b = F(rng.randrange(2, 8), 16)
    if b >= a:
        b = a - F(1, 16)
    assert 0 < b < a
    T = [(F(0), F(0), F(0)), (a, F(0), F(0)), (F(0), b, F(0))]
    s = (c1, c2, h)
    items = sorted({tuple(x + y for x, y in zip(t, sv)) for t in T for sv in [(F(0),) * 3, s]})
    return items


def test_criterion_12_perturbation_pipeline():
    space, cone = space_for_preset("simplex", d=3)
    delta = F(1, 20)
    total = 100
    successes = 0
    for i in range(total):
        items = _nonextreme_exhaustive_prism(i)
        sc = validate_scenario(space, cone, items)
        em = extended_menu(sc)
        assert is_exhaustive(em, space).exhaustive, i
        assert not is_extreme_finite(em, space).extreme, i
        try:
            res = perturb_to_extreme(sc.menu, space, cone, delta, seed=9000 + i)
        except PerturbationError:
            continue
        assert res.extremality.extreme
        assert hausdorff_bound(sc.menu.items, res.menu) <= delta * delta
        successes += 1
    assert successes >= 95, f"only {successes}/100 perturbations succeeded"
    print(f"\n[PASS] criterion 12: {successes}/100 decomposable exhaustive menus "
          f"perturbed into certified extreme points within delta = 1/20")


def test_criterion_13_determinism():
    samples = []
    for name in ("posted_price_1_2", "prism_delta3", "monopoly_three_item"):
        sc = CORPUS_BY_NAME[name].scenario
        flags = type("F", (), {"delta": None, "nudge": False, "eps": None,
                               "seed": 0, "sample": None})()
        rep1 = cli.render_report(cli.run_command("analyze", sc, flags))
        rep2 = cli.render_report(cli.run_command("analyze", sc, flags))
        assert rep1 == rep2
        samples.append(rep1)
    e1 = apps.genericity_experiment("simplex", 3, 5, 20, seed=77)
    e2 = apps.genericity_experiment("simplex", 3, 5, 20, seed=77)
    assert e1 == e2
    assert len(set(samples)) == len(samples)
    print("\n[PASS] criterion 13: repeated runs reproduce byte-identical reports")
