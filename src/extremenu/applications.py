"""Application-specific analyses: linear delegation, multi-good monopoly,
veto bargaining, principal-utility evaluation, dominance, and the genericity
experiment harness.

Beliefs enter only as finite rational type samples; the evaluator is exact
given the sample, so sample-level dominance verdicts are necessary-condition
checks, never proofs of domination over the full type space.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from .exhaustive import exhaustive_points, is_exhaustive
from .extremality import extract_decomposition, is_extreme_finite
from .geometry import as_vec, dot, frac, is_zero, unit_vec, vadd, vscale, zero_vec
from .model import (
    AllocationSpace,
    ConstantObjective,
    Menu,
    Scenario,
    ScenarioError,
    TypeCone,
    agent_choice,
    extend_menu,
    extended_menu,
    validate_scenario,
)
from .presets import monopoly_space, simplex_space, space_for_preset


# ---------------------------------------------------------------------------
# type samples


@dataclass(frozen=True)
class TypeSample:
    entries: tuple  # ((theta, weight), ...)

    def __len__(self):
        return len(self.entries)


def make_type_sample(entries, cone: TypeCone) -> TypeSample:
    out = []
    total = Fraction(0)
    for theta, w in entries:
        theta = as_vec(theta)
        w = frac(w)
        if len(theta) != cone.dim:
            raise ScenarioError(f"sample type has dimension {len(theta)}, expected {cone.dim}")
        if is_zero(theta):
            raise ScenarioError("sample type must be nonzero")
        if w < 0:
            raise ScenarioError("sample weights must be nonnegative")
        if not cone.contains(theta):
            raise ScenarioError(f"sample type {theta} lies outside the type cone")
        total += w
        out.append((theta, w))
    if total != 1:
        raise ScenarioError(f"sample weights sum to {total}, expected 1")
    return TypeSample(entries=tuple(out))


def seeded_type_sample(cone: TypeCone, count: int, seed: int) -> TypeSample:
    """Uniformly-weighted sample of seeded rational directions in the cone."""
    rng = random.Random(seed)
    thetas = []
    while len(thetas) < count:
        coeffs = [rng.randrange(0, 9) for _ in cone.rays]
        theta = zero_vec(cone.dim)
        for c, r in zip(coeffs, cone.rays):
            if c:
                theta = vadd(theta, vscale(as_vec(r), c))
        if is_zero(theta):
            continue
        thetas.append(theta)
    w = Fraction(1, count)
    return TypeSample(entries=tuple((t, w) for t in thetas))


# ---------------------------------------------------------------------------
# preset recognition


def _require_simplex(scenario: Scenario, what: str):
    d = scenario.dim
    ref = simplex_space(d)
    if scenario.space.facets != ref.facets:
        raise ScenarioError(f"{what} requires the unit-simplex allocation space")


def _require_unrestricted(scenario: Scenario, what: str):
    if not scenario.cone.unrestricted:
        raise ScenarioError(f"{what} requires an unrestricted type cone")


def _monopoly_shape(scenario: Scenario):
    """(m, kappa) when the space is [0,1]^m x [0,kappa] with origin veto."""
    d = scenario.dim
    m = d - 1
    if m < 1:
        raise ScenarioError("monopoly analysis needs at least one good")
    kappa = None
    for h in scenario.space.facets:
        if tuple(h.normal) == tuple([0] * m + [1]):
            kappa = h.offset
    if kappa is None:
        raise ScenarioError("monopoly analysis: missing transfer cap facet")
    ref = monopoly_space(m, kappa)
    if scenario.space.facets != ref.facets:
        raise ScenarioError("monopoly analysis requires the [0,1]^m x [0,kappa] space")
    if scenario.space.veto != zero_vec(d):
        raise ScenarioError("monopoly analysis requires the origin veto")
    return m, kappa


# ---------------------------------------------------------------------------
# linear delegation


@dataclass(frozen=True)
class DelegationReport:
    kind: str  # "dictates" | "grants_strike" | "neither"
    menu_size: int
    extreme: bool
    source: str  # "size-rule" | "deformation-system"


def delegation_classify(scenario: Scenario) -> DelegationReport:
    """Dictatorship / strike classification on the simplex plus extremality.

    For d = 2 the size rule of the three-alternative case applies directly;
    for d >= 3 extremality is decided by the deformation system, with the
    indecomposability-plus-exhaustiveness consistency asserted.
    """
    _require_simplex(scenario, "delegation_classify")
    _require_unrestricted(scenario, "delegation_classify")
    em = extended_menu(scenario)
    space = scenario.space
    n = len(em.vertices)
    dictates = n == 1 and em.vertices[0] in space.poly.points
    strike = em.binding == frozenset(range(len(space.facets))) and n >= 2
    kind = "dictates" if dictates else ("grants_strike" if strike else "neither")
    if scenario.dim == 2:
        extreme = dictates or (strike and n <= 3)
        source = "size-rule"
        verdict = is_extreme_finite(em, space)
        if verdict.extreme != extreme:
            raise geo.InternalError("three-alternative size rule disagrees (internal)")
    else:
        verdict = is_extreme_finite(em, space)
        extreme = verdict.extreme
        source = "deformation-system"
        rep = is_exhaustive(em, space)
        if extreme and not rep.exhaustive:
            raise geo.InternalError("extreme but not exhaustive (internal)")
        if not extreme and rep.exhaustive:
            # extraction verifies its certificate and raises when it fails
            extract_decomposition(em, space, verdict.direction)
    return DelegationReport(kind=kind, menu_size=n, extreme=extreme, source=source)


# ---------------------------------------------------------------------------
# multi-good monopoly


@dataclass(frozen=True)
class PricingAnalysis:
    gradients: tuple  # one gradient vector in [0,1]^m per non-vertical lower facet
    component_ranges: tuple  # per good: (min gradient, max gradient)
    delta_margin: Fraction
    undominated_sufficient: bool  # margin > 0; margin 0 is inconclusive


def monopoly_pricing_analysis(scenario: Scenario) -> PricingAnalysis:
    """Marginal-price gradients of the menu's canonical price schedule.

    The schedule is the lower boundary of the extended menu itself: the polar
    cone caps every marginal price into [0,1] (the bare hull of the raw
    items can have steeper facets when there is more than one good). A facet's gradient
    component counts for good i only where the facet covers a forward
    coordinate segment inside the allocation box, so boundary-only pieces
    (the no-trade and full-price cones of a posted price) do not dilute the
    margin. A positive margin is sufficient for undominatedness; zero is
    inconclusive.
    """
    m, _ = _monopoly_shape(scenario)
    em = extended_menu(scenario)
    poly = em.poly
    n_pts = len(poly.points)
    per_direction = [[] for _ in range(m)]
    gradients = set()
    for j, h in enumerate(poly.halfspaces):
        nt = h.normal[m]
        if nt >= 0:
            continue  # vertical or upper facet
        g = tuple(Fraction(h.normal[i], -nt) for i in range(m))
        for gi in g:
            if gi < 0 or gi > 1:
                raise geo.InternalError(
                    f"marginal price {gi} escaped [0,1] (internal)"
                )
        vproj = [poly.points[i][:m] for i in range(n_pts) if j in poly.incidence[i]]
        rproj = [poly.rays[i - n_pts][:m]
                 for i in range(n_pts, n_pts + len(poly.rays))
                 if j in poly.incidence[i]]
        counted = False
        for i in range(m):
            if _covers_forward_segment(vproj, rproj, m, i):
                per_direction[i].append(g[i])
                counted = True
        if counted:
            gradients.add(g)
    if not any(per_direction):
        raise geo.InternalError("price schedule covers no coordinate segment (internal)")
    ranges = []
    margin = None
    for i in range(m):
        vals = per_direction[i]
        if not vals:
            raise geo.InternalError(f"no facet prices good {i + 1} (internal)")
        ranges.append((min(vals), max(vals)))
        worst = min(min(v, 1 - v) for v in vals)
        margin = worst if margin is None else min(margin, worst)
    return PricingAnalysis(
        gradients=tuple(sorted(gradients)),
        component_ranges=tuple(ranges),
        delta_margin=margin,
        undominated_sufficient=margin > 0,
    )


def _covers_forward_segment(vproj, rproj, m, i) -> bool:
    """Whether conv(vproj)+cone(rproj) meets [0,1]^m in a segment along e_i.

    Exact standard-form LP over the weights (lam_x, mu_x, lam_y, mu_y) >= 0
    of two points x, y of the projected facet: both weight vectors' lam sum
    to 1, x and y lie in the box and agree off coordinate i, and y_i - x_i
    is maximal; the facet prices good i iff that maximum is positive.
    """
    nv, nr = len(vproj), len(rproj)
    if nv == 0:
        return False
    zeros = [0] * (nv + nr)
    ones = [1] * nv + [0] * nr
    coord = [[v[j] for v in vproj] + [r[j] for r in rproj] for j in range(m)]
    a_eq = [ones + zeros, zeros + ones]
    a_eq += [p + [-a for a in p] for j, p in enumerate(coord) if j != i]
    a_ub = []
    for p in coord:  # 0 <= x_j <= 1 and 0 <= y_j <= 1
        for row in (p + zeros, zeros + p):
            a_ub += [row, [-a for a in row]]
    objective = [-a for a in coord[i]] + coord[i]
    if not any(objective):
        return False
    res = geo.lp_solve(objective, a_ub, [1, 0] * (2 * m), a_eq, [1, 1] + [0] * (m - 1))
    return res.status == "optimal" and res.value > 0


@dataclass(frozen=True)
class NudgeReport:
    scenario: Scenario
    displacement_bound: Fraction  # eps*kappa + delta*m, exact
    margin: Fraction


def monopoly_nudge(scenario: Scenario, eps, delta) -> NudgeReport:
    """Price nudge (a, t) -> (a, (1-eps) t + delta * sum(a)).

    Requires 0 < delta < eps < 1; the nudged schedule must have a positive
    margin (checked post hoc) and moves each item by at most eps*kappa +
    delta*m in the transfer coordinate.
    """
    eps = frac(eps)
    delta = frac(delta)
    if not (0 < delta < eps < 1):
        raise ScenarioError("monopoly_nudge needs 0 < delta < eps < 1")
    m, kappa = _monopoly_shape(scenario)
    bound = eps * kappa + delta * m
    new_items = []
    for item in scenario.menu.items:
        a, t = item[:m], item[m]
        t2 = (1 - eps) * t + delta * sum(a, Fraction(0))
        if abs(t2 - t) > bound:
            raise geo.InternalError("nudge displacement bound violated (internal)")
        new_items.append(a + (t2,))
    nudged = validate_scenario(
        scenario.space, scenario.cone, new_items, scenario.objective,
        label=scenario.label + "+nudge" if scenario.label else "nudge",
    )
    analysis = monopoly_pricing_analysis(nudged)
    if analysis.delta_margin <= 0:
        offending = min(
            (gi for g in analysis.gradients for gi in g),
            key=lambda gi: min(gi, 1 - gi),
        )
        raise ScenarioError(
            f"nudge failed to clear the margin: offending gradient {offending}"
        )
    floor = min(delta, eps - delta)
    if analysis.delta_margin < floor:
        raise geo.InternalError("nudged margin below its guaranteed floor (internal)")
    return NudgeReport(scenario=nudged, displacement_bound=bound, margin=analysis.delta_margin)


# ---------------------------------------------------------------------------
# veto bargaining


def veto_undominated(scenario: Scenario) -> bool:
    """Undominated iff the menu holds the veto and the principal's favourite.

    Requires the simplex preset with the origin veto and a strictly positive
    constant objective with a unique largest component.
    """
    _require_simplex(scenario, "veto_undominated")
    d = scenario.dim
    if scenario.space.veto != zero_vec(d):
        raise ScenarioError("veto_undominated requires the origin veto")
    if not isinstance(scenario.objective, ConstantObjective):
        raise ScenarioError("veto_undominated requires a constant objective")
    v = scenario.objective.v
    if any(vi <= 0 for vi in v):
        raise ScenarioError("veto_undominated requires a strictly positive objective")
    best = max(v)
    winners = [i for i, vi in enumerate(v) if vi == best]
    if len(winners) != 1:
        raise ScenarioError("veto_undominated requires a unique favourite alternative")
    istar = winners[0]
    items = set(scenario.menu.items)
    return zero_vec(d) in items and unit_vec(d, istar) in items


# ---------------------------------------------------------------------------
# evaluation and dominance


def expected_principal_utility(menu: Menu, objective, sample: TypeSample, cone: TypeCone) -> Fraction:
    """Exact expected principal utility over a finite type sample."""
    total = Fraction(0)
    for theta, w in sample.entries:
        if not cone.contains(theta):
            raise ScenarioError(f"sample type {theta} lies outside the type cone")
        choice = agent_choice(menu, theta)
        total += w * dot(choice, as_vec(objective.value_at(theta)))
    return total


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool  # menu_b dominates menu_a on the sample
    strictly_better_types: tuple
    counterexample_types: tuple  # types where menu_b does strictly worse
    sample_only: bool = True  # finite-sample verdict: necessary condition only


def dominance_check(menu_a: Menu, menu_b: Menu, objective, sample: TypeSample, cone: TypeCone) -> DominanceReport:
    """Sample-level dominance of menu_b over menu_a for the principal."""
    better = []
    worse = []
    for theta, _ in sample.entries:
        if not cone.contains(theta):
            raise ScenarioError(f"sample type {theta} lies outside the type cone")
        v = as_vec(objective.value_at(theta))
        ua = dot(agent_choice(menu_a, theta), v)
        ub = dot(agent_choice(menu_b, theta), v)
        if ub > ua:
            better.append(theta)
        elif ub < ua:
            worse.append(theta)
    return DominanceReport(
        dominates=(not worse) and bool(better),
        strictly_better_types=tuple(better),
        counterexample_types=tuple(worse),
    )


# ---------------------------------------------------------------------------
# genericity experiment harness


@dataclass(frozen=True)
class ExperimentSummary:
    preset: str
    dimension: int
    menu_size: int
    samples: int
    seed: int
    exhaustive_after_forcing: int
    extreme: int
    mean_nullity: Fraction
    forcing_failed: int  # samples force_exhaustive could not make exhaustive

    @property
    def extreme_fraction(self) -> Fraction:
        return Fraction(self.extreme, self.samples) if self.samples else Fraction(0)


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 1000003 + index) & 0x7FFFFFFF)


_GRID = 16  # sample_menu draws coordinates with denominator _GRID


def sample_menu(preset: str, d: int, k: int, rng) -> list:
    """k dyadic-rational items inside the preset space (veto included for
    monopoly), drawn from the 1/16 grid; k may not exceed its point count."""
    if preset == "simplex":
        capacity = math.comb(d + _GRID, d)
    elif preset in ("cube", "monopoly"):
        capacity = (_GRID + 1) ** d
    else:
        raise ScenarioError(f"unknown preset {preset!r}")
    if k > capacity:
        raise ScenarioError(
            f"sample_menu: k = {k} exceeds the {capacity} points of the "
            f"{preset} preset's 1/{_GRID} grid in d = {d}"
        )
    items = []
    if preset == "monopoly":
        items.append(zero_vec(d))
    guard = 0
    while len(items) < k:
        guard += 1
        if guard > 10000:
            raise ScenarioError(
                f"sample_menu: 10000 draws found only {len(items)} of {k} distinct items"
            )
        p = tuple(Fraction(rng.randrange(0, _GRID + 1), _GRID) for _ in range(d))
        if preset == "simplex" and sum(p, Fraction(0)) > 1:
            continue
        if p not in items:
            items.append(p)
    return items


def _exhaustive_binding(items, space: AllocationSpace, cone: TypeCone):
    """(exhaustive, binding) of the extended menu M of the distinct items."""
    points = tuple(dict.fromkeys(items))
    if cone.polar_rays:
        em = extend_menu(Menu(items=points), cone, space)
        points, binding = em.vertices, em.binding
    else:
        binding = frozenset().union(*map(space.facet_set, points))
    return exhaustive_points(points, binding, space), binding


def force_exhaustive(items, space: AllocationSpace, cone: TypeCone):
    """Touch-point construction: project items onto untouched facets until the
    menu is exhaustive; falls back to pinning one item at a vertex of A.
    Returns the forced items without duplicates, in order.

    The exit tests read only M's binding facets and its exhaustiveness. With
    an unrestricted type cone M = conv(items), and an item on a facet H of A
    is a positive combination of vertices of M that all lie on H, so the
    binding set is the union of the items' own facet sets and no M is built.
    With polar rays an item can lie on a facet that M's vertices miss, so M
    is built as before.
    """
    items = [as_vec(p) for p in items]
    movable = set(range(len(items)))
    if space.veto is not None and space.veto in items:
        movable.discard(items.index(space.veto))
    while movable:  # each pass returns, breaks, or pins one movable item
        exhaustive, binding = _exhaustive_binding(items, space, cone)
        if exhaustive:
            return list(dict.fromkeys(items))
        untouched = [f for f in range(len(space.facets)) if f not in binding]
        if not untouched:
            break
        f = untouched[0]
        h = space.facets[f]
        cand = max(movable, key=lambda i: (h.value(items[i]), -i))
        moved = h.project(items[cand])
        if not space.contains(moved):
            break
        items[cand] = moved
        movable.discard(cand)
    # fallback: pin the first movable item at a vertex, a second on the first
    # facet missing that vertex whose projection stays in A
    if _exhaustive_binding(items, space, cone)[0]:
        return list(dict.fromkeys(items))
    movable = sorted(set(range(len(items))) - ({items.index(space.veto)} if space.veto in items else set()))
    if len(movable) < min(len(items), 2):
        raise ScenarioError("cannot force exhaustiveness with so few movable items")
    vtx = space.poly.points[0]
    items[movable[0]] = vtx
    if len(items) > 1:
        projected = (h.project(items[movable[1]]) for f, h in enumerate(space.facets)
                     if f not in space.poly.incidence[0])  # the facets missing vtx
        items[movable[1]] = next((p for p in projected if space.contains(p)), None)
        if items[movable[1]] is None:
            raise ScenarioError("exhaustiveness forcing failed: no facet projection stays in A")
    items = list(dict.fromkeys(items))
    if not _exhaustive_binding(items, space, cone)[0]:
        raise ScenarioError("exhaustiveness forcing failed")
    return items


def genericity_experiment(preset: str, d: int, k: int, samples: int, seed: int) -> ExperimentSummary:
    """Classify N seeded random k-item menus after forcing exhaustiveness."""
    if d < 2 or k < 1:
        raise ScenarioError("genericity_experiment needs d >= 2 and k >= 1")
    if samples < 1:
        raise ScenarioError("genericity_experiment needs samples >= 1")
    space, cone = space_for_preset(preset, d=d)
    n_exhaustive = 0
    n_extreme = 0
    n_failed = 0
    nullity_total = 0
    for i in range(samples):
        rng = _instance_rng(seed, i)
        items = sample_menu(preset, d, k, rng)
        try:
            items = force_exhaustive(items, space, cone)
        except ScenarioError:
            n_failed += 1
            continue
        sc = validate_scenario(space, cone, dict.fromkeys(tuple(p) for p in items))
        em = extended_menu(sc)
        if not is_exhaustive(em, space).exhaustive:
            continue
        n_exhaustive += 1
        verdict = is_extreme_finite(em, space)
        nullity_total += verdict.nullity
        if verdict.extreme:
            n_extreme += 1
    mean_nullity = Fraction(nullity_total, n_exhaustive) if n_exhaustive else Fraction(0)
    return ExperimentSummary(
        preset=preset,
        dimension=d,
        menu_size=k,
        samples=samples,
        seed=seed,
        exhaustive_after_forcing=n_exhaustive,
        extreme=n_extreme,
        mean_nullity=mean_nullity,
        forcing_failed=n_failed,
    )
