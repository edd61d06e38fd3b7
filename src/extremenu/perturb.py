"""General-position testing and perturbation of exhaustive menus into extreme points.

The perturbation keeps a minimal exhaustive core pinned to its allocation
facets, samples seeded dyadic displacements for everything else, and certifies
the result with the deformation-system oracle directly, retrying with fresh
samples when the certificate fails. Determinism: identical (scenario, delta,
seed) inputs produce identical outputs.

Screening is in integer homogeneous rows (1, p): d + 1 points share a
hyperplane iff their determinant (``kernels.det``) vanishes, and the plane
through d points is its cofactor vector c, c.(1, x) = 0, built once per attempt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import geometry as geo
from .exhaustive import is_exhaustive, minimal_exhaustive_subset
from .extremality import ExtremalityVerdict, is_extreme_finite
from .geometry import as_vec, dot, nullspace_basis, primitive, rank, vadd, vsub
from .kernels import det
from .model import AllocationSpace, Menu, TypeCone, extend_menu

MAX_RETRIES = 64


class PerturbationError(ValueError):
    pass


@dataclass(frozen=True)
class GeneralPositionReport:
    general: bool
    violating_points: tuple | None = None
    violating_hyperplane: tuple | None = None  # (normal, offset)


@dataclass(frozen=True)
class PerturbationResult:
    menu: tuple  # perturbed items, same count as input
    moved: tuple  # per-item displacement vectors
    delta: Fraction
    already_extreme: bool
    retries: int
    general_position: GeneralPositionReport
    exhaustiveness: object
    extremality: ExtremalityVerdict


def is_general_position(points) -> GeneralPositionReport:
    """No hyperplane contains more than d of the points: every (d+1)-subset of
    homogeneous rows (1, p) has a nonzero determinant."""
    pts = [as_vec(p) for p in points]
    if not pts:
        raise PerturbationError("need at least one point")
    d = len(pts[0])
    if len(pts) <= d:
        return GeneralPositionReport(True)
    hom = [_homogeneous(p) for p in pts]
    for combo in combinations(range(len(pts)), d + 1):
        if det([hom[i] for i in combo]) == 0:
            base = pts[combo[0]]
            normal = _containing_hyperplane([vsub(pts[i], base) for i in combo[1:]], d)
            return GeneralPositionReport(
                False,
                violating_points=tuple(pts[i] for i in combo),
                violating_hyperplane=(normal, dot(as_vec(normal), base)),
            )
    return GeneralPositionReport(True)


def _homogeneous(p) -> tuple:
    """Primitive integer (L, L p) for a rational point p, L its common denominator."""
    return primitive((1,) + tuple(p))


def _containing_hyperplane(direction_rows, d):
    basis = nullspace_basis(direction_rows)
    if not basis:
        raise geo.GeometryError("degenerate subset without normal (internal)")
    return basis[0]


def perturb_to_extreme(menu: Menu, space: AllocationSpace, cone: TypeCone, delta, seed: int) -> PerturbationResult:
    """Perturb an exhaustive menu into a certified extreme point.

    Already-extreme menus are returned unchanged. Otherwise a minimal
    exhaustive core (including the veto when present) keeps its facet
    contacts; one core vertex is nudged within its facet off the affine hull
    of the others when the core is full-sized, and the remaining items take
    seeded dyadic displacements that avoid every hyperplane spanned by d
    current points, stay inside A, and preserve convex position and pairwise
    non-absorption. Extremality is certified by the deformation system, with
    up to 64 resampling rounds.
    """
    delta = geo.frac(delta)
    if delta <= 0:
        raise PerturbationError("delta must be positive")
    d = space.dim
    if d < 3:
        raise PerturbationError(
            f"d = {d} < 3: size-limited menus cannot be perturbed into extreme points"
        )
    em = extend_menu(menu, cone, space)
    rep = is_exhaustive(em, space)
    if not rep.exhaustive:
        raise PerturbationError("perturb_to_extreme requires an exhaustive menu")
    verdict = is_extreme_finite(em, space)
    if verdict.extreme:
        zero = tuple(geo.zero_vec(d) for _ in menu.items)
        return PerturbationResult(
            menu=menu.items,
            moved=zero,
            delta=delta,
            already_extreme=True,
            retries=0,
            general_position=is_general_position(menu.items),
            exhaustiveness=rep,
            extremality=verdict,
        )

    core = list(minimal_exhaustive_subset(em.vertices, space, must_include=space.veto))
    rng = random.Random(seed)
    last_error = "retry budget exhausted"
    for attempt in range(MAX_RETRIES):
        result = _attempt(menu, space, cone, delta, core, rng, d)
        if result is None:
            continue
        new_items, moved = result
        new_menu = Menu(items=new_items)
        new_em = extend_menu(new_menu, cone, space)
        if len(new_em.vertices) != len(new_items):
            last_error = "perturbed item absorbed"
            continue
        new_rep = is_exhaustive(new_em, space)
        if not new_rep.exhaustive:
            last_error = "perturbation lost exhaustiveness"
            continue
        new_verdict = is_extreme_finite(new_em, space)
        if not new_verdict.extreme:
            last_error = "perturbed menu still decomposable"
            continue
        return PerturbationResult(
            menu=new_items,
            moved=moved,
            delta=delta,
            already_extreme=False,
            retries=attempt + 1,
            general_position=is_general_position(new_items),
            exhaustiveness=new_rep,
            extremality=new_verdict,
        )
    raise PerturbationError(
        f"no extreme perturbation found within {MAX_RETRIES} retries "
        f"(delta = {delta} may be too small): {last_error}"
    )


def _attempt(menu, space, cone, delta, core, rng, d):
    """One seeded perturbation attempt; None when a sample is rejected."""
    core_set = set(core)
    placed = []
    moved = []
    # (ii) with a full-sized core, slide one core vertex inside its facet off
    # the affine hull of the rest
    core_new = {v: v for v in core}
    if len(core) == d + 1:
        victim = core[-1]
        fidx = sorted(space.facet_set(victim))
        if not fidx:
            return None
        h = space.facets[fidx[0]]
        others = [v for v in core if v != victim]
        for _ in range(16):
            step = _dyadic_step(rng, d, delta)
            cand = _project_to_hyperplane(vadd(victim, step), victim, h)
            if cand is None or not space.contains(cand):
                continue
            if _off_affine_hull(cand, others) and _within(cand, victim, delta):
                core_new[victim] = cand
                break
        else:
            return None
    current = [core_new[v] for v in core]
    hom = [_homogeneous(p) for p in current]
    planes = _spanned_hyperplanes(combinations(hom, d))
    for item in menu.items:
        if item in core_set:
            placed.append(core_new[item])
            moved.append(vsub(core_new[item], item))
            continue
        accepted = None
        for _ in range(16):
            step = _dyadic_step(rng, d, delta)
            cand = vadd(item, step)
            if cand in current or not space.contains(cand):
                continue
            hcand = _homogeneous(cand)
            if not _avoids_spanned_hyperplanes(hcand, planes):
                continue
            accepted = cand
            break
        if accepted is None:
            return None
        placed.append(accepted)
        moved.append(vsub(accepted, item))
        planes += _spanned_hyperplanes(c + (hcand,) for c in combinations(hom, d - 1))
        current.append(accepted)
        hom.append(hcand)
    items = tuple(placed)
    if not _convex_position(items, cone):
        return None
    return items, tuple(moved)


def _dyadic_step(rng, d, delta):
    """Componentwise dyadic displacement with infinity-norm < delta/(2d)."""
    denom = 64
    scale = delta / (2 * d)
    return tuple(Fraction(rng.randrange(-denom + 1, denom), denom) * scale for _ in range(d))


def _project_to_hyperplane(x, anchor, h):
    n = as_vec(h.normal)
    nn = dot(n, n)
    if nn == 0:
        return None
    t = (h.offset - dot(n, x)) / nn
    return vadd(x, tuple(c * t for c in n))


def _off_affine_hull(x, others):
    if len(others) < 2:
        return True
    base = others[0]
    rows = [vsub(p, base) for p in others[1:]]
    return rank(rows + [vsub(x, base)]) > rank(rows)


def _spanned_hyperplanes(subsets):
    """Integer c with c.(1, x) = 0 through each subset of d homogeneous points:
    the signed maximal minors of the d x (d+1) rows, zero (and skipped) exactly
    when the points span no hyperplane."""
    planes = []
    for rows in subsets:
        c = [(-1) ** j * det([r[:j] + r[j + 1:] for r in rows]) for j in range(len(rows) + 1)]
        if any(c):
            planes.append(c)
    return planes


def _avoids_spanned_hyperplanes(x, planes):
    """The homogeneous point x lies on none of the hyperplanes c.(1, x) = 0."""
    return all(geo._idot(c, x) for c in planes)


def _within(cand, origin, delta):
    diff = vsub(cand, origin)
    return dot(diff, diff) <= delta * delta


def _convex_position(items, cone):
    """No item absorbed by another: v - w in the polar cone, i.e. r.v <= r.w
    for every type-cone ray r, compared in integers over one common denominator
    (exact convex position is checked by the caller on the extension)."""
    den = lcm(*(c.denominator for v in items for c in v))
    ints = [[c.numerator * (den // c.denominator) for c in v] for v in items]
    vals = [[geo._idot(r, v) for r in cone.rays] for v in ints]
    for i, vi in enumerate(vals):
        for j, vj in enumerate(vals):
            if i != j and all(a <= b for a, b in zip(vi, vj)):
                return False
    return True


def hausdorff_bound(menu_a, menu_b) -> Fraction:
    """Upper bound on the Hausdorff distance between the convex hulls of two
    equally-sized menus: the largest pairwise displacement (squared, exact).

    Returned as the squared Euclidean displacement to stay rational.
    """
    best = Fraction(0)
    for a, b in zip(menu_a, menu_b):
        diff = vsub(as_vec(a), as_vec(b))
        best = max(best, dot(diff, diff))
    return best
