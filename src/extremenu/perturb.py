"""General-position testing and perturbation of exhaustive menus into extreme points.

The perturbation keeps a minimal exhaustive core pinned to its allocation
facets and samples seeded dyadic displacements for everything else. Each
sampled menu is then certified once: general position (exact), no absorbed
item, exhaustiveness and extremality by the deformation-system oracle; a
failed check resamples. Determinism: identical (scenario, delta, seed) inputs
produce identical outputs.

General position is decided in integer homogeneous rows (1, p): d + 1 points
share a hyperplane iff their determinant (``kernels.det``) vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import geometry as geo
from .exhaustive import is_exhaustive, minimal_exhaustive_subset
from .extremality import ExtremalityVerdict, is_extreme_finite, rigid_components
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
            normal = _containing_hyperplane([vsub(pts[i], base) for i in combo[1:]])
            return GeneralPositionReport(
                False,
                violating_points=tuple(pts[i] for i in combo),
                violating_hyperplane=(normal, dot(as_vec(normal), base)),
            )
    return GeneralPositionReport(True)


def _homogeneous(p) -> tuple:
    """Primitive integer (L, L p) for a rational point p, L its common denominator."""
    return primitive((1,) + tuple(p))


def _containing_hyperplane(direction_rows):
    basis = nullspace_basis(direction_rows)
    if not basis:
        raise geo.InternalError("degenerate subset without normal (internal)")
    return basis[0]


def perturb_to_extreme(menu: Menu, space: AllocationSpace, cone: TypeCone, delta, seed: int) -> PerturbationResult:
    """Perturb an exhaustive menu into a certified extreme point.

    Already-extreme menus are returned unchanged. Otherwise a minimal
    exhaustive core (including the veto when present) keeps its facet
    contacts; one core vertex is nudged within its facet off the affine hull
    of the others when the core is full-sized, and the remaining items take
    seeded dyadic displacements that stay inside A and off the points placed
    so far. A sampled menu is accepted only when it is exactly in general
    position, no item is absorbed, it stays exhaustive and the deformation
    system certifies it extreme; otherwise it is resampled, up to 64 rounds.
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
    if not is_exhaustive(em, space).exhaustive:
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
            extremality=verdict,
        )

    # the core is drawn from M's vertices, so an absorbed veto is not pinned
    veto = space.veto if space.veto in em.vertices else None
    core = list(minimal_exhaustive_subset(em.vertices, space, must_include=veto))
    rng = random.Random(seed)
    last_error = "retry budget exhausted"
    for attempt in range(MAX_RETRIES):
        result = _attempt(menu, space, delta, core, rng, d)
        if result is None:
            continue
        new_items, moved = result
        general_position = is_general_position(new_items)
        if not general_position.general:
            last_error = "perturbed items not in general position"
            continue
        # an item w + p with p != 0 in the polar cone is the midpoint of
        # w + p/2 and w + 3p/2, so pairwise absorption also shows up here
        new_em = extend_menu(Menu(items=new_items), cone, space)
        if len(new_em.vertices) != len(new_items):
            last_error = "perturbed item absorbed"
            continue
        if not is_exhaustive(new_em, space).exhaustive:
            last_error = "perturbation lost exhaustiveness"
            continue
        new_verdict = is_extreme_finite(new_em, space)
        if not new_verdict.extreme:
            largest = max(map(len, rigid_components(new_em)), default=0)
            last_error = (f"perturbed menu still decomposable (largest rigid component covers "
                          f"{largest} of {len(new_em.vertices)} vertices, nullity {new_verdict.nullity})")
            continue
        return PerturbationResult(
            menu=new_items,
            moved=moved,
            delta=delta,
            already_extreme=False,
            retries=attempt + 1,
            general_position=general_position,
            extremality=new_verdict,
        )
    raise PerturbationError(
        f"no extreme perturbation found within {MAX_RETRIES} retries "
        f"(delta = {delta} may be too small): {last_error}"
    )


def _attempt(menu, space, delta, core, rng, d):
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
            cand = h.project(vadd(victim, step))
            if not space.contains(cand):
                continue
            if _off_affine_hull(cand, others):
                core_new[victim] = cand
                break
        else:
            return None
    current = [core_new[v] for v in core]
    for item in menu.items:
        if item in core_set:
            placed.append(core_new[item])
            moved.append(vsub(core_new[item], item))
            continue
        for _ in range(16):
            cand = vadd(item, _dyadic_step(rng, d, delta))
            if cand not in current and space.contains(cand):
                break
        else:
            return None
        placed.append(cand)
        moved.append(vsub(cand, item))
        current.append(cand)
    return tuple(placed), tuple(moved)


def _dyadic_step(rng, d, delta):
    """Componentwise dyadic displacement with infinity-norm < delta/(2d)."""
    denom = 64
    scale = delta / (2 * d)
    return tuple(Fraction(rng.randrange(-denom + 1, denom), denom) * scale for _ in range(d))


def _off_affine_hull(x, others):
    if len(others) < 2:
        return True
    base = others[0]
    rows = [vsub(p, base) for p in others[1:]]
    return rank(rows + [vsub(x, base)]) > rank(rows)
