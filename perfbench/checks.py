"""Output checks shared by the workloads.

Every check here is exact and is written against the program's outputs, not
its internal verifiers: a failed check raises ``Mismatch`` and the item
counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


class Mismatch(Exception):
    """An output disagreed with an oracle, a golden verdict or the reference."""


def require(condition, message):
    if not condition:
        raise Mismatch(message)


def qvec(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def _inside(halfspaces, x) -> bool:
    return all(sum(a * b for a, b in zip(h.normal, x)) <= h.offset for h in halfspaces)


def check_certificate(plus, minus, vertices, m_halfspaces, space):
    """Complete test that M = (P + Q) / 2 for P = conv(plus) + C and
    Q = conv(minus) + C, where M = conv(vertices) + C shares the cone C.

    (a) every pairwise midpoint lies in M, so (P + Q) / 2 is inside M;
    (b) every vertex of M is a midpoint, so M is inside (P + Q) / 2.
    Both summands must also be distinct valid menus: inside A, and holding
    the veto allocation when A has one (individual rationality).
    """
    require(plus and minus, "empty summand")
    require(set(plus) != set(minus), "identical summands")
    for label, items in (("plus", plus), ("minus", minus)):
        for p in items:
            require(_inside(space.facets, p), f"menu_{label} item {p} outside A")
        if space.veto is not None:
            require(space.veto in items, f"veto missing from menu_{label}")
    half = Fraction(1, 2)
    for p in plus:
        for r in minus:
            mid = tuple(half * (a + b) for a, b in zip(p, r))
            require(_inside(m_halfspaces, mid), f"midpoint {mid} outside M")
    minus_set = set(minus)
    for v in vertices:
        require(
            any(tuple(2 * a - b for a, b in zip(v, p)) in minus_set for p in plus),
            f"vertex {v} of M is no midpoint",
        )


def analyze_facts(report: dict) -> dict:
    """Verdict facts of an ``analyze`` report that every correct version
    reproduces, after checking the report's oracles agree with each other.

    Fields a correct change may alter (certificate directions and step,
    absorption weights, ``probes_checked``) are left out.
    """
    ext = report["extended_menu"]
    exh = report["exhaustiveness"]
    xtr = report["extremality"]
    facts = {
        "vertices": ext["vertices"],
        "bounded_edges": ext["bounded_edges"],
        "exhaustive": exh["exhaustive"],
        "case": exh["case"],
        "homothety": exh.get("homothety_cross_check"),
        "extreme": xtr["extreme"],
        "nullity": xtr["nullspace_dimension"],
        "planar_extreme": report.get("classification_2d", {}).get("extreme"),
    }
    require(xtr["def_polytope_cross_check"] == facts["extreme"],
            "deformation-polytope oracle disagrees")
    require(facts["homothety"] in (None, facts["exhaustive"]),
            "homothety oracle disagrees")
    require(facts["planar_extreme"] in (None, facts["extreme"]),
            "planar classifier disagrees")
    require(facts["extreme"] == (facts["nullity"] == 0), "nullity contradicts verdict")
    require(not facts["extreme"] or facts["exhaustive"], "extreme but not exhaustive")
    require(facts["extreme"] or isinstance(xtr["certificate"], dict),
            "non-extreme verdict without a decomposition")
    return facts


def check_analyze_certificate(report: dict, em, space):
    """Run ``check_certificate`` on the decomposition an analyze report ships."""
    cert = report["extremality"]["certificate"]
    if not isinstance(cert, dict):
        return
    vertices = [qvec(v) for v in report["extended_menu"]["vertices"]]
    require(vertices == list(em.vertices), "report vertices differ from M")
    check_certificate(
        [qvec(v) for v in cert["menu_plus"]],
        [qvec(v) for v in cert["menu_minus"]],
        vertices,
        em.poly.halfspaces,
        space,
    )


def fact_hash(facts) -> str:
    """Short stable hash of one item's facts."""
    text = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
