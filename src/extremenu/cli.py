"""Scenario ingestion, command dispatch, and deterministic report emission.

Scenario files are JSON with rationals encoded as integers or "p/q" strings;
unknown fields are rejected. Reports render every number as an exact rational
string with a stable key order, so identical inputs reproduce byte-identical
output. Decimal renderings appear only in the plot-data export and are
flagged lossy there.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import applications as apps
from . import planar
from .exhaustive import homothety_cross_check, is_exhaustive
from .extremality import (
    DecompositionCertificate,
    def_polytope_cross_check,
    extract_decomposition,
    is_extreme_finite,
)
from .geometry import GeometryError, Hyperplane, InternalError
from .model import (
    ConstantObjective,
    Scenario,
    ScenarioError,
    TabulatedObjective,
    allocation_space_from_halfspaces,
    extended_menu,
    make_type_cone,
    render_linear,
    unrestricted_cone,
    validate_scenario,
)
from .perturb import PerturbationError, perturb_to_extreme
from .presets import cube_space, monopoly_cone, monopoly_space, simplex_space


def fmt_q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_vec(v) -> list:
    return [fmt_q(c) for c in v]


def parse_q(text) -> Fraction:
    if isinstance(text, bool):
        raise ScenarioError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            raise ScenarioError(f"malformed rational {text!r}: {e}") from None
    raise ScenarioError(f"expected a rational (int or 'p/q'), got {text!r}")


def parse_vec(values) -> tuple:
    if not isinstance(values, list):
        raise ScenarioError(f"expected a coordinate list, got {values!r}")
    return tuple(parse_q(x) for x in values)


def _preset_int(spec: dict, key: str, preset: str, least: int = 1) -> int:
    value = spec.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ScenarioError(f"{preset} preset needs an integer {key} >= {least}")
    return value


def _reject_unknown(obj: dict, allowed, where: str):
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown field {key!r} in {where}")


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list")
    return value


# ---------------------------------------------------------------------------
# scenario files


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    _reject_unknown(data, {"label", "space", "cone", "menu", "veto", "objective"}, "scenario")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ScenarioError("'label' must be a string")
    if "space" not in data or "menu" not in data:
        raise ScenarioError("scenario needs 'space' and 'menu'")
    veto = parse_vec(data["veto"]) if "veto" in data else None
    space, default_cone = _parse_space(data["space"], veto)
    cone = _parse_cone(data.get("cone", default_cone), space.dim)
    objective = _parse_objective(data.get("objective"))
    menu = [parse_vec(p) for p in _require_list(data["menu"], "'menu'")]
    return validate_scenario(space, cone, menu, objective, label=label)


def _parse_space(spec, veto):
    if not isinstance(spec, dict):
        raise ScenarioError("'space' must be an object")
    if "preset" in spec:
        _reject_unknown(spec, {"preset", "d", "m", "kappa"}, "space")
        preset = spec["preset"]
        if preset == "simplex":
            return simplex_space(_preset_int(spec, "d", "simplex"), veto=veto), "unrestricted"
        if preset == "cube":
            return cube_space(_preset_int(spec, "d", "cube"), veto=veto), "unrestricted"
        if preset == "monopoly":
            if "d" in spec:
                m = _preset_int(spec, "d", "monopoly", least=2) - 1
                if "m" in spec and _preset_int(spec, "m", "monopoly") != m:
                    raise ScenarioError("monopoly preset needs d = m + 1")
            else:
                m = _preset_int(spec, "m", "monopoly")
            kappa = parse_q(spec.get("kappa", 1))
            space = monopoly_space(m, kappa)
            if veto is not None and veto != space.veto:
                raise ScenarioError("monopoly preset fixes the origin veto")
            return space, "monopoly"
        raise ScenarioError(f"unknown preset {spec['preset']!r}")
    if "halfspaces" in spec:
        _reject_unknown(spec, {"halfspaces"}, "space")
        hs = []
        for i, h in enumerate(_require_list(spec["halfspaces"], "'halfspaces'")):
            if not isinstance(h, dict):
                raise ScenarioError("each halfspace must be an object")
            _reject_unknown(h, {"normal", "offset"}, f"halfspace {i}")
            if "normal" not in h or "offset" not in h:
                raise ScenarioError(f"halfspace {i} needs 'normal' and 'offset'")
            hs.append(Hyperplane.make(parse_vec(h["normal"]), parse_q(h["offset"])))
        return allocation_space_from_halfspaces(hs, veto=veto), "unrestricted"
    raise ScenarioError("'space' needs 'preset' or 'halfspaces'")


def _parse_cone(spec, d):
    if spec == "unrestricted":
        return unrestricted_cone(d)
    if spec == "monopoly":
        if d < 2:
            raise ScenarioError("monopoly cone needs d >= 2")
        return monopoly_cone(d - 1)
    if isinstance(spec, dict):
        _reject_unknown(spec, {"rays"}, "cone")
        rays = spec.get("rays")
        if not isinstance(rays, list) or not rays:
            raise ScenarioError("cone 'rays' must be a nonempty list of rays")
        return make_type_cone([parse_vec(r) for r in rays])
    raise ScenarioError(f"cone must be 'unrestricted', 'monopoly', or {{'rays': ...}}")


def _parse_objective(spec):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ScenarioError("'objective' must be an object")
    if "constant" in spec:
        _reject_unknown(spec, {"constant"}, "objective")
        return ConstantObjective(v=parse_vec(spec["constant"]))
    if "table" in spec:
        _reject_unknown(spec, {"table"}, "objective")
        rows = []
        for row in _require_list(spec["table"], "objective 'table'"):
            if not isinstance(row, dict) or "theta" not in row or "v" not in row:
                raise ScenarioError("each objective table row must be an object with 'theta' and 'v'")
            _reject_unknown(row, {"theta", "v"}, "objective table row")
            rows.append((parse_vec(row["theta"]), parse_vec(row["v"])))
        return TabulatedObjective(table=tuple(rows))
    raise ScenarioError("objective needs 'constant' or 'table'")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ScenarioError(f"invalid JSON in {path}: {e}") from None


def parse_scenario(path: str) -> Scenario:
    return scenario_from_dict(_load_json(path))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical explicit form; parsing it reproduces the same scenario."""
    out = {"label": scenario.label}
    out["space"] = {
        "halfspaces": [
            {"normal": fmt_vec(h.normal), "offset": fmt_q(h.offset)}
            for h in scenario.space.facets
        ]
    }
    out["cone"] = {"rays": [fmt_vec(r) for r in scenario.cone.rays]}
    out["menu"] = [fmt_vec(p) for p in sorted(scenario.menu.items)]
    if scenario.space.veto is not None:
        out["veto"] = fmt_vec(scenario.space.veto)
    if isinstance(scenario.objective, ConstantObjective):
        out["objective"] = {"constant": fmt_vec(scenario.objective.v)}
    elif isinstance(scenario.objective, TabulatedObjective):
        out["objective"] = {
            "table": [
                {"theta": fmt_vec(t), "v": fmt_vec(v)} for t, v in scenario.objective.table
            ]
        }
    return out


def parse_sample(path: str, cone) -> apps.TypeSample:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ScenarioError("sample file must hold a JSON list")
    entries = []
    for row in data:
        if not isinstance(row, dict) or "theta" not in row or "weight" not in row:
            raise ScenarioError("each sample row must be an object with 'theta' and 'weight'")
        _reject_unknown(row, {"theta", "weight"}, "sample row")
        entries.append((parse_vec(row["theta"]), parse_q(row["weight"])))
    return apps.make_type_sample(entries, cone)


# ---------------------------------------------------------------------------
# report blocks


def _extended_block(scenario, em) -> dict:
    return {
        "vertices": [fmt_vec(v) for v in em.vertices],
        "bounded_edges": [[i, j] for (i, j) in em.edges],
        "binding_facets": [
            render_linear(h.normal, h.offset)
            for h in (scenario.space.facets[i] for i in sorted(em.binding))
        ],
        "absorbed_items": [
            {
                "item": fmt_vec(a.item),
                "vertex_weights": [[i, fmt_q(w)] for i, w in a.vertex_weights],
                "polar_weights": [[j, fmt_q(w)] for j, w in a.polar_weights],
            }
            for a in em.absorbed
        ],
    }


def _exhaustiveness_block(em, space) -> dict:
    rep = is_exhaustive(em, space)
    block = {"exhaustive": rep.exhaustive, "case": rep.case}
    if rep.witness_translation is not None:
        block["witness_translation"] = fmt_vec(rep.witness_translation)
    if rep.witness_center is not None:
        block["witness_center"] = fmt_vec(rep.witness_center)
    if len(em.vertices) >= 2:
        hom = homothety_cross_check(em, space)
        block["homothety_cross_check"] = hom
        if hom != rep.exhaustive:
            raise InternalError("exhaustiveness encodings disagree (internal)")
    return block


def _certificate_block(cert: DecompositionCertificate) -> dict:
    return {
        "epsilon": fmt_q(cert.epsilon),
        "menu_plus": [fmt_vec(v) for v in cert.menu_plus],
        "menu_minus": [fmt_vec(v) for v in cert.menu_minus],
        "direction_psi": [fmt_vec(p) for p in cert.direction.psi],
        "direction_mu": fmt_vec(cert.direction.mu),
        "verification": "midpoint-containment",
    }


def _extremality_block(scenario, em) -> dict:
    verdict = is_extreme_finite(em, scenario.space)
    agrees = def_polytope_cross_check(em, scenario.space)
    if agrees != verdict.extreme:
        raise InternalError("extremality encodings disagree (internal)")
    block = {
        "extreme": verdict.extreme,
        "nullspace_dimension": verdict.nullity,
        "def_polytope_cross_check": agrees,
    }
    if verdict.extreme:
        block["certificate"] = "extreme - no decomposition exists (trivial nullspace)"
    else:
        cert = extract_decomposition(em, scenario.space, verdict.direction)
        block["certificate"] = _certificate_block(cert)
    return block


def _classify2d_block(scenario, em) -> dict:
    verdict = planar.classify_2d(em, scenario.space)
    block = {"extreme": verdict.extreme, "method": verdict.method}
    if verdict.chain is not None:
        block["flexible_chain"] = {
            "elements": [
                e if e == planar.SENTINEL else fmt_vec(em.vertices[e])
                for e in verdict.chain.elements
            ],
            "case": verdict.chain.case,
        }
        if verdict.chain.sine_sq_products is not None:
            pa, pb = verdict.chain.sine_sq_products
            block["flexible_chain"]["sine_sq_products"] = [fmt_q(pa), fmt_q(pb)]
    return block


# ---------------------------------------------------------------------------
# commands


def run_command(name: str, scenario: Scenario, flags) -> dict:
    em = extended_menu(scenario)
    report = {"command": name, "scenario": scenario_to_dict(scenario)}
    if name == "analyze":
        report["extended_menu"] = _extended_block(scenario, em)
        report["exhaustiveness"] = _exhaustiveness_block(em, scenario.space)
        report["extremality"] = _extremality_block(scenario, em)
        if scenario.dim == 2:
            report["classification_2d"] = _classify2d_block(scenario, em)
            if report["classification_2d"]["extreme"] != report["extremality"]["extreme"]:
                raise InternalError("planar classification disagrees (internal)")
    elif name == "decompose":
        report["extremality"] = _extremality_block(scenario, em)
    elif name == "perturb":
        result = perturb_to_extreme(
            scenario.menu, scenario.space, scenario.cone, parse_q(flags.delta), flags.seed
        )
        report["perturbation"] = {
            "delta": fmt_q(result.delta),
            "already_extreme": result.already_extreme,
            "retries": result.retries,
            "menu": [fmt_vec(p) for p in result.menu],
            "moved": [fmt_vec(p) for p in result.moved],
            "general_position": result.general_position.general,
            "certified_extreme": result.extremality.extreme,
        }
    elif name == "classify2d":
        if scenario.dim != 2:
            raise ScenarioError(f"classify2d requires d = 2, scenario has d = {scenario.dim}")
        report["classification_2d"] = _classify2d_block(scenario, em)
    elif name == "delegation":
        rep = apps.delegation_classify(scenario)
        report["delegation"] = {
            "kind": rep.kind,
            "menu_size": rep.menu_size,
            "extreme": rep.extreme,
            "source": rep.source,
        }
    elif name == "monopoly":
        if flags.nudge:
            if flags.eps is None or flags.delta is None:
                raise ScenarioError("monopoly --nudge needs --eps and --delta")
            nr = apps.monopoly_nudge(scenario, parse_q(flags.eps), parse_q(flags.delta))
            analysis = apps.monopoly_pricing_analysis(nr.scenario)
            report["nudge"] = {
                "menu": [fmt_vec(p) for p in nr.scenario.menu.items],
                "displacement_bound": fmt_q(nr.displacement_bound),
                "margin": fmt_q(nr.margin),
            }
        else:
            analysis = apps.monopoly_pricing_analysis(scenario)
            if flags.delta is not None:
                report["margin_at_least_requested"] = analysis.delta_margin >= parse_q(flags.delta)
        report["pricing"] = {
            "gradients": [fmt_vec(g) for g in analysis.gradients],
            "component_ranges": [[fmt_q(a), fmt_q(b)] for a, b in analysis.component_ranges],
            "delta_margin": fmt_q(analysis.delta_margin),
            "undominated_sufficient": analysis.undominated_sufficient,
            "note": "zero margin is inconclusive, never 'dominated'",
        }
    elif name == "veto":
        report["veto_bargaining"] = {"undominated": apps.veto_undominated(scenario)}
    elif name == "evaluate":
        if scenario.objective is None:
            raise ScenarioError("evaluate needs a scenario objective")
        sample = parse_sample(flags.sample, scenario.cone)
        value = apps.expected_principal_utility(
            scenario.menu, scenario.objective, sample, scenario.cone
        )
        report["evaluation"] = {
            "sample_size": len(sample),
            "expected_principal_utility": fmt_q(value),
        }
    else:
        raise ScenarioError(f"unknown command {name!r}")
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# plot-data export


def export_plotdata(scenario: Scenario, path: str) -> None:
    """Tab-separated decimal rendering (display only; reports stay exact)."""
    if scenario.dim not in (2, 3):
        raise ScenarioError(f"plotdata supports d in {{2, 3}}, got d = {scenario.dim}")
    em = extended_menu(scenario)
    rows = [["block", "x", "y", "z"][: scenario.dim + 1]]

    def emit(block, pts):
        for p in pts:
            rows.append([block] + [repr(float(c)) for c in p])

    emit("allocation_vertex", scenario.space.poly.points)
    emit("menu_item", scenario.menu.items)
    emit("extended_vertex", em.vertices)
    emit("polar_ray", [tuple(map(Fraction, r)) for r in em.poly.rays])
    verdict = is_extreme_finite(em, scenario.space)
    if not verdict.extreme:
        cert = extract_decomposition(em, scenario.space, verdict.direction)
        emit("summand_plus", cert.menu_plus)
        emit("summand_minus", cert.menu_minus)
    text = "\n".join("\t".join(r) for r in rows) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# lossy decimal rendering for plotting; exact values live in reports\n")
        fh.write(text)


# ---------------------------------------------------------------------------
# experiment (no scenario file)


def run_experiment(flags) -> dict:
    summary = apps.genericity_experiment(
        flags.preset, flags.d, flags.k, flags.samples, flags.seed
    )
    return {
        "command": "experiment",
        "preset": summary.preset,
        "dimension": summary.dimension,
        "menu_size": summary.menu_size,
        "samples": summary.samples,
        "seed": summary.seed,
        "exhaustive_after_forcing": summary.exhaustive_after_forcing,
        "forcing_failed": summary.forcing_failed,
        "extreme": summary.extreme,
        "extreme_fraction": fmt_q(summary.extreme_fraction),
        "mean_nullspace_dimension": fmt_q(summary.mean_nullity),
    }


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="extremenu",
        description="Exact extreme-point analysis of finite-menu screening mechanisms",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def with_scenario(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("scenario", help="path to a scenario JSON file")
        return sp

    with_scenario("analyze", help="full report: extension, exhaustiveness, extremality")
    with_scenario("decompose", help="decomposition certificate or extremality proof")
    sp = with_scenario("perturb", help="perturb an exhaustive menu into an extreme point")
    sp.add_argument("--delta", required=True, help="max displacement (rational)")
    sp.add_argument("--seed", type=int, default=0)
    with_scenario("classify2d", help="planar boundary-partition classification")
    with_scenario("delegation", help="dictatorship/strike classification on the simplex")
    sp = with_scenario("monopoly", help="marginal-price analysis; optional price nudge")
    sp.add_argument("--delta", default=None, help="margin threshold, or nudge delta")
    sp.add_argument("--nudge", action="store_true")
    sp.add_argument("--eps", default=None)
    with_scenario("veto", help="veto-bargaining undominatedness")
    sp = with_scenario("evaluate", help="expected principal utility on a type sample")
    sp.add_argument("--sample", required=True, help="path to a sample JSON file")
    sp = sub.add_parser("experiment", help="random-menu genericity experiment")
    sp.add_argument("--preset", default="simplex", choices=["simplex", "cube", "monopoly"])
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp = with_scenario("plotdata", help="export decimal plot data")
    sp.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiment":
            report = run_experiment(args)
        elif args.command == "plotdata":
            scenario = parse_scenario(args.scenario)
            export_plotdata(scenario, args.out)
            report = {"command": "plotdata", "out": args.out}
        else:
            scenario = parse_scenario(args.scenario)
            report = run_command(args.command, scenario, args)
        sys.stdout.write(render_report(report))
        return 0
    except InternalError as e:
        sys.stderr.write(f"internal invariant violation: {e}\n")
        return 2
    except (ScenarioError, PerturbationError, GeometryError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:  # anything else is a fault in the core, not in the input
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        sys.stderr.write(f"internal error: {detail}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
