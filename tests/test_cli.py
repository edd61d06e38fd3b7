import ast
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from extremenu import cli
from extremenu.geometry import GeometryError, InternalError
from extremenu.model import ScenarioError, unrestricted_cone
from extremenu.presets import monopoly_cone


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


POSTED = {
    "label": "posted",
    "space": {"preset": "monopoly", "m": 1, "kappa": 1},
    "cone": "monopoly",
    "menu": [["0", "0"], ["1", "1/2"]],
    "objective": {"constant": ["0", "1"]},
}


# children import the package under test, installed or not
SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "extremenu.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_parse_simplex_scenario(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 2},
        "cone": "unrestricted",
        "menu": [[0, 0], [1, 0], [0, 1]],
    })
    sc = cli.parse_scenario(path)
    assert len(sc.menu) == 3


def test_malformed_rational_rejected(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 2},
        "menu": [["1/0", "0"]],
    })
    with pytest.raises(ScenarioError, match="malformed rational"):
        cli.parse_scenario(path)


def test_unknown_field_rejected(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 2},
        "menu": [[0, 0]],
        "surprise": 1,
    })
    with pytest.raises(ScenarioError, match="unknown field"):
        cli.parse_scenario(path)


def test_unknown_preset_rejected(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "dodecahedron", "d": 2},
        "menu": [[0, 0]],
    })
    with pytest.raises(ScenarioError, match="unknown preset"):
        cli.parse_scenario(path)


def test_monopoly_preset_m2(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "monopoly", "m": 2, "kappa": 2},
        "cone": "monopoly",
        "menu": [["0", "0", "0"], ["1", "1", "3/2"]],
    })
    sc = cli.parse_scenario(path)
    assert sc.dim == 3


def test_scenario_round_trip(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    sc = cli.parse_scenario(path)
    echoed = cli.scenario_to_dict(sc)
    path2 = write_scenario(tmp_path, echoed, "echo.json")
    sc2 = cli.parse_scenario(path2)
    assert sc2.space.facets == sc.space.facets
    assert sc2.cone.rays == sc.cone.rays
    assert sorted(sc2.menu.items) == sorted(sc.menu.items)
    assert cli.scenario_to_dict(sc2) == echoed


def test_analyze_posted_price(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    r = run_cli(["analyze", path])
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["extremality"]["extreme"] is True
    assert rep["exhaustiveness"]["exhaustive"] is True
    assert rep["classification_2d"]["extreme"] is True


def test_decompose_reports_trivial_nullspace_for_extreme(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    r = run_cli(["decompose", path])
    rep = json.loads(r.stdout)
    assert rep["extremality"]["nullspace_dimension"] == 0
    assert "no decomposition exists" in rep["extremality"]["certificate"]


def test_decompose_ships_verified_certificate(tmp_path):
    path = write_scenario(tmp_path, dict(POSTED, menu=[["0", "0"], ["1/2", "1/8"], ["1", "1/2"]]))
    r = run_cli(["decompose", path])
    assert r.returncode == 0, r.stderr
    cert = json.loads(r.stdout)["extremality"]["certificate"]
    assert cert["verification"] == "midpoint-containment"
    assert "probes_checked" not in cert


def test_classify2d_rejects_d3(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 3},
        "menu": [[0, 0, 0]],
    })
    r = run_cli(["classify2d", path])
    assert r.returncode == 1
    assert "requires d = 2" in r.stderr


SQUARE = [{"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 0},
          {"normal": [0, 1], "offset": 1}, {"normal": [0, -1], "offset": 0}]


@pytest.mark.parametrize("space, cone, message", [
    # strictly redundant (never tight), weakly redundant (tight only at the
    # vertex (1, 1)), and the facet a1 <= 1 stated a second time
    ({"halfspaces": SQUARE + [{"normal": [1, 1], "offset": 3}]}, None,
     "redundant facet: a1 + a2 <= 3"),
    ({"halfspaces": SQUARE + [{"normal": [1, 1], "offset": 2}]}, None,
     "redundant facet: a1 + a2 <= 2"),
    ({"halfspaces": SQUARE + [{"normal": [2, 0], "offset": 2}]}, None,
     "redundant facet: a1 <= 1"),
    ({"halfspaces": SQUARE[:3] + [{"offset": 0}]}, None, "halfspace 3 needs 'normal' and 'offset'"),
    ({"halfspaces": SQUARE[:3] + [{"normal": [0, -1]}]}, None, "halfspace 3 needs 'normal' and 'offset'"),
    ({"preset": "simplex", "d": 2}, {"rays": []}, "cone 'rays' must be a nonempty list of rays"),
    ({"preset": "simplex", "d": 2}, {}, "cone 'rays' must be a nonempty list of rays"),
    ({"preset": "simplex", "d": True}, None, "simplex preset needs an integer d >= 1"),
    ({"preset": "cube", "d": True}, None, "cube preset needs an integer d >= 1"),
    ({"preset": "monopoly", "m": True}, None, "monopoly preset needs an integer m >= 1"),
    ({"preset": "monopoly", "d": True}, None, "monopoly preset needs an integer d >= 2"),
    ({"preset": "monopoly", "m": 1, "d": 3}, None, "monopoly preset needs d = m + 1"),
])
def test_malformed_scenario_is_one_line_diagnostic(tmp_path, space, cone, message):
    data = {"space": space, "menu": [[0, 0]]}
    if cone is not None:
        data["cone"] = cone
    path = write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        cli.parse_scenario(path)
    r = run_cli(["analyze", path])
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"error: {message}"]
    assert "Traceback" not in r.stderr


def test_missing_file_is_diagnostic():
    r = run_cli(["analyze", "/nonexistent/file.json"])
    assert r.returncode == 1


def test_byte_determinism(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    a = run_cli(["analyze", path])
    b = run_cli(["analyze", path])
    assert a.stdout == b.stdout and a.returncode == 0


def test_experiment_determinism():
    args = ["experiment", "--preset", "simplex", "--d", "3", "--k", "4",
            "--samples", "6", "--seed", "5"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["forcing_failed"] == 0


def test_experiment_reports_forcing_failures():
    r = run_cli(["experiment", "--preset", "monopoly", "--d", "3", "--k", "6",
                 "--samples", "25", "--seed", "7"])
    rep = json.loads(r.stdout)
    assert (rep["exhaustive_after_forcing"], rep["forcing_failed"]) == (20, 5)


def test_evaluate_with_sample(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    sample = [{"theta": [str(w) + "/10", "-1"], "weight": "1/10"} for w in range(1, 11)]
    spath = tmp_path / "sample.json"
    spath.write_text(json.dumps(sample))
    r = run_cli(["evaluate", path, "--sample", str(spath)])
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["evaluation"]["expected_principal_utility"] == "1/4"


ROW_MESSAGE = "each sample row must be an object with 'theta' and 'weight'"
EXPERIMENT = ["experiment", "--preset", "simplex", "--d", "2", "--k", "3"]


@pytest.mark.parametrize("command, sample, message", [
    (["evaluate", "SCENARIO", "--sample", "SAMPLE"], [1, 2], ROW_MESSAGE),
    (["evaluate", "SCENARIO", "--sample", "SAMPLE"], [{"theta": ["1/2", "-1"]}], ROW_MESSAGE),
    (["evaluate", "SCENARIO", "--sample", "SAMPLE"], "[{", "invalid JSON in "),
    (["evaluate", "SCENARIO", "--sample", "SAMPLE"], [{"theta": ["1", "-1", "5"], "weight": "1"}],
     "sample type has dimension 3, expected 2"),
    (["perturb", "SCENARIO", "--delta", "abc"], None, "malformed rational 'abc'"),
    (["monopoly", "SCENARIO", "--nudge", "--eps", "1/0", "--delta", "1/4"], None,
     "malformed rational '1/0'"),
    (EXPERIMENT + ["--samples", "-5"], None, "genericity_experiment needs samples >= 1"),
    (EXPERIMENT + ["--samples", "0"], None, "genericity_experiment needs samples >= 1"),
], ids=["sample-row-not-object", "sample-row-without-weight", "sample-not-json",
        "sample-type-wrong-dimension", "delta-not-rational", "eps-not-rational",
        "samples-negative", "samples-zero"])
def test_malformed_flag_or_sample_is_one_line_diagnostic(tmp_path, command, sample, message):
    spath = tmp_path / "sample.json"
    spath.write_text(sample if isinstance(sample, str) else json.dumps(sample))
    subs = {"SCENARIO": write_scenario(tmp_path, POSTED), "SAMPLE": str(spath)}
    r = run_cli([subs.get(a, a) for a in command])
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("fault", [ZeroDivisionError("injected\nfault"), KeyError("psi"),
                                   RuntimeError()], ids=["multiline", "keyerror", "bare"])
def test_core_fault_is_one_line_internal_error(tmp_path, monkeypatch, capsys, fault):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "is_extreme_finite", broken)
    code = cli.main(["analyze", write_scenario(tmp_path, POSTED)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: "), err
    assert "Traceback" not in err


def test_decomposition_outside_point_exits_internal(tmp_path, monkeypatch, capsys):
    # extend_menu only decomposes menu items, which lie in M; a point outside
    # M can only come from a fault, so analyze must exit 2, not 1
    from extremenu import geometry, model

    decompose = geometry.caratheodory_decomposition
    monkeypatch.setattr(geometry, "caratheodory_decomposition",
                        lambda poly, x: decompose(poly, (x[0] + 10, x[1] - 10)))
    model.extended_menu.cache_clear()
    absorbing = dict(POSTED, menu=[["0", "0"], ["1/2", "1/8"], ["1", "1/2"], ["1/4", "1/2"]])
    code = cli.main(["analyze", write_scenario(tmp_path, absorbing)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("internal invariant violation: ") and "outside the polyhedron" in err


def _raised_messages():
    """(file:line, exception name, literal text) of every raise of a call in src/."""
    src = pathlib.Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
                continue
            func = node.exc.func
            parts = [n.value for arg in node.exc.args for n in ast.walk(arg)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            yield (f"{path.name}:{node.lineno}", getattr(func, "id", getattr(func, "attr", None)),
                   "".join(parts))


def test_invariant_messages_carry_internal_marker():
    # cli.main sends InternalError to exit 2 and any other GeometryError to
    # exit 1, so a message naming an invariant must come with the type
    sites = list(_raised_messages())
    internal = [site for site, name, _ in sites if name == "InternalError"]
    assert len(internal) > 20
    mistyped = [site for site, name, text in sites
                if (re.search(r"internal|impossible", text) or "(internal)" in text)
                and name != "InternalError"]
    assert mistyped == []
    unmarked = [site for site, name, text in sites
                if name == "InternalError" and "(internal)" not in text]
    assert unmarked == []


def test_unreadable_scenario_is_input_error(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (str(tmp_path), str(binary)):
        assert cli.main(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


SIMPLEX2 = {"preset": "simplex", "d": 2}


@pytest.mark.parametrize("data, message", [
    (dict(POSTED, objective={"table": [{"theta": ["1", "0"]}]}),
     "each objective table row must be an object with 'theta' and 'v'"),
    (dict(POSTED, objective={"table": [[1]]}),
     "each objective table row must be an object with 'theta' and 'v'"),
    (dict(POSTED, objective={"table": 5}), "objective 'table' must be a list"),
    ({"space": SIMPLEX2, "menu": 5}, "'menu' must be a list"),
    ({"space": {"halfspaces": 5}, "menu": [[0, 0]]}, "'halfspaces' must be a list"),
    (dict(POSTED, label=["a"]), "'label' must be a string"),
], ids=["table-row-without-v", "table-row-not-object", "table-not-list", "menu-not-list",
        "halfspaces-not-list", "label-not-string"])
def test_malformed_container_is_one_line_diagnostic(tmp_path, capsys, data, message):
    assert cli.main(["analyze", write_scenario(tmp_path, data)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# -- fuzzed parsers: JSON-shaped input raises only input errors --------------

KEYS = ["label", "space", "cone", "menu", "veto", "objective", "preset", "d", "m", "kappa",
        "halfspaces", "normal", "offset", "rays", "constant", "table", "theta", "v", "weight",
        "extra"]
# integers stay small: a preset's size grows like 2^d, which is not the point here
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                    st.sampled_from(["0", "1", "-1", "1/2", "-1/3", "1/0", "x", "simplex", "cube",
                                     "monopoly", "unrestricted"]))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)),
    max_leaves=12)
COORD = st.one_of(st.integers(0, 1), st.sampled_from(["1/4", "1/2", "-1/3"]))


def _slots(value, prefix=()):
    """Paths to every object member and to every container in a list."""
    is_object = isinstance(value, dict)
    for key, child in value.items() if is_object else enumerate(value):
        if is_object or isinstance(child, (dict, list)):
            yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _slots(child, prefix + (key,))


@st.composite
def scenario_shaped(draw):
    """A well-formed scenario object with up to two slots, each in a member
    drawn first, replaced by any JSON value or deleted."""
    d = draw(st.integers(2, 3))
    vec = st.lists(COORD, min_size=d, max_size=d)
    units = [[s * int(i == j) for j in range(d)] for i in range(d) for s in (1, -1)]
    box = [{"normal": u, "offset": int(sum(u) > 0)} for u in units]
    data = {
        "space": draw(st.sampled_from([{"preset": "simplex", "d": d}, {"preset": "cube", "d": d},
                                       {"preset": "monopoly", "d": d},
                                       {"preset": "monopoly", "m": d - 1, "kappa": "1/2"},
                                       {"halfspaces": box}])),
        "menu": [[0] * d] + draw(st.lists(vec, max_size=3)),
        "cone": draw(st.one_of(
            st.sampled_from(["unrestricted", "monopoly"]),
            st.builds(lambda extra: {"rays": units + extra}, st.lists(vec, max_size=1)))),
        "veto": [0] * d,
        "objective": draw(st.one_of(st.fixed_dictionaries({"constant": vec}), st.fixed_dictionaries(
            {"table": st.lists(st.fixed_dictionaries({"theta": vec, "v": vec}), min_size=1, max_size=2)}))),
        "label": draw(st.text(max_size=3)),
    }
    # choices seeded by the drawn object: hypothesis's own draws of them
    # would favour a few members
    rnd = random.Random(repr(data))
    for _ in range(rnd.choice([0, 1, 1, 2])):
        member = rnd.choice(sorted(data))
        inner = _slots(data[member]) if isinstance(data[member], (dict, list)) else ()
        path = rnd.choice([(member,)] + [(member,) + p for p in inner])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rnd.random() < 0.5:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON)
    return data


def input_errors_only(call):
    """Run call; an escaping error must be one that cli.main answers with exit 1."""
    try:
        call()
    except InternalError:
        raise
    except (ScenarioError, GeometryError):
        pass


@given(st.one_of(scenario_shaped(), JSON))
@settings(max_examples=400, deadline=None)
def test_scenario_parser_raises_only_input_errors(data):
    input_errors_only(lambda: cli.scenario_from_dict(data))


SAMPLE_CONES = (unrestricted_cone(2), monopoly_cone(1))


@given(st.one_of(st.lists(st.one_of(st.fixed_dictionaries(
    {"theta": st.lists(st.one_of(COORD, SCALARS), min_size=2, max_size=2), "weight": COORD}),
    JSON), max_size=4), JSON), st.sampled_from(SAMPLE_CONES))
@settings(max_examples=100, deadline=None)
def test_sample_parser_raises_only_input_errors(tmp_path_factory, data, cone):
    path = tmp_path_factory.mktemp("sample") / "sample.json"
    path.write_text(json.dumps(data))
    input_errors_only(lambda: cli.parse_sample(str(path), cone))


def test_plotdata_export(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    out = tmp_path / "plot.tsv"
    r = run_cli(["plotdata", path, "--out", str(out)])
    assert r.returncode == 0
    text = out.read_text()
    assert "lossy" in text
    assert "extended_vertex" in text and "polar_ray" in text


def test_plotdata_rejects_high_dimension(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 4},
        "menu": [[0, 0, 0, 0]],
    })
    r = run_cli(["plotdata", path, "--out", str(tmp_path / "x.tsv")])
    assert r.returncode == 1


def test_monopoly_margin_threshold(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    r = run_cli(["monopoly", path, "--delta", "1/4"])
    rep = json.loads(r.stdout)
    assert rep["margin_at_least_requested"] is True
    assert rep["pricing"]["delta_margin"] == "1/2"


def test_perturb_command(tmp_path):
    prism_menu = [["0", "0", "0"], ["1/2", "0", "0"], ["0", "1/2", "0"],
                  ["0", "0", "1/2"], ["1/2", "0", "1/2"], ["0", "1/2", "1/2"]]
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 3},
        "cone": "unrestricted",
        "menu": prism_menu,
    })
    r = run_cli(["perturb", path, "--delta", "1/20", "--seed", "3"])
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["perturbation"]["certified_extreme"] is True


def test_perturb_with_an_absorbed_veto_names_the_failure(tmp_path):
    # the origin veto is absorbed into M, so it is no vertex to pin the core on
    path = write_scenario(tmp_path, {
        "space": {"preset": "monopoly", "m": 2, "kappa": 1},
        "cone": "monopoly",
        "menu": [["0", "0", "0"], ["0", "7/8", "7/16"], ["0", "1", "15/16"],
                 ["15/16", "0", "11/16"], ["0", "7/16", "0"], ["3/4", "13/16", "1"],
                 ["0", "15/16", "11/16"]],
    })
    r = run_cli(["perturb", path, "--delta", "1/20"])
    assert r.returncode == 1
    assert r.stderr.startswith("error: no extreme perturbation found")
    assert "perturbed item absorbed" in r.stderr


def test_delegation_command(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 2},
        "menu": [["0", "1/2"], ["1/2", "0"], ["1/2", "1/2"]],
    })
    r = run_cli(["delegation", path])
    rep = json.loads(r.stdout)
    assert rep["delegation"] == {
        "kind": "grants_strike", "menu_size": 3, "extreme": True, "source": "size-rule"
    }


def test_veto_command(tmp_path):
    path = write_scenario(tmp_path, {
        "space": {"preset": "simplex", "d": 2},
        "veto": ["0", "0"],
        "menu": [["0", "0"], ["0", "1"]],
        "objective": {"constant": ["1", "2"]},
    })
    r = run_cli(["veto", path])
    rep = json.loads(r.stdout)
    assert rep["veto_bargaining"]["undominated"] is True
