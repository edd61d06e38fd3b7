import json
import subprocess
import sys

import pytest

from extremenu import cli
from extremenu.model import ScenarioError


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


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "extremenu.cli", *args],
        capture_output=True,
        text=True,
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


def test_evaluate_with_sample(tmp_path):
    path = write_scenario(tmp_path, POSTED)
    sample = [{"theta": [str(w) + "/10", "-1"], "weight": "1/10"} for w in range(1, 11)]
    spath = tmp_path / "sample.json"
    spath.write_text(json.dumps(sample))
    r = run_cli(["evaluate", path, "--sample", str(spath)])
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["evaluation"]["expected_principal_utility"] == "1/4"


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
