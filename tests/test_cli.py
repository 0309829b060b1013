import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import qdsphere.cli
from qdsphere import __version__
from qdsphere.cli import main
from qdsphere.qdiff import CIRCULAR, double_pole_kind
from qdsphere.specfile import build_qd, parse_obj

FIG_WINDING = {
    "format_version": 1,
    "general": {
        "numerator": [[-1.0, 0.0]],
        "denominator": [[0.0, 0.5], [0.0, 0.0], [-0.25, -2.0], [0.0, 0.0], [1.0, 0.0]],
    },
    "seeds": [[1.0, 0.0]],
    "budgets": {"max_phi_length": 200.0},
}

SEGMENT = {
    "format_version": 1,
    "p_over_q_squared": {"p": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], "q": [[1.0, 0.0]]},
}

CIRCLE = {
    "format_version": 1,
    "p_over_q_squared": {"p": [[-1.0, 0.0]], "q": [[0.0, 0.0], [1.0, 0.0]]},
}

SEMICIRCLE = {
    "format_version": 1,
    "cauchy": {"p": [[1.0, 0.0]], "q": [[0.0, 0.0], [-1.0, 0.0]], "r": [[1.0, 0.0]]},
}


def write_spec(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(args):
    return main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- schema


def test_missing_file_is_error(tmp_path, capsys):
    assert run(["criteria", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1,,}')
    assert run(["criteria", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_unknown_top_level_field_rejected(tmp_path, capsys):
    spec = dict(SEGMENT)
    spec["surprise"] = 3
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1
    assert "surprise" in capsys.readouterr().err


def test_two_forms_rejected(tmp_path, capsys):
    spec = dict(SEGMENT)
    spec["general"] = FIG_WINDING["general"]
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1


def test_zero_denominator_rejected(tmp_path, capsys):
    spec = {"format_version": 1,
            "general": {"numerator": [[1.0, 0.0]], "denominator": [[0.0, 0.0]]}}
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1


def test_wrong_format_version_rejected(tmp_path, capsys):
    spec = dict(SEGMENT)
    spec["format_version"] = 2
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1
    assert "format_version" in capsys.readouterr().err


def test_degree_cap_enforced(tmp_path, capsys):
    spec = {"format_version": 1,
            "general": {"numerator": [[1.0, 0.0]],
                        "denominator": [[1.0, 0.0]] * 66}}
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1


def test_bad_window_rejected(tmp_path, capsys):
    spec = dict(SEGMENT)
    spec["window"] = [2.0, 0.0, -2.0, 1.0]
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1


def _rejected(tmp_path, capsys, spec, field):
    # json.dumps writes NaN and Infinity literals, which json.load accepts
    assert run(["criteria", write_spec(tmp_path, spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and "Traceback" not in err


def test_nan_coefficient_rejected(tmp_path, capsys):
    spec = {"format_version": 1,
            "general": {"numerator": [[math.nan, 0.0]], "denominator": [[1.0, 0.0]]}}
    _rejected(tmp_path, capsys, spec, "general.numerator[0]")


def test_infinite_coefficient_rejected(tmp_path, capsys):
    spec = {"format_version": 1,
            "p_over_q_squared": {"p": [[1.0, 0.0], [0.0, math.inf]], "q": [[1.0, 0.0]]}}
    _rejected(tmp_path, capsys, spec, "p_over_q_squared.p[1]")


def test_bool_coefficient_rejected(tmp_path, capsys):
    spec = {"format_version": 1,
            "general": {"numerator": [[True, False]], "denominator": [[1.0, 0.0]]}}
    _rejected(tmp_path, capsys, spec, "general.numerator[0]")


def test_nonfinite_window_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, window=[-math.inf, -2.0, 2.0, 2.0])
    _rejected(tmp_path, capsys, spec, "window")


def test_bool_window_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, window=[False, False, True, True])
    _rejected(tmp_path, capsys, spec, "window")


def test_nonfinite_seed_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, seeds=[[1.0, math.nan]])
    _rejected(tmp_path, capsys, spec, "seeds[0]")


def test_bool_seed_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, seeds=[[True, 0.0]])
    _rejected(tmp_path, capsys, spec, "seeds[0]")


def test_nonfinite_budget_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, budgets={"max_phi_length": math.inf})
    _rejected(tmp_path, capsys, spec, "budgets.max_phi_length")


def test_bool_budget_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, budgets={"rk_tol": True})
    _rejected(tmp_path, capsys, spec, "budgets.rk_tol")


def test_fractional_max_steps_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, budgets={"max_steps": 2.5})
    _rejected(tmp_path, capsys, spec, "budgets.max_steps")


def test_float_max_steps_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, budgets={"max_steps": 1e300})
    _rejected(tmp_path, capsys, spec, "budgets.max_steps")


@pytest.mark.parametrize("value", [5, True, 0, False, ""])
def test_non_list_seeds_rejected(tmp_path, capsys, value):
    _rejected(tmp_path, capsys, dict(SEGMENT, seeds=value), "seeds")


@pytest.mark.parametrize("value", [0, False])
def test_non_object_budgets_rejected(tmp_path, capsys, value):
    _rejected(tmp_path, capsys, dict(SEGMENT, budgets=value), "budgets")


def test_bool_sign_rejected(tmp_path, capsys):
    spec = dict(SEGMENT, p_over_q_squared=dict(SEGMENT["p_over_q_squared"], sign=True))
    _rejected(tmp_path, capsys, spec, "p_over_q_squared.sign")


def test_null_seeds_and_budgets_are_absent(tmp_path):
    spec = write_spec(tmp_path, dict(SEGMENT, seeds=None, budgets=None))
    assert run(["criteria", spec]) in (0, 10)


LEMNISCATE = {
    "format_version": 1,
    "lemniscate": {"p": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "q": [[1.0, 0.0]]},
}


def _run_rejected(tmp_path, capsys, command, spec, flags, field):
    # bad flag or input field values end as a SchemaError with exit 1 and
    # write no output
    out = tmp_path / "out"
    assert run([command, write_spec(tmp_path, spec), "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_lemniscate_negative_level_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "lemniscate", LEMNISCATE, ["--level=-1"], "--level")


def test_lemniscate_zero_level_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "lemniscate", LEMNISCATE, ["--level", "0"], "--level")


def test_lemniscate_nan_level_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "lemniscate", LEMNISCATE, ["--level", "nan"], "--level")


def test_render_nan_window_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "render", dict(CIRCLE, window=[math.nan, 0, 1, 1]), [],
                  "window")


def test_render_degenerate_window_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "render", dict(CIRCLE, window=[1, 1, 1, 1]), [], "window")


def test_render_negative_grid_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "render", CIRCLE, ["--grid=-1"], "--grid")


def test_level_negative_grid_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "level", SEGMENT, ["--grid=-3"], "--grid")


def test_level_zero_grid_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "level", SEGMENT, ["--grid", "0"], "--grid")


def test_level_one_point_grid_rejected(tmp_path, capsys):
    _run_rejected(tmp_path, capsys, "level", SEGMENT, ["--grid", "1"], "--grid")


def test_level_huge_grid_rejected(tmp_path, capsys):
    # rejected before the lattice of grid^2 samples is allocated
    _run_rejected(tmp_path, capsys, "level", SEGMENT, ["--grid", "1000000"], "--grid")


def test_render_huge_grid_rejected(tmp_path, capsys):
    # rejected before grid^2 background rays are traced
    _run_rejected(tmp_path, capsys, "render", CIRCLE, ["--grid", "1000000"], "--grid")


# a step budget keeps a run that wrongly accepts the value short
SHORT_BUDGET = {"max_steps": 2000}


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_trace_bad_rk_tol_rejected(tmp_path, capsys, value):
    spec = dict(SEGMENT, budgets=dict(SHORT_BUDGET, rk_tol=float(value)))
    _run_rejected(tmp_path, capsys, "trace", spec, ["--from", "0.5,0.5"], "budgets.rk_tol")


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_trace_bad_length_rejected(tmp_path, capsys, value):
    spec = dict(SEGMENT, budgets=dict(SHORT_BUDGET, max_phi_length=float(value)))
    _run_rejected(tmp_path, capsys, "trace", spec, ["--from", "0.5,0.5"],
                  "budgets.max_phi_length")


@pytest.mark.parametrize("value", ["nan,0", "0,nan", "inf,0", "0,-inf"])
def test_trace_nonfinite_from_rejected(tmp_path, capsys, recwarn, value):
    _run_rejected(tmp_path, capsys, "trace", dict(SEGMENT, budgets=SHORT_BUDGET),
                  [f"--from={value}"], "--from")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("value", ["nan,0", "0,nan", "inf,0", "0,-inf"])
def test_analyze_nonfinite_seed_rejected(tmp_path, capsys, recwarn, value):
    seed = [float(v) for v in value.split(",")]
    spec = dict(CIRCLE, budgets=SHORT_BUDGET, seeds=[[0.5, 0.5], seed])
    _run_rejected(tmp_path, capsys, "analyze", spec, [], "seeds[1]")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _start_at_pole_rejected(tmp_path, capsys, recwarn, spec, argv, start):
    """A run whose start or quadrature node is numerically at a pole, where
    phi is not finite, ends with exit 1 and an error naming the point, and
    no numpy warning."""
    out = tmp_path / "out.json"
    assert run([argv[0], write_spec(tmp_path, spec), "--out", str(out), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {start} is numerically at a pole: phi is not finite there\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


# starts where phi overflows, at the pole at infinity of 1 - z^2, end as
# StartTooClose before any tracing
def test_trace_start_where_phi_is_not_finite(tmp_path, capsys, recwarn):
    _start_at_pole_rejected(tmp_path, capsys, recwarn, SEGMENT, ["trace", "--from", "1e300,0"],
                            complex(1e300, 0))


def test_analyze_seed_where_phi_is_not_finite(tmp_path, capsys, recwarn):
    _start_at_pole_rejected(tmp_path, capsys, recwarn, dict(SEGMENT, seeds=[[1e200, 1e200]]),
                            ["analyze"], complex(1e200, 1e200))


# a simple pole at -2.04e12, where floats are 2.4e-4 apart: the smallest
# Gauss-Legendre nodes of zeta_from on its launch disk of radius 0.5 round
# onto the pole itself
FAR_SIMPLE_POLE = {
    "format_version": 1,
    "cauchy": {"p": [[3.0, 0.0], [1e12, 0.0], [0.489, 0.0]],
               "q": [[2.4, -1.557], [1.0, 0.0]], "r": [[0.0, 0.0], [1.0, 0.0]]},
}


@pytest.mark.parametrize("command", ["cauchy", "analyze"])
def test_quadrature_node_on_far_simple_pole_is_pole_on_path(tmp_path, capsys, recwarn,
                                                           command):
    pole = build_qd(parse_obj(FAR_SIMPLE_POLE)).poles[0].location
    assert abs(pole + 2.04e12) < 0.01e12
    _start_at_pole_rejected(tmp_path, capsys, recwarn, FAR_SIMPLE_POLE, [command], pole)


def test_unwritable_out_is_error(tmp_path, capsys):
    out = tmp_path / "missing" / "ray.json"
    assert run(["trace", write_spec(tmp_path, CIRCLE), "--from", "1,0",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "Traceback" not in err


# ---------------------------------------------------------------- report envelopes

ENVELOPE = {"format_version", "tool_version"}
LEVEL_PAIRING_FAILURE = {
    "format_version": 1,
    "p_over_q_squared": {"p": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                         "q": [[-2.0, 0.0], [1.0, 0.0]]}}
CAUCHY_NO_SHORT = {
    "format_version": 1,
    "cauchy": {"p": [[1.0, 0.0]], "q": [[0.0, 0.0], [-1.0, 0.0]], "r": [[0.0, 0.0]]}}
REPORTS = {
    "analyze": ("analyze", SEGMENT, [], 0,
                {"input", "order_at_infinity", "critical_points", "edges",
                 "short_trajectories", "unresolved_rays", "criteria", "overall",
                 "recurrence", "timings", "tolerances"}),
    "trace": ("trace", CIRCLE, ["--from", "1,0"], 0,
              {"seed", "points", "taus", "phi_length", "imag_drift", "termination",
               "work", "tolerances"}),
    "level_ok": ("level", SEGMENT, ["--grid", "6"], 0,
                 {"base_point", "window", "n", "grid", "cuts", "pairing",
                  "verification", "input", "tolerances"}),
    "level_pairing_failure": ("level", LEVEL_PAIRING_FAILURE, ["--grid", "6"], 10,
                              {"pairing_failure", "obstruction", "input"}),
    "cauchy_ok": ("cauchy", SEMICIRCLE, [], 0,
                  {"components", "total_mass", "support", "input", "tolerances"}),
    "cauchy_no_short_trajectory": ("cauchy", CAUCHY_NO_SHORT, [], 10,
                                   {"error", "edges", "input"}),
}


def _report_of(tmp_path, command, spec, flags, code):
    out = tmp_path / "report.json"
    assert run([command, write_spec(tmp_path, spec), "--out", str(out)] + flags) == code
    text = out.read_text()
    doc = json.loads(text)
    assert doc["format_version"] == 1 and doc["tool_version"] == __version__
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return doc


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_keys_and_exit_code(tmp_path, name):
    command, spec, flags, code, keys = REPORTS[name]
    assert set(_report_of(tmp_path, command, spec, flags, code)) == ENVELOPE | keys


def test_criteria_report_keys_and_exit_code(tmp_path, capsys):
    # a count certifies the circle, so the traced rows are named as not run;
    # the winding figure's counts certify nothing, and every row runs
    assert run(["criteria", write_spec(tmp_path, CIRCLE)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == ENVELOPE | {"criteria", "overall", "not_run"}
    assert doc["format_version"] == 1 and doc["tool_version"] == __version__
    assert doc["not_run"] == {"criteria": ["NoShortTrajectory", "ParityPairs", "ResidueCriterion"],
                              "decided_by": "ThreePole"}
    assert run(["criteria", write_spec(tmp_path, FIG_WINDING)]) == 10
    assert set(json.loads(capsys.readouterr().out)) == ENVELOPE | {"criteria", "overall"}


def test_level_grid_obstruction_report(tmp_path, monkeypatch):
    # phi = i / (z - b)^2, b = 0.5 + 0.25i, has no zeros to pair: its residue
    # sqrt(i) alone blocks the grid, before any lattice is built
    spec = {"format_version": 1,
            "p_over_q_squared": {"p": [[0.0, 1.0]], "q": [[-0.5, -0.25], [1.0, 0.0]]}}
    monkeypatch.setattr(qdsphere.cli, "level_grid", None)
    doc = _report_of(tmp_path, "level", spec, ["--grid", "6"], 10)
    assert set(doc) == ENVELOPE | {"obstruction", "input"}
    assert doc["obstruction"]["at"] == [0.5, 0.25]
    assert doc["obstruction"]["gap"] == pytest.approx(2 * math.pi * math.sqrt(0.5), rel=1e-15)


# ---------------------------------------------------------------- analyze


def test_analyze_winding_exit_20(tmp_path):
    spec = write_spec(tmp_path, FIG_WINDING)
    out = str(tmp_path / "out.json")
    assert run(["analyze", spec, "--out", out]) == 20
    doc = load(out)
    assert doc["format_version"] == 1
    assert doc["overall"] == "Inconclusive"
    assert doc["order_at_infinity"] == 0
    rec = doc["recurrence"]
    assert rec and rec[0]["verdict"] == "SuspectedRecurrent"
    assert rec[0]["crossings"] >= 20
    assert doc["timings"]["unit"] == "integrator_steps"


def test_analyze_encodes_points_infinity_and_echo(tmp_path):
    # critical points, evidence and the input echo are written by one
    # encoder: infinity (order -6 for 1 - z^2) is null, points are [re, im]
    spec = write_spec(tmp_path, dict(SEGMENT, seeds=[[0.5, 0.5]], window=[-3, -2, 3, 2]))
    out = str(tmp_path / "out.json")
    assert run(["analyze", spec, "--out", out]) == 0
    doc = load(out)
    assert doc["critical_points"][-1]["at"] is None
    assert doc["critical_points"][-1]["order"] == -6
    assert [c["at"] for c in doc["critical_points"][:-1]] == [[-1.0, 0.0], [1.0, 0.0]]
    three_pole = next(c for c in doc["criteria"] if c["criterion"] == "ThreePole")
    assert [None, -6] in three_pole["evidence"]["poles"]
    assert doc["input"]["seeds"] == [[0.5, 0.5]]
    assert doc["input"]["window"] == [-3.0, -2.0, 3.0, 2.0]
    assert doc["recurrence"][0]["seed"] == [0.5, 0.5]


def test_analyze_certified_exit_0(tmp_path):
    spec = write_spec(tmp_path, SEGMENT)
    out = str(tmp_path / "out.json")
    assert run(["analyze", spec, "--out", out]) == 0
    doc = load(out)
    assert doc["overall"] == "CertifiedNoRecurrence"
    names = {c["criterion"]: c["verdict"] for c in doc["criteria"]}
    assert names["ThreePole"] == "CertifiedNoRecurrence"
    assert len(doc["short_trajectories"]) == 1


def test_analyze_circle_exit_0(tmp_path):
    spec = write_spec(tmp_path, CIRCLE)
    out = str(tmp_path / "out.json")
    assert run(["analyze", spec, "--out", out]) == 0
    doc = load(out)
    assert doc["short_trajectories"] == []


def test_analyze_byte_identical(tmp_path):
    spec = write_spec(tmp_path, FIG_WINDING)
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(["analyze", spec, "--out", a]) == 20
    assert run(["analyze", spec, "--out", b]) == 20
    assert open(a, "rb").read() == open(b, "rb").read()


def test_parser_shared_across_calls_matches_fresh_processes(tmp_path):
    # main builds its parser once per process: nothing one call reads or
    # sets may reach the next one, so each report equals a fresh process's
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qdsphere

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qdsphere.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    reports = []
    for i, seeds in enumerate([[[0.5, 0.5]], []]):
        spec = write_spec(tmp_path, dict(CIRCLE, seeds=seeds), f"in{i}.json")
        same, fresh = str(tmp_path / f"same{i}.json"), str(tmp_path / f"fresh{i}.json")
        code = run(["analyze", spec, "--out", same])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from qdsphere.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "analyze", spec, "--out", fresh],
            env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert open(same, "rb").read() == open(fresh, "rb").read()
        reports.append(load(same))
    assert len(reports[0]["recurrence"]) == 1 and reports[1]["recurrence"] == []


def test_analyze_input_echo_round_trip(tmp_path):
    spec = write_spec(tmp_path, dict(SEGMENT, seeds=[[0.25, 0.75]]))
    out = str(tmp_path / "out.json")
    run(["analyze", spec, "--out", out])
    doc = load(out)
    assert doc["input"]["form"] == "p_over_q_squared"
    assert doc["input"]["sign"] == 1
    assert doc["input"]["seeds"] == [[0.25, 0.75]]
    assert "window" in doc["input"] and "budgets" in doc["input"]


# ---------------------------------------------------------------- criteria


def test_criteria_stdout(tmp_path, capsys):
    spec = write_spec(tmp_path, CIRCLE)
    assert run(["criteria", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {c["criterion"]: c["verdict"] for c in doc["criteria"]}
    assert by_name == {"ThreePole": "CertifiedNoRecurrence",
                       "OddMultiplicity": "CertifiedNoRecurrence"}
    assert "ResidueCriterion" in doc["not_run"]["criteria"]
    # analyze runs every row
    out = str(tmp_path / "analyze.json")
    assert run(["analyze", spec, "--out", out]) == 0
    by_name = {c["criterion"]: c["verdict"] for c in load(out)["criteria"]}
    assert by_name["ResidueCriterion"] == "NumericallySupported"


def test_criteria_builds_no_graph_when_a_count_certifies(tmp_path, capsys, monkeypatch):
    # the circle is certified by ThreePole, so criteria traces nothing; analyze
    # still builds the graph and lists every row
    from qdsphere import criteria

    calls = []
    real = criteria.build_critical_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (criteria, qdsphere.cli):
        monkeypatch.setattr(module, "build_critical_graph", counted)
    spec = write_spec(tmp_path, CIRCLE)
    assert run(["criteria", spec]) == 0
    assert not calls
    assert json.loads(capsys.readouterr().out)["not_run"]["decided_by"] == "ThreePole"
    out = str(tmp_path / "analyze.json")
    assert run(["analyze", spec, "--out", out]) == 0
    assert len(calls) == 1
    assert sorted(c["criterion"] for c in load(out)["criteria"]) == [
        "NoShortTrajectory", "OddMultiplicity", "ParityPairs", "ResidueCriterion", "ThreePole"]


def test_criteria_inconclusive_exit_10(tmp_path, capsys):
    spec = write_spec(tmp_path, FIG_WINDING)
    assert run(["criteria", spec]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "Inconclusive"


def test_criteria_root_finds_p_and_q_once(tmp_path, monkeypatch):
    # the residue criterion reads the double poles of phi = p / q^2 from its
    # critical points and root-finds nothing itself
    from qdsphere import polyalg, qdiff

    calls = []
    real = polyalg.poly_roots

    def counted(p):
        calls.append(p)
        return real(p)

    for module in (polyalg, qdiff):
        monkeypatch.setattr(module, "poly_roots", counted)
    spec = write_spec(tmp_path, {"format_version": 1, "p_over_q_squared": {
        "p": [[-4.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "q": [[-0.5, 0.0], [1.0, 0.0]]}})
    out = str(tmp_path / "analyze.json")
    assert run(["analyze", spec, "--out", out]) in (0, 10)
    residue = next(c for c in load(out)["criteria"] if c["criterion"] == "ResidueCriterion")
    assert [r[0] for r in residue["evidence"]["residues"]] == [[0.5, 0.0]]
    assert len(calls) == 2


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_criteria_close_simple_poles_are_not_certified(tmp_path, capsys, eps):
    # phi = e^(0.3 i) / (z (z - 1) (z - 2) (z - 2 - eps)): four simple poles, so
    # neither ThreePole nor OddMultiplicity certifies it, though poly_roots merges
    # the two near 2 into one double pole, which both rows name
    den = P.polyfromroots([0.0, 1.0, 2.0, 2.0 + eps])
    spec = write_spec(tmp_path, {"format_version": 1, "general": {
        "numerator": [[math.cos(0.3), math.sin(0.3)]],
        "denominator": [[float(c), 0.0] for c in den]}})
    assert run(["criteria", spec]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "Inconclusive" and "not_run" not in doc
    rows = [c for c in doc["criteria"] if c["criterion"] in ("ThreePole", "OddMultiplicity")]
    assert len(rows) == 2
    for row in rows:
        assert row["verdict"] == "Inconclusive"
        assert row["evidence"]["exact_orders"] == [-1] * 4
        (at, order), = row["evidence"]["merged_clusters"]
        assert abs(complex(*at) - 2) <= 2 * eps and order == -2


# ---------------------------------------------------------------- trace


def test_trace_closed_circle(tmp_path):
    spec = write_spec(tmp_path, CIRCLE)
    out = str(tmp_path / "ray.json")
    assert run(["trace", spec, "--from", "1,0", "--out", out]) == 0
    doc = load(out)
    assert doc["termination"]["kind"] == "Closed"
    assert doc["phi_length"] == pytest.approx(2 * math.pi, rel=1e-6)
    assert doc["imag_drift"] < 1e-7
    assert doc["seed"] == [1.0, 0.0]
    assert len(doc["points"]) == len(doc["taus"])


def test_trace_budget_via_spec(tmp_path):
    spec = write_spec(tmp_path, dict(CIRCLE, budgets={"max_steps": 5}))
    out = str(tmp_path / "ray.json")
    assert run(["trace", spec, "--from", "1,0", "--out", out]) == 0
    doc = load(out)
    assert doc["termination"]["kind"] == "StepBudget"
    assert doc["work"]["accepted_steps"] <= 5


def test_trace_rk_tol_changes_work(tmp_path):
    docs = []
    for rk_tol in (1e-6, 1e-12):
        spec = write_spec(tmp_path, dict(CIRCLE, budgets={"rk_tol": rk_tol}))
        out = str(tmp_path / "ray.json")
        assert run(["trace", spec, "--from", "1,0", "--out", out]) == 0
        docs.append(load(out))
    coarse, fine = docs
    assert [coarse["tolerances"]["rk_tol"], fine["tolerances"]["rk_tol"]] == [1e-6, 1e-12]
    assert fine["work"]["accepted_steps"] > coarse["work"]["accepted_steps"]


# ---------------------------------------------------------------- level


def test_level_report_segment(tmp_path):
    # pick a window whose samples avoid mirror-exact rounding: a symmetric
    # field can otherwise produce a bit-identical 2x2 block and trip (iii)
    spec_obj = dict(SEGMENT)
    spec_obj["window"] = [-3.0, -3.0, 3.0, 3.0]
    spec = write_spec(tmp_path, spec_obj)
    out = str(tmp_path / "level.json")
    assert run(["level", spec, "--grid", "24", "--out", out]) == 0
    doc = load(out)
    assert doc["n"] == 24
    rows = doc["grid"]
    assert len(rows) == 24 and len(rows[0]) == 24
    ver = doc["verification"]
    assert ver["passed_i"] and ver["passed_ii"] and ver["passed_iii"]
    assert doc["pairing"]["pairs"] == [[0, 1]]
    assert doc["verification"]["details"]["degenerate_blocks"] == 0


def test_level_masks_pole_disk_with_nulls(tmp_path):
    spec = write_spec(tmp_path, CIRCLE, "circ.json")
    out = str(tmp_path / "level.json")
    assert run(["level", spec, "--grid", "21", "--out", out]) == 0
    doc = load(out)
    rows = doc["grid"]
    assert rows[10][10] is None                 # pole at the window center
    x0, y0 = doc["window"][0], doc["window"][1]
    corner = rows[0][0]
    assert corner == pytest.approx(math.log(abs(complex(x0, y0))), abs=1e-6)


def test_level_obstruction_exit_10(tmp_path):
    spec = {"format_version": 1,
            "p_over_q_squared": {"p": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                 "q": [[-2.0, 0.0], [1.0, 0.0]]}}
    out = str(tmp_path / "level.json")
    assert run(["level", write_spec(tmp_path, spec), "--out", out]) == 10
    doc = load(out)
    assert "pairing_failure" in doc
    gap = doc["obstruction"]["gap"]
    assert gap == pytest.approx(2 * math.pi * math.sqrt(3), rel=1e-3)


@pytest.mark.parametrize("eps", [0.0, 5e-10, 2e-9, 5e-9, 1e-7, 2e-6, 1e-5])
def test_level_obstruction_where_the_pole_is_not_circular(tmp_path, capsys, eps):
    # phi = -e^(i eps) / z^2: the level is refused (10) exactly where
    # ResidueCriterion's test reads the pole as not Circular, and never
    # fails (1) on a lattice loop that misses by 2 pi sin(eps / 2)
    c = -complex(math.cos(eps), math.sin(eps))
    spec = {"format_version": 1,
            "p_over_q_squared": {"p": [[c.real, c.imag]], "q": [[0.0, 0.0], [1.0, 0.0]]}}
    out = str(tmp_path / "level.json")
    code = run(["level", write_spec(tmp_path, spec), "--grid", "9", "--out", out])
    assert "Traceback" not in capsys.readouterr().err
    assert code == (0 if double_pole_kind(c) == CIRCULAR else 10)
    if code == 10:
        assert load(out)["obstruction"] == {"gap": pytest.approx(2 * math.pi * math.sin(eps / 2)),
                                            "at": [0.0, 0.0]}


def test_level_order_four_pole_with_a_real_residue_exit_10(tmp_path):
    # phi = 1 / (z^4 (z - 1)^2): sqrt(phi) = -(1 + z + ...) / z^2 near 0, so
    # Res = -1 there and the loop round 0 has imaginary part 2 pi
    spec = {"format_version": 1,
            "p_over_q_squared": {"p": [[1.0, 0.0]],
                                 "q": [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]}}
    doc = _report_of(tmp_path, "level", spec, ["--grid", "9"], 10)
    assert set(doc) == ENVELOPE | {"obstruction", "input"}
    assert doc["obstruction"] == {"gap": pytest.approx(2 * math.pi, rel=1e-14), "at": [0.0, 0.0]}


def test_level_order_four_pole_with_a_residue_zero_by_symmetry_publishes_a_grid(tmp_path):
    # phi = (e^(-0.4i) z^4 + e^(0.4i)) / z^4: Res = 0 at 0, as the four zeros
    # sum to 0, but their float locations leave Sum 1/a ~ 1e-16 with no
    # preferred argument; that rounding is no obstruction
    u = complex(math.cos(0.4), math.sin(0.4))
    spec = {"format_version": 1,
            "p_over_q_squared": {"p": [[u.real, u.imag], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                       [u.real, -u.imag]],
                                 "q": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}}
    qd = build_qd(parse_obj(spec))
    assert sum(1 / c.location for c in qd.zeros) != 0
    doc = _report_of(tmp_path, "level", spec, ["--grid", "9"], 0)
    assert "obstruction" not in doc and doc["grid"][4][4] is None
    assert doc["verification"]["passed_i"] and doc["verification"]["passed_ii"]


WIDE_SEGMENT = {
    "format_version": 1,
    "p_over_q_squared": {"p": [[-4.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "q": [[1.0, 0.0]],
                         "sign": -1},
    "window": [-4.3, -3.1, 4.2, 3.7],
}


def test_level_wide_segment_grid_65(tmp_path):
    # a window and grid where routing two paths around the cut ends gave up
    # after 16 detours; the lattice graph reaches every sample
    out = str(tmp_path / "level.json")
    assert run(["level", write_spec(tmp_path, WIDE_SEGMENT), "--grid", "65", "--out", out]) == 0
    ver = load(out)["verification"]
    assert ver["passed_i"] and ver["passed_ii"] and ver["passed_iii"]


def test_level_window_split_by_cut_is_path_blocked(tmp_path, capsys):
    # the cut [-1, 1] runs across the window from side to side: no lattice
    # path joins the two halves, so there is no grid, not a grid of guesses
    spec = dict(SEGMENT, window=[-0.9, -1.0, 0.9, 1.0])
    out = tmp_path / "level.json"
    assert run(["level", write_spec(tmp_path, spec), "--grid", "8", "--out", str(out)]) == 1
    assert "no lattice path" in capsys.readouterr().err
    assert not out.exists()


def test_level_requires_pq_form(tmp_path, capsys):
    spec = write_spec(tmp_path, FIG_WINDING)
    assert run(["level", spec, "--out", str(tmp_path / "x.json")]) == 1
    assert "error:" in capsys.readouterr().err


# -1e-8 prod_{k=0,1} (z-4k+1)(z-4k+0.2)^2(z-4k-0.2)^2(z-4k-1): per cluster a
# simple zero, two double zeros and a simple zero; no detected short edge
# joins two zeros of equal parity in both clusters, so no cut system exists
EIGHT_ZEROS = {
    "format_version": 1,
    "p_over_q_squared": {
        "p": [[float(c), 0.0] for c in 1e-8 * P.polyfromroots(
            [4 * k + d for k in (0, 1) for d in (-1, -0.2, -0.2, 0.2, 0.2, 1)])],
        "q": [[1.0, 0.0]],
        "sign": -1,
    },
}


def test_eight_zeros_pairing_fails_without_equal_parity(tmp_path):
    spec = write_spec(tmp_path, EIGHT_ZEROS)
    out = str(tmp_path / "analyze.json")
    assert run(["analyze", spec, "--out", out]) == 0
    doc = load(out)
    by_name = {c["criterion"]: c for c in doc["criteria"]}
    assert by_name["ParityPairs"]["verdict"] == "Inconclusive"
    assert by_name["ResidueCriterion"]["verdict"] == "Inconclusive"
    assert by_name["ParityPairs"]["evidence"]["pairing"] == "failed"
    assert doc["overall"] == "CertifiedNoRecurrence"


@pytest.mark.parametrize("grid", [8, 24, 65])
def test_eight_zeros_level_inconclusive_at_every_grid(tmp_path, capsys, grid):
    # a mixed-parity pairing once passed the verifier at grids 8 and 24 and
    # failed it at 65; there is no pairing now, so no lattice is integrated
    out = str(tmp_path / "level.json")
    spec = write_spec(tmp_path, EIGHT_ZEROS)
    assert run(["level", spec, "--grid", str(grid), "--out", out]) == 10
    doc = load(out)
    assert doc["pairing_failure"]["unmatched"]
    assert "grid" not in doc
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- lemniscate


def test_lemniscate_svg(tmp_path):
    out = str(tmp_path / "lem.svg")
    assert run(["lemniscate", write_spec(tmp_path, LEMNISCATE), "--out", out]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    kinds = {el.get("class") for el in root.iter() if el.get("class")}
    assert "level" in kinds and "bg" in kinds


# r = (z-5)^6 (z-1) / (z+1)^4, coefficients ascending
HIGH_MULTIPLICITY_LEMNISCATE = {
    "format_version": 1,
    "lemniscate": {"p": [[c, 0.0] for c in [-15625.0, 34375.0, -28125.0, 11875.0,
                                            -2875.0, 405.0, -31.0, 1.0]],
                   "q": [[c, 0.0] for c in [1.0, 4.0, 6.0, 4.0, 1.0]]},
}


def test_lemniscate_high_multiplicity_svg(tmp_path, capsys):
    out = str(tmp_path / "lem.svg")
    assert run(["lemniscate", write_spec(tmp_path, HIGH_MULTIPLICITY_LEMNISCATE),
                "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert ET.parse(out).getroot().tag.endswith("svg")


@pytest.mark.parametrize("flags, code", [(["--level", "5000"], 0), (["--level", "1e30"], 1)])
def test_lemniscate_high_multiplicity_levels(tmp_path, capsys, flags, code):
    # a level between the two critical levels (27.5 and 18092.6) is drawn as
    # level curves; one no curve in the window reaches is EmptyLevel, exit 1
    out = tmp_path / "lem.svg"
    assert run(["lemniscate", write_spec(tmp_path, HIGH_MULTIPLICITY_LEMNISCATE),
                "--out", str(out)] + flags) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert any(el.get("class") == "level" for el in ET.parse(out).getroot().iter())
    else:
        assert err.startswith("error: no |r| = 1e+30 contour inside")
        assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level, what", [("1e-30", "zero of r at (1+0j)"),
                                         ("1e30", "pole of r at (-1+0j)")])
def test_lemniscate_level_too_close_to_a_root_says_so(tmp_path, capsys, level, what):
    # |r| = 1e-30 is a circle of radius ~4e-33 about the simple zero 1 of r, and
    # |r| = 1e30 one of radius ~6e-7 about the pole -1: their seeds are found, and
    # dropped as too close to trace. A seed sample lands on the site 1 itself, where
    # log|r| is -inf without a warning
    out = tmp_path / "lem.svg"
    assert run(["lemniscate", write_spec(tmp_path, HIGH_MULTIPLICITY_LEMNISCATE),
                "--out", str(out), "--level", level]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: no |r| = {float(level)} contour inside")
    assert f"of the {what}, too close to trace" in err
    assert not out.exists()


def test_lemniscate_builds_the_differential_once(tmp_path, monkeypatch):
    # p, q and the reduced numerator are root-found once each: the render
    # checks the critical points and residues of the differential main built
    from qdsphere import polyalg, qdiff

    calls = []
    real = polyalg.poly_roots

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(polyalg, "poly_roots", counted)
    monkeypatch.setattr(qdiff, "poly_roots", counted)
    out = str(tmp_path / "lem.svg")
    assert run(["lemniscate", write_spec(tmp_path, HIGH_MULTIPLICITY_LEMNISCATE),
                "--out", out]) == 0
    assert len(calls) == 3


def test_lemniscate_constant_ratio_is_error(tmp_path, capsys):
    spec = write_spec(tmp_path, {"format_version": 1,
                                 "lemniscate": {"p": [[2.0, 0.0]], "q": [[3.0, 0.0]]}})
    out = tmp_path / "x.svg"
    assert run(["lemniscate", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p/q is constant") and "Traceback" not in err
    assert not out.exists()


def test_lemniscate_requires_lemniscate_form(tmp_path, capsys):
    spec = write_spec(tmp_path, SEGMENT)
    assert run(["lemniscate", spec, "--out", str(tmp_path / "x.svg")]) == 1


# ---------------------------------------------------------------- cauchy


def test_cauchy_semicircle(tmp_path):
    spec = write_spec(tmp_path, SEMICIRCLE)
    out = str(tmp_path / "cauchy.json")
    assert run(["cauchy", spec, "--out", out]) == 0
    doc = load(out)
    assert doc["total_mass"] == pytest.approx(1.0, abs=1e-3)
    ends = sorted(p[0] for p in doc["support"])
    assert ends[0] == pytest.approx(-2.0, abs=1e-3)
    assert ends[-1] == pytest.approx(2.0, abs=1e-3)
    comp = doc["components"][0]
    assert comp["phi_length"] == pytest.approx(2 * math.pi, rel=1e-4)


def test_cauchy_degenerate_no_short_trajectory(tmp_path):
    spec = {"format_version": 1,
            "cauchy": {"p": [[1.0, 0.0]], "q": [[0.0, 0.0], [-1.0, 0.0]],
                       "r": [[0.0, 0.0]]}}
    out = str(tmp_path / "cauchy.json")
    assert run(["cauchy", write_spec(tmp_path, spec), "--out", out]) == 10
    doc = load(out)
    assert doc["error"] == "NoShortTrajectory"


def test_cauchy_requires_cauchy_form(tmp_path, capsys):
    spec = write_spec(tmp_path, SEGMENT)
    assert run(["cauchy", spec, "--out", str(tmp_path / "x.json")]) == 1


# ---------------------------------------------------------------- render


def test_render_svg_well_formed(tmp_path):
    spec = write_spec(tmp_path, FIG_WINDING)
    out = str(tmp_path / "fig.svg")
    assert run(["render", spec, "--out", out]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    trajs = [el for el in polylines if el.get("class") == "traj"]
    assert len(trajs) >= 4
    # markers for all four poles
    crosses = [el for el in root.iter()
               if el.tag.endswith("line") and el.get("class") == "pole"]
    assert len(crosses) == 8        # two strokes per pole cross


@pytest.mark.parametrize("n, most", [(804, 400), (805, 400), (1203, 400), (400, 400),
                                     (399, 400), (2, 400), (1, 400), (12002, 4000)])
def test_thinned_polyline_keeps_its_last_point(n, most):
    # a synthetic polyline whose points are their indices: every take-th
    # point from the first, take = n // most, and the last, where a ray
    # closes or leaves the window, even when (n - 1) % take != 0
    points = np.arange(n) + 0j
    take = max(1, n // most)
    kept = qdsphere.cli._thinned(points, most).real.astype(int).tolist()
    assert kept == [*range(0, n - 1, take), n - 1]
    if (n - 1) % take == 0:
        # the case the plain stride already ended on the last point
        assert kept == list(range(0, n, take))


def test_render_short_trajectory_highlighted(tmp_path):
    spec = write_spec(tmp_path, SEGMENT)
    out = str(tmp_path / "seg.svg")
    assert run(["render", spec, "--out", out]) == 0
    root = ET.parse(out).getroot()
    shorts = [el for el in root.iter()
              if el.tag.endswith("polyline") and el.get("class") == "short"]
    assert len(shorts) == 1


def test_render_window_from_file(tmp_path):
    spec = write_spec(tmp_path, dict(CIRCLE, window=[-1, -1, 1, 1]))
    out = str(tmp_path / "c.svg")
    assert run(["render", spec, "--out", out]) == 0
    root = ET.parse(out).getroot()
    assert root.get("viewBox") == "0 0 640 640"
