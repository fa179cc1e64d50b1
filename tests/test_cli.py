import builtins
import errno
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bjorling
from bjorling import cli, corpus, problemfile, solver
from bjorling.cli import main
from bjorling.config import ProblemKind
from bjorling.errors import ConstraintDrift
from bjorling.slices import FrameTape


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_problem(path: Path, **overrides):
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_examples_listing(workdir, capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for example_id in corpus.EXAMPLE_IDS:
        assert example_id in out
    assert len(out.strip().splitlines()) == len(corpus.EXAMPLE_IDS)


def test_examples_unknown_name(workdir, capsys):
    assert main(["examples", "nonexistent_surface"]) == 1
    err = capsys.readouterr().err
    assert "unknown example" in err


@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_examples_materialize_and_solve(workdir, capsys, example_id):
    assert main(["examples", example_id]) == 0
    problem = workdir / f"{example_id}.problem.json"
    reference = workdir / f"{example_id}.reference.json"
    assert problem.exists() and reference.exists()
    ref = json.loads(reference.read_text())
    assert ref["example"] == example_id
    assert main(["solve", str(problem), "--out", "out"]) == 0
    assert (workdir / "out" / f"{example_id}.solution.json").exists()
    assert (workdir / "out" / f"{example_id}.report.json").exists()


def test_examples_leave_no_file_when_a_write_fails(workdir, capsys):
    # The reference file's path is an existing directory, so its write fails
    # after the problem file's: the call exits 1 with one error line and
    # leaves neither file, as solve and export-mesh do.
    (workdir / "heisenberg_helicoid.reference.json").mkdir()
    assert main(["examples", "heisenberg_helicoid", "--out", "."]) == 1
    _one_line_error(capsys)
    assert not (workdir / "heisenberg_helicoid.problem.json").exists()
    assert (workdir / "heisenberg_helicoid.reference.json").is_dir()


def test_examples_materialize_helicoid_profile(workdir, capsys):
    # the helicoid curve is not elementary: the emitted file carries the
    # ODE-generated radial profile as a coefficient list
    assert main(["examples", "heisenberg_helicoid"]) == 0
    doc = json.loads((workdir / "heisenberg_helicoid.problem.json").read_text())
    assert isinstance(doc["beta"][0], dict) and "coeffs" in doc["beta"][0]
    assert len(doc["beta"][0]["coeffs"]) == doc["order"] + 2
    assert main(["solve", "heisenberg_helicoid.problem.json", "--out", "."]) == 0


def test_solve_exit0_and_report_contents(workdir, capsys):
    path = _write_problem(workdir / "plane.problem.json")
    code = main(["solve", str(path), "--mesh", "obj", "--out", "."])
    out = capsys.readouterr().out
    assert code == 0
    assert "cone_residual" in out
    report = json.loads((workdir / "plane.report.json").read_text())
    assert report["schema_version"] == 1
    assert report["cone_residual"] <= 1e-12
    assert (workdir / "plane.surface.obj").exists()


def test_solve_missing_file(workdir, capsys):
    assert main(["solve", "does_not_exist.json"]) == 1


def test_solve_malformed_json(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{")
    assert main(["solve", str(bad)]) == 1


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["export-mesh", "--format", "csv", "--out", "m.csv"]],
    ids=["solve", "export-mesh"],
)
def test_non_utf8_file_is_one_line_schema_error(workdir, capsys, argv):
    bad = workdir / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([argv[0], str(bad), *argv[1:]]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "not UTF-8 text" in lines[0]
    assert not (workdir / "m.csv").exists()


def test_solve_unknown_key_is_parse_error(workdir, capsys):
    path = _write_problem(workdir / "typo.json", surprse=1)
    assert main(["solve", str(path)]) == 1
    assert "unknown problem keys" in capsys.readouterr().err


def test_lightlike_curve_exits_2_with_no_artifacts(workdir, capsys):
    path = _write_problem(
        workdir / "light.problem.json", beta=["u", "0", "u"], V=["0", "1", "0"]
    )
    code = main(["solve", str(path), "--out", "lightout"])
    err = capsys.readouterr().err
    assert code == 2
    assert "characteristic (lightlike) initial curve" in err
    out_dir = workdir / "lightout"
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("eps, code", [(1e-3, 0), (1e-6, 0), (1e-8, 0), (1e-9, 0), (5e-10, 0), (1e-10, 2)])
def test_near_lightlike_line_solves_until_the_causal_band(workdir, capsys, eps, code):
    # beta = (u, 0, b u), b = sqrt(1 - eps), has g(beta', beta') = eps, so
    # g(N, N) of the normal N = f_u x f_v is of order eps^2: the degeneracy
    # test is relative to |N|^2.  At eps = 1e-10 the curve is in the causal
    # band and is refused as lightlike.
    path = _write_problem(
        workdir / "line.problem.json",
        mode="spacelike-curve",
        beta=["u", "0", "b*u"],
        V=["0", "1", "0"],
        params={"b": math.sqrt(1.0 - eps)},
        grid={"u_min": -1.0, "u_max": 1.0, "v_min": -0.5, "v_max": 0.5, "nu": 17, "nv": 9},
    )
    assert main(["solve", str(path), "--out", "out"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "lightlike" in err
        return
    assert err == ""
    report = json.loads((workdir / "out" / "line.report.json").read_text())
    assert report["normal_residual"] <= 1e-12
    assert report["conformality_residual"] <= 1e-12 and report["minimality_residual"] <= 1e-12


def test_invalid_field_exits_2_naming_invariant(workdir, capsys):
    path = _write_problem(workdir / "badfield.problem.json", V=["0", "2", "0"])
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "g(V, V)" in err


def test_causal_mismatch_exits_2(workdir, capsys):
    doc = corpus.build_problem_dict("desitter_vertical_plane")
    doc["mode"] = "timelike"
    path = workdir / "mismatch.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2


def _generic_plane(workdir, frame_matrix=None):
    # The vertical plane with the Heisenberg group declared generic.
    from bjorling.groups import heisenberg

    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc["group"] = "generic"
    doc["structure_constants"] = heisenberg().C.tolist()
    if frame_matrix is not None:
        doc["frame_matrix"] = frame_matrix
    path = workdir / "generic.json"
    path.write_text(json.dumps(doc))
    return path


_HEISENBERG_FRAME = [["1", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]]


def test_generic_group_exits_2(workdir, capsys):
    # Without a frame matrix there is no immersion to rebuild.
    code = main(["solve", str(_generic_plane(workdir))])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rejected:") and "no frame matrix" in lines[0]


def test_generic_frame_entry_without_series_exits_2(workdir, capsys):
    frame = [["exp(x1)", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]]
    code = main(["solve", str(_generic_plane(workdir, frame))])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rejected:") and "'exp(x1)'" in lines[0]
    assert "Traceback" not in captured.err


def test_generic_heisenberg_solves_like_the_builtin(workdir, capsys):
    from bjorling.problemfile import StoredSolution

    assert main(["solve", str(_generic_plane(workdir, _HEISENBERG_FRAME)), "--out", "gen"]) == 0
    assert main(["solve", str(_write_problem(workdir / "plane.json")), "--out", "builtin"]) == 0
    generic = StoredSolution.load(workdir / "gen" / "generic.solution.json")
    builtin = StoredSolution.load(workdir / "builtin" / "plane.solution.json")
    assert generic.group.name == "generic" and generic.group.frame_exprs == _HEISENBERG_FRAME
    scale = max(1.0, max(f.maxabs() for f in builtin.surface))
    for f, g in zip(generic.surface, builtin.surface):
        assert (f - g).maxabs() <= 1e-11 * scale


def test_generic_solve_mesh_matches_export_mesh(workdir, capsys):
    path = _generic_plane(workdir, _HEISENBERG_FRAME)
    assert main(["solve", str(path), "--mesh", "csv", "--out", "."]) == 0
    code = main(["export-mesh", "generic.solution.json", "--format", "csv", "--out", "exported.csv"])
    assert code == 0
    assert (workdir / "generic.surface.csv").read_bytes() == (workdir / "exported.csv").read_bytes()


def test_builtin_solution_file_keeps_its_keys(workdir, capsys):
    assert main(["solve", str(_write_problem(workdir / "plane.json")), "--out", "."]) == 0
    doc = json.loads((workdir / "plane.solution.json").read_text())
    assert set(doc) == {
        "schema_version", "group", "mode", "order", "center_u", "base_point",
        "grid", "frame_data", "surface", "report",
    }
    assert doc["schema_version"] == 1


@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_rebuild_off_its_v_equation_exits_3(workdir, capsys, monkeypatch, example_id):
    # Scale each new v-column of f by 1 + 1e-7 (the tape's A(f) w, before
    # its division by L+1): f then misses f_v = A(f) w, and a gate must raise
    # NonIntegrable, which the CLI reports as a consistency failure.
    real = FrameTape.column
    monkeypatch.setattr(FrameTape, "column", lambda tape, *args: real(tape, *args) * (1.0 + 1e-7))
    path = workdir / "p.json"
    path.write_text(json.dumps(corpus.build_problem_dict(example_id)))
    assert main(["solve", str(path), "--out", "."]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solver consistency failure: f_")
    assert not (workdir / "p.solution.json").exists()


def test_strict_tolerance_exits_3(workdir, capsys):
    path = _write_problem(workdir / "strict.problem.json")
    code = main(["solve", str(path), "--tol", "1e-18"])
    assert code == 3
    assert "residual failure" in capsys.readouterr().err
    # artifacts are still written for post-mortem
    assert (workdir / "strict.solution.json").exists()


def test_export_mesh_csv_round_trip(workdir, capsys):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    capsys.readouterr()
    code = main(
        [
            "export-mesh",
            "plane.solution.json",
            "--format",
            "csv",
            "--out",
            "mesh.csv",
        ]
    )
    assert code == 0
    lines = (workdir / "mesh.csv").read_text().splitlines()
    assert lines[0] == "u,v,x1,x2,x3,residual"
    doc = json.loads((workdir / "plane.solution.json").read_text())
    assert len(lines) - 1 == doc["grid"]["nu"] * doc["grid"]["nv"]


def test_export_mesh_missing_solution(workdir, capsys):
    assert main(["export-mesh", "nope.json", "--format", "obj", "--out", "x.obj"]) == 1


def test_solve_order_override(workdir, capsys):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--order", "8", "--out", "."]) == 0
    doc = json.loads((workdir / "plane.solution.json").read_text())
    assert doc["order"] == 8
    assert len(doc["surface"][0]) == 10  # order + 2 rows after integration


def test_usage_error_exit_code(workdir, capsys):
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1


def test_parser_is_built_once_and_still_reports_usage_errors(workdir, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert main(["examples"]) == 0
    capsys.readouterr()
    # The shared parser keeps no state from the successful call.
    assert main(["solve", "--order"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: bjorling solve ")
    assert "error: argument --order: expected one argument" in err


def _grid(**sizes):
    grid = corpus.build_problem_dict("heisenberg_vertical_plane")["grid"]
    return {"grid": {**grid, **sizes}}


_NOT_INT = "order must be an integer"
_RANGE = "order must be between 2 and 48"
_GRID_RANGE = "grid {} must be between 2 and 513"
_PLANE_BETA = ["cosh(u)", "c", "-(c/2)*cosh(u) + sinh(u)"]


def _cosh_list(count):
    # Taylor coefficients of cosh(u) about 0, the plane's beta[0].
    return {"coeffs": [1.0 / math.factorial(k) if k % 2 == 0 else 0.0 for k in range(count)]}


def _generic(**entries):
    from bjorling.groups import heisenberg

    doc = {"group": "generic", "structure_constants": heisenberg().C.tolist()}
    doc["frame_matrix"] = [["1", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]]
    return {**doc, **entries}


@pytest.mark.parametrize(
    "overrides, cli_args, message",
    [
        pytest.param({"order": 2.7}, None, _NOT_INT, id="file-order-fractional"),
        pytest.param({"order": 1}, None, _RANGE, id="file-order-below-2"),
        pytest.param({"order": "twelve"}, None, _NOT_INT, id="file-order-text"),
        pytest.param({"order": 49}, None, _RANGE, id="file-order-above-cap"),
        pytest.param({}, ["--order", "2.7"], _NOT_INT, id="cli-order-fractional"),
        pytest.param({}, ["--order", "-3"], _RANGE, id="cli-order-below-2"),
        pytest.param({}, ["--order", "twelve"], _NOT_INT, id="cli-order-text"),
        pytest.param({}, ["--order", "49"], _RANGE, id="cli-order-above-cap"),
        pytest.param(_grid(nu=2.7), None, "grid nu must be an integer", id="nu-fractional"),
        pytest.param(_grid(nu=1), None, _GRID_RANGE.format("nu"), id="nu-below-2"),
        pytest.param(_grid(nv=8.5), None, "grid nv must be an integer", id="nv-fractional"),
        pytest.param(_grid(nv=0), None, _GRID_RANGE.format("nv"), id="nv-below-2"),
        pytest.param(_grid(nu=514), None, _GRID_RANGE.format("nu"), id="nu-above-cap"),
        pytest.param(_grid(nv=514), None, _GRID_RANGE.format("nv"), id="nv-above-cap"),
        pytest.param(
            {"params": {"c": float("nan")}}, None, "param c must be a finite number", id="param-nan"
        ),
        pytest.param({"params": {"c": "one"}}, None, "param c must be a finite number", id="param-text"),
        pytest.param(
            _grid(u_max=float("inf")), None, "grid u_max must be a finite number", id="u-max-inf"
        ),
        pytest.param(_grid(v_min="low"), None, "grid v_min must be a finite number", id="v-min-text"),
        pytest.param(_grid(u_min=2.0), None, "grid ranges must be increasing", id="u-range-reversed"),
        pytest.param(
            {"tolerances": {"minimality": "tight"}},
            None,
            "tolerance minimality must be a finite number",
            id="tolerance-text",
        ),
        pytest.param(
            {"tolerances": {"cone": float("nan")}},
            None,
            "tolerance cone must be a finite number",
            id="tolerance-nan",
        ),
        pytest.param(
            {"tolerances": {"fd_step": "small"}},
            None,
            "tolerance fd_step must be a finite number",
            id="tolerance-fd-step-text",
        ),
        pytest.param(
            {"tolerances": {"cone": -1}},
            None,
            "tolerance cone must not be negative, got -1",
            id="tolerance-negative",
        ),
        pytest.param(
            {}, ["--tol", "-1"], "tolerance series must not be negative, got -1.0", id="cli-tol-negative"
        ),
        pytest.param({"u0": float("-inf")}, None, "u0 must be a finite number", id="u0-inf"),
        pytest.param({"params": [1.0]}, None, "params must be a JSON object", id="params-list"),
        pytest.param({"params": "c"}, None, "params must be a JSON object", id="params-text"),
        pytest.param({"tolerances": [1]}, None, "tolerances must be a JSON object", id="tolerances-list"),
        pytest.param({"tolerances": 3}, None, "tolerances must be a JSON object", id="tolerances-number"),
        pytest.param(
            _generic(structure_constants=[[0.0, 1.0], [1.0, 0.0]]),
            None,
            "generic group: structure constants must form a 3x3x3 table",
            id="structure-constants-shape",
        ),
        pytest.param(
            _generic(structure_constants=[[["a"] * 3] * 3] * 3),
            None,
            "generic group: could not convert",
            id="structure-constants-text",
        ),
        pytest.param(
            _generic(structure_constants=[[[float("nan")] * 3] * 3] + [[[float("inf")] * 3] * 3] * 2),
            None,
            "generic group: structure constants must be finite numbers",
            id="structure-constants-non-finite",
        ),
        pytest.param(
            _generic(frame_matrix=[["1", "0"], ["0", "1"]]),
            None,
            "generic group: frame matrix must be a 3x3 nest of expression strings",
            id="frame-matrix-2x2",
        ),
        pytest.param(
            _generic(frame_matrix=[["1", "0", "0"], ["0", "1e400", "0"], ["-x2/2", "x1/2", "1"]]),
            None,
            "non-finite value in '1e400'",
            id="frame-matrix-inf",
        ),
        pytest.param(
            _generic(frame_matrix=[["1e200", "0", "0"], ["0", "1e200", "0"], ["0", "0", "1"]]),
            None,
            "frame matrix determinant is not finite",
            id="frame-determinant-overflow",
        ),
        pytest.param(
            {"beta": [{"coeffs": ["one", 0.0]}] + _PLANE_BETA[1:]},
            None,
            "beta[0] coefficient 0 must be a finite number",
            id="coeffs-text",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + [True] + _PLANE_BETA[2:]},
            None,
            "beta[1] must be a finite number, got True",
            id="beta-boolean",
        ),
        pytest.param({"V": ["0", True, "0"]}, None, "V[1] must be a finite number, got True", id="V-boolean"),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["exp(1000)"] + _PLANE_BETA[2:]},
            None,
            "overflow in 'exp(1000)'",
            id="expression-overflow",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["1e400"] + _PLANE_BETA[2:]},
            None,
            "non-finite value in '1e400'",
            id="expression-literal-inf",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["1e300*1e300"] + _PLANE_BETA[2:]},
            None,
            "non-finite value in '1e300*1e300'",
            id="expression-product-inf",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["sin(1e400)"] + _PLANE_BETA[2:]},
            None,
            "non-finite value in 'sin(1e400)'",
            id="expression-sin-of-inf",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["1/(u*1e300*1e300 + 1)"] + _PLANE_BETA[2:]},
            None,
            "non-finite value in '1/(u*1e300*1e300 + 1)'",
            id="expression-division-by-inf",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["1/(1e300*1e300 + u)"] + _PLANE_BETA[2:]},
            None,
            "non-finite value in '1/(1e300*1e300 + u)'",
            id="expression-division-by-inf-constant-term",
        ),
        pytest.param(
            {"beta": [_cosh_list(13)] + _PLANE_BETA[1:]},
            None,
            "beta[0]: coefficient list has 13 values, order 12 needs 14",
            id="coeffs-short",
        ),
        pytest.param(
            {"beta": [_cosh_list(14)] + _PLANE_BETA[1:]},
            ["--order", "13"],
            "beta[0]: coefficient list has 14 values, order 13 needs 15",
            id="coeffs-short-for-cli-order",
        ),
        pytest.param(
            {"V": ["0", {"coeffs": [1.0] + [0.0] * 11}, "0"]},
            None,
            "V[1]: coefficient list has 12 values, order 12 needs 13",
            id="field-coeffs-short",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["-" * 1000 + "u"] + _PLANE_BETA[2:]},
            None,
            "is nested too deeply",
            id="expression-1000-deep",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["+".join(["u"] * 1000)] + _PLANE_BETA[2:]},
            None,
            "is nested too deeply",
            id="expression-1000-terms",
        ),
        pytest.param(
            {"beta": _PLANE_BETA[:1] + ["-" * 100000 + "u"] + _PLANE_BETA[2:]},
            None,
            "is nested too deeply",
            id="expression-overflows-the-parser",
        ),
        pytest.param({"schema_version": 2}, None, "schema_version must be 1, got 2", id="schema-2"),
        pytest.param({"schema_version": "x"}, None, "schema_version must be 1, got 'x'", id="schema-text"),
        pytest.param({"schema_version": 1.0}, None, "schema_version must be 1, got 1.0", id="schema-float"),
        pytest.param({"schema_version": True}, None, "schema_version must be 1, got True", id="schema-bool"),
        pytest.param({"group": ["heisenberg"]}, None, "unknown group ['heisenberg']", id="group-list"),
    ],
)
def test_bad_order_or_grid_size_is_one_line_schema_error(
    workdir, capsys, overrides, cli_args, message
):
    path = _write_problem(workdir / "bounds.problem.json", **overrides)
    assert main(["solve", str(path)] + (cli_args or [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert len(lines[0].encode()) < 300  # a long expression is quoted in part
    assert "Traceback" not in captured.err


def test_problem_without_schema_version_is_schema_1(workdir, capsys):
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    del doc["schema_version"]
    (workdir / "plain.problem.json").write_text(json.dumps(doc))
    assert main(["solve", "plain.problem.json"]) == 0


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["export-mesh", "--format", "csv", "--out", "m.csv"]],
    ids=["solve", "export-mesh"],
)
def test_json_nested_too_deeply_is_one_line_schema_error(workdir, capsys, argv):
    deep = workdir / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main([argv[0], str(deep), *argv[1:]]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "JSON nested too deeply" in lines[0]
    assert not (workdir / "m.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["export-mesh", "--format", "csv", "--out", "m.csv"]],
    ids=["solve", "export-mesh"],
)
def test_integer_with_too_many_digits_is_one_line_schema_error(workdir, capsys, argv):
    # Past the interpreter's digit limit the JSON reader raises a bare ValueError.
    huge = workdir / "huge.json"
    huge.write_text('{"order": ' + "1" * 5000 + "}")
    assert main([argv[0], str(huge), *argv[1:]]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "an integer with too many digits" in lines[0]
    assert not (workdir / "m.csv").exists()


@pytest.mark.parametrize("entry", [10**400, {"coeffs": [1.0, 10**400]}], ids=["number", "coefficient"])
def test_integer_past_the_float_range_is_one_line_schema_error(workdir, capsys, entry):
    _write_problem(workdir / "p.json", V=[entry, "1", "0"])
    assert main(["solve", "p.json"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "must be a finite number, got 1000" in lines[0]


def test_overflowing_curve_speed_is_rejected_as_overflow(workdir, capsys):
    path = _write_problem(workdir / "huge.problem.json", params={"c": 1e200})
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "overflow" in lines[0]
    assert "characteristic" not in lines[0]


def _huge_field_coefficient(doc):
    doc["V"][1]["coeffs"][0] = 1e200
    return doc


def _huge_curve_slope(doc):
    doc["beta"][0] = "1e308*u"
    return doc


@pytest.mark.parametrize(
    "example, order, spoil",
    [
        pytest.param("heisenberg_helicoid", 4, _huge_field_coefficient, id="V-coefficient-1e200"),
        pytest.param("heisenberg_vertical_plane", 12, _huge_curve_slope, id="beta-1e308-u"),
    ],
)
def test_overflowing_invariants_are_one_line_rejections(workdir, capsys, example, order, spoil):
    # validate squares the field's and the frame velocity's sizes; past the
    # float range that is a rejection, not an OverflowError or a warning.
    doc = spoil(corpus.build_problem_dict(example, order=order))
    (workdir / "huge.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "huge.problem.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["rejected: the invariants g(V, V) and g(curve', V) or their scales overflow"]
    assert list(workdir.iterdir()) == [workdir / "huge.problem.json"]


@pytest.mark.parametrize("base", [1e200, 1e308, -1e308])
def test_base_point_whose_metric_overflows_is_a_one_line_rejection(workdir, capsys, base):
    # Only velocities enter the invariants, so a huge base point passed them
    # and overflowed in the boundary check's normal.  The Heisenberg metric
    # there, Ainv^T diag Ainv, has an entry of size base^2 / 4.
    doc = corpus.build_problem_dict("heisenberg_helicoid", order=12)
    doc["beta"][0]["coeffs"][0] = base
    (workdir / "huge.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "huge.problem.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"rejected: the metric overflows at the curve base point [{base!r}, 0.0, 0.0]"]
    assert list(workdir.iterdir()) == [workdir / "huge.problem.json"]


@pytest.mark.parametrize("order", [4, 12])
@pytest.mark.parametrize("shift", ["1e100", "1e150", "1e154"])
def test_normal_whose_square_overflows_is_a_one_line_rejection(workdir, capsys, order, shift):
    # The vertical plane moved to x2 = c + shift: the metric and the
    # invariants stay finite, but the frame velocity reaches shift/2 and the
    # boundary check's normal, quadratic in it, overflowed when squared.
    doc = corpus.build_problem_dict("heisenberg_vertical_plane", order=order)
    doc["beta"][1] = f"(c) + {shift}"
    (workdir / "far.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "far.problem.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("rejected: the boundary normal's square overflows: the frame velocity reaches ")
    assert list(workdir.iterdir()) == [workdir / "far.problem.json"]


@pytest.mark.parametrize(
    "example_id, edit, line",
    [
        (
            "heisenberg_vertical_plane",
            {"grid": {"u_min": -1.0, "u_max": 1e12, "v_min": -0.5, "v_max": 0.5, "nu": 33, "nv": 17}},
            "the boundary normal's square overflows: the frame velocity reaches 2.088e+135 "
            "and the field 1.000e+00 on [-1, 1e+12]",
        ),
        (
            "desitter_vertical_plane",
            {"beta": ["1e160*u", "c", "1e50"]},
            "the boundary normal's square overflows: the frame velocity reaches 1.000e+110 "
            "and the field 1.000e+00 on [-0.75, 0.75]",
        ),
        (
            "desitter_vertical_plane",
            {"beta": ["1e160*u", "c", "1e100"]},
            "squared speed of the initial curve overflows on [-0.75, 0.75]",
        ),
        (
            "heisenberg_vertical_plane",
            {
                "group": "generic",
                "structure_constants": [[[0.0] * 3] * 3] * 3,
                "params": {},
                "frame_matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "beta": ["1.3e154*u", "1.3e154*u", "0"],
                "V": ["0", "1", "0"],
            },
            "the boundary normal's square overflows: the frame velocity reaches 1.300e+154 "
            "and the field 1.000e+00 on [-1, 1]",
        ),
    ],
    ids=["far-grid", "fast-curve", "fast-far-curve", "flat-fast-curve"],
)
def test_classification_refuses_overflow_in_one_line(workdir, capsys, example_id, edit, line):
    # The boundary normal's square, of size |w|^4, is the classification's
    # first decision.  It is past the float range on the first two inputs,
    # where, judged after the curve, the far grid would read as a lightlike
    # curve and the fast curve (squared coordinate velocity 1e320) as a
    # speed that overflows.  At x3 = 1e100 the de Sitter frame velocity,
    # curve' / x3, is 1e60 and the normal's square 1e240, but the squared
    # coordinate velocity is still 1e320.  In the flat chart two components
    # of 1.3e154 pass validate, and their squared speed overflows in its
    # coefficients, which the classification forms where overflow is inf.
    doc = corpus.build_problem_dict(example_id, order=12)
    doc.update(edit)
    (workdir / "far.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "far.problem.json"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["rejected: " + line]
    assert list(workdir.iterdir()) == [workdir / "far.problem.json"]


@pytest.mark.parametrize(
    "beta0", ["(sinh(u))*1e70", "(sinh(u))*1e76", "(sinh(u)) + 1e70*u"], ids=["x1e70", "x1e76", "plus-1e70u"]
)
def test_frame_data_that_overflow_in_the_march_are_a_one_line_rejection(workdir, capsys, beta0):
    # The de Sitter plane's curve scaled to 1e70: validate passes, but the
    # march's quadratic terms overflow by level 3.  That level's cone slice
    # is not finite, and the march refuses it instead of warning.
    doc = corpus.build_problem_dict("desitter_vertical_plane", order=4)
    doc["beta"][0] = beta0
    (workdir / "huge.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "huge.problem.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["rejected: the frame data overflow at march level 3"]
    assert list(workdir.iterdir()) == [workdir / "huge.problem.json"]


@pytest.mark.parametrize(
    "key, value, order",
    [("v_max", 1e70, 4), ("v_min", -1e30, 12), ("u_max", 1e70, 4)],
    ids=["v_max-1e70", "v_min-1e30", "u_max-1e70"],
)
def test_grid_whose_powers_overflow_is_a_one_line_rejection(workdir, capsys, key, value, order):
    # The report evaluates tables of order n + 1 at the grid's powers: at
    # |v| = 1e30 and order 12, v^13 is past the float range.
    doc = corpus.build_problem_dict("desitter_diagonal_plane", order=order)
    doc["grid"][key] = value
    (workdir / "wide.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "wide.problem.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [
        f"rejected: the grid's powers overflow at order {order}: |u - u0| or |v| reaches {abs(value):.3e}"
    ]
    assert list(workdir.iterdir()) == [workdir / "wide.problem.json"]


def test_boundary_normal_overflowing_in_the_chart_is_a_one_line_rejection(workdir, capsys):
    # A helicoid whose x1 has a u^3 coefficient of 1e70: the frame data stay
    # in range, but the Heisenberg chart's frame matrix, linear in x1, takes
    # the boundary normal's square past the float range.
    doc = corpus.build_problem_dict("heisenberg_helicoid", order=4)
    doc["beta"][0]["coeffs"][3] = 1e70
    (workdir / "huge.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "huge.problem.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["rejected: the boundary normal's square overflows at u = -0.3"]
    assert list(workdir.iterdir()) == [workdir / "huge.problem.json"]


@pytest.mark.parametrize("order, k", [(4, 3), (12, 9)])
def test_certificates_that_overflow_fail_in_their_report(workdir, capsys, order, k):
    # A field coefficient of 1e154 keeps the invariants' relative bounds, but
    # the certificates' products of the frame data overflow: those residuals
    # read inf or nan, and the report fails them in one line.
    doc = corpus.build_problem_dict("heisenberg_helicoid", order=order)
    doc["V"][1]["coeffs"][k] = 1e154
    (workdir / "huge.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "huge.problem.json", "--out", "out"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("residual failure: ")
    assert "conformality_residual = inf" in lines[0] and "minimality_residual = nan" in lines[0]
    report = json.loads((workdir / "out" / "huge.report.json").read_text())
    assert report["strip_valid"] is False


def _bjorling_errors():
    exported = (getattr(bjorling, name) for name in bjorling.__all__)
    return [e for e in exported if isinstance(e, type) and issubclass(e, bjorling.BjorlingError)]


@pytest.mark.parametrize("error", _bjorling_errors(), ids=lambda e: e.__name__)
def test_each_error_category_has_one_exit_code_and_one_line(workdir, capsys, monkeypatch, error):
    # A Rejection exits 2, a ConsistencyFailure 3, every other library
    # error 1, each with one stderr line under its category's prefix.
    def solve(problem):
        raise error("the message")

    monkeypatch.setattr(cli, "solve_bjorling", solve)
    path = _write_problem(workdir / "plane.problem.json")
    if issubclass(error, bjorling.Rejection):
        code, prefix = 2, "rejected: "
    elif issubclass(error, bjorling.ConsistencyFailure):
        code, prefix = 3, "solver consistency failure: "
    else:
        code, prefix = 1, "error: "
    assert main(["solve", str(path)]) == code
    assert capsys.readouterr().err.splitlines() == [prefix + "the message"]
    assert list(workdir.iterdir()) == [path]


def test_error_categories_split_the_solve_errors():
    assert {e.__name__ for e in _bjorling_errors() if issubclass(e, bjorling.Rejection)} == {
        "Rejection",
        "CharacteristicData",
        "CausalMismatch",
        "ProblemValidationError",
        "UnsupportedRecipe",
        "DomainError",
    }
    consistency = {e.__name__ for e in _bjorling_errors() if issubclass(e, bjorling.ConsistencyFailure)}
    assert consistency == {"ConsistencyFailure", "ConstraintDrift", "NonIntegrable"}


@pytest.mark.parametrize("speed, code", [(1.15e77, 0), (1.16e77, 2)])
def test_flat_plane_is_solved_until_its_normal_square_overflows(workdir, capsys, speed, code):
    # In the flat chart (zero structure constants, A = I) the timelike line
    # of speed K spans a plane whose boundary normal has square K^4: solved
    # while that is a float, one line from validate from where it is not.
    doc = corpus.build_problem_dict("heisenberg_vertical_plane", order=12)
    doc.update(group="generic", structure_constants=[[[0.0] * 3] * 3] * 3, params={})
    doc.update(frame_matrix=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    doc.update(beta=["0", "0", f"{speed!r}*u"], V=["0", "1", "0"])
    (workdir / "flat.problem.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "flat.problem.json", "--out", "out"]) == code
    err = capsys.readouterr().err.strip().splitlines()
    if code:
        assert len(err) == 1 and "the boundary normal's square overflows" in err[0]
    else:
        assert err == []


@pytest.mark.parametrize("c", [1e20, 1e100, 1e150])
def test_speed_lost_to_rounding_is_rejected_naming_the_rounding(workdir, capsys, c):
    # The frame velocity cancels coordinate terms of size c; below the
    # rounding bound of those terms the sign of g(beta', beta') is unknown.
    path = _write_problem(workdir / "big.problem.json", params={"c": c})
    assert main(["solve", str(path)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "lost to rounding" in lines[0]
    assert "characteristic" not in lines[0]


@pytest.mark.parametrize("c", [1e3, 1e6, 1e8])
def test_large_vertical_plane_passes_its_certificates(workdir, capsys, c):
    # The plane is solved to the same relative accuracy at every c; the
    # exact tension certificate sees that, a difference quotient did not.
    path = _write_problem(workdir / "big.problem.json", params={"c": c})
    assert main(["solve", str(path), "--order", "12"]) == 0
    report = json.loads((workdir / "big.report.json").read_text())
    assert report["minimality_residual"] <= 1e-6
    assert report["strip_halvings"] == 0


@pytest.mark.parametrize("c", [1e9, 1e11])
def test_metric_too_ill_conditioned_to_invert_is_not_a_traceback(workdir, capsys, c):
    # At these c the coordinate metric of the Heisenberg chart is singular
    # to working precision.  The Christoffel symbols take g^-1 from the
    # frame matrix instead of inverting g, so the solve ends with a report.
    path = _write_problem(workdir / "big.problem.json", params={"c": c})
    assert main(["solve", str(path)]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert (workdir / "big.report.json").exists()


def test_order_at_the_cap_is_accepted(workdir):
    from bjorling.problemfile import MAX_ORDER, problem_from_dict

    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    assert problem_from_dict(doc, order_override=str(MAX_ORDER)).order == MAX_ORDER
    assert problem_from_dict(dict(doc, order=12.0)).order == 12


@pytest.mark.parametrize(
    "size, message",
    [
        pytest.param(-1, "grid nu must be between 2 and 513, got -1", id="negative"),
        pytest.param(2.7, "grid nu must be an integer, got 2.7", id="fractional"),
        pytest.param(0, "grid nu must be between 2 and 513, got 0", id="zero"),
        pytest.param(1, "grid nu must be between 2 and 513, got 1", id="one"),
        pytest.param(514, "grid nu must be between 2 and 513, got 514", id="above-cap"),
    ],
)
def test_export_mesh_rejects_bad_solution_grid_size(workdir, capsys, size, message):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    doc = json.loads((workdir / "plane.solution.json").read_text())
    doc["grid"]["nu"] = size
    (workdir / "bad.solution.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["export-mesh", "bad.solution.json", "--format", "obj", "--out", "bad.obj"])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert not (workdir / "bad.obj").exists()


def _one_line_error(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize(
    "spoil, message",
    [
        pytest.param(
            lambda d: dict(d, surface=d["surface"][:2]),
            "surface must be a list of three",
            id="two-tables",
        ),
        pytest.param(
            lambda d: dict(d, surface=d["surface"] + d["surface"][:1]),
            "surface must be a list of three",
            id="four-tables",
        ),
        pytest.param(lambda d: [d], "solution document must be a JSON object", id="list"),
        pytest.param(
            lambda d: dict(d, surface=[[[0.0] * 51] * 51] * 3),
            "surface table side 51 exceeds 50",
            id="table-51",
        ),
        pytest.param(
            lambda d: dict(d, surface=[[[0.0] * 600] * 600] * 3),
            "surface table side 600 exceeds 50",
            id="table-600",
        ),
        pytest.param(
            lambda d: dict(d, schema_version=2), "schema_version must be 1, got 2", id="schema-2"
        ),
    ],
)
def test_export_mesh_rejects_a_malformed_solution_document(workdir, capsys, spoil, message):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    doc = json.loads((workdir / "plane.solution.json").read_text())
    (workdir / "bad.solution.json").write_text(json.dumps(spoil(doc)))
    capsys.readouterr()
    code = main(["export-mesh", "bad.solution.json", "--format", "csv", "--out", "bad.csv"])
    assert code == 1
    line = _one_line_error(capsys)
    assert "malformed solution file" in line and message in line
    assert not (workdir / "bad.csv").exists()


@pytest.mark.parametrize("command", ["solve", "examples"])
def test_out_naming_a_file_is_a_one_line_error(workdir, capsys, command):
    path = _write_problem(workdir / "heisenberg_vertical_plane.problem.json")
    (workdir / "taken").write_text("")
    target = str(path) if command == "solve" else "heisenberg_vertical_plane"
    assert main([command, target, "--out", "taken"]) == 1
    assert "File exists" in _one_line_error(capsys)


def test_solve_mesh_path_that_is_a_directory_is_a_one_line_error(workdir, capsys):
    path = _write_problem(workdir / "plane.problem.json")
    (workdir / "out" / "plane.surface.obj").mkdir(parents=True)
    assert main(["solve", str(path), "--mesh", "obj", "--out", "out"]) == 1
    assert "Is a directory" in _one_line_error(capsys)
    # The solution and report it wrote before the mesh are gone again.
    assert [p.name for p in (workdir / "out").iterdir()] == ["plane.surface.obj"]


def test_export_mesh_out_naming_a_directory_is_a_one_line_error(workdir, capsys):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    (workdir / "meshes").mkdir()
    capsys.readouterr()
    code = main(["export-mesh", "plane.solution.json", "--format", "csv", "--out", "meshes"])
    assert code == 1
    assert "Is a directory" in _one_line_error(capsys)


def test_helicoid_profile_is_refused_above_its_order(workdir, capsys):
    assert main(["examples", "heisenberg_helicoid"]) == 0
    capsys.readouterr()
    assert main(["solve", "heisenberg_helicoid.problem.json", "--order", "13"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "beta[0]: coefficient list has 14 values, order 13 needs 15" in lines[0]
    # a lower order truncates the list
    from bjorling.problemfile import load_problem

    problem, _ = load_problem("heisenberg_helicoid.problem.json", order_override=10)
    assert problem.curve[0].order == 11


@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_solve_mesh_matches_export_mesh(workdir, capsys, fmt):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--mesh", fmt, "--out", "."]) == 0
    code = main(["export-mesh", "plane.solution.json", "--format", fmt, "--out", f"exported.{fmt}"])
    assert code == 0
    written = (workdir / f"plane.surface.{fmt}").read_bytes()
    assert written == (workdir / f"exported.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_export_mesh_refuses_a_non_finite_surface(workdir, capsys, fmt):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    doc = json.loads((workdir / "plane.solution.json").read_text())
    doc["grid"].update(u_min=-1e30, u_max=1e30, nu=5, nv=3)
    (workdir / "far.solution.json").write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["export-mesh", "far.solution.json", "--format", fmt, "--out", f"far.{fmt}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: surface is not finite at grid point (u, v) = (-1e+30, ")
    assert not (workdir / f"far.{fmt}").exists()


def test_export_mesh_obj_needs_only_finite_points(workdir, capsys):
    # A de Sitter surface at height x3 = 1e-310: its points are finite and in
    # the chart x3 > 0, but the frame matrix determinant x3^3 underflows to 0,
    # so A^-1 and the per-vertex residual that only the CSV holds are not
    # finite.
    assert main(["examples", "desitter_vertical_plane"]) == 0
    assert main(["solve", "desitter_vertical_plane.problem.json", "--out", "."]) == 0
    doc = json.loads((workdir / "desitter_vertical_plane.solution.json").read_text())
    side = len(doc["surface"][2])
    doc["surface"][2] = [[1e-310 if i == j == 0 else 0.0 for j in range(side)] for i in range(side)]
    (workdir / "low.solution.json").write_text(json.dumps(doc))
    grid = doc["grid"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["export-mesh", "low.solution.json", "--format", "obj", "--out", "low.obj"]) == 0
        capsys.readouterr()
        code = main(["export-mesh", "low.solution.json", "--format", "csv", "--out", "low.csv"])
    vertices = [l.split() for l in (workdir / "low.obj").read_text().splitlines() if l[0] == "v"]
    assert len(vertices) == grid["nu"] * grid["nv"]
    assert {v[3] for v in vertices} == {"1e-310"}
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: surface is not finite at grid point (u, v) = (")
    assert not (workdir / "low.csv").exists()


def test_export_mesh_obj_evaluates_no_tangent(workdir, capsys):
    # x1 = 1e308 u^2 is finite on u in [-1, 1], but its u-derivative table
    # overflows: the OBJ file evaluates the points alone, and only the CSV
    # file, which holds the per-vertex residual, evaluates the tangents.
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    doc = json.loads((workdir / "plane.solution.json").read_text())
    side = len(doc["surface"][0])
    doc["surface"][0] = [[1e308 if (i, j) == (2, 0) else 0.0 for j in range(side)] for i in range(side)]
    (workdir / "steep.solution.json").write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["export-mesh", "steep.solution.json", "--format", "obj", "--out", "steep.obj"]) == 0
        capsys.readouterr()
        code = main(["export-mesh", "steep.solution.json", "--format", "csv", "--out", "steep.csv"])
    vertices = [l.split() for l in (workdir / "steep.obj").read_text().splitlines() if l[0] == "v"]
    assert len(vertices) == doc["grid"]["nu"] * doc["grid"]["nv"]
    assert float(vertices[0][1]) == 1e308
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: surface is not finite at grid point (u, v) = (-1.0, ")
    assert not (workdir / "steep.csv").exists()


def _homothety(k: int) -> dict:
    # desitter_vertical_plane with its curve scaled by 2^k, an isometry of the
    # halfspace chart; the normal field's frame components stay the same.
    doc = corpus.build_problem_dict("desitter_vertical_plane")
    doc["beta"] = [f"{2.0**k!r}*({b})" for b in doc["beta"]]
    return doc


@pytest.mark.parametrize("k", [-300, -100, -60])
def test_desitter_homothety_scales_the_solution_exactly(workdir, capsys, k):
    # Inside the scale window A^-1 = adj(A) / det A scales exactly by 2^-k:
    # the frame data are those at k = 0 bit for bit, the surface tables and
    # the tension certificate are exactly 2^k times theirs, and the solve
    # exits 0.
    base = solver.solve_bjorling(problemfile.problem_from_dict(_homothety(0)))
    scaled = solver.solve_bjorling(problemfile.problem_from_dict(_homothety(k)))
    assert np.array_equal(scaled.frame_data, base.frame_data)
    for f, g in zip(scaled.surface, base.surface):
        assert np.array_equal(f.coeffs, 2.0**k * g.coeffs)
    assert scaled.report.conformality_residual == base.report.conformality_residual
    assert scaled.report.minimality_residual == 2.0**k * base.report.minimality_residual
    (workdir / "scaled.problem.json").write_text(json.dumps(_homothety(k)))
    assert main(["solve", "scaled.problem.json", "--out", "."]) == 0


@pytest.mark.parametrize("k", [-340, 400])
def test_desitter_homothety_outside_the_window_is_one_line(workdir, capsys, k):
    # det A = x3^3 underflows below x3 of about 1e-100 and overflows above
    # about 5.6e102: one error line naming the determinant, exit 1.
    (workdir / "scaled.problem.json").write_text(json.dumps(_homothety(k)))
    assert main(["solve", "scaled.problem.json", "--out", "."]) == 1
    assert "frame matrix determinant" in _one_line_error(capsys)
    assert list(workdir.iterdir()) == [workdir / "scaled.problem.json"]


def _fail_after_first_block(monkeypatch):
    # Mesh text goes out in blocks of 8 rows, and the second block fails as
    # a full disk would.
    monkeypatch.setattr(problemfile, "BLOCK_ROWS", 8)
    raw, calls = problemfile._lines, []

    def failing(*args):
        calls.append(args)
        if len(calls) > 1:
            raise OSError(28, "No space left on device")
        return raw(*args)

    monkeypatch.setattr(problemfile, "_lines", failing)
    return calls


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_failed_mesh_write_in_solve_leaves_no_file(workdir, capsys, monkeypatch, fmt):
    path = _write_problem(workdir / "plane.problem.json")
    calls = _fail_after_first_block(monkeypatch)
    assert main(["solve", str(path), "--mesh", fmt, "--out", "out"]) == 1
    assert "No space left on device" in _one_line_error(capsys)
    assert len(calls) == 2
    assert list((workdir / "out").iterdir()) == []


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_failed_export_mesh_write_leaves_no_file(workdir, capsys, monkeypatch, fmt):
    path = _write_problem(workdir / "plane.problem.json")
    assert main(["solve", str(path), "--out", "."]) == 0
    (workdir / f"old.{fmt}").write_text("an earlier mesh")
    capsys.readouterr()
    calls = _fail_after_first_block(monkeypatch)
    for out in (f"new.{fmt}", f"old.{fmt}"):
        code = main(["export-mesh", "plane.solution.json", "--format", fmt, "--out", out])
        assert code == 1
        assert "No space left on device" in _one_line_error(capsys)
        assert not (workdir / out).exists()
        del calls[:]


@pytest.mark.parametrize(
    "limit, argv",
    [
        # The solution file is about 15 KB: it is cut short.
        (4096, ["solve", "plane.problem.json", "--out", "capped"]),
        # The 1.6 KB problem document is cut short.
        (100, ["examples", "heisenberg_helicoid", "--out", "capped"]),
    ],
    ids=["solve", "examples"],
)
def test_write_cut_short_by_the_file_size_limit_leaves_no_file(workdir, limit, argv):
    # The CLI in a child process whose files cannot grow past limit bytes: a
    # write beyond it fails with EFBIG, since Python ignores SIGXFSZ.
    _write_problem(workdir / "plane.problem.json")
    src = str(Path(bjorling.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    run = subprocess.run(
        [sys.executable, "-m", "bjorling", *argv],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, preexec_fn=cap,
    )
    assert run.returncode == 1 and run.stdout == ""
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno 27] File too large")
    assert list((workdir / "capped").iterdir()) == []


def test_report_write_failing_after_its_first_bytes_leaves_no_file(workdir, capsys, monkeypatch):
    # Every file opened for the report takes one byte and then finds the
    # disk full; the solution file was complete by then.
    path = _write_problem(workdir / "plane.problem.json")
    real_open = open

    class FullAfterOneByte:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            self.file.write(data[:1])
            self.file.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def opener(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return FullAfterOneByte(handle) if str(file).endswith(".report.json") else handle

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", opener)
        patch.setattr(io, "open", opener)
        assert main(["solve", str(path), "--out", "out"]) == 1
    assert "No space left on device" in _one_line_error(capsys)
    assert list((workdir / "out").iterdir()) == []


def test_divisor_with_zero_constant_term_exits_1(workdir, capsys):
    path = _write_problem(workdir / "pole.problem.json", beta=["cosh(u)", "c", "1/sin(u)"])
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == ["error: beta[2]: division by a jet with zero constant term"]


_NO_SCIPY_SCRIPT = """
import json, sys
from bjorling import cli
for argv in (
    ["examples", "heisenberg_helicoid"],
    ["solve", "heisenberg_helicoid.problem.json", "--out", "."],
    ["export-mesh", "heisenberg_helicoid.solution.json", "--format", "obj", "--out", "h.obj"],
):
    assert cli.main(argv) == 0, argv
import numpy as np
from bjorling import corpus
from bjorling.config import GridSpec
for example in corpus.EXAMPLE_IDS:
    grid = GridSpec(**corpus.build_problem_dict(example)["grid"])
    u, v = np.meshgrid(grid.us(), grid.vs(), indexing="ij")
    assert np.all(np.isfinite(corpus.reference_surface(example)(u, v))), example
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_examples_solve_and_export_mesh_load_no_scipy(tmp_path):
    # Neither the CLI path nor the closed-form references load scipy.
    src = str(Path(bjorling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(run.stdout.strip().splitlines()[-1]) == []
    assert (tmp_path / "h.obj").exists()


def _run_corpus_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_corpus_reports_a_failing_example_and_goes_on(monkeypatch, capsys):
    script = _run_corpus_script()
    raw = script.solve_bjorling

    def drifting(problem):
        if problem.kind is ProblemKind.SPACELIKE_CURVE and problem.group.name == "heisenberg":
            raise ConstraintDrift("cone constraint violated at march level 18")
        return raw(problem)

    monkeypatch.setattr(script, "solve_bjorling", drifting)
    monkeypatch.setattr(sys, "argv", ["run_corpus.py"])
    assert script.main() == 1
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == len(corpus.EXAMPLE_IDS)
    failed = [row for row in rows if " FAILED " in row]
    assert failed == [f"{'heisenberg_helicoid':28s} FAILED cone constraint violated at march level 18"]
