import json
import math
import warnings
from pathlib import Path

import pytest

from bjorling import corpus, solver
from bjorling.cli import main


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
    # Scale each new v-column of f by 1 + 1e-7 (the A(f) w half of the
    # rebuild's slices): f then misses f_v = A(f) w, and a gate must raise
    # NonIntegrable, which the CLI reports as a consistency failure.
    real = solver.matvec_slice

    def scaled(a, y, level, rows):
        out = real(a, y, level, rows)
        out[0] *= 1.0 + 1e-7
        return out

    monkeypatch.setattr(solver, "matvec_slice", scaled)
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
    "overrides, cli_order, message",
    [
        pytest.param({"order": 2.7}, None, _NOT_INT, id="file-order-fractional"),
        pytest.param({"order": 1}, None, _RANGE, id="file-order-below-2"),
        pytest.param({"order": "twelve"}, None, _NOT_INT, id="file-order-text"),
        pytest.param({"order": 49}, None, _RANGE, id="file-order-above-cap"),
        pytest.param({}, "2.7", _NOT_INT, id="cli-order-fractional"),
        pytest.param({}, "-3", _RANGE, id="cli-order-below-2"),
        pytest.param({}, "twelve", _NOT_INT, id="cli-order-text"),
        pytest.param({}, "49", _RANGE, id="cli-order-above-cap"),
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
            {"beta": [_cosh_list(13)] + _PLANE_BETA[1:]},
            None,
            "beta[0]: coefficient list has 13 values, order 12 needs 14",
            id="coeffs-short",
        ),
        pytest.param(
            {"beta": [_cosh_list(14)] + _PLANE_BETA[1:]},
            "13",
            "beta[0]: coefficient list has 14 values, order 13 needs 15",
            id="coeffs-short-for-cli-order",
        ),
        pytest.param(
            {"V": ["0", {"coeffs": [1.0] + [0.0] * 11}, "0"]},
            None,
            "V[1]: coefficient list has 12 values, order 12 needs 13",
            id="field-coeffs-short",
        ),
    ],
)
def test_bad_order_or_grid_size_is_one_line_schema_error(
    workdir, capsys, overrides, cli_order, message
):
    path = _write_problem(workdir / "bounds.problem.json", **overrides)
    argv = ["solve", str(path)] + (["--order", cli_order] if cli_order is not None else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert "Traceback" not in captured.err


def test_overflowing_curve_speed_is_rejected_as_overflow(workdir, capsys):
    path = _write_problem(workdir / "huge.problem.json", params={"c": 1e200})
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "overflow" in lines[0]
    assert "characteristic" not in lines[0]


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
