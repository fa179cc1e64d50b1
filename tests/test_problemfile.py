import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from bjorling import corpus, problemfile
from bjorling.config import GridSpec, ProblemKind
from bjorling.errors import SchemaError
from bjorling.groups import GroupModel
from bjorling.series import grid_values
from bjorling.solver import solve_bjorling
from bjorling.verify import report_tables
from kalgebra import variable_u, variable_v, zero_series
from oracles import _point_defect


def _doc(**overrides):
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc.update(overrides)
    return doc


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "p.problem.json"
    path.write_text(json.dumps(_doc()))
    prob, raw = problemfile.load_problem(path)
    assert prob.group.name == "heisenberg"
    assert prob.kind is ProblemKind.TIMELIKE_CURVE
    assert prob.order == 12
    assert raw["params"] == {"c": 1.0}


def test_unknown_key_rejected():
    with pytest.raises(SchemaError, match="unknown problem keys.*surprise"):
        problemfile.problem_from_dict(_doc(surprise=1))


def test_missing_key_rejected():
    doc = _doc()
    del doc["V"]
    with pytest.raises(SchemaError, match="missing problem keys"):
        problemfile.problem_from_dict(doc)


def test_grid_key_set_is_exact():
    doc = _doc()
    doc["grid"] = dict(doc["grid"], extra=1)
    with pytest.raises(SchemaError, match="grid"):
        problemfile.problem_from_dict(doc)


def test_unknown_tolerance_rejected():
    with pytest.raises(SchemaError, match="tolerance"):
        problemfile.problem_from_dict(_doc(tolerances={"wibble": 1.0}))


def test_tolerance_override_applies():
    prob = problemfile.problem_from_dict(_doc(tolerances={"minimality": 3e-3}))
    assert prob.tolerances.minimality == 3e-3
    prob2 = problemfile.problem_from_dict(
        _doc(), tolerance_overrides={"conformality": 1e-12}
    )
    assert prob2.tolerances.conformality == 1e-12


def test_schema_1_fd_step_is_checked_and_ignored():
    # The finite-difference certificate and its step are gone; schema-1
    # files that name the step still load.
    prob = problemfile.problem_from_dict(_doc(tolerances={"fd_step": 5e-4}))
    assert prob.tolerances == problemfile.problem_from_dict(_doc()).tolerances
    assert not hasattr(prob.tolerances, "fd_step")
    with pytest.raises(SchemaError, match="tolerance fd_step must be a finite number"):
        problemfile.problem_from_dict(_doc(tolerances={"fd_step": float("inf")}))


def test_order_override_applies():
    prob = problemfile.problem_from_dict(_doc(), order_override=8)
    assert prob.order == 8
    assert prob.curve[0].order == 9


def test_unknown_mode_rejected():
    with pytest.raises(SchemaError, match="unknown problem kind"):
        problemfile.problem_from_dict(_doc(mode="backwards"))


def test_unknown_group_rejected():
    with pytest.raises(SchemaError, match="unknown group"):
        problemfile.problem_from_dict(_doc(group="mystery"))


def test_generic_requires_structure_constants():
    with pytest.raises(SchemaError, match="structure_constants"):
        problemfile.problem_from_dict(_doc(group="generic"))


def test_builtin_rejects_generic_only_keys():
    doc = _doc()
    doc["structure_constants"] = np.zeros((3, 3, 3)).tolist()
    with pytest.raises(SchemaError, match="generic"):
        problemfile.problem_from_dict(doc)


def test_coefficient_list_entries():
    doc = _doc()
    # same curve, but the first component given numerically
    n = doc["order"] + 1
    from oracles import univariate_coeffs

    doc["beta"][0] = {"coeffs": univariate_coeffs("cosh", 0.0, n).tolist()}
    prob = problemfile.problem_from_dict(doc)
    sol = solve_bjorling(prob)
    assert sol.report.strip_valid


def test_short_coefficient_list_is_refused_without_a_file():
    doc = corpus.build_problem_dict("heisenberg_helicoid")
    doc["order"] = 20
    with pytest.raises(SchemaError, match=r"beta\[0\]: coefficient list has 14 values, order 20"):
        problemfile.problem_from_dict(doc)


@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_each_example_document_is_new(example_id):
    first = corpus.build_problem_dict(example_id)
    want = json.dumps(corpus.build_problem_dict(example_id))
    for entries in (first["beta"], first["V"]):
        for entry in entries:
            if isinstance(entry, dict):
                entry["coeffs"][0] = 99.0
        entries[1] = "99"
        entries.append("1")
    first["params"]["extra"] = 1.0
    first["grid"]["nu"] = 3
    assert json.dumps(corpus.build_problem_dict(example_id)) == want


def test_bad_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        problemfile.load_problem(path)


# ---------------------------------------------------------------------------
# solution files and meshes


@pytest.fixture(scope="module")
def stored_solution(tmp_path_factory):
    prob = problemfile.problem_from_dict(corpus.build_problem_dict("heisenberg_vertical_plane"))
    sol = solve_bjorling(prob)
    path = tmp_path_factory.mktemp("sol") / "plane.solution.json"
    problemfile.write_solution(sol, path)
    return sol, problemfile.StoredSolution.load(path)


def test_solution_round_trip(stored_solution):
    sol, stored = stored_solution
    us, vs = sol.grid.us(), sol.grid.vs()
    for a, b in zip(sol.surface, stored.surface):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert stored.report["schema_version"] == 1
    assert stored.kind is sol.kind


def test_solution_file_has_one_key_per_line(stored_solution, tmp_path):
    sol, _ = stored_solution
    path = tmp_path / "plane.solution.json"
    problemfile.write_solution(sol, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "{" and lines[-1] == "}"
    payload = problemfile.solution_payload(sol)
    keys = []
    for line in lines[1:-1]:
        entry = json.loads("{" + line.removesuffix(",") + "}")
        assert len(entry) == 1
        keys.extend(entry)
    assert keys == list(payload)
    # Values, key order and the text of every number are those of the
    # indented layout; only whitespace differs.
    assert json.dumps(json.loads(path.read_text())) == json.dumps(
        json.loads(json.dumps(payload, indent=1))
    )
    stored = problemfile.StoredSolution.load(path)
    for a, b in zip(sol.surface, stored.surface):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_non_finite_report_round_trips(stored_solution, tmp_path):
    sol, _ = stored_solution
    inf = float("inf")
    # A report with no validated strip holds infinite grid residuals.
    report = dataclasses.replace(
        sol.report, conformality_residual=inf, minimality_residual=inf, strip_valid=False
    )
    path = tmp_path / "nostrip.solution.json"
    problemfile.write_solution(dataclasses.replace(sol, report=report), path)
    text = path.read_text()
    assert '"conformality_residual": Infinity' in text
    stored = problemfile.StoredSolution.load(path)
    assert stored.report == report.as_flat_dict()
    assert stored.report["minimality_residual"] == inf


def test_indented_solution_file_still_loads(stored_solution, tmp_path):
    sol, _ = stored_solution
    path = tmp_path / "indented.solution.json"
    path.write_text(json.dumps(problemfile.solution_payload(sol), indent=1))
    stored = problemfile.StoredSolution.load(path)
    for a, b in zip(sol.surface, stored.surface):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert stored.report == sol.report.as_flat_dict()
    assert stored.grid == sol.grid and stored.kind is sol.kind


def test_unclipped_mesh_is_a_reshape_of_the_grid(stored_solution):
    _, stored = stored_solution
    mesh = problemfile.build_mesh(stored)
    us, vs = stored.grid.us(), stored.grid.vs()
    nu, nv = len(us), len(vs)
    quads = [
        (i * nv + j, (i + 1) * nv + j, (i + 1) * nv + j + 1, i * nv + j + 1)
        for i in range(nu - 1)
        for j in range(nv - 1)
    ]
    assert np.array_equal(mesh.faces, np.array(quads))
    u, v = np.meshgrid(us, vs, indexing="ij")
    assert np.array_equal(mesh.uv, np.column_stack([u.ravel(), v.ravel()]))
    x, fu, fv = grid_values(report_tables(stored.surface)[:3], stored.surface[0].center, us, vs)
    assert np.array_equal(mesh.vertices, x.reshape(3, -1).T)
    sigma = stored.kind.sigma
    want = [
        _point_defect(stored.group, x[:, i, j], fu[:, i, j], fv[:, i, j], sigma)
        for i in range(nu)
        for j in range(nv)
    ]
    assert np.array_equal(mesh.residual, want)
    assert mesh.clipped == 0


def test_points_only_mesh_makes_no_frame_call(stored_solution, monkeypatch):
    # The OBJ build makes no chart call; the CSV build makes one coframe call
    # and builds no dense A^-1 stack.
    _, stored = stored_solution
    calls = {"coframe": 0, "frame_matrix": 0}

    def counted(name, raw):
        def call(*args):
            calls[name] += 1
            return raw(*args)

        return call

    for name in calls:
        monkeypatch.setattr(GroupModel, name, counted(name, getattr(GroupModel, name)))
    full = problemfile.build_mesh(stored)
    assert calls == {"coframe": 1, "frame_matrix": 0}
    points = problemfile.build_mesh(stored, residual=False)
    assert calls == {"coframe": 1, "frame_matrix": 0}
    assert points.vertices.tobytes() == full.vertices.tobytes()
    assert np.array_equal(points.faces, full.faces) and points.clipped == full.clipped
    assert points.uv is None and points.residual is None


def test_csv_mesh_writes_into_no_frame_component(monkeypatch):
    # mat_vec hands back a tangent array itself for a coframe entry 1.0 (the
    # Heisenberg coframe's first two rows), so the defect must be computed
    # without writing into a component: here each one is read-only.
    sol = solve_bjorling(problemfile.problem_from_dict(corpus.build_problem_dict("heisenberg_helicoid")))
    w = tuple(np.arange(4.0) + k for k in range(3))
    assert problemfile.mat_vec(sol.group.coframe(w), w)[0] is w[0]
    want = problemfile.build_mesh(sol).residual
    raw = problemfile.mat_vec

    def read_only(m, w):
        views = tuple(np.asarray(c).view() for c in raw(m, w))
        for view in views:
            view.flags.writeable = False
        return views

    monkeypatch.setattr(problemfile, "mat_vec", read_only)
    assert problemfile.build_mesh(sol).residual.tobytes() == want.tobytes()


@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_csv_mesh_peak_memory_per_grid_point(example_id):
    # The traced peak of a 129 x 65 CSV build, per grid point: the point and
    # tangent grids (72 bytes), the coframe's and the defect's temporaries and
    # the mesh's own arrays stay under 220 bytes.  A dense (3, 3, n) A^-1
    # stack and its einsum, as the build once made, took it to about 250.
    doc = corpus.build_problem_dict(example_id)
    doc["grid"].update(nu=129, nv=65)
    sol = solve_bjorling(problemfile.problem_from_dict(doc))
    problemfile.build_mesh(sol)
    tracemalloc.start()
    try:
        problemfile.build_mesh(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 220 * 129 * 65, peak / (129 * 65)


def test_mesh_counts_full_grid(stored_solution):
    _, stored = stored_solution
    mesh = problemfile.build_mesh(stored)
    nu, nv = stored.grid.nu, stored.grid.nv
    assert mesh.vertices.shape == (nu * nv, 3)
    assert len(mesh.faces) == (nu - 1) * (nv - 1)
    assert mesh.clipped == 0


def test_obj_export_shape(stored_solution, tmp_path):
    _, stored = stored_solution
    mesh = problemfile.build_mesh(stored)
    path = tmp_path / "plane.obj"
    problemfile.write_obj(mesh, path)
    lines = path.read_text().splitlines()
    n_v = sum(1 for l in lines if l.startswith("v "))
    n_f = sum(1 for l in lines if l.startswith("f "))
    assert n_v == stored.grid.nu * stored.grid.nv
    assert n_f == (stored.grid.nu - 1) * (stored.grid.nv - 1)
    # all face indices are valid and 1-based
    for l in lines:
        if l.startswith("f "):
            idx = [int(t) for t in l.split()[1:]]
            assert all(1 <= k <= n_v for k in idx)


def test_csv_round_trip_matches_series(stored_solution, tmp_path):
    sol, stored = stored_solution
    mesh = problemfile.build_mesh(stored)
    path = tmp_path / "plane.csv"
    problemfile.write_csv(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,x1,x2,x3,residual"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    assert len(rows) == stored.grid.nu * stored.grid.nv
    for u, v, x1, x2, x3, _res in rows[:: max(1, len(rows) // 40)]:
        want = [f.eval(u, v) for f in sol.surface]
        assert max(abs(x1 - want[0]), abs(x2 - want[1]), abs(x3 - want[2])) <= 1e-12


def test_mesh_clips_points_outside_chart():
    # synthetic surface leaving the halfplane chart: x2 = v + 0.5
    n = 6
    center = 0.0
    surface = (
        variable_u(n, center),
        variable_v(n, center) + 0.5,
        zero_series(n, center),
    )
    stored = problemfile.StoredSolution(
        group=__import__("bjorling.groups", fromlist=["h2xr"]).h2xr(),
        kind=ProblemKind.SPACELIKE_SURFACE,
        surface=surface,
        grid=GridSpec(-0.5, 0.5, -1.0, 1.0, 5, 9),
        report={},
    )
    mesh = problemfile.build_mesh(stored)
    # v <= -0.5 rows are outside (x2 <= 0): 5 columns x 3 rows (v=-1,-0.75,-0.5)
    assert mesh.clipped == 15
    assert mesh.vertices.shape[0] == 5 * 9 - 15
    assert all(x[1] > 0 for x in mesh.vertices)
    assert len(mesh.faces) == 4 * 5  # only cells fully inside survive


def test_h2xr_csv_third_column_constant(tmp_path):
    prob = problemfile.problem_from_dict(corpus.build_problem_dict("h2xr_horizontal_plane"))
    sol = solve_bjorling(prob)
    spath = tmp_path / "s.solution.json"
    problemfile.write_solution(sol, spath)
    mesh = problemfile.build_mesh(problemfile.StoredSolution.load(spath))
    cpath = tmp_path / "s.csv"
    problemfile.write_csv(mesh, cpath)
    rows = [l.split(",") for l in cpath.read_text().splitlines()[1:]]
    x3 = np.array([float(r[4]) for r in rows])
    assert np.max(np.abs(x3 - 1.0)) <= 1e-9
