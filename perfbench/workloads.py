"""Seeded inputs, the timed op and the correctness gate of each workload.

The program sees only what a user would hand it: problem documents for
the in-process corpus workloads, problem files on disk for the CLI
workload.  The seed permutes the visiting order of each round and draws
each example's free constant; the closed-form references are evaluated
on the problem's own grid during set-up, so the gate costs little per op.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bjorling import cli, corpus, problemfile, solver
from bjorling.config import GridSpec

DEV_GATE = 1e-7  # closed-form deviation gate, as in scripts/run_corpus.py
C_JITTERED = (
    "heisenberg_vertical_plane",
    "desitter_vertical_plane",
    "h2xr_horizontal_plane",
)


@dataclass(frozen=True)
class Workload:
    name: str
    order: int
    mesh_grid: tuple[int, int] | None  # (nu, nv) of the CLI round trip
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-o12",
            12,
            None,
            "default order: the per-point verify and groups loops dominate",
        ),
        Workload(
            "corpus-o30",
            30,
            None,
            "high order: the O(n^5) march dominates, certificates are a fixed cost",
        ),
        Workload(
            "cli-mesh",
            12,
            (129, 65),
            "CLI solve to OBJ then export-mesh to CSV on a 129x65 grid: mesh and file I/O",
        ),
    )
}


def draw_params(rng) -> dict:
    """Free constant of each example: c in [0.5, 2] for the three planes
    with one, b in +-[0.5, 2] for the helicoid, defaults elsewhere."""
    out = {}
    for example in corpus.EXAMPLE_IDS:
        if example in C_JITTERED:
            out[example] = {"c": rng.uniform(0.5, 2.0)}
        elif example == "heisenberg_helicoid":
            out[example] = {"b": rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)}
        else:
            out[example] = {}
    return out


@dataclass
class Case:
    """One example's input and its closed form on the problem grid."""

    example: str
    doc: dict
    grid: GridSpec
    ref: np.ndarray  # (3, nu, nv)
    problem_path: Path | None = None


def reference_grid(example: str, params: dict, grid: GridSpec) -> np.ndarray:
    fn = corpus.reference_surface(example, params)
    vals = [[fn(u, v) for v in grid.vs()] for u in grid.us()]
    return np.asarray(vals, dtype=float).transpose(2, 0, 1)


def prepare(workload: Workload, params: dict, work_dir: Path | None) -> list[Case]:
    """Problem documents (and files, for the CLI) plus reference grids."""
    cases = []
    for example, p in params.items():
        doc = corpus.build_problem_dict(example, p, order=workload.order)
        if workload.mesh_grid is not None:
            doc["grid"]["nu"], doc["grid"]["nv"] = workload.mesh_grid
        grid = GridSpec(**doc["grid"])
        case = Case(example, doc, grid, reference_grid(example, p, grid))
        if workload.mesh_grid is not None:
            case.problem_path = work_dir / f"{example}.problem.json"
            case.problem_path.write_text(json.dumps(doc), encoding="utf-8")
        cases.append(case)
    return cases


@dataclass
class Outcome:
    ok: bool
    dev: float
    cone: float
    pde: float
    conformality: float
    tension: float
    bytes_written: int = 0
    why: str = ""

    @staticmethod
    def failed(why: str) -> "Outcome":
        nan = float("nan")
        return Outcome(False, nan, nan, nan, nan, nan, why=why)


def _deviation(surface, case: Case) -> tuple[np.ndarray, float]:
    """Surface values on the case grid and their largest closed-form miss."""
    vals = np.array([f.eval_grid(case.grid.us(), case.grid.vs()) for f in surface])
    return vals, float(np.max(np.abs(vals - case.ref)))


# ---------------------------------------------------------------------------
# corpus-o12, corpus-o30: problem_from_dict + solve_bjorling in-process


def corpus_op(case: Case, work_dir):
    problem = problemfile.problem_from_dict(case.doc)
    return problem, solver.solve_bjorling(problem)


def corpus_check(case: Case, result, work_dir) -> Outcome:
    problem, sol = result
    r = sol.report
    _, dev = _deviation(sol.surface, case)
    passes = r.passes(problem.tolerances)
    ok = passes and dev <= DEV_GATE
    why = "" if ok else f"passes={passes} dev={dev:.3e}"
    return Outcome(
        ok,
        dev,
        r.cone_residual,
        r.pde_residual,
        r.conformality_residual,
        r.minimality_residual,
        why=why,
    )


# ---------------------------------------------------------------------------
# cli-mesh: `solve --mesh obj` then `export-mesh --format csv`


def cli_outputs(case: Case, work_dir: Path) -> dict:
    stem = case.example
    return {
        "solution": work_dir / f"{stem}.solution.json",
        "report": work_dir / f"{stem}.report.json",
        "obj": work_dir / f"{stem}.surface.obj",
        "csv": work_dir / f"{stem}.surface.csv",
    }


def cli_reset(case: Case, work_dir: Path) -> None:
    """Remove the previous op's files so a stale one cannot pass the gate."""
    for path in cli_outputs(case, work_dir).values():
        path.unlink(missing_ok=True)


def cli_op(case: Case, work_dir: Path):
    out = cli_outputs(case, work_dir)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc_solve = cli.main(
            ["solve", str(case.problem_path), "--mesh", "obj", "--out", str(work_dir)]
        )
        rc_mesh = None
        if rc_solve == 0:
            rc_mesh = cli.main(
                ["export-mesh", str(out["solution"]), "--format", "csv", "--out", str(out["csv"])]
            )
    return rc_solve, rc_mesh


def cli_check(case: Case, result, work_dir: Path) -> Outcome:
    rc_solve, rc_mesh = result
    if rc_solve != 0 or rc_mesh != 0:
        return Outcome.failed(f"exit codes {result}")
    out = cli_outputs(case, work_dir)
    stored = problemfile.StoredSolution.load(out["solution"])
    vals, dev = _deviation(stored.surface, case)
    nu, nv = case.grid.nu, case.grid.nv
    inside = np.array(
        [[stored.group.in_chart(vals[:, i, j]) for j in range(nv)] for i in range(nu)]
    )
    want_vertices = int(inside.sum())
    want_faces = int(
        (inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]).sum()
    )
    obj_lines = out["obj"].read_bytes().splitlines()
    obj_vertices = sum(line.startswith(b"v ") for line in obj_lines)
    obj_faces = sum(line.startswith(b"f ") for line in obj_lines)
    csv = np.loadtxt(out["csv"], delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if not dev <= DEV_GATE:
        problems.append(f"dev={dev:.3e}")
    if obj_vertices != want_vertices or csv.shape[0] != want_vertices:
        problems.append(
            f"vertices obj={obj_vertices} csv={csv.shape[0]} want={want_vertices}"
        )
    else:
        csv_dev = float(np.max(np.abs(csv[:, 2:5] - case.ref[:, inside].T), initial=0.0))
        if not csv_dev <= DEV_GATE:
            problems.append(f"csv dev={csv_dev:.3e}")
    if obj_faces != want_faces:
        problems.append(f"faces obj={obj_faces} want={want_faces}")
    r = stored.report
    return Outcome(
        not problems,
        dev,
        r["cone_residual"],
        r["pde_residual"],
        r["conformality_residual"],
        r["minimality_residual"],
        bytes_written=sum(p.stat().st_size for p in out.values()),
        why="; ".join(problems),
    )


def op_functions(workload: Workload):
    """(reset, op, check) for a workload; reset and check are untimed."""
    if workload.mesh_grid is None:
        return (lambda case, work_dir: None), corpus_op, corpus_check
    return cli_reset, cli_op, cli_check
