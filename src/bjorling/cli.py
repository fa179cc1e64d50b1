"""Command-line front end.

Exit codes: 0 solved with all residuals in tolerance, 1 usage / I-O /
parse problems, 2 rejected problem (an ``errors.Rejection``: lightlike
curve, causal mismatch, violated invariant, unsupported group), 3 a
solver consistency failure (an ``errors.ConsistencyFailure``) or solved
but residuals above tolerance.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import corpus, problemfile
from .errors import BjorlingError, ConsistencyFailure, Rejection
from .solver import solve_bjorling


@functools.cache  # one parser per process: main() only reads it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjorling",
        description=(
            "Construct minimal surfaces in Lorentzian 3-dimensional Lie "
            "groups from curve-and-normal initial data, and verify them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem file")
    p_solve.add_argument("problem", help="path to a problem JSON file")
    p_solve.add_argument(
        "--order", default=None, help=f"series order override (2 to {problemfile.MAX_ORDER})"
    )
    p_solve.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the series and conformality acceptance tolerance",
    )
    p_solve.add_argument("--mesh", choices=("obj", "csv"), default=None)
    p_solve.add_argument("--out", default=".", help="output directory")

    p_ex = sub.add_parser("examples", help="list or materialize built-in examples")
    p_ex.add_argument("name", nargs="?", default=None)
    p_ex.add_argument("--out", default=".", help="output directory")

    p_mesh = sub.add_parser("export-mesh", help="mesh a stored solution file")
    p_mesh.add_argument("solution", help="path to a solution JSON file")
    p_mesh.add_argument("--format", choices=("obj", "csv"), required=True)
    p_mesh.add_argument("--out", required=True, help="output file")
    return parser


def _stem(path: Path) -> str:
    name = path.name
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name.endswith(".problem"):
        name = name[: -len(".problem")]
    return name


def _export_mesh(solution, fmt: str, out: Path):
    """Mesh a solution, in memory or loaded from its file, on its grid and
    write it to ``out`` as OBJ or CSV; warns about clipped grid points.  Only
    the CSV holds the per-vertex residual, so only it evaluates one."""
    mesh = problemfile.build_mesh(solution, residual=fmt == "csv")
    if mesh.clipped:
        print(f"warning: clipped {mesh.clipped} grid points outside the chart", file=sys.stderr)
    write = problemfile.write_obj if fmt == "obj" else problemfile.write_csv
    write(mesh, out)
    return mesh


def _cmd_solve(args) -> int:
    path = Path(args.problem)
    overrides = None
    if args.tol is not None:
        overrides = {"series": args.tol, "conformality": args.tol}
    problem, _ = problemfile.load_problem(
        path, order_override=args.order, tolerance_overrides=overrides
    )
    try:
        solution = solve_bjorling(problem)
    except Rejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except ConsistencyFailure as exc:
        print(f"solver consistency failure: {exc}", file=sys.stderr)
        return 3

    out_dir, stem = Path(args.out), _stem(path)
    files = {
        out_dir / f"{stem}.solution.json": functools.partial(problemfile.write_solution, solution),
        out_dir / f"{stem}.report.json": functools.partial(problemfile.write_report, solution),
    }
    if args.mesh:
        files[out_dir / f"{stem}.surface.{args.mesh}"] = functools.partial(
            _export_mesh, solution, args.mesh
        )
    problemfile.write_files(files)

    report = solution.report
    for key, val in sorted(report.as_flat_dict().items()):
        if isinstance(val, float):
            print(f"{key} = {val:.3e}")
        else:
            print(f"{key} = {val}")
    for p in files:
        print(f"wrote {p}")
    failing = report.failures(problem.tolerances)
    if not failing:
        return 0
    print("residual failure: " + "; ".join(failing), file=sys.stderr)
    return 3


def _cmd_examples(args) -> int:
    if args.name is None:
        for info in corpus.list_examples():
            print(f"{info.example_id:28s} {info.group:11s} {info.description}")
        return 0
    try:
        doc = corpus.build_problem_dict(args.name)
        stub = corpus.reference_stub(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    files = {
        out_dir / f"{args.name}.problem.json": functools.partial(problemfile.write_json, doc),
        out_dir / f"{args.name}.reference.json": functools.partial(problemfile.write_json, stub),
    }
    problemfile.write_files(files)
    for p in files:
        print(f"wrote {p}")
    return 0


def _cmd_export_mesh(args) -> int:
    stored = problemfile.StoredSolution.load(args.solution)
    out = Path(args.out)
    (mesh,) = problemfile.write_files({out: functools.partial(_export_mesh, stored, args.format)})
    print(f"wrote {out} ({mesh.vertices.shape[0]} vertices, {len(mesh.faces)} faces)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 1 for usage per our contract
        return 1 if exc.code not in (0, None) else 0
    commands = {"solve": _cmd_solve, "examples": _cmd_examples, "export-mesh": _cmd_export_mesh}
    try:
        return commands[args.command](args)
    except (OSError, BjorlingError) as exc:  # usage, I/O and parse problems
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
