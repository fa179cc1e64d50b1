"""Problem and solution files, report serialization, and mesh export.

Problem files are flat JSON documents; unknown keys are rejected so typos
fail loudly.  Solution files dump the raw coefficient tables, which is
enough to re-evaluate the surface anywhere without re-solving.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import orjson

from .config import SCHEMA_VERSION, GridSpec, ProblemKind, Tolerances
from .errors import NotInvertible, SchemaError
from .expressions import evaluate_jet, jet_environment
from .groups import GroupModel, by_name, generic_group
from .series import BiSeries, USeries, grid_values
from .solver import BjorlingProblem, BjorlingSolution
from .verify import conformality_defect, frame_components, report_tables

_REQUIRED_KEYS = {"group", "mode", "beta", "V", "order", "grid"}
_OPTIONAL_KEYS = {
    "schema_version",
    "params",
    "u0",
    "tolerances",
    "name",
    "description",
    "structure_constants",
    "frame_matrix",
}
_GRID_KEYS = {f.name for f in fields(GridSpec)}
# Schema 1 also names the step of the finite-difference tension it once
# had: still checked, no longer read.
_TOL_KEYS = {f.name for f in fields(Tolerances)} | {"fd_step"}

# Largest accepted truncation order, in the file or as the CLI override.
MAX_ORDER = 48
# Largest accepted grid side (nu or nv): export-mesh writes the 513 x 513
# helicoid as OBJ (21 MB) in about 0.15 s after start-up, in a process that
# peaks at 54 MB, and as CSV (26 MB) in about 0.24 s, peaking at 99 MB, on a
# 2-CPU machine.
MAX_GRID_SIDE = 513
# Rows of mesh text formatted and written at a time.  A block's buffers (up
# to about 250 KB) stay in cache and are reused from the heap, where buffers
# of a whole table are handed back to the OS and faulted in again on the
# next call.  2048 is the largest power of two that adds no page fault to a
# 129 x 65 solve-and-export round trip; 4096 adds some.
BLOCK_ROWS = 2048


def _jet_entry(entry, env: dict, label: str) -> USeries:
    # One beta or V entry as a jet of env's order about its center.
    u = env["u"]
    if isinstance(entry, str):
        try:
            return evaluate_jet(entry, env)
        except NotInvertible as exc:
            raise SchemaError(f"{label}: {exc}") from None
    if isinstance(entry, dict) and set(entry) == {"coeffs"}:
        raw = entry["coeffs"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{label}: coefficient list must be 1-D and nonempty")
        coeffs = [_finite(c, f"{label} coefficient {k}") for k, c in enumerate(raw)]
        # The list length is the jet's order: padding with zeros would
        # claim accuracy the file does not contain.
        return USeries(coeffs[: u.order + 1], u.center)
    if isinstance(entry, (int, float)):
        return USeries.constant(_finite(entry, label), u.order, u.center)
    raise SchemaError(
        f"{label}: expected an expression string, a number, or "
        '{"coeffs": [...]}'
    )


def _object(doc: dict, key: str) -> dict:
    # An optional JSON object entry; absent or null is empty.
    value = {} if doc.get(key) is None else doc[key]
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be a JSON object, got {value!r}")
    return value


def _bounded_int(value, label: str, lo: int, hi: int) -> int:
    # Integers, integral floats and integer text (the CLI passes text).
    number = value
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            number = None
    if isinstance(number, float) and number.is_integer():
        number = int(number)
    if isinstance(number, bool) or not isinstance(number, int):
        raise SchemaError(f"{label} must be an integer, got {value!r}")
    if not lo <= number <= hi:
        raise SchemaError(f"{label} must be between {lo} and {hi}, got {number}")
    return number


def _finite(value, label: str) -> float:
    # Numbers and numeric text; NaN, infinities, integers past the float
    # range, booleans and other text fail.
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise SchemaError(f"{label} must be a finite number, got {value!r}")
    return number


def _check_schema_version(doc: dict) -> None:
    # The key absent, or the integer SCHEMA_VERSION.
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")


def _grid_from_dict(grid_doc) -> GridSpec:
    """The ``grid`` entry of a problem or solution file, checked."""
    if not isinstance(grid_doc, dict) or set(grid_doc) != _GRID_KEYS:
        raise SchemaError(f"grid must have exactly the keys {sorted(_GRID_KEYS)}")
    grid = GridSpec(
        *(_finite(grid_doc[k], f"grid {k}") for k in ("u_min", "u_max", "v_min", "v_max")),
        _bounded_int(grid_doc["nu"], "grid nu", 2, MAX_GRID_SIDE),
        _bounded_int(grid_doc["nv"], "grid nv", 2, MAX_GRID_SIDE),
    )
    if not (grid.u_min < grid.u_max and grid.v_min < grid.v_max):
        raise SchemaError("grid ranges must be increasing")
    return grid


def _resolve_group(doc: dict) -> GroupModel:
    name = doc["group"]
    if name == "generic":
        if "structure_constants" not in doc:
            raise SchemaError("generic groups need an inline structure_constants table")
        try:
            return generic_group(doc["structure_constants"], frame_exprs=doc.get("frame_matrix"))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"generic group: {exc}") from None
    if "structure_constants" in doc or "frame_matrix" in doc:
        raise SchemaError(
            "structure_constants / frame_matrix apply only to group 'generic'"
        )
    try:
        return by_name(name)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def problem_from_dict(
    doc: dict,
    order_override: int | str | None = None,
    tolerance_overrides: dict | None = None,
) -> BjorlingProblem:
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    _check_schema_version(doc)
    unknown = set(doc) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise SchemaError(f"unknown problem keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing problem keys: {sorted(missing)}")

    grid = _grid_from_dict(doc["grid"])

    tol_doc = dict(_object(doc, "tolerances"))
    unknown_tol = set(tol_doc) - _TOL_KEYS
    if unknown_tol:
        raise SchemaError(f"unknown tolerance keys: {sorted(unknown_tol)}")
    if tolerance_overrides:
        tol_doc.update(tolerance_overrides)
    tol_values = {k: _finite(v, f"tolerance {k}") for k, v in tol_doc.items()}
    for key, value in tol_values.items():
        if value < 0:
            raise SchemaError(f"tolerance {key} must not be negative, got {tol_doc[key]!r}")
    tol_values.pop("fd_step", None)  # schema 1 only
    tolerances = Tolerances().merged(tol_values)

    try:
        kind = ProblemKind.from_string(doc["mode"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    order = _bounded_int(
        order_override if order_override is not None else doc["order"], "order", 2, MAX_ORDER
    )
    center = _finite(doc.get("u0", 0.5 * (grid.u_min + grid.u_max)), "u0")
    params = {str(k): _finite(v, f"param {k}") for k, v in _object(doc, "params").items()}

    beta_doc, field_doc = doc["beta"], doc["V"]
    for label, entries in (("beta", beta_doc), ("V", field_doc)):
        if not isinstance(entries, list) or len(entries) != 3:
            raise SchemaError(f"{label} must be a list of three components")

    # Curve jets carry one extra order so differentiated data is full order.
    # The six entries share one jet of u.
    env = jet_environment(order + 1, center, params)
    curve = tuple(_jet_entry(beta_doc[i], env, f"beta[{i}]") for i in range(3))
    field = tuple(_jet_entry(field_doc[i], env, f"V[{i}]") for i in range(3))
    # The solve differentiates the curve once and uses the field as it is, so
    # the data must give the curve to order + 1 and the field to the order;
    # only a coefficient list can fall short.
    for name, jets, need in (("beta", curve, order + 2), ("V", field, order + 1)):
        for i, jet in enumerate(jets):
            if jet.order + 1 < need:
                raise SchemaError(
                    f"{name}[{i}]: coefficient list has {jet.order + 1} values, "
                    f"order {order} needs {need}"
                )
    return BjorlingProblem(
        group=_resolve_group(doc),
        curve=curve,
        normal_field=field,
        kind=kind,
        order=order,
        grid=grid,
        tolerances=tolerances,
    )


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc.msg})") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise SchemaError(f"{path}: not valid JSON (an integer with too many digits)") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def load_problem(
    path,
    order_override: int | str | None = None,
    tolerance_overrides: dict | None = None,
) -> tuple[BjorlingProblem, dict]:
    doc = _read_json(path)
    return problem_from_dict(doc, order_override, tolerance_overrides), doc


# ---------------------------------------------------------------------------
# solution files


def solution_payload(sol: BjorlingSolution) -> dict:
    group = sol.group  # a generic group is restated as its problem file declared it
    generic = {"structure_constants": group.C.tolist(), "frame_matrix": group.frame_exprs}
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group.name,
        **(generic if group.frame_exprs is not None else {}),
        "mode": sol.kind.value,
        "order": sol.order,
        "center_u": sol.center,
        "base_point": sol.base.tolist(),
        "grid": asdict(sol.grid),
        "frame_data": [{"re": re.tolist(), "im": im.tolist()} for re, im in zip(*sol.frame_data)],
        "surface": [f.coeffs.tolist() for f in sol.surface],
        "report": sol.report.as_flat_dict(),
    }


def write_solution(sol: BjorlingSolution, path) -> None:
    # One line per top-level key, each value compact, streamed key by key.
    # json.dumps without indent runs the C encoder; it writes floats as repr
    # and non-finite report values as NaN or Infinity (orjson would write null).
    lines = (
        f"{',' if k else '{'}\n{json.dumps(key)}: {json.dumps(value)}".encode()
        for k, (key, value) in enumerate(solution_payload(sol).items())
    )
    _stream(path, itertools.chain(lines, [b"\n}"]))


def write_report(sol: BjorlingSolution, path) -> None:
    write_json(sol.report.as_flat_dict(), path, sort_keys=True)


def write_json(doc, path, sort_keys: bool = False) -> None:
    """Write ``doc`` as JSON indented by one space."""
    _stream(path, [json.dumps(doc, indent=1, sort_keys=sort_keys).encode()])


@dataclass
class StoredSolution:
    """Solution file contents rehydrated enough to evaluate and mesh."""

    group: GroupModel
    kind: ProblemKind
    surface: tuple
    grid: GridSpec
    report: dict

    @staticmethod
    def load(path) -> "StoredSolution":
        doc = _read_json(path)
        try:
            if not isinstance(doc, dict):
                raise SchemaError("solution document must be a JSON object")
            _check_schema_version(doc)
            grid = _grid_from_dict(doc["grid"])
            center = _finite(doc["center_u"], "center_u")
            tables = doc["surface"]
            if not isinstance(tables, list) or len(tables) != 3:
                raise SchemaError("surface must be a list of three coefficient tables")
            for tab in tables:  # an order-MAX_ORDER solve writes side MAX_ORDER + 2
                if isinstance(tab, list) and len(tab) > MAX_ORDER + 2:
                    raise SchemaError(f"surface table side {len(tab)} exceeds {MAX_ORDER + 2}")
            surface = tuple(BiSeries(np.asarray(tab, dtype=float), center) for tab in tables)
            kind = ProblemKind.from_string(doc["mode"])
            group = _resolve_group(doc)
            report = doc.get("report", {})
        except (KeyError, ValueError, TypeError, SchemaError) as exc:
            raise SchemaError(f"{path}: malformed solution file ({exc})") from None
        return StoredSolution(group, kind, surface, grid, report)


# ---------------------------------------------------------------------------
# meshes


@dataclass
class SurfaceMesh:
    vertices: np.ndarray  # (n, 3) chart coordinates
    uv: np.ndarray | None  # (n, 2) parameters, row-major in (u, v)
    residual: np.ndarray | None  # (n,) per-vertex conformality defect
    faces: np.ndarray  # (m, 4) quads of 0-based vertex indices
    clipped: int  # count of grid points outside the chart


def build_mesh(solution, residual: bool = True) -> SurfaceMesh:
    """Evaluate a solution's surface on its grid and assemble quads.

    ``solution`` is a ``StoredSolution`` or a ``BjorlingSolution``: only its
    ``group``, ``kind``, ``surface`` and ``grid`` are read.  Grid points that
    violate the chart guard are clipped: they get no vertex, and no face
    touches them.  Ordering is row-major in (u, v), deterministic.  With
    ``residual`` false only the points, the chart mask and the faces are
    evaluated (all an OBJ file holds), and ``uv`` and ``residual`` are None.
    A point, or with ``residual`` a tangent or residual, that is not finite
    raises SchemaError naming the first such grid point.
    """
    us, vs = solution.grid.us(), solution.grid.vs()
    surface = solution.surface
    uv = defect = None
    with np.errstate(all="ignore"):
        # f, then with ``residual`` f_u and f_v: each a (3, len(us), len(vs)) grid.
        grids = grid_values(report_tables(surface)[: 3 if residual else 1], surface[0].center, us, vs)
        finite = np.isfinite(grids).all(axis=(0, 1))
        inside = finite & solution.group.chart_mask(grids[0])
        clipped = int(inside.size - np.count_nonzero(inside))
        # With nothing clipped every array is a reshape of the grid.
        kept = grids[:, :, inside] if clipped else grids.reshape(len(grids), 3, -1)
        x = kept[0]
        if residual:
            ainv = solution.group.frame_matrix(x)
            defect = conformality_defect(*frame_components(ainv, *kept[1:]), solution.kind.sigma)
            if not np.isfinite(defect).all():
                finite[inside] = np.isfinite(defect)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SchemaError(
            f"surface is not finite at grid point (u, v) = ({float(us[i])!r}, {float(vs[j])!r})"
        )
    if clipped:
        index = np.full(inside.shape, -1)
        index[inside] = np.arange(inside.size - clipped)
    else:
        index = np.arange(inside.size).reshape(inside.shape)
    if residual:
        u, v = np.meshgrid(us, vs, indexing="ij")
        uv = np.stack([u[inside], v[inside]] if clipped else [u.ravel(), v.ravel()], axis=1)
    quads = np.stack(
        [index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]], axis=-1
    ).reshape(-1, 4)
    return SurfaceMesh(
        vertices=np.ascontiguousarray(x.T),  # a copy: the mesh holds no view of the grids
        uv=uv,
        residual=defect,
        faces=quads[np.all(quads >= 0, axis=1)] if clipped else quads,
        clipped=clipped,
    )


def _lines(prefix: bytes, block: np.ndarray, sep: bytes) -> memoryview:
    # One line per row of a 2-D block: the prefix, then the row's numbers in
    # shortest round-trip form joined by sep (one byte).  orjson writes the
    # block as one flat JSON array; in place, its commas become sep, every
    # cols-th one and both brackets a newline, and the prefix then goes after
    # each newline.  The text starts after the first newline and ends before
    # the last prefix.
    rows, cols = block.shape
    if not rows:
        return memoryview(b"")
    text = bytearray(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    view = np.frombuffer(text, dtype=np.uint8)
    commas = np.flatnonzero(view == ord(","))
    if sep != b",":
        view[commas] = ord(sep)
    view[commas[cols - 1 :: cols]] = view[0] = view[-1] = ord("\n")
    if prefix:
        text = text.replace(b"\n", b"\n" + prefix)
    return memoryview(text)[1 : len(text) - len(prefix)]


def _row_blocks(rows: int):
    # Slices of BLOCK_ROWS consecutive rows (the last one shorter) covering rows.
    return (slice(start, start + BLOCK_ROWS) for start in range(0, rows, BLOCK_ROWS))


def _stream(path, chunks) -> None:
    # Make the parent directories, then write each chunk of bytes as it is
    # made; a failed write removes the started file, so no truncated file is
    # left behind.
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    out = open(path, "wb")
    try:
        with out:
            for chunk in chunks:
                out.write(chunk)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_files(files: dict) -> list:
    """Write all of a command's files or none; returns each write's result.

    ``files`` maps each path to a ``write(path)`` that may compute first and
    ends by streaming that file through ``_stream``, which makes its parent
    directories.  On any failure every file the call opened (so also an
    earlier file at its path) is removed; a path it never opened stays.
    """
    done, results = [], []
    try:
        for path, write in files.items():
            results.append(write(path))
            done.append(path)
    except BaseException:
        for path in done:
            Path(path).unlink(missing_ok=True)
        raise
    return results


def write_obj(mesh: SurfaceMesh, path) -> None:
    # OBJ face indices are 1-based.  A mesh with no vertex is a file holding
    # one empty line.
    vertices = (_lines(b"v ", mesh.vertices[b], b" ") for b in _row_blocks(len(mesh.vertices)))
    faces = (_lines(b"f ", mesh.faces[b] + 1, b" ") for b in _row_blocks(len(mesh.faces)))
    _stream(path, itertools.chain(vertices, faces) if len(mesh.vertices) else [b"\n"])


def write_csv(mesh: SurfaceMesh, path) -> None:
    columns = (mesh.uv, mesh.vertices, mesh.residual)
    rows = (
        _lines(b"", np.column_stack([column[block] for column in columns]), b",")
        for block in _row_blocks(len(mesh.vertices))
    )
    _stream(path, itertools.chain([b"u,v,x1,x2,x3,residual\n"], rows))
