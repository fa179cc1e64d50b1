"""Problem and solution files, report serialization, and mesh export.

Problem files are flat JSON documents; unknown keys are rejected so typos
fail loudly.  Solution files dump the raw coefficient tables, which is
enough to re-evaluate the surface anywhere without re-solving.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import orjson

from .config import GridSpec, ProblemKind, Tolerances
from .errors import SchemaError
from .expressions import evaluate_jet
from .groups import GroupModel, by_name, generic_group
from .series import BiSeries, USeries
from .solver import BjorlingProblem, BjorlingSolution
from .verify import conformality_defect, surface_grids

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
_GRID_KEYS = {"u_min", "u_max", "v_min", "v_max", "nu", "nv"}
_TOL_KEYS = {
    "cone",
    "causal",
    "compat",
    "series",
    "conformality",
    "minimality",
    "fd_step",
}

# Largest accepted truncation order, in the file or as the CLI override.
MAX_ORDER = 48
# Largest accepted grid side (nu or nv): export-mesh writes a 513 x 513 OBJ
# mesh in about 2 s and 170 MB on a 2-CPU machine.
MAX_GRID_SIDE = 513


def _jet_entry(entry, order: int, center: float, params: dict, label: str) -> USeries:
    if isinstance(entry, str):
        return evaluate_jet(entry, order, center, params)
    if isinstance(entry, dict) and set(entry) == {"coeffs"}:
        raw = entry["coeffs"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{label}: coefficient list must be 1-D and nonempty")
        coeffs = [_finite(c, f"{label} coefficient {k}") for k, c in enumerate(raw)]
        # The list length is the jet's order: padding with zeros would
        # claim accuracy the file does not contain.
        return USeries(coeffs[: order + 1], center)
    if isinstance(entry, (int, float)):
        return USeries.constant(_finite(entry, label), order, center)
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
    # Numbers and numeric text; NaN, infinities, booleans and other text fail.
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise SchemaError(f"{label} must be a finite number, got {value!r}")
    return number


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
    tolerances = Tolerances().merged({k: _finite(v, f"tolerance {k}") for k, v in tol_doc.items()})

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
    curve = tuple(
        _jet_entry(beta_doc[i], order + 1, center, params, f"beta[{i}]")
        for i in range(3)
    )
    field = tuple(
        _jet_entry(field_doc[i], order + 1, center, params, f"V[{i}]")
        for i in range(3)
    )
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
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc.msg})") from None


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
        "schema_version": 1,
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
    Path(path).write_text(
        json.dumps(solution_payload(sol), indent=1), encoding="utf-8"
    )


def write_report(sol: BjorlingSolution, path) -> None:
    Path(path).write_text(
        json.dumps(sol.report.as_flat_dict(), indent=1, sort_keys=True),
        encoding="utf-8",
    )


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
            grid = _grid_from_dict(doc["grid"])
            center = _finite(doc["center_u"], "center_u")
            surface = tuple(
                BiSeries(np.asarray(tab, dtype=float), center)
                for tab in doc["surface"]
            )
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
    uv: np.ndarray  # (n, 2) parameters, row-major in (u, v)
    residual: np.ndarray  # (n,) per-vertex conformality defect
    faces: np.ndarray  # (m, 4) quads of 0-based vertex indices
    clipped: int  # count of grid points outside the chart


def build_mesh(solution) -> SurfaceMesh:
    """Evaluate a solution's surface on its grid and assemble quads.

    ``solution`` is a ``StoredSolution`` or a ``BjorlingSolution``: only its
    ``group``, ``kind``, ``surface`` and ``grid`` are read.  Grid points that
    violate the chart guard are clipped: they get no vertex, and no face
    touches them.  Ordering is row-major in (u, v), deterministic.  A point,
    tangent or residual that is not finite raises SchemaError naming the
    first such grid point.
    """
    us, vs = solution.grid.us(), solution.grid.vs()
    with np.errstate(all="ignore"):
        x, fu, fv = surface_grids(solution.surface, us, vs)
        finite = np.all(np.isfinite(np.concatenate([x, fu, fv])), axis=0)
        inside = finite & solution.group.chart_mask(x)
        residual = conformality_defect(
            solution.group, x[:, inside], fu[:, inside], fv[:, inside], solution.kind.sigma
        )
    finite[inside] = np.isfinite(residual)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SchemaError(
            f"surface is not finite at grid point (u, v) = ({float(us[i])!r}, {float(vs[j])!r})"
        )
    index = np.full(inside.shape, -1)
    index[inside] = np.arange(np.count_nonzero(inside))
    quads = np.stack(
        [index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]], axis=-1
    ).reshape(-1, 4)
    u, v = np.meshgrid(us, vs, indexing="ij")
    return SurfaceMesh(
        vertices=x[:, inside].T,
        uv=np.stack([u[inside], v[inside]], axis=1),
        residual=residual,
        faces=quads[np.all(quads >= 0, axis=1)],
        clipped=int(inside.size - np.count_nonzero(inside)),
    )


def _lines(prefix: bytes, table: np.ndarray, sep: bytes) -> bytes:
    # One line per row of a 2-D table: the prefix, then the row's numbers in
    # shortest round-trip form joined by sep.  orjson writes the whole table
    # as one JSON array, whose "],[" and "," are turned into that layout.
    if not len(table):
        return b""
    text = orjson.dumps(np.ascontiguousarray(table), option=orjson.OPT_SERIALIZE_NUMPY)
    return prefix + text[2:-2].replace(b"],[", b"\n" + prefix).replace(b",", sep) + b"\n"


def write_obj(mesh: SurfaceMesh, path) -> None:
    text = _lines(b"v ", mesh.vertices, b" ") + _lines(b"f ", mesh.faces + 1, b" ")  # 1-based
    # A mesh with no vertex is a file holding one empty line.
    Path(path).write_bytes(text or b"\n")


def write_csv(mesh: SurfaceMesh, path) -> None:
    table = np.column_stack([mesh.uv, mesh.vertices, mesh.residual])
    Path(path).write_bytes(b"u,v,x1,x2,x3,residual\n" + _lines(b"", table, b","))
