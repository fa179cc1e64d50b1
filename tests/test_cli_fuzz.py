"""Fuzz of the file boundaries: every mutated document ends in a documented
exit code, with exactly one stderr line when it is not 0.

Each problem case takes a corpus document at order 4 or 12 and replaces
one to three of its entries (a leaf or a whole list or object) by one of
a fixed set of values, or drops the entry, then solves it through
``cli.main`` in-process with numpy's RuntimeWarning an error.  The escapes
the contract once had are explicit examples.  Each solution case mutates
an example's order-12 solution file the same way and meshes it with
``export-mesh`` to OBJ and to CSV, which exits 0 or 1.
"""

import contextlib
import copy
import functools
import io
import json
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bjorling import cli, corpus, problemfile, solver

_DROP = "<drop the entry>"

_VALUES = (
    # numbers, small to overflowing, and the JSON extensions Python reads
    0, 1, -1, 0.5, 2, 3.5, 49, 1e-300, 1e-12, 1e12, 1e70, 1e100, 1e154, 1e160,
    1e200, 1e308, -1e308, float("nan"), float("inf"),
    # wrong types
    None, True, "", [], {}, [1, 2], [0, 0, 0], [[0, 0, 0]] * 3,
    {"coeffs": []}, {"coeffs": [1.0]}, {"coeffs": [1e200, 1.0]}, {"coeffs": "u"},
    # expressions: plain, singular, overflowing, malformed
    "u", "-u", "c", "x", "0", "1", "sinh(u)", "cosh(u)", "exp(u)", "sqrt(u)",
    "log(u)", "1/u", "u/0", "sqrt(-1)", "exp(1000*u)", "1e70*u", "1e308*u",
    "1e70*sinh(u)", "c + 1e100", "u**100", "2**1024", "((", "u +", "-" * 60 + "u",
    # names of kinds and groups
    "timelike", "spacelike-curve", "spacelike-surface", "heisenberg", "desitter",
    "h2xr", "generic",
    _DROP,
)  # fmt: skip


def _paths(doc, path=()):
    """Every entry of a JSON document, containers included, as key paths."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = [path] if path else []
    for key, value in items:
        out += _paths(value, path + (key,))
    return out


def _edit(doc, path, value) -> None:
    """Replace the entry at ``path`` by ``value``, or drop it."""
    *parents, key = path
    owner = doc
    for step in parents:
        owner = owner[step]
    if value is _DROP:
        del owner[key]
    else:
        owner[key] = copy.deepcopy(value)


def _mutated(example_id: str, order: int, edits) -> dict:
    doc = corpus.build_problem_dict(example_id, order=order)
    for index, value in edits:
        paths = _paths(doc)
        if not paths:
            break
        _edit(doc, paths[index % len(paths)], value)
    return doc


def _edits(example_id: str, order: int, *changes) -> tuple:
    # (path, value) changes as the strategy draws them: entry indices.
    paths = _paths(corpus.build_problem_dict(example_id, order=order))
    return tuple((paths.index(path), value) for path, value in changes)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    example_id=st.sampled_from(corpus.EXAMPLE_IDS),
    order=st.sampled_from([4, 12]),
    edits=st.lists(st.tuples(st.integers(0, 1000), st.sampled_from(_VALUES)), min_size=1, max_size=3),
)
# Escape 1: validate squared a Python float and raised OverflowError.
@example("heisenberg_helicoid", 4, _edits("heisenberg_helicoid", 4, (("V", 1, "coeffs", 0), 1e200)))
# Escape 2: the curve's speed overflowed in a numpy warning.
@example("heisenberg_vertical_plane", 12, _edits("heisenberg_vertical_plane", 12, (("beta", 0), "1e308*u")))
# Escape 3: a base point where the metric overflows.
@example("heisenberg_helicoid", 12, _edits("heisenberg_helicoid", 12, (("beta", 0, "coeffs", 0), 1e200)))
# Escape 4: a boundary normal whose square overflows.
@example("heisenberg_vertical_plane", 4, _edits("heisenberg_vertical_plane", 4, (("beta", 1), "c + 1e100")))
# Escape 5: frame data that overflow in the march.
@example("desitter_vertical_plane", 4, _edits("desitter_vertical_plane", 4, (("beta", 0), "1e70*sinh(u)")))
# Escape 6: a grid whose powers overflow in the report.
@example("desitter_diagonal_plane", 4, _edits("desitter_diagonal_plane", 4, (("grid", "v_max"), 1e70)))
# Escape 7: a boundary normal that overflows only in chart coordinates, and
# the certificates' products of a huge high-order coefficient.
@example("heisenberg_helicoid", 4, _edits("heisenberg_helicoid", 4, (("beta", 0, "coeffs", 3), 1e70)))
@example("heisenberg_helicoid", 4, _edits("heisenberg_helicoid", 4, (("V", 1, "coeffs", 3), 1e154)))
# Escape 8: the rebuild's f_v gate overflowed in its product.
@example("heisenberg_helicoid", 12, _edits("heisenberg_helicoid", 12, (("V", 1, "coeffs", 9), 1e154)))
# Escape 9: the march's cone scale, a Python float squared, raised OverflowError.
@example(
    "heisenberg_helicoid",
    12,
    _edits(
        "heisenberg_helicoid",
        12,
        (("V", 2, "coeffs", 9), 1e154),
        (("beta", 0, "coeffs", 2), 2),
        (("V", 2, "coeffs", 7), 2),
    ),
)
# Escape 10: a squared speed whose coefficients overflow, formed before the
# classification's overflow guard.
@example(
    "heisenberg_vertical_plane",
    12,
    _edits("heisenberg_vertical_plane", 12, (("beta", 0), "1e154*u"), (("beta", 1), "1e154*u")),
)
# Escape 11: a curve coefficient whose derivative overflows, differentiated
# outside the curve jets' np.errstate.
@example("heisenberg_helicoid", 4, _edits("heisenberg_helicoid", 4, (("beta", 0, "coeffs", 4), -1e308)))
def test_mutated_problem_files_exit_with_one_line(tmp_path_factory, example_id, order, edits):
    work = tmp_path_factory.mktemp("fuzz")
    problem = work / "case.problem.json"
    problem.write_text(json.dumps(_mutated(example_id, order, edits)))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["solve", str(problem), "--out", str(work / "out")])
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


@functools.cache
def _solution_doc(example_id: str) -> dict:
    """The example's order-12 solution file as a JSON document."""
    problem = problemfile.problem_from_dict(corpus.build_problem_dict(example_id, order=12))
    return problemfile.solution_payload(solver.solve_bjorling(problem))


def _solution_paths(doc, coefficient: bool) -> list:
    """The surface's coefficients, or every other entry but the frame
    data's, which export-mesh does not read (the whole entry is kept)."""
    paths = [p for p in _paths(doc) if p[0] != "frame_data" or len(p) == 1]
    return [p for p in paths if (p[0] == "surface" and len(p) == 4) == coefficient]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    example_id=st.sampled_from(corpus.EXAMPLE_IDS),
    edits=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1000), st.sampled_from(_VALUES)), min_size=1, max_size=3
    ),
)
def test_mutated_solution_files_mesh_or_exit_with_one_line(tmp_path_factory, example_id, edits):
    work = tmp_path_factory.mktemp("fuzz")
    doc = copy.deepcopy(_solution_doc(example_id))
    for coefficient, index, value in edits:
        paths = _solution_paths(doc, coefficient)
        if paths:
            _edit(doc, paths[index % len(paths)], value)
    solution = work / "case.solution.json"
    solution.write_text(json.dumps(doc))
    for fmt in ("obj", "csv"):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["export-mesh", str(solution), "--format", fmt, "--out", str(work / f"case.{fmt}")])
        assert code in (0, 1)
        if code:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
