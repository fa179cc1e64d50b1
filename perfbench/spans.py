"""In-memory spans and counters around the library's public functions.

The tracer replaces functions at their module or class attribute, so the
library needs no edits: ``solve_bjorling`` looks up ``ck_march``,
``reconstruct_surface`` and ``verify.build_report`` at call time, and
``cli`` reaches ``problemfile`` through the module, so the wrappers see the
real call tree.  Dunder methods resolve on the class, so wrapping
``BiSeries.__mul__`` counts every product.

A span records its name, start, end, parent and op id.  Spans are kept in
memory until the run ends and are reduced to per-op figures by
``Tracer.per_op``.  Hot per-point functions get a counter instead of a
span, because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from bjorling import cli, problemfile, solver, verify
from bjorling.groups import GroupModel
from bjorling.series import BiSeries


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else "none"
    return "cli." + command.replace("-", "_")


def _bimul_madds(args, kwargs) -> int:
    """Multiply-adds of one truncated triangular product, computed from the
    operand orders (not measured): the 4-tuples of degrees with sum <= n,
    C(n + 4, 4)."""
    self, other = args[0], args[1]
    n = min(self.order, other.order)
    return math.comb(n + 4, 4)


# (owner, attribute, span name or callable(args, kwargs) -> name)
_SPANS = (
    (cli, "main", _cli_span_name),
    (cli, "solve_bjorling", "solver.solve"),
    (solver, "solve_bjorling", "solver.solve"),
    (solver, "classify_curve", "solver.classify"),
    (solver, "initial_data", "solver.initial_data"),
    (solver, "ck_march", "solver.march"),
    (solver, "reconstruct_surface", "solver.reconstruct"),
    (verify, "build_report", "verify.report"),
    (verify, "weierstrass_residuals", "verify.weierstrass"),
    (verify, "boundary_residuals", "verify.boundary"),
    (verify, "conformality_residual", "verify.conformality"),
    (verify, "tension_residual", "verify.tension"),
    (GroupModel, "christoffels", "groups.christoffels"),
    (GroupModel, "pde_quadratic", "groups.pde_quadratic"),
    (problemfile, "problem_from_dict", "problemfile.parse"),
    # problemfile imported expressions.evaluate_jet by name; wrap that reference.
    (problemfile, "evaluate_jet", "expressions.jet"),
    (problemfile, "write_solution", "problemfile.write"),
    (problemfile, "write_report", "problemfile.write"),
    (problemfile.StoredSolution, "load", "problemfile.load_solution"),
    (problemfile, "build_mesh", "problemfile.mesh"),
    (problemfile, "write_obj", "problemfile.mesh_write"),
    (problemfile, "write_csv", "problemfile.mesh_write"),
)

# (owner, attribute, counter name, extra {counter: weight(args, kwargs)}, guard)
_COUNTERS = (
    (GroupModel, "frame_matrix", "groups.frame_matrix.calls", {}, None),
    (
        BiSeries,
        "__mul__",
        "series.bimul.calls",
        {"series.bimul.madds": _bimul_madds},
        lambda args: isinstance(args[1], BiSeries),
    ),
    (BiSeries, "eval", "series.point_eval.calls", {}, None),
    (BiSeries, "eval_grid", "series.eval_grid.calls", {}, None),
)


class Tracer:
    """Spans and counters of the ops run inside ``op()`` while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts = []  # one Counter per op
        self._stack = []
        self._op = None

    # recording -----------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [label, perf_counter_ns(), 0, parent, self._op]
            self.spans.append(record)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                self._stack.pop()

        return wrapper

    def _counter(self, name, weights, guard, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None and (guard is None or guard(args)):
                counts = self.counts[self._op]
                counts[name] += 1
                for key, weight in weights.items():
                    counts[key] += weight(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def op(self):
        """Record one op: a root span named "op" plus its own counters."""
        self._op = len(self.counts)
        self.counts.append(Counter())
        index = len(self.spans)
        self.spans.append(["op", perf_counter_ns(), 0, -1, self._op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter_ns()
            self._stack.pop()
            self._op = None

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _SPANS:
                saved.append(self._patch(owner, attr, functools.partial(self._span, name)))
            for owner, attr, *spec in _COUNTERS:
                saved.append(self._patch(owner, attr, functools.partial(self._counter, *spec)))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @staticmethod
    def _patch(owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return owner, attr, raw

    # reduction -----------------------------------------------------------

    def per_op(self) -> list[dict]:
        """For each op: {"total": {name: ms}, "self": {name: ms},
        "n": {name: spans}, "counts": Counter}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        ops = [
            {"total": Counter(), "self": Counter(), "n": Counter(), "counts": c}
            for c in self.counts
        ]
        for (name, start, end, _, op), covered in zip(self.spans, child_ns):
            entry = ops[op]
            entry["total"][name] += (end - start) / 1e6
            entry["self"][name] += (end - start - covered) / 1e6
            entry["n"][name] += 1
        return ops


# per-layer metric -> (span name, "total" | "self" | "n"), per op
SPAN_METRICS = {
    "solver.solve_ms": ("solver.solve", "total"),
    "solver.self_ms": ("solver.solve", "self"),
    "solver.classify_ms": ("solver.classify", "total"),
    "solver.initial_data_ms": ("solver.initial_data", "total"),
    "solver.march_ms": ("solver.march", "total"),
    "solver.reconstruct_ms": ("solver.reconstruct", "total"),
    "verify.report_ms": ("verify.report", "total"),
    "verify.report_self_ms": ("verify.report", "self"),
    "verify.weierstrass_ms": ("verify.weierstrass", "total"),
    "verify.boundary_ms": ("verify.boundary", "total"),
    "verify.conformality_ms": ("verify.conformality", "total"),
    "verify.tension_ms": ("verify.tension", "total"),
    "verify.strip_attempts": ("verify.conformality", "n"),
    "groups.christoffels_ms": ("groups.christoffels", "total"),
    "groups.christoffels.calls": ("groups.christoffels", "n"),
    "groups.pde_quadratic_ms": ("groups.pde_quadratic", "total"),
    "groups.pde_quadratic.calls": ("groups.pde_quadratic", "n"),
    "problemfile.parse_ms": ("problemfile.parse", "total"),
    "problemfile.write_ms": ("problemfile.write", "total"),
    "problemfile.load_solution_ms": ("problemfile.load_solution", "total"),
    "problemfile.mesh_ms": ("problemfile.mesh", "total"),
    "problemfile.mesh_write_ms": ("problemfile.mesh_write", "total"),
    "expressions.jet_ms": ("expressions.jet", "total"),
    "expressions.jet.calls": ("expressions.jet", "n"),
    "cli.solve_ms": ("cli.solve", "total"),
    "cli.export_mesh_ms": ("cli.export_mesh", "total"),
    "trace.unaccounted_ms": ("op", "self"),
}

COUNT_METRICS = (
    "groups.frame_matrix.calls",
    "series.bimul.calls",
    "series.bimul.madds",
    "series.point_eval.calls",
    "series.eval_grid.calls",
)


def op_layer_values(op: dict) -> dict:
    """Every per-layer figure of one traced op, by metric name."""
    out = {
        metric: op[kind][span] for metric, (span, kind) in SPAN_METRICS.items()
    }
    out["cli.self_ms"] = op["self"]["cli.solve"] + op["self"]["cli.export_mesh"]
    for name in COUNT_METRICS:
        out[name] = op["counts"][name]
    return out
