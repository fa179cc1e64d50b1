"""Small expression grammar for analytic jets in problem files.

Allowed: numbers, named parameters, the variable u (or x1, x2, x3 for frame
matrix entries), +, -, *, /, unary minus, integer powers, and calls to exp,
sin, cos, sinh, cosh.  That is enough to state every shipped example jet
exactly; anything else is rejected up front.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ExpressionError, UnsupportedRecipe
from .series import USeries

_FUNCS = ("exp", "sin", "cos", "sinh", "cosh")

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def _quote(text: str) -> str:
    """The text for an error message: whole when short, else its first 60
    characters and its length, so one line stays readable."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


def _eval_node(node, env, text):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env, text)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ExpressionError(f"non-numeric constant in {_quote(text)}")
    if isinstance(node, ast.Name):
        try:
            return env[node.id]
        except KeyError:
            raise ExpressionError(
                f"unknown name {node.id!r} in {_quote(text)}"
            ) from None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval_node(node.operand, env, text)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp):
        fn = _BINOPS.get(type(node.op))
        if fn is not None:
            return fn(
                _eval_node(node.left, env, text), _eval_node(node.right, env, text)
            )
        if isinstance(node.op, ast.Pow):
            base = _eval_node(node.left, env, text)
            expo = _eval_node(node.right, env, text)
            if not isinstance(expo, float) or expo != int(expo):
                raise ExpressionError(f"powers must be integer literals in {_quote(text)}")
            return base ** int(expo)
        raise ExpressionError(f"operator not allowed in {_quote(text)}")
    if isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in _FUNCS
            or len(node.args) != 1
            or node.keywords
        ):
            raise ExpressionError(f"only {_FUNCS} calls are allowed in {_quote(text)}")
        arg = _eval_node(node.args[0], env, text)
        if isinstance(arg, USeries):
            return getattr(arg, node.func.id)()
        if isinstance(arg, np.ndarray):
            return getattr(np, node.func.id)(arg)
        return getattr(math, node.func.id)(arg)
    raise ExpressionError(f"unsupported syntax in {_quote(text)}")


def parse_expression(text: str) -> ast.Expression:
    """The syntax tree of an expression, for evaluating it many times."""
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {_quote(text)}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # MemoryError: the parser's own stack overflowed
        raise ExpressionError(f"{_quote(text)} is nested too deeply") from None


def evaluate_series(text: str, env: dict, tree: ast.Expression | None = None):
    """Evaluate an expression over an environment of jets, arrays and numbers.

    Returns a series (USeries or BiSeries) or a ``slices.TapeNode`` when
    any variable in the environment is one, an array when one is a numpy
    array, otherwise a float.  A value, entry, coefficient or tape weight
    that is not finite raises ExpressionError.  Over bivariate series and
    tape nodes only polynomials expand (no functions, quotients by a
    variable or negative powers); anything else raises UnsupportedRecipe.
    ``tree`` is ``parse_expression(text)`` when the caller has parsed the
    text already.
    """
    if tree is None:
        tree = parse_expression(text)
    try:
        with np.errstate(all="ignore"):
            out = _eval_node(tree, env, text)
    except ZeroDivisionError:
        raise ExpressionError(f"division by zero in {_quote(text)}") from None
    except OverflowError:
        raise ExpressionError(f"overflow in {_quote(text)}") from None
    except RecursionError:
        raise ExpressionError(f"{_quote(text)} is nested too deeply") from None
    except TypeError:  # a BiSeries or tape node has no exp, sin, ..., quotient or inverse
        raise UnsupportedRecipe(f"{_quote(text)} has no series expansion in the coordinates") from None
    except ValueError:
        # An infinite argument of math.sin or math.cos, or a jet division by
        # a non-finite jet.  A non-finite numerator reaches the check below.
        raise ExpressionError(f"non-finite value in {_quote(text)}") from None
    # Float arithmetic overflows to inf quietly ("1e400", "1e300*1e300").
    if not np.isfinite(getattr(out, "coeffs", out)).all():
        raise ExpressionError(f"non-finite value in {_quote(text)}")
    return out


def jet_environment(order: int, center: float, params: dict | None = None) -> dict:
    """The environment of expressions in u: the named parameters and one
    jet of u about the center, for every text of a problem."""
    env = dict(params or {})
    env["u"] = USeries.variable(order, center)
    return env


def evaluate_jet(text: str, env: dict) -> USeries:
    """Jet of an expression in u over ``jet_environment(order, center,
    params)``: a text that does not name u is evaluated on floats and is
    the constant jet of its value."""
    out = evaluate_series(text, env)
    if not isinstance(out, USeries):
        u = env["u"]
        out = USeries.constant(float(out), u.order, u.center)
    return out
