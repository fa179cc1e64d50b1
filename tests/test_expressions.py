import math

import numpy as np
import pytest

from bjorling.errors import ExpressionError
from bjorling.expressions import evaluate_jet, evaluate_series, jet_environment
from bjorling.series import BiSeries, USeries
from oracles import dot_paired


def _jet(text, order, center, params=None):
    # A text evaluated as a problem file's are, in the problem's environment.
    return evaluate_jet(text, jet_environment(order, center, params))


def test_polynomial_with_parameters():
    jet = _jet("4*c*u", 5, 0.0, {"c": 1.5})
    assert np.allclose(jet.coeffs, [0, 6, 0, 0, 0, 0], atol=1e-15)


def test_generators_at_shifted_center():
    jet = _jet("cos(u)", 6, math.pi / 2, {})
    want = USeries.variable(6, math.pi / 2).cos()
    assert np.allclose(jet.coeffs, want.coeffs, atol=1e-15)


def test_composite_expression():
    jet = _jet("-(c/2)*cosh(u) + sinh(u)", 8, 0.0, {"c": 1.0})
    u = USeries.variable(8, 0.0)
    want = -0.5 * u.cosh() + u.sinh()
    assert np.allclose(jet.coeffs, want.coeffs, atol=1e-15)


def test_division_by_series():
    jet = _jet("sinh(u)/cosh(u)", 7, 0.0, {})
    u = USeries.variable(7, 0.0)
    want = u.sinh() / u.cosh()
    assert np.allclose(jet.coeffs, want.coeffs, atol=1e-15)


def test_integer_powers_of_series():
    jet = _jet("(1 + u)**3", 5, 0.0, {})
    assert np.allclose(jet.coeffs, [1, 3, 3, 1, 0, 0], atol=1e-15)
    jet = _jet("(1 + u)**-1", 5, 0.0, {})
    assert np.allclose(jet.coeffs, [1, -1, 1, -1, 1, -1], atol=1e-14)


def test_nested_function_argument():
    jet = _jet("exp(2*u)", 5, 0.0, {})
    assert np.allclose(jet.coeffs, [2**k / math.factorial(k) for k in range(6)], atol=1e-14)


def test_constant_expression_becomes_constant_jet():
    jet = _jet("cos(0) + 1", 4, 0.0, {})
    assert np.allclose(jet.coeffs, [2, 0, 0, 0, 0], atol=1e-15)


def test_pointwise_environment():
    assert evaluate_series("x1*x2 - x3", {"x1": 2.0, "x2": 3.0, "x3": 1.0}) == 5.0


def test_bivariate_environment_gives_a_bivariate_series():
    x = [BiSeries(np.random.default_rng(k).uniform(-1.0, 1.0, (6, 6)), 0.5) for k in range(3)]
    got = evaluate_series("x1**2/2 - 3*x2 + x3", {"x1": x[0], "x2": x[1], "x3": x[2]})
    want = x[0] * x[0] * 0.5 - 3.0 * x[1] + x[2]
    assert isinstance(got, BiSeries) and (got - want).maxabs() <= 1e-14
    x[0].coeffs[2, 1] = 1e308
    with pytest.raises(ExpressionError, match="non-finite"):
        evaluate_series("x1 * 10", {"x1": x[0]})


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError, match="unknown name"):
        _jet("q + u", 4, 0.0, {})


def test_call_injection_rejected():
    with pytest.raises(ExpressionError):
        _jet("__import__('os').system('true')", 4, 0.0, {})


def test_disallowed_function_rejected():
    with pytest.raises(ExpressionError):
        _jet("tan(u)", 4, 0.0, {})


def test_non_integer_power_rejected():
    with pytest.raises(ExpressionError, match="integer"):
        _jet("u**0.5", 4, 0.0, {})


def test_syntax_error_reported():
    with pytest.raises(ExpressionError, match="cannot parse"):
        _jet("1 +", 4, 0.0, {})


def test_attribute_access_rejected():
    with pytest.raises(ExpressionError):
        evaluate_series("u.coeffs", {"u": USeries.variable(3)})


@pytest.mark.parametrize("order", [5, 12, 30])
@pytest.mark.parametrize(
    "text",
    [
        "sinh(1e300*u**2)",
        "sin(1e300*u**2)",
        "cos(1e300*u**2)",
        "exp(1e200*u)",
        "cosh(1e155*(u**2 + u))",
        "exp(exp(1e100*u))",
        "sinh(u/1e-320)",
        "exp(u*1e308*10)",
    ],
)
def test_jets_that_overflow_end_in_the_error_of_the_dot_recurrence(monkeypatch, text, order):
    # sinh(1e300 u^2) at order 5 has g_4 = inf: the dot behind f_5 added
    # 0 * g_4 = NaN, which the float loop, skipping the zero term, must
    # carry as well.
    def message():
        with pytest.raises(ExpressionError) as err:
            _jet(text, order, 0.0)
        return str(err.value)

    got = message()
    monkeypatch.setattr(USeries, "_paired", lambda a, fn, gn, sign: dot_paired(a, fn, gn, sign))
    assert message() == got
