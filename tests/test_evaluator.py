from __future__ import annotations

import math
import operator
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cpskg.errors import CpskgError
from cpskg.evaluator import (
    DivisionByZeroError,
    DomainError,
    EvaluationError,
    ResultOverflowError,
    UnboundVariableError,
    UnsupportedOperatorError,
    binding_map,
    evaluate,
    load_bindings,
)
from cpskg.infix import parse_infix
from cpskg.om.registry import TIMES
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable, app

EQ1_RHS = "beta*(Q1 - Qle1 - Qli - (xR_dot - xC_dot)*A)/(V0 + xR*A)"
EQ1_BINDINGS = {
    "beta": 1.0,
    "Q1": 2.0,
    "Qle1": 0.1,
    "Qli": 0.1,
    "xR_dot": 0.5,
    "xC_dot": 0.2,
    "A": 1.0,
    "V0": 10.0,
    "xR": 0.0,
}


def test_eq1_rhs_hand_arithmetic():
    value = evaluate(parse_infix(EQ1_RHS), EQ1_BINDINGS)
    assert abs(value - (2.0 - 0.1 - 0.1 - 0.3) / 10.0) < 1e-15
    assert abs(value - 0.15) < 1e-12


def test_eq2_rhs_hand_arithmetic():
    rhs = parse_infix("beta*(Q2 - Qle2 + Qli + (xR_dot - xC_dot)*A)/(V0 - xR*A)")
    bindings = dict(EQ1_BINDINGS, Q2=2.0, Qle2=0.1)
    assert abs(evaluate(rhs, bindings) - 0.23) < 1e-12


def test_sin_zero():
    assert evaluate(parse_infix("sin(0)"), {}) == 0.0


def test_equation_residual_convention():
    residual = evaluate(parse_infix("y = 2*x"), {"x": 3.0, "y": 6.0})
    assert residual == 0.0
    assert evaluate(parse_infix("y = 2*x"), {"x": 3.0, "y": 5.0}) == 1.0


def test_division_by_zero_from_eq1_denominator():
    bindings = dict(EQ1_BINDINGS, V0=10.0, xR=-10.0, A=1.0)
    with pytest.raises(ZeroDivisionError):
        evaluate(parse_infix(EQ1_RHS), bindings)


@pytest.mark.parametrize(
    "text, typed, builtin, message",
    [
        ("exp(1000)", ResultOverflowError, OverflowError, "transc1#exp overflows the double range at 1000.0"),
        ("10.0^400", ResultOverflowError, OverflowError, "arith1#power overflows the double range at 10.0, 400.0"),
        ("1/0", DivisionByZeroError, ZeroDivisionError, "arith1#divide divides by zero at 1.0, 0.0"),
        ("0.0^(-1)", DivisionByZeroError, ZeroDivisionError, "arith1#power divides by zero at 0.0, -1.0"),
    ],
)
def test_overflow_and_division_by_zero_are_domain_errors_and_builtins(text, typed, builtin, message):
    with pytest.raises(CpskgError) as excinfo:
        evaluate(parse_infix(text), {})
    assert type(excinfo.value) is typed
    assert isinstance(excinfo.value, DomainError) and isinstance(excinfo.value, builtin)
    assert str(excinfo.value) == message


def test_diff_is_unsupported():
    with pytest.raises(UnsupportedOperatorError) as excinfo:
        evaluate(parse_infix("diff(x^2, x)"), {"x": 3.0})
    assert (excinfo.value.cd, excinfo.value.name) == ("weylalgebra1", "diff")


@pytest.mark.parametrize("text", ["int(x)", "partialdiff(x, x)", "stats1.mean(x)"])
def test_non_evaluable_operators(text):
    with pytest.raises(UnsupportedOperatorError):
        evaluate(parse_infix(text), {"x": 1.0})


def test_unbound_variable():
    with pytest.raises(UnboundVariableError) as excinfo:
        evaluate(parse_infix("2*x"), {})
    assert excinfo.value.name == "x"


def test_ln_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_infix("ln(0)"), {})
    with pytest.raises(DomainError):
        evaluate(parse_infix("ln(-1.5)"), {})


def test_power_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_infix("(0 - 2)^0.5"), {})


@pytest.mark.parametrize("x", [math.inf, -math.inf])
@pytest.mark.parametrize("name", ["sin", "cos", "tan"])
def test_trig_at_infinity_is_a_domain_error(name, x):
    """No binding is infinite, but a product can overflow to ``x``: y*y*s
    at y=1e200, with s carrying the sign of ``x``."""
    product = app(TIMES, Variable("y"), Variable("y"), Variable("s"))
    with pytest.raises(DomainError, match=f"^transc1#{name} is undefined at {x!r}$"):
        evaluate(app(Symbol("transc1", name), product), {"y": 1e200, "s": math.copysign(1.0, x)})


def test_bare_symbol_has_no_value():
    with pytest.raises(EvaluationError):
        evaluate(Symbol("transc1", "sin"), {})


def test_integer_literal_beyond_double_range_is_an_evaluation_error():
    with pytest.raises(EvaluationError, match="^integer literal is out of double range$"):
        evaluate(parse_infix("1" + "0" * 400 + "*x"), {"x": 1.0})


def test_binding_beyond_double_range_names_the_binding(tmp_path):
    path = tmp_path / "bindings.json"
    path.write_text('{"y": 1.0, "x": 1' + "0" * 400 + "}", encoding="utf-8")
    calls = [
        lambda: load_bindings(path),
        lambda: binding_map({"x": 10**400}),
        lambda: evaluate(Variable("x"), {"x": -(10**400)}),
    ]
    for call in calls:
        with pytest.raises(EvaluationError, match="^binding 'x' is out of double range$"):
            call()


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_binding_names_the_binding(tmp_path, text):
    """JSON reads each of these as a double that is not finite, and Python's
    ``float`` reads them alike; no binding may be one."""
    path = tmp_path / "bindings.json"
    path.write_text(f'{{"y": 1.0, "x": {text}}}', encoding="utf-8")
    value = float(text)
    calls = [
        lambda: load_bindings(path),
        lambda: binding_map({"y": 1.0, "x": value}),
        lambda: evaluate(Variable("y"), {"y": 1.0, "x": value}),
    ]
    for call in calls:
        with pytest.raises(EvaluationError, match=f"^binding 'x' is not finite: {value!r}$"):
            call()


def test_trig_identity_over_samples():
    rng = random.Random(7)
    expr = parse_infix("sin(x)^2 + cos(x)^2")
    for _ in range(50):
        value = evaluate(expr, {"x": rng.uniform(-10.0, 10.0)})
        assert 1 - 1e-12 <= value <= 1 + 1e-12


def test_leakage_free_cancellation_100_random_bindings():
    """With zero leakage and equal ram/sleeve velocity the rate collapses to
    beta*Q1/(V0 + xR*A)."""
    rng = random.Random(20250809)
    rhs = parse_infix(EQ1_RHS)
    for _ in range(100):
        velocity = rng.uniform(-5.0, 5.0)
        bindings = {
            "beta": rng.uniform(0.1, 10.0),
            "Q1": rng.uniform(0.1, 10.0),
            "Qle1": 0.0,
            "Qli": 0.0,
            "xR_dot": velocity,
            "xC_dot": velocity,
            "A": rng.uniform(0.1, 2.0),
            "V0": rng.uniform(5.0, 100.0),
            "xR": rng.uniform(-0.5, 0.5),
        }
        expected = bindings["beta"] * bindings["Q1"] / (bindings["V0"] + bindings["xR"] * bindings["A"])
        value = evaluate(rhs, bindings)
        assert abs(value - expected) <= 1e-12 * abs(expected)


# --- oracle agreement ---------------------------------------------------------

_ORACLE_OPS = {
    ("arith1", "plus"): operator.add,
    ("arith1", "minus"): operator.sub,
    ("arith1", "times"): operator.mul,
    ("arith1", "divide"): operator.truediv,
    ("arith1", "power"): operator.pow,
}
_ORACLE_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "ln": math.log}


def oracle(expr, bindings):
    """Straightforward recursive arithmetic, independent of the evaluator."""
    if isinstance(expr, Variable):
        return bindings[expr.name]
    if isinstance(expr, IntLiteral):
        return float(expr.value)
    if isinstance(expr, FloatLiteral):
        return expr.value
    if isinstance(expr, Application):
        op = expr.operator
        if (op.cd, op.name) in _ORACLE_OPS:
            a, b = (oracle(argument, bindings) for argument in expr.arguments)
            return _ORACLE_OPS[(op.cd, op.name)](a, b)
        if op.cd == "arith1" and op.name == "unary_minus":
            return -oracle(expr.arguments[0], bindings)
        if op.cd == "transc1":
            return _ORACLE_FUNCS[op.name](oracle(expr.arguments[0], bindings))
    raise AssertionError(f"oracle cannot handle {expr!r}")


_ARITH = [Symbol("arith1", n) for n in ("plus", "minus", "times", "divide")]


def arith_trees(max_depth=3):
    leaf = st.one_of(
        st.sampled_from([Variable("x"), Variable("y")]),
        st.integers(-50, 50).map(IntLiteral),
        st.floats(-50, 50, allow_nan=False).map(FloatLiteral),
    )
    return st.recursive(
        leaf,
        lambda ch: st.builds(lambda o, a, b: app(o, a, b), st.sampled_from(_ARITH), ch, ch),
        max_leaves=12,
    )


@given(arith_trees(), st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False))
def test_oracle_agreement(tree, x, y):
    bindings = {"x": x, "y": y}
    try:
        expected = oracle(tree, bindings)
    except (ZeroDivisionError, OverflowError):
        assume(False)
        return
    assume(math.isfinite(expected))
    value = evaluate(tree, bindings)
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-300)
