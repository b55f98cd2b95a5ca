"""Numeric spot-evaluation of the evaluable expression subset.

This is a desk-scale verification aid for equations stored in the graph,
deliberately not a solver: only arithmetic and transcendental symbols
evaluate; differential, integral, and statistics operators raise
:class:`UnsupportedOperatorError`. Equality evaluates to the residual
``|lhs - rhs|`` so tests can assert that a binding satisfies an equation
without solving anything.

The ``_RULES`` table below is the only record of which symbols evaluate and
with how many arguments; the symbol registry plays no part, so a symbol that
a configuration file adds is never evaluable.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from .errors import CpskgError
from .om.registry import DIVIDE, EQUALS, MINUS, PLUS, POWER, TIMES, UNARY_MINUS
from .om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable

__all__ = [
    "DivisionByZeroError",
    "DomainError",
    "EvaluationError",
    "ResultOverflowError",
    "UnboundVariableError",
    "UnsupportedOperatorError",
    "binding_map",
    "evaluate",
    "load_bindings",
]


class EvaluationError(CpskgError):
    """Base for evaluation failures."""


class UnboundVariableError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class UnsupportedOperatorError(EvaluationError):
    def __init__(self, cd: str, name: str):
        super().__init__(f"operator {cd}#{name} is not numerically evaluable")
        self.cd = cd
        self.name = name


class DomainError(EvaluationError):
    """An argument outside the operator's real domain (e.g. ln of <= 0)."""


class ResultOverflowError(DomainError, OverflowError):
    """A result beyond the double range that ``math`` refuses to round to
    infinity, e.g. ``exp(1000)``."""


class DivisionByZeroError(DomainError, ZeroDivisionError):
    """A division by zero, or zero raised to a negative power."""


def _binding_value(name: str, value: float) -> float:
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        raise EvaluationError(f"binding {name!r} is out of double range") from None
    if not math.isfinite(number):  # NaN, an infinity, or JSON's 1e400, which reads as one
        raise EvaluationError(f"binding {name!r} is not finite: {number!r}")
    return number


def binding_map(bindings: Mapping[str, float]) -> dict[str, float]:
    """Each binding as a double; a value beyond the double range, an
    infinity or NaN is an :class:`EvaluationError` naming it."""
    return {str(k): _binding_value(k, v) for k, v in bindings.items()}


def load_bindings(path: Union[str, Path]) -> dict[str, float]:
    """Read a JSON object mapping variable names to numbers."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # a JSON syntax error, bytes that are not UTF-8, or nesting too deep to read
        raise EvaluationError(f"invalid JSON in bindings file: {exc}") from exc
    if not isinstance(data, dict):
        raise EvaluationError("bindings file must contain a JSON object")
    for name, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EvaluationError(f"binding {name!r} is not a number: {value!r}")
    return binding_map(data)


def _power(base: float, exponent: float) -> float:
    if base == 0.0 and exponent < 0.0:
        raise ZeroDivisionError(f"0.0 raised to the negative power {exponent}")
    try:
        # math.pow stays real; the ** operator would go complex here
        return math.pow(base, exponent)
    except ValueError as exc:
        raise DomainError(f"power outside the real domain: {base}^{exponent}") from exc


def _ln(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"ln of a non-positive value: {x}")
    return math.log(x)


# symbol -> (argument count, or None for "at least one"; rule). A symbol
# missing here is not numerically evaluable.
_RULES: dict[Symbol, tuple[Optional[int], Callable[..., float]]] = {
    PLUS: (None, lambda *xs: functools.reduce(operator.add, xs)),
    TIMES: (None, lambda *xs: functools.reduce(operator.mul, xs)),
    MINUS: (2, operator.sub),
    DIVIDE: (2, operator.truediv),
    POWER: (2, _power),
    UNARY_MINUS: (1, operator.neg),
    EQUALS: (2, lambda lhs, rhs: abs(lhs - rhs)),
    Symbol("transc1", "sin"): (1, math.sin),
    Symbol("transc1", "cos"): (1, math.cos),
    Symbol("transc1", "tan"): (1, math.tan),
    Symbol("transc1", "exp"): (1, math.exp),
    Symbol("transc1", "ln"): (1, _ln),
}


def evaluate(expr: OMExpression, bindings: Mapping[str, float]) -> float:
    """Recursively evaluate ``expr`` under ``bindings`` to a double.

    Every failure is an :class:`EvaluationError`. Division by zero raises
    :class:`DivisionByZeroError` and an overflowing ``exp`` or power raises
    :class:`ResultOverflowError`; each is also the matching builtin.
    """
    return _eval(expr, binding_map(bindings))


def _eval(expr: OMExpression, bindings: dict[str, float]) -> float:
    if isinstance(expr, Variable):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, IntLiteral):
        try:
            return float(expr.value)
        except OverflowError:
            raise EvaluationError("integer literal is out of double range") from None
    if isinstance(expr, FloatLiteral):
        return expr.value
    if isinstance(expr, Symbol):
        raise EvaluationError(f"bare symbol {expr.cd}#{expr.name} has no numeric value")
    if not isinstance(expr, Application):
        raise TypeError(f"not an expression node: {expr!r}")
    op = expr.operator
    if not isinstance(op, Symbol):
        raise EvaluationError("operator must be a content-dictionary symbol")
    rule = _RULES.get(op)
    if rule is None:
        raise UnsupportedOperatorError(op.cd, op.name)
    arity, apply = rule
    args = [_eval(a, bindings) for a in expr.arguments]
    if arity is None:
        if not args:
            raise EvaluationError(f"{op.cd}#{op.name} expects at least one argument")
    elif len(args) != arity:
        raise EvaluationError(f"{op.cd}#{op.name} expects {arity} argument(s), got {len(args)}")
    try:
        return apply(*args)
    except ValueError as exc:  # math's "domain error", e.g. sin(inf)
        raise DomainError(f"{op.cd}#{op.name} is undefined at {_listed(args)}") from exc
    except ZeroDivisionError as exc:
        raise DivisionByZeroError(f"{op.cd}#{op.name} divides by zero at {_listed(args)}") from exc
    except OverflowError as exc:  # math's "range error", e.g. exp(1000)
        raise ResultOverflowError(f"{op.cd}#{op.name} overflows the double range at {_listed(args)}") from exc


def _listed(args: list[float]) -> str:
    return ", ".join(map(repr, args))
