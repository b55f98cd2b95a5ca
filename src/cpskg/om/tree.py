"""Immutable expression trees for mathematical objects.

The tree mirrors the object layer of the OpenMath XML encoding: function
applications, content-dictionary symbols, variables, and integer/double
literals. Trees are immutable value objects (:class:`~cpskg.value.Value`);
they hash, compare structurally, and can be shared freely between threads.
"""

from __future__ import annotations

import math
import sys
from typing import Union

from ..errors import CpskgError
from ..value import Value

__all__ = [
    "Application",
    "FloatLiteral",
    "IntLiteral",
    "IntLiteralTooLongError",
    "NonFiniteFloatError",
    "OMExpression",
    "Symbol",
    "Variable",
    "app",
    "canonical_form",
]

OMExpression = Union["Application", "Symbol", "Variable", "IntLiteral", "FloatLiteral"]


class Symbol(Value):
    """A named symbol from a content dictionary, e.g. ``arith1`` / ``plus``."""

    __slots__ = ("cd", "name")

    def __init__(self, cd: str, name: str):
        if not cd or not name:
            raise ValueError("symbol cd and name must be non-empty")
        object.__setattr__(self, "cd", cd)
        object.__setattr__(self, "name", name)


class Variable(Value):
    """A free variable, identified by its (whitespace-free) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"variable name must be non-empty and free of whitespace: {name!r}")
        object.__setattr__(self, "name", name)


class IntLiteralTooLongError(CpskgError):
    """An integer literal with more digits than Python converts to text."""


class IntLiteral(Value):
    """An arbitrary-precision integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)

    def decimal(self) -> str:
        """The value in decimal, the one spelling every writer uses. A value
        with more digits than ``sys.get_int_max_str_digits()`` raises
        :class:`IntLiteralTooLongError`."""
        try:
            return str(self.value)
        except ValueError:  # Python's limit on integer-string conversion
            limit = sys.get_int_max_str_digits()
            message = f"integer literal is too long to convert: {_digit_count(self.value)} digits, limit {limit}"
            raise IntLiteralTooLongError(message) from None


def _digit_count(value: int) -> int:
    """The number of decimal digits of ``value``, without converting it."""
    magnitude = abs(value)
    digits = int((magnitude.bit_length() - 1) * 0.30102999566398120)  # log10(2); at most the count less one
    while magnitude >= 10**digits:
        digits += 1
    return max(digits, 1)


class NonFiniteFloatError(CpskgError, ValueError):
    """A float literal that is INF or NaN, which no xsd:double lexical form,
    OMF value or infix text in this toolchain carries."""


class FloatLiteral(Value):
    """A finite IEEE-754 double literal."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        if not math.isfinite(value):
            raise NonFiniteFloatError(f"float literal is not finite: {value!r}")
        object.__setattr__(self, "value", value)


class Application(Value):
    """An operator applied to an ordered (possibly empty) argument list.

    The operator is usually a :class:`Symbol` but may be any expression.
    """

    __slots__ = ("operator", "arguments")

    def __init__(self, operator: OMExpression, arguments: tuple[OMExpression, ...] = ()):
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "arguments", tuple(arguments))

    def __eq__(self, other: object) -> bool:
        """Structural equality, as ``Value`` defines it, walked with a stack:
        nested tuples compare with more frames per level than the parser
        spends on one."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs: list = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not Application or b.__class__ is not Application:
                if a != b:
                    return False
            elif len(a.arguments) != len(b.arguments):
                return False
            else:
                pairs += ((a.operator, b.operator), *zip(a.arguments, b.arguments))
        return True

    __hash__ = Value.__hash__


def app(operator: OMExpression, *arguments: OMExpression) -> Application:
    """Convenience constructor: ``app(PLUS, x, y)``."""
    return Application(operator, arguments)


def canonical_form(expr: OMExpression) -> str:
    """Deterministic prefix rendering used as a structural identity key.

    Structurally equal trees map to identical strings; trees differing in
    argument order map to different strings. Injectivity assumes names avoid
    the delimiter characters ``.()$,``, which holds for every registered
    content dictionary and identifier-shaped variable name.
    """
    if isinstance(expr, Application):
        args = ", ".join(canonical_form(a) for a in expr.arguments)
        return f"{canonical_form(expr.operator)}({args})"
    if isinstance(expr, Symbol):
        return f"{expr.cd}.{expr.name}"
    if isinstance(expr, Variable):
        return f"${expr.name}"
    if isinstance(expr, IntLiteral):
        return expr.decimal()
    if isinstance(expr, FloatLiteral):
        return repr(expr.value)
    raise TypeError(f"not an expression node: {expr!r}")
