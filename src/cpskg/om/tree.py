"""Immutable expression trees for mathematical objects.

The tree mirrors the object layer of the OpenMath XML encoding: function
applications, content-dictionary symbols, variables, and integer/double
literals. Trees are value objects; they hash, compare structurally, and can
be shared freely between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from ..errors import CpskgError

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


@dataclass(frozen=True)
class Symbol:
    """A named symbol from a content dictionary, e.g. ``arith1`` / ``plus``."""

    cd: str
    name: str

    def __post_init__(self) -> None:
        if not self.cd or not self.name:
            raise ValueError("symbol cd and name must be non-empty")


@dataclass(frozen=True)
class Variable:
    """A free variable, identified by its (whitespace-free) name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"variable name must be non-empty and free of whitespace: {self.name!r}")


class IntLiteralTooLongError(CpskgError):
    """An integer literal with more digits than Python converts to text."""


@dataclass(frozen=True)
class IntLiteral:
    """An arbitrary-precision integer literal."""

    value: int

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


@dataclass(frozen=True)
class FloatLiteral:
    """A finite IEEE-754 double literal."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise NonFiniteFloatError(f"float literal is not finite: {self.value!r}")


@dataclass(frozen=True)
class Application:
    """An operator applied to an ordered (possibly empty) argument list.

    The operator is usually a :class:`Symbol` but may be any expression.
    """

    operator: OMExpression
    arguments: tuple[OMExpression, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "arguments", tuple(self.arguments))


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
