"""Content-dictionary symbol registry.

Maps each known ``(cd, name)`` pair to its infix spelling (an operator
character or a function-call name), or to ``None`` when the symbol has no
infix spelling. Its readers use it for membership, rule V7's ``knows_cd``,
the parser's ``function_symbol`` and the printer's ``token``. Which symbols
evaluate, and with how many arguments, is recorded by the evaluator alone;
operator precedence by the infix module alone. The registry is immutable;
``extended`` returns a widened copy. Two registries are equal when they
hold the same entries, and ``repr`` shows the entries in sorted order.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from .tree import Symbol

__all__ = [
    "DEFAULT_REGISTRY",
    "DIFF",
    "DIVIDE",
    "EQUALS",
    "INTEGRAL",
    "MINUS",
    "PARTIALDIFF",
    "PLUS",
    "POWER",
    "SymbolRegistry",
    "TIMES",
    "UNARY_MINUS",
]

PLUS = Symbol("arith1", "plus")
MINUS = Symbol("arith1", "minus")
TIMES = Symbol("arith1", "times")
DIVIDE = Symbol("arith1", "divide")
POWER = Symbol("arith1", "power")
UNARY_MINUS = Symbol("arith1", "unary_minus")
EQUALS = Symbol("relation1", "eq")
DIFF = Symbol("weylalgebra1", "diff")
PARTIALDIFF = Symbol("weylalgebra1", "partialdiff")
INTEGRAL = Symbol("calculus1", "int")


class SymbolRegistry:
    """Immutable lookup table from ``(cd, name)`` to its infix token or ``None``."""

    def __init__(self, entries: Mapping[tuple[str, str], Optional[str]]):
        self._tokens = dict(entries)
        self._functions: dict[str, Symbol] = {}
        for (cd, name), token in sorted(self._tokens.items()):
            if token and (token[0].isalpha() or token[0] == "_"):
                self._functions.setdefault(token, Symbol(cd, name))

    def token(self, symbol: Symbol) -> Optional[str]:
        """The symbol's infix spelling, or ``None`` if it has none or is unknown."""
        return self._tokens.get((symbol.cd, symbol.name))

    def knows_cd(self, cd: str) -> bool:
        return any(entry_cd == cd for entry_cd, _ in self._tokens)

    def function_symbol(self, token: str) -> Optional[Symbol]:
        """Resolve a function-call spelling (``sin``, ``diff``, ...) to its symbol."""
        return self._functions.get(token)

    def extended(self, extra: Mapping[tuple[str, str], Optional[str]]) -> "SymbolRegistry":
        merged = dict(self._tokens)
        merged.update(extra)
        return SymbolRegistry(merged)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._tokens

    def __iter__(self) -> Iterator[tuple[tuple[str, str], Optional[str]]]:
        return iter(sorted(self._tokens.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolRegistry):
            return NotImplemented
        return other._tokens == self._tokens

    def __hash__(self) -> int:
        return hash(frozenset(self._tokens.items()))

    def __repr__(self) -> str:
        return f"SymbolRegistry({dict(self)!r})"


DEFAULT_REGISTRY = SymbolRegistry(
    {
        ("arith1", "plus"): "+",
        ("arith1", "minus"): "-",
        ("arith1", "times"): "*",
        ("arith1", "divide"): "/",
        ("arith1", "power"): "^",
        ("arith1", "unary_minus"): "-",
        ("relation1", "eq"): "=",
        ("weylalgebra1", "diff"): "diff",
        ("weylalgebra1", "partialdiff"): "partialdiff",
        ("calculus1", "int"): "int",
        ("transc1", "sin"): "sin",
        ("transc1", "cos"): "cos",
        ("transc1", "tan"): "tan",
        ("transc1", "exp"): "exp",
        ("transc1", "ln"): "ln",
        ("stats1", "mean"): None,
        ("stats1", "sdev"): None,
        ("stats1", "variance"): None,
        ("stats1", "median"): None,
        ("stats1", "mode"): None,
        ("stats1", "moment"): None,
    }
)
