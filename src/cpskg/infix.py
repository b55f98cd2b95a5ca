"""Matlab-flavored infix front end: text to expression trees and back.

Grammar (see docs/infix-grammar.md): binary ``+ - * / ^`` with conventional
precedence (``^`` right-associative and strongest, then ``* /``, then
``+ -``), unary minus, one ``=`` at statement level, ``name(arg, ...)``
calls resolved through the symbol registry, ``cd.name(...)`` for explicit
content-dictionary symbols, parentheses, and decimal/integer literals.
There is no implicit multiplication.

``print_infix`` is the inverse direction; its output re-parses to a
structurally equal tree for every symbol-headed expression. Unary minus
directly over a numeric literal is normalized by the parser into a negative
literal, so the printer renders that pattern in call syntax instead.
"""

from __future__ import annotations

import math
import re

from .errors import CpskgError
from .om.registry import (
    DEFAULT_REGISTRY,
    DIVIDE,
    EQUALS,
    MINUS,
    PLUS,
    POWER,
    TIMES,
    UNARY_MINUS,
    SymbolRegistry,
)
from .om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable

__all__ = ["LexError", "ParseError", "UnknownFunctionError", "parse_infix", "print_infix"]

# binding strength of operators and of rendered forms, for parsing and
# for deciding parenthesization when printing
PREC_EQ = 1
PREC_ADD = 2
PREC_MUL = 3
PREC_UNARY = 4
PREC_POW = 5
_ATOM = 10


class LexError(CpskgError):
    """An input character that no token can start with."""


class ParseError(CpskgError):
    """A token sequence the grammar does not accept."""


class UnknownFunctionError(ParseError):
    """A function name with no registry entry (strict mode only)."""


class _Token:
    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # number | ident | op | end
        self.text = text
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^=(),.])
    """,
    re.VERBOSE,
)

# token text -> (symbol, precedence, associativity)
_BINARY = {
    "+": (PLUS, PREC_ADD, "left"),
    "-": (MINUS, PREC_ADD, "left"),
    "*": (TIMES, PREC_MUL, "left"),
    "/": (DIVIDE, PREC_MUL, "left"),
    "^": (POWER, PREC_POW, "right"),
}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"illegal character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(_Token(m.lastgroup or "", m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], registry: SymbolRegistry, strict: bool):
        self.tokens = tokens
        self.i = 0
        self.registry = registry
        self.strict = strict

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.advance()
        if tok.text != text:
            raise ParseError(f"expected {text!r} at position {tok.pos}, found {self._show(tok)}")

    @staticmethod
    def _show(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)

    def expression(self, min_prec: int) -> OMExpression:
        left = self.prefix()
        while True:
            tok = self.peek()
            entry = _BINARY.get(tok.text) if tok.kind == "op" else None
            if entry is None:
                return left
            symbol, prec, assoc = entry
            if prec < min_prec:
                return left
            self.advance()
            right = self.expression(prec + 1 if assoc == "left" else prec)
            left = Application(symbol, (left, right))

    def prefix(self) -> OMExpression:
        tok = self.advance()
        if tok.kind == "end":
            raise ParseError("unexpected end of input")
        if tok.text == "-":
            operand = self.expression(PREC_UNARY)
            if isinstance(operand, IntLiteral):
                return IntLiteral(-operand.value)
            if isinstance(operand, FloatLiteral):
                return FloatLiteral(-operand.value)
            return Application(UNARY_MINUS, (operand,))
        if tok.text == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        if tok.kind == "number":
            return self.number(tok)
        if tok.kind == "ident":
            return self.name(tok)
        raise ParseError(f"unexpected {self._show(tok)} at position {tok.pos}")

    @staticmethod
    def number(tok: _Token) -> OMExpression:
        if "." in tok.text or "e" in tok.text or "E" in tok.text:
            value = float(tok.text)
            # An overflowing decimal reads as inf, which no xsd:double
            # lexical form or infix text can carry; an underflow reads as 0.0.
            if not math.isfinite(value):
                raise ParseError(f"decimal literal at position {tok.pos} is out of double range")
            return FloatLiteral(value)
        try:
            return IntLiteral(int(tok.text))
        except ValueError:  # Python's limit on integer-string conversion
            raise ParseError(f"integer literal at position {tok.pos} is too long to convert: {len(tok.text)} digits") from None

    def name(self, tok: _Token) -> OMExpression:
        if self.peek().text == ".":
            self.advance()
            part = self.advance()
            if part.kind != "ident":
                raise ParseError(f"expected symbol name after '.' at position {part.pos}")
            symbol = Symbol(tok.text, part.text)
            if self.peek().text == "(":
                self.advance()
                return Application(symbol, tuple(self.arguments()))
            return symbol
        if self.peek().text == "(":
            self.advance()
            symbol = self.registry.function_symbol(tok.text)
            if symbol is None:
                if self.strict:
                    raise UnknownFunctionError(f"unknown function {tok.text!r}")
                symbol = Symbol("user1", tok.text)
            return Application(symbol, tuple(self.arguments()))
        return Variable(tok.text)

    def arguments(self) -> list[OMExpression]:
        if self.peek().text == ")":
            self.advance()
            return []
        args = [self.expression(0)]
        while self.peek().text == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        return args


def parse_infix(text: str, *, registry: SymbolRegistry = DEFAULT_REGISTRY, strict: bool = True) -> OMExpression:
    """Parse infix text into an expression tree.

    ``=`` may appear once, at statement level, and produces an application
    of ``relation1.eq``. Numbers without a decimal point or exponent become
    integer literals, all others doubles. With ``strict=False`` a function
    name the registry does not resolve becomes a ``user1`` symbol.
    """
    if not text.strip():
        raise ParseError("empty input")
    parser = _Parser(_lex(text), registry, strict)
    expr = parser.expression(0)
    if parser.peek().text == "=":
        parser.advance()
        rhs = parser.expression(0)
        expr = Application(EQUALS, (expr, rhs))
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {_Parser._show(tok)} at position {tok.pos}")
    return expr


# --- printing ---------------------------------------------------------------

_TIGHT = {"*", "/", "^"}


def _is_numeric_literal(expr: OMExpression) -> bool:
    return isinstance(expr, (IntLiteral, FloatLiteral))


def _render(expr: OMExpression, min_prec: int, registry: SymbolRegistry) -> str:
    """Render ``expr``, in parentheses when its form binds less tightly than
    ``min_prec``. A nesting level costs one frame (argument lists are built in
    a loop, not a comprehension), so every tree parse_infix builds prints."""
    prec = _ATOM
    head = None  # set for call syntax: head(arguments)
    if isinstance(expr, Variable):
        text = expr.name
    elif isinstance(expr, IntLiteral):
        text = expr.decimal()
        if expr.value < 0:
            prec = PREC_UNARY
    elif isinstance(expr, FloatLiteral):
        text = repr(expr.value)
        if text.startswith("-"):
            prec = PREC_UNARY
    elif isinstance(expr, Symbol):
        text = f"{expr.cd}.{expr.name}"
    elif not isinstance(expr, Application):
        raise TypeError(f"not an expression node: {expr!r}")
    elif not isinstance(expr.operator, Symbol):
        # non-symbol operator: readable but outside the grammar
        head = _render(expr.operator, _ATOM, registry)
    else:
        op, args = expr.operator, expr.arguments
        token = registry.token(op)
        entry = _BINARY.get(token or "")
        if op == UNARY_MINUS and len(args) == 1:
            if _is_numeric_literal(args[0]):
                # "-3" would re-parse as a negative literal, not an application
                head = f"{op.cd}.{op.name}"
            else:
                text, prec = f"-{_render(args[0], PREC_UNARY, registry)}", PREC_UNARY
        elif entry is not None and entry[0] == op and len(args) == 2:
            _, prec, assoc = entry
            left = _render(args[0], prec if assoc == "left" else prec + 1, registry)
            right = _render(args[1], prec + 1 if assoc == "left" else prec, registry)
            text = f"{left}{token if token in _TIGHT else f' {token} '}{right}"
        elif token and registry.function_symbol(token) == op:
            head = token
        else:
            head = f"{op.cd}.{op.name}"
    if head is not None:
        parts = []
        for arg in expr.arguments:
            parts.append(_render(arg, 0, registry))
        text = f"{head}({', '.join(parts)})"
    return f"({text})" if prec < min_prec else text


def print_infix(expr: OMExpression, *, registry: SymbolRegistry = DEFAULT_REGISTRY) -> str:
    """Render a tree as one line of infix text with minimal parenthesization.

    Symbols without an infix spelling fall back to ``cd.name(args)`` call
    syntax, which the parser also accepts, so any symbol-headed tree
    round-trips through :func:`parse_infix`.
    """
    if (
        isinstance(expr, Application)
        and isinstance(expr.operator, Symbol)
        and expr.operator == EQUALS
        and len(expr.arguments) == 2
    ):
        lhs = _render(expr.arguments[0], PREC_EQ, registry)
        rhs = _render(expr.arguments[1], PREC_EQ, registry)
        return f"{lhs} = {rhs}"
    return _render(expr, 0, registry)
