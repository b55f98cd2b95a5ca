"""Hypothesis strategies for expression trees, and a walk over them that
test oracles use."""

from __future__ import annotations

from typing import Iterator

import hypothesis.strategies as st

from cpskg.om.registry import DEFAULT_REGISTRY
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable

SYMBOLS = [Symbol(cd, name) for (cd, name), _ in DEFAULT_REGISTRY]

variable_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)

variables = st.builds(Variable, variable_names)
int_literals = st.builds(IntLiteral, st.integers(min_value=-(10**12), max_value=10**12))
float_literals = st.builds(FloatLiteral, st.floats(allow_nan=False, allow_infinity=False, width=64))
symbols = st.sampled_from(SYMBOLS)

leaves = st.one_of(variables, int_literals, float_literals)


def trees(max_leaves: int = 20) -> st.SearchStrategy:
    """Symbol-headed trees: printable as infix and mappable to RDF."""
    return st.recursive(
        leaves,
        lambda children: st.builds(
            Application,
            operator=symbols,
            arguments=st.lists(children, min_size=0, max_size=3).map(tuple),
        ),
        max_leaves=max_leaves,
    )


def trees_any_operator(max_leaves: int = 20) -> st.SearchStrategy:
    """Trees whose operator position may itself be any expression."""
    return st.recursive(
        st.one_of(leaves, symbols),
        lambda children: st.builds(
            Application,
            operator=st.one_of(symbols, children),
            arguments=st.lists(children, min_size=0, max_size=3).map(tuple),
        ),
        max_leaves=max_leaves,
    )


def walk(expr: OMExpression) -> Iterator[OMExpression]:
    """Every node of ``expr`` in pre-order (operator before arguments)."""
    yield expr
    if isinstance(expr, Application):
        yield from walk(expr.operator)
        for arg in expr.arguments:
            yield from walk(arg)
