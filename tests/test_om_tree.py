from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given

from cpskg.errors import CpskgError
from cpskg.infix import print_infix
from cpskg.mapper import om_to_rdf
from cpskg.om.tree import (
    Application,
    FloatLiteral,
    IntLiteral,
    NonFiniteFloatError,
    Symbol,
    Variable,
    app,
    canonical_form,
)
from cpskg.om.xmlio import serialize_openmath_xml
from strategies import trees


def test_canonical_form_application():
    expr = app(Symbol("arith1", "plus"), Variable("x"), IntLiteral(1))
    assert canonical_form(expr) == "arith1.plus($x, 1)"


def test_canonical_form_variable():
    assert canonical_form(Variable("Q1")) == "$Q1"


def test_canonical_form_distinguishes_argument_order():
    a = app(Symbol("arith1", "minus"), Variable("x"), Variable("y"))
    b = app(Symbol("arith1", "minus"), Variable("y"), Variable("x"))
    assert canonical_form(a) != canonical_form(b)


def test_canonical_form_distinguishes_int_from_float():
    assert canonical_form(IntLiteral(1)) != canonical_form(FloatLiteral(1.0))


@pytest.mark.parametrize("bad", ["", "a b", "x\t", "x\n"])
def test_variable_name_validation(bad):
    with pytest.raises(ValueError):
        Variable(bad)


@pytest.mark.parametrize("cd,name", [("", "plus"), ("arith1", "")])
def test_symbol_validation(cd, name):
    with pytest.raises(ValueError):
        Symbol(cd, name)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_float_literal_must_be_finite(value):
    """No writer can spell INF or NaN so that its reader takes it back."""
    with pytest.raises(NonFiniteFloatError, match="^float literal is not finite: ") as excinfo:
        FloatLiteral(value)
    assert isinstance(excinfo.value, CpskgError) and isinstance(excinfo.value, ValueError)


def test_arguments_coerced_to_tuple():
    expr = Application(Symbol("arith1", "plus"), [Variable("x"), Variable("y")])
    assert isinstance(expr.arguments, tuple)


@given(trees())
def test_structural_equality_matches_canonical_form(tree):
    assert canonical_form(tree) == canonical_form(tree)
    if isinstance(tree, Application) and len(tree.arguments) >= 2:
        reversed_tree = Application(tree.operator, tuple(reversed(tree.arguments)))
        if reversed_tree != tree:
            assert canonical_form(reversed_tree) != canonical_form(tree)


@pytest.mark.parametrize("value", [10**5000, -(10**5000 - 1)], ids=["positive", "negative"])
def test_over_long_int_literal_fails_in_every_writer(value):
    """An IntLiteral built through the API may hold more digits than Python
    turns into text; every writer reports it as a CpskgError naming the count."""
    digits = 5001 if value > 0 else 5000
    tree = app(Symbol("arith1", "times"), IntLiteral(value), Variable("x"))
    writers = [print_infix, lambda t: om_to_rdf(t, "http://example.org/m", "e"), serialize_openmath_xml, canonical_form]
    for write in writers:
        with pytest.raises(CpskgError, match=f"integer literal is too long to convert: {digits} digits"):
            write(tree)


def test_int_literal_at_the_digit_limit_converts():
    value = -(10 ** sys.get_int_max_str_digits() - 1)
    assert IntLiteral(value).decimal() == str(value)
