from __future__ import annotations

import sys

import pytest
from hypothesis import given

from cpskg.infix import LexError, ParseError, UnknownFunctionError, parse_infix, print_infix
from cpskg.om.registry import DIVIDE, EQUALS, MINUS, PARTIALDIFF, PLUS, POWER, TIMES, UNARY_MINUS
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable, app
from strategies import trees

X, Y, A, B, C = Variable("x"), Variable("y"), Variable("a"), Variable("b"), Variable("c")


def test_precedence_mul_over_add():
    assert parse_infix("2*x + 1") == app(PLUS, app(TIMES, IntLiteral(2), X), IntLiteral(1))


def test_precedence_add_mul():
    assert parse_infix("a + b*c") == app(PLUS, A, app(TIMES, B, C))


def test_power_right_associative():
    assert parse_infix("a^b^c") == app(POWER, A, app(POWER, B, C))


def test_subtraction_left_associative():
    assert parse_infix("a - b - c") == app(MINUS, app(MINUS, A, B), C)


def test_parentheses_override_precedence():
    assert parse_infix("(a + b)*c") == app(TIMES, app(PLUS, A, B), C)


def test_equation_statement():
    assert parse_infix("y = 2*x") == app(EQUALS, Y, app(TIMES, IntLiteral(2), X))


def test_two_equals_signs_rejected():
    with pytest.raises(ParseError):
        parse_infix("a = b = c")


def test_diff_call():
    expr = parse_infix("diff(x^2, x)")
    assert expr == app(Symbol("weylalgebra1", "diff"), app(POWER, X, IntLiteral(2)), X)


def test_higher_order_partialdiff_by_repetition():
    expr = parse_infix("partialdiff(x^2*y, x, x)")
    assert expr.operator == PARTIALDIFF
    assert expr.arguments[1:] == (X, X)


def test_eq1_rhs_tree():
    text = "beta*(Q1 - Qle1 - Qli - (xR_dot - xC_dot)*A)/(V0 + xR*A)"
    numerator = app(
        MINUS,
        app(MINUS, app(MINUS, Variable("Q1"), Variable("Qle1")), Variable("Qli")),
        app(TIMES, app(MINUS, Variable("xR_dot"), Variable("xC_dot")), Variable("A")),
    )
    expected = app(
        DIVIDE,
        app(TIMES, Variable("beta"), numerator),
        app(PLUS, Variable("V0"), app(TIMES, Variable("xR"), Variable("A"))),
    )
    assert parse_infix(text) == expected


def test_unary_minus_folds_literals():
    assert parse_infix("-3") == IntLiteral(-3)
    assert parse_infix("-2.5") == FloatLiteral(-2.5)
    assert parse_infix("2*-3") == app(TIMES, IntLiteral(2), IntLiteral(-3))


def test_unary_minus_over_variable():
    assert parse_infix("-x") == app(UNARY_MINUS, X)
    assert parse_infix("-x^2") == app(UNARY_MINUS, app(POWER, X, IntLiteral(2)))
    assert parse_infix("-x*y") == app(TIMES, app(UNARY_MINUS, X), Y)


def test_number_classification():
    assert parse_infix("3") == IntLiteral(3)
    assert parse_infix("3.0") == FloatLiteral(3.0)
    assert parse_infix("1e-3") == FloatLiteral(1e-3)
    assert parse_infix("1e-400") == FloatLiteral(0.0)  # underflow reads as zero


def test_integer_literal_too_long_names_its_length():
    with pytest.raises(ParseError, match="integer literal at position 4 is too long to convert: 5000 digits"):
        parse_infix("y = " + "9" * 5000 + "*x")


def test_qualified_symbol_call():
    assert parse_infix("stats1.mean(x)") == app(Symbol("stats1", "mean"), X)


def test_empty_call():
    assert parse_infix("sin()") == Application(Symbol("transc1", "sin"), ())


# "1e400" overflows to inf, which has no xsd:double lexical form and prints as a variable
@pytest.mark.parametrize("text", ["1 +", "(a", "a)", "a b", "2x", "f(a,)", "", "  ", "* 2", "a = ", "y = 1e400*x", "-1e400"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_infix(text)


def test_lex_error():
    with pytest.raises(LexError):
        parse_infix("a @ b")


def test_unknown_function_strict_vs_lenient():
    with pytest.raises(UnknownFunctionError):
        parse_infix("foo(x)")
    assert parse_infix("foo(x)", strict=False) == app(Symbol("user1", "foo"), X)


def test_print_simple():
    assert print_infix(app(PLUS, app(TIMES, IntLiteral(2), X), IntLiteral(1))) == "2*x + 1"


def test_print_fallback_call_syntax():
    assert print_infix(app(Symbol("stats1", "mean"), X)) == "stats1.mean(x)"


def test_print_equation():
    assert print_infix(app(EQUALS, Y, app(TIMES, IntLiteral(2), X))) == "y = 2*x"


def test_print_nested_equality_uses_call_syntax():
    inner = app(EQUALS, X, Y)
    printed = print_infix(app(Symbol("transc1", "sin"), inner))
    assert printed == "sin(relation1.eq(x, y))"
    assert parse_infix(printed) == app(Symbol("transc1", "sin"), inner)


def test_print_unary_minus_over_literal_round_trips():
    expr = app(UNARY_MINUS, IntLiteral(3))
    printed = print_infix(expr)
    assert parse_infix(printed) == expr


def test_print_minimal_parens_kept_structural():
    assert print_infix(app(TIMES, app(PLUS, A, B), C)) == "(a + b)*c"
    assert print_infix(app(POWER, app(POWER, A, B), C)) == "(a^b)^c"
    assert print_infix(app(MINUS, A, app(MINUS, B, C))) == "a - (b - c)"


def test_print_eq1_matches_entry_text(eq1_tree):
    assert print_infix(eq1_tree) == (
        "partialdiff(p1, t) = beta*(Q1 - Qle1 - Qli - (xR_dot - xC_dot)*A)/(V0 + xR*A)"
    )


@given(trees())
def test_round_trip(tree):
    assert parse_infix(print_infix(tree)) == tree



def test_print_reaches_every_depth_the_parser_accepts():
    """print_infix spends fewer frames per nesting level than parse_infix,
    so from the same frame it prints the deepest call chain the parser builds."""

    def nest(n: int) -> str:
        return "sin(" * n + "x" + ")" * n

    low, high = 1, sys.getrecursionlimit()
    while low < high:  # the largest depth parse_infix accepts from this frame
        mid = (low + high + 1) // 2
        try:
            parse_infix(nest(mid))
        except RecursionError:
            high = mid - 1
        else:
            low = mid
    tree = parse_infix(nest(low))
    assert parse_infix(print_infix(tree)) == tree


def test_trees_compare_at_every_depth_the_parser_accepts():
    """Application.__eq__ walks with a stack, so two trees the parser built
    from the same frame compare, and agree with their hashes, at any depth."""

    def nest(n: int, leaf: str = "x") -> str:
        return "(x + " * n + leaf + ")" * n

    low, high = 1, sys.getrecursionlimit()
    while low < high:  # the largest depth parse_infix accepts from this frame
        mid = (low + high + 1) // 2
        try:
            parse_infix(nest(mid))
        except RecursionError:
            high = mid - 1
        else:
            low = mid
    tree = parse_infix(nest(low))
    round_tripped = parse_infix(print_infix(tree))
    assert round_tripped is not tree
    assert round_tripped == tree and hash(round_tripped) == hash(tree)
    other_leaf = parse_infix(nest(low, "y"))
    assert other_leaf != tree
    assert not other_leaf == tree
