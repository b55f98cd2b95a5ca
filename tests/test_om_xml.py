from __future__ import annotations

import pytest
from hypothesis import given

from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable, app
from cpskg.om.xmlio import OmStructureError, XmlSyntaxError, parse_openmath_xml, serialize_openmath_xml
from strategies import trees_any_operator, walk

PLUS = Symbol("arith1", "plus")


def test_parse_single_variable():
    assert parse_openmath_xml('<OMOBJ><OMV name="x"/></OMOBJ>') == Variable("x")


def test_parse_minimal_application():
    xml = '<OMOBJ><OMA><OMS cd="arith1" name="plus"/><OMI>1</OMI><OMI>2</OMI></OMA></OMOBJ>'
    assert parse_openmath_xml(xml) == app(PLUS, IntLiteral(1), IntLiteral(2))


def test_parse_accepts_namespaced_document():
    xml = '<OMOBJ xmlns="http://www.openmath.org/OpenMath"><OMV name="x"/></OMOBJ>'
    assert parse_openmath_xml(xml) == Variable("x")


def test_parse_is_whitespace_insensitive():
    compact = '<OMOBJ><OMA><OMS cd="arith1" name="plus"/><OMV name="x"/></OMA></OMOBJ>'
    spaced = """<OMOBJ>
        <OMA>
            <OMS cd="arith1" name="plus"/>
            <OMV name="x"/>
        </OMA>
    </OMOBJ>"""
    assert parse_openmath_xml(compact) == parse_openmath_xml(spaced)


def test_empty_oma_is_an_error():
    with pytest.raises(OmStructureError):
        parse_openmath_xml("<OMOBJ><OMA></OMA></OMOBJ>")


@pytest.mark.parametrize(
    "xml",
    [
        "<OMOBJ><OMV/></OMOBJ>",  # OMV without name
        '<OMOBJ><OMS name="plus"/></OMOBJ>',  # OMS without cd
        '<OMOBJ><OMS cd="arith1"/></OMOBJ>',  # OMS without name
        "<OMOBJ><OMI>abc</OMI></OMOBJ>",  # non-integer OMI
        "<OMOBJ><OMF/></OMOBJ>",  # OMF without value
        "<OMOBJ></OMOBJ>",  # no object
        '<OMOBJ><OMV name="x"/><OMV name="y"/></OMOBJ>',  # two objects
        '<NOTOM><OMV name="x"/></NOTOM>',  # wrong root
    ],
)
def test_structure_errors(xml):
    with pytest.raises(OmStructureError):
        parse_openmath_xml(xml)


def test_malformed_xml_is_a_syntax_error():
    with pytest.raises(XmlSyntaxError):
        parse_openmath_xml("<OMOBJ><OMV name=")


def test_ombind_rejected_in_strict_mode():
    xml = '<OMOBJ><OMBIND><OMS cd="fns1" name="lambda"/></OMBIND></OMOBJ>'
    with pytest.raises(OmStructureError):
        parse_openmath_xml(xml, strict=True)


def test_unsupported_elements_skipped_in_lenient_mode():
    xml = '<OMOBJ><OMA><OMS cd="arith1" name="plus"/><OMSTR>note</OMSTR><OMV name="x"/></OMA></OMOBJ>'
    with pytest.warns(UserWarning):
        expr = parse_openmath_xml(xml, strict=False)
    assert expr == app(PLUS, Variable("x"))


def test_omi_arbitrary_precision():
    value = 10**40 + 7
    assert parse_openmath_xml(f"<OMOBJ><OMI>{value}</OMI></OMOBJ>") == IntLiteral(value)
    assert parse_openmath_xml("<OMOBJ><OMI>-5</OMI></OMOBJ>") == IntLiteral(-5)


def test_omi_too_long_to_convert_names_its_length():
    with pytest.raises(OmStructureError, match="OMI value is too long to convert: 5000 digits"):
        parse_openmath_xml(f"<OMOBJ><OMI>-{'9' * 5000}</OMI></OMOBJ>")


def test_omf_dec_emission_is_shortest_round_trip():
    assert 'dec="0.15"' in serialize_openmath_xml(FloatLiteral(0.15))


def test_omf_hex_input_accepted():
    import struct

    hexval = struct.pack(">d", 0.15).hex()
    assert parse_openmath_xml(f'<OMOBJ><OMF hex="{hexval}"/></OMOBJ>') == FloatLiteral(0.15)


@pytest.mark.parametrize(
    "attribute",
    [
        'dec="INF"',
        'dec="-INF"',
        'dec="NaN"',
        'dec=" inf "',
        'dec="1e400"',  # overflows to INF
        'hex="7FF0000000000000"',  # +INF
        'hex="fff0000000000000"',  # -INF
        'hex="7FF8000000000000"',  # NaN
    ],
)
def test_omf_non_finite_value_rejected(attribute):
    """No xsd:double lexical form or infix text here carries INF or NaN."""
    with pytest.raises(OmStructureError, match="not a finite double"):
        parse_openmath_xml(f"<OMOBJ><OMF {attribute}/></OMOBJ>")


def test_serialize_variable_canonical_bytes():
    expected = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<OMOBJ xmlns="http://www.openmath.org/OpenMath">\n'
        '  <OMV name="x"/>\n'
        "</OMOBJ>\n"
    )
    assert serialize_openmath_xml(Variable("x")) == expected


def test_attribute_order_cd_before_name():
    line = serialize_openmath_xml(PLUS).splitlines()[2]
    assert line.index('cd="') < line.index('name="')


def test_markup_characters_in_attributes_are_escaped_and_round_trip():
    tree = app(Symbol('a&b<c>"d', "n&1"), Variable('v<&>"w'))
    lines = serialize_openmath_xml(tree).splitlines()
    assert lines[3:5] == [
        '    <OMS cd="a&amp;b&lt;c&gt;&quot;d" name="n&amp;1"/>',
        '    <OMV name="v&lt;&amp;&gt;&quot;w"/>',
    ]
    assert parse_openmath_xml(serialize_openmath_xml(tree)) == tree


@given(trees_any_operator())
def test_round_trip(tree):
    assert parse_openmath_xml(serialize_openmath_xml(tree)) == tree


def test_eq1_fixture_shape(eq1_tree):
    assert isinstance(eq1_tree, Application)
    assert eq1_tree.operator == Symbol("relation1", "eq")
    lhs, rhs = eq1_tree.arguments
    assert lhs.operator == Symbol("weylalgebra1", "partialdiff")
    assert lhs.arguments == (Variable("p1"), Variable("t"))
    assert rhs.operator == Symbol("arith1", "divide")
    assert sum(1 for _ in walk(eq1_tree)) > 20


def test_eq1_fixture_reserializes_equal(eq1_tree):
    assert parse_openmath_xml(serialize_openmath_xml(eq1_tree)) == eq1_tree
