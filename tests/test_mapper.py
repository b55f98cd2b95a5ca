from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpskg.mapper import (
    MalformedListError,
    MalformedNodeError,
    RootNotInGraphError,
    UnknownSymbolIriError,
    _instantiator,
    om_to_rdf,
    parse_symbol_iri,
    rdf_to_om,
    symbol_iri,
)
from cpskg.infix import parse_infix
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable, app
from cpskg.rdf import RDF, XSD, Graph, InvalidIriError, Iri, Literal, Triple, to_ntriples
from cpskg.vocab import DEFAULT_VOCAB
from conftest import edited
from strategies import float_literals, int_literals, symbols, trees, trees_any_operator, walk

BASE = "http://example.org/m"
PLUS = Symbol("arith1", "plus")
OM = DEFAULT_VOCAB.om
X, Y = Variable("x"), Variable("y")


def fragment_size(result) -> int:
    return len(result.graph) - 2  # minus the wrapper's two triples


def tree_stats(tree):
    """Independent count oracle: applications, total arguments, distinct
    variables, literal occurrences."""
    apps = args = lits = 0
    names = set()
    for node in walk(tree):
        if isinstance(node, Application):
            apps += 1
            args += len(node.arguments)
        elif isinstance(node, Variable):
            names.add(node.name)
        elif isinstance(node, (IntLiteral, FloatLiteral)):
            lits += 1
    return apps, args, len(names), lits


def test_variable_maps_to_two_triples():
    result = om_to_rdf(X, BASE, "e")
    assert fragment_size(result) == 2
    assert Triple(result.root, RDF.type, OM.Variable) in result.graph
    assert Triple(result.root, OM.name, Literal("x")) in result.graph


def test_two_distinct_variables_eleven_triples():
    assert fragment_size(om_to_rdf(app(PLUS, X, Y), BASE, "e")) == 11


def test_shared_variable_nine_triples():
    result = om_to_rdf(app(PLUS, X, X), BASE, "e")
    assert fragment_size(result) == 9
    assert list(result.variables) == ["x"]


def test_mapping_into_a_graph_adds_the_fragment_to_what_it_holds():
    g = om_to_rdf(app(PLUS, X, Y), BASE, "other").graph
    g.add(Iri(f"{BASE}/Op"), OM.name, Literal("x"))
    old = set(g)
    expr = app(PLUS, X, app(PLUS, IntLiteral(2), FloatLiteral(0.5)))
    fresh = om_to_rdf(expr, BASE, "e")
    into = om_to_rdf(expr, BASE, "e", graph=g)
    assert into.graph is g
    assert set(g) == old | set(fresh.graph)
    assert (into.object_node, into.root, into.variables) == (fresh.object_node, fresh.root, fresh.variables)
    assert rdf_to_om(g, into.object_node) == expr


@pytest.mark.parametrize(
    "expr, message",
    [
        (app(PLUS, X, Y), "IRI must be absolute: 'rel/expr/e/n0'"),
        # a lone symbol mints no node, so the wrapper is the first IRI checked
        (PLUS, "IRI must be absolute: 'rel/expr/e'"),
    ],
)
def test_relative_instance_base_fails_at_its_first_iri_and_writes_nothing(expr, message):
    graph = Graph()
    with pytest.raises(InvalidIriError) as excinfo:
        om_to_rdf(expr, "rel", "e", graph=graph)
    assert str(excinfo.value) == message
    assert len(graph) == 0
    assert graph == Graph()


def test_symbol_is_pure_iri():
    result = om_to_rdf(PLUS, BASE, "e")
    assert result.root == Iri("http://www.openmath.org/cd/arith1#plus")
    assert fragment_size(result) == 0


def test_int_literal_fragment():
    result = om_to_rdf(IntLiteral(0), BASE, "e")
    assert fragment_size(result) == 2
    assert Triple(result.root, OM.value, Literal("0", Iri("http://www.w3.org/2001/XMLSchema#integer"))) in result.graph


def test_wrapper_shape():
    result = om_to_rdf(X, BASE, "eq7")
    assert result.object_node == Iri(f"{BASE}/expr/eq7")
    assert Triple(result.object_node, RDF.type, OM.Object) in result.graph
    assert Triple(result.object_node, OM.root, result.root) in result.graph


def test_skolem_names_follow_traversal_order():
    # an application as operator, an empty argument list, a repeated variable,
    # an int and a float literal, and a nested application: each application
    # takes its number first, then its operator, its arguments, its list cells
    diff_f = app(Symbol("calculus1", "diff"), Variable("f"))
    tree = app(diff_f, X, IntLiteral(-3), app(Symbol("arith1", "times"), FloatLiteral(0.25), X), app(Symbol("nums1", "pi")))
    assert to_ntriples(om_to_rdf(tree, BASE, "e").graph) == """\
<http://example.org/m/expr/e/n0> <http://example.org/cpskg/openmath#arguments> <http://example.org/m/expr/e/n11> .
<http://example.org/m/expr/e/n0> <http://example.org/cpskg/openmath#operator> <http://example.org/m/expr/e/n1> .
<http://example.org/m/expr/e/n0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Application> .
<http://example.org/m/expr/e/n10> <http://example.org/cpskg/openmath#arguments> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
<http://example.org/m/expr/e/n10> <http://example.org/cpskg/openmath#operator> <http://www.openmath.org/cd/nums1#pi> .
<http://example.org/m/expr/e/n10> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Application> .
<http://example.org/m/expr/e/n11> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n4> .
<http://example.org/m/expr/e/n11> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://example.org/m/expr/e/n12> .
<http://example.org/m/expr/e/n12> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n5> .
<http://example.org/m/expr/e/n12> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://example.org/m/expr/e/n13> .
<http://example.org/m/expr/e/n13> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n6> .
<http://example.org/m/expr/e/n13> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://example.org/m/expr/e/n14> .
<http://example.org/m/expr/e/n14> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n10> .
<http://example.org/m/expr/e/n14> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
<http://example.org/m/expr/e/n1> <http://example.org/cpskg/openmath#arguments> <http://example.org/m/expr/e/n3> .
<http://example.org/m/expr/e/n1> <http://example.org/cpskg/openmath#operator> <http://www.openmath.org/cd/calculus1#diff> .
<http://example.org/m/expr/e/n1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Application> .
<http://example.org/m/expr/e/n2> <http://example.org/cpskg/openmath#name> "f" .
<http://example.org/m/expr/e/n2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Variable> .
<http://example.org/m/expr/e/n3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n2> .
<http://example.org/m/expr/e/n3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
<http://example.org/m/expr/e/n4> <http://example.org/cpskg/openmath#name> "x" .
<http://example.org/m/expr/e/n4> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Variable> .
<http://example.org/m/expr/e/n5> <http://example.org/cpskg/openmath#value> "-3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/m/expr/e/n5> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Literal> .
<http://example.org/m/expr/e/n6> <http://example.org/cpskg/openmath#arguments> <http://example.org/m/expr/e/n8> .
<http://example.org/m/expr/e/n6> <http://example.org/cpskg/openmath#operator> <http://www.openmath.org/cd/arith1#times> .
<http://example.org/m/expr/e/n6> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Application> .
<http://example.org/m/expr/e/n7> <http://example.org/cpskg/openmath#value> "0.25"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://example.org/m/expr/e/n7> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Literal> .
<http://example.org/m/expr/e/n8> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n7> .
<http://example.org/m/expr/e/n8> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://example.org/m/expr/e/n9> .
<http://example.org/m/expr/e/n9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/m/expr/e/n4> .
<http://example.org/m/expr/e/n9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
<http://example.org/m/expr/e> <http://example.org/cpskg/openmath#root> <http://example.org/m/expr/e/n0> .
<http://example.org/m/expr/e> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/cpskg/openmath#Object> .
"""


def test_mapping_is_deterministic():
    tree = app(PLUS, app(Symbol("transc1", "sin"), X), IntLiteral(3))
    a, b = om_to_rdf(tree, BASE, "e"), om_to_rdf(tree, BASE, "e")
    assert a.graph == b.graph
    assert a.root == b.root


def test_argument_list_cell_counts():
    # symbol arguments add no triples, so the fragment past the application's
    # own three triples is its argument list
    pi, e, i = (Symbol("nums1", name) for name in ("pi", "e", "i"))

    empty = om_to_rdf(app(PLUS), BASE, "e")
    assert empty.graph.objects(empty.root, OM.arguments) == [RDF.nil]
    assert fragment_size(empty) == 3
    assert empty.graph.triples(None, RDF.first) == []

    one = om_to_rdf(app(PLUS, pi), BASE, "e")
    assert fragment_size(one) == 3 + 2
    (head,) = one.graph.objects(one.root, OM.arguments)
    assert one.graph.objects(head, RDF.rest) == [RDF.nil]

    assert fragment_size(om_to_rdf(app(PLUS, pi, e, i), BASE, "e")) == 3 + 6


def test_argument_order_is_recoverable():
    forward = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    assert rdf_to_om(forward.graph, forward.object_node) == app(PLUS, X, Y)

    # swap the two rdf:first links to reverse the argument list
    firsts = forward.graph.triples(None, RDF.first)
    assert len(firsts) == 2
    swapped = [Triple(firsts[0].subject, RDF.first, firsts[1].object), Triple(firsts[1].subject, RDF.first, firsts[0].object)]
    backward = edited(forward.graph, drop=firsts, add=swapped)
    assert rdf_to_om(backward, forward.object_node) == app(PLUS, Y, X)


def test_cyclic_list_detected():
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    rests = result.graph.triples(None, RDF.rest, RDF.nil)
    assert rests
    tail = rests[0]
    g = edited(result.graph, drop=[tail], add=[Triple(tail.subject, RDF.rest, tail.subject)])
    with pytest.raises(MalformedListError):
        rdf_to_om(g, result.object_node)


def _argument_cells(graph, application):
    """The cells of an application's argument list, in order."""
    cells = [graph.objects(application, OM.arguments)[0]]
    while (rest := graph.objects(cells[-1], RDF.rest)[0]) != RDF.nil:
        cells.append(rest)
    return cells


def _set_item(graph, cell, node):
    """A copy of ``graph`` whose list ``cell`` holds ``node``."""
    return edited(graph, drop=graph.triples(cell, RDF.first), add=[Triple(cell, RDF.first, node)])


def test_application_in_its_own_arguments_is_cyclic():
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    g = result.graph
    application = g.objects(result.object_node, OM.root)[0]
    g = _set_item(g, _argument_cells(g, application)[1], application)
    with pytest.raises(MalformedNodeError, match=f"^application structure is cyclic at {application}$"):
        rdf_to_om(g, result.object_node)


def test_root_that_is_no_subject_is_no_node_in_strict_mode():
    """A mistyped root outside the CD base is reported as missing from the
    graph; lenient mode still reads a foreign IRI as a symbol, and a root
    under the CD base is still a symbol."""
    graph = om_to_rdf(app(PLUS, X, Y), BASE, "e").graph
    foreign = Iri("http://elsewhere.example/cd/arith1#plus")
    with pytest.raises(MalformedNodeError, match=f"^root is not a node of the graph: {foreign}$") as excinfo:
        rdf_to_om(graph, foreign)
    assert isinstance(excinfo.value, UnknownSymbolIriError)
    assert rdf_to_om(graph, foreign, strict=False) == PLUS
    assert rdf_to_om(graph, symbol_iri(PLUS)) == PLUS


def test_root_that_is_only_an_object_is_no_node():
    """A root is a node of the graph when it is the subject of a triple: one
    that is only ever an object is still reported as missing, with the same
    error and message, and one that is a subject is read as a symbol. A
    literal root, in the graph or not, cannot stand for an expression."""
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    g = result.graph
    foreign, link = Iri("http://elsewhere.example/thing"), Iri("http://elsewhere.example/link")
    g.add(result.object_node, link, foreign)
    with pytest.raises(RootNotInGraphError, match=f"^{re.escape(f'root is not a node of the graph: {foreign}')}$") as excinfo:
        rdf_to_om(g, foreign)
    assert isinstance(excinfo.value, MalformedNodeError) and isinstance(excinfo.value, UnknownSymbolIriError)
    g.add(foreign, link, Literal("x"))
    message = f"operator IRI is not under the CD base {DEFAULT_VOCAB.cd_base}: {foreign}"
    with pytest.raises(UnknownSymbolIriError, match=f"^{re.escape(message)}$") as excinfo:
        rdf_to_om(g, foreign)
    assert not isinstance(excinfo.value, RootNotInGraphError)
    for literal in (Literal("x"), Literal("y", lang="en")):
        with pytest.raises(MalformedNodeError, match=f"^{re.escape(f'a literal term cannot stand for an expression: {literal!r}')}$"):
            rdf_to_om(g, literal)


def test_wrapper_rooted_at_itself_is_cyclic():
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    wrapper = result.object_node
    g = edited(result.graph, drop=result.graph.triples(wrapper, OM.root), add=[Triple(wrapper, OM.root, wrapper)])
    with pytest.raises(MalformedNodeError, match=f"^om:root chain is cyclic at {wrapper}$"):
        rdf_to_om(g, wrapper)


def test_two_wrappers_rooted_at_each_other_are_cyclic():
    first, second = Iri(f"{BASE}/expr/a"), Iri(f"{BASE}/expr/b")
    g = Graph()
    for wrapper, root in ((first, second), (second, first)):
        g.add(wrapper, RDF.type, OM.Object)
        g.add(wrapper, OM.root, root)
    with pytest.raises(MalformedNodeError, match=f"^om:root chain is cyclic at {first}$"):
        rdf_to_om(g, first)


def test_wrapper_of_a_wrapper_reads_back():
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    g = result.graph
    outer = Iri(f"{BASE}/expr/outer")
    g.add(outer, RDF.type, OM.Object)
    g.add(outer, OM.root, result.object_node)
    assert rdf_to_om(g, outer) == app(PLUS, X, Y)


def test_shared_subexpression_reads_back_twice():
    inner = app(PLUS, X, Y)
    result = om_to_rdf(app(PLUS, inner, Y), BASE, "e")
    g = result.graph
    cells = _argument_cells(g, g.objects(result.object_node, OM.root)[0])
    g = _set_item(g, cells[1], g.objects(cells[0], RDF.first)[0])
    assert rdf_to_om(g, result.object_node) == app(PLUS, inner, inner)


def test_dangling_list_detected():
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    g = edited(result.graph, drop=result.graph.triples(None, RDF.rest, RDF.nil)[:1])
    with pytest.raises(MalformedListError):
        rdf_to_om(g, result.object_node)


def test_double_operator_detected():
    result = om_to_rdf(app(PLUS, X, Y), BASE, "e")
    g = result.graph
    g.add(result.root, OM.operator, symbol_iri(Symbol("arith1", "times")))
    with pytest.raises(MalformedNodeError):
        rdf_to_om(g, result.object_node)


def _literal_node(value: Literal) -> tuple[Graph, Iri]:
    node = Iri(f"{BASE}/expr/e/n0")
    g = Graph()
    g.add(node, RDF.type, OM.Literal)
    g.add(node, OM.value, value)
    return g, node


@pytest.mark.parametrize("lexical", ["inf", "-inf", "INF", "Infinity", "NaN", "nan", "1e400"])
def test_non_finite_double_value_rejected(lexical):
    g, node = _literal_node(Literal(lexical, XSD.double))
    with pytest.raises(MalformedNodeError, match="not finite"):
        rdf_to_om(g, node)


def test_finite_double_value_reads_back():
    g, node = _literal_node(Literal("-1.5e300", XSD.double))
    assert rdf_to_om(g, node) == FloatLiteral(-1.5e300)


def test_unknown_symbol_iri_strict_vs_lenient():
    g = Graph()
    foreign = Iri("http://elsewhere.example/voc#thing")
    with pytest.raises(UnknownSymbolIriError):
        rdf_to_om(g, foreign, strict=True)
    assert rdf_to_om(g, foreign, strict=False) == Symbol("voc", "thing")


def test_parse_symbol_iri_round_trip():
    sym = Symbol("transc1", "sin")
    assert parse_symbol_iri(symbol_iri(sym)) == sym


@pytest.mark.parametrize("cd_base", ["http://www.openmath.org/cd", "http://www.openmath.org/cd/", "urn:cd"])
def test_parse_symbol_iri_inverts_symbol_iri_for_any_base(cd_base):
    sym = Symbol("transc1", "sin")
    assert parse_symbol_iri(symbol_iri(sym, cd_base), cd_base) == sym


def test_wide_argument_list_maps_and_round_trips():
    tree = app(PLUS, *(IntLiteral(i) for i in range(5000)))
    result = om_to_rdf(tree, BASE, "e")
    assert fragment_size(result) == 3 + 2 * 5000 + 2 * 5000
    assert rdf_to_om(result.graph, result.object_node) == tree


def test_operator_position_may_be_any_expression():
    tree = Application(app(Symbol("stats1", "mean"), X), (Y,))
    result = om_to_rdf(tree, BASE, "e")
    assert rdf_to_om(result.graph, result.object_node) == tree


@given(trees_any_operator())
def test_round_trip_property(tree):
    result = om_to_rdf(tree, BASE, "e")
    assert rdf_to_om(result.graph, result.object_node) == tree
    assert rdf_to_om(result.graph, result.root) == tree


@given(trees_any_operator())
def test_triple_count_law(tree):
    apps, args, distinct_vars, lits = tree_stats(tree)
    result = om_to_rdf(tree, BASE, "e")
    assert fragment_size(result) == 3 * apps + 2 * args + 2 * distinct_vars + 2 * lits


@given(trees())
def test_written_graph_is_the_graph_add_builds(tree):
    """The mapper writes texts into the store; the graph it leaves equals
    one rebuilt through Graph.add from its triples, down to each leaf being
    a lone text or a set, and its result holds the graph's own terms."""
    result = om_to_rdf(tree, BASE, "e")
    graph = result.graph
    rebuilt = Graph()
    for triple in graph.triples():
        rebuilt.add(triple.subject, triple.predicate, triple.object)
    assert graph == rebuilt
    assert len(graph) == len(rebuilt)
    assert to_ntriples(graph) == to_ntriples(rebuilt)
    # each object reads back as the kind of term its text is
    assert all(isinstance(t.object, Literal) == t.object._nt.startswith('"') for t in rebuilt)
    assert result.object_node is graph.subjects(RDF.type, OM.Object)[0]
    assert result.root is graph.objects(result.object_node, OM.root)[0]
    for name, node in result.variables.items():
        assert graph.subjects(OM.name, Literal(name))[0] is node


def _prefilled() -> Graph:
    """A graph that already holds an equation under the id "b"."""
    return om_to_rdf(app(PLUS, Variable("z"), FloatLiteral(2.5)), BASE, "b").graph


@given(st.one_of(trees(), symbols, int_literals, float_literals, st.just(app(PLUS, X, app(PLUS, X, Y)))), st.sampled_from([Graph, _prefilled]))
def test_an_instantiated_fragment_is_what_om_to_rdf_maps_under_the_new_id(tree, start):
    fragment = om_to_rdf(tree, BASE, "a")
    expected = om_to_rdf(tree, BASE, "b", graph=start())
    got = _instantiator(fragment)(BASE, "b", start())
    assert got.graph._spo == expected.graph._spo
    assert len(got.graph) == len(expected.graph)
    assert (got.object_node, got.root, got.variables) == (expected.object_node, expected.root, expected.variables)


def _sin_chain(depth: int) -> str:
    return "sin(" * depth + "x" + ")" * depth


def test_reader_reaches_every_depth_the_parser_accepts():
    """rdf_to_om spends fewer frames per nesting level than parse_infix, so
    from the same frame it reads back the deepest call chain the parser
    builds."""
    low, high = 1, sys.getrecursionlimit()
    while low < high:  # the largest depth parse_infix accepts from this frame
        mid = (low + high + 1) // 2
        try:
            parse_infix(_sin_chain(mid))
        except RecursionError:
            high = mid - 1
        else:
            low = mid
    tree = parse_infix(_sin_chain(low))
    result = om_to_rdf(tree, BASE, "e")
    assert rdf_to_om(result.graph, result.object_node) == tree


def test_reader_spends_one_frame_per_nesting_level():
    """A nested node is read by a direct call: a sin chain as deep as two
    thirds of the frames left here reads back, where two frames per level
    would run out."""
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    depth = (sys.getrecursionlimit() - frames) * 2 // 3
    sin = symbol_iri(Symbol("transc1", "sin"))
    nodes = [Iri(f"{BASE}/expr/e/a{i}") for i in range(depth)] + [Iri(f"{BASE}/expr/e/x")]
    g = Graph()
    for i, node in enumerate(nodes[:-1]):
        cell = Iri(f"{BASE}/expr/e/c{i}")
        g.add(node, RDF.type, OM.Application)
        g.add(node, OM.operator, sin)
        g.add(node, OM.arguments, cell)
        g.add(cell, RDF.first, nodes[i + 1])
        g.add(cell, RDF.rest, RDF.nil)
    g.add(nodes[-1], RDF.type, OM.Variable)
    g.add(nodes[-1], OM.name, Literal("x"))
    expr, levels = rdf_to_om(g, nodes[0]), 0
    while isinstance(expr, Application):
        expr, levels = expr.arguments[0], levels + 1
    assert (levels, expr) == (depth, X)
