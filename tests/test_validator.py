from __future__ import annotations

import json
import math
import re

import pytest

from cpskg.errors import CpskgError
from cpskg.mapper import (
    MalformedListError,
    MalformedNodeError,
    RootNotInGraphError,
    UnknownSymbolIriError,
    _expression_class,
    _list_items,
    _variables,
    behavior_objects,
    om_to_rdf,
    parse_symbol_iri,
    rdf_to_om,
    symbol_iri,
    variable_elements,
)
from cpskg.infix import parse_infix
from cpskg.om.registry import DEFAULT_REGISTRY
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable
from cpskg.rdf import RDF, XSD, Graph, Iri, Literal, Triple, from_ntriples, nt_term, to_ntriples
from cpskg.validator import Finding, ValidationReport, _cardinality_shapes, validate
from cpskg.vocab import DEFAULT_VOCAB
from conftest import FIXTURES, edited

V = DEFAULT_VOCAB
EHSA = "http://example.org/ehsa"


def test_golden_graph_is_clean(ehsa_graph):
    assert validate(ehsa_graph).ok()
    assert validate(ehsa_graph, strict=True).ok()


def test_report_is_deterministic(ehsa_graph):
    mutated = edited(ehsa_graph, drop=ehsa_graph.triples(None, V.cpsmod.isDataFor)[:1])
    first = validate(mutated).to_text()
    second = validate(mutated).to_text()
    assert first == second


def _single_finding(report):
    assert len(report.findings) == 1, report.to_text()
    return report.findings[0]


# Each mutation edits the last cons cell of one argument list: (new triples, message).
LIST_MUTATIONS = {
    "dangling": (lambda cell: [], "cons cell must have exactly one rdf:first and rdf:rest, found 1/0"),
    "cyclic": (lambda cell: [Triple(cell, RDF.rest, cell)], "argument list is cyclic"),
    "literal_tail": (lambda cell: [Triple(cell, RDF.rest, Literal("tail"))], "argument list continues into a literal"),
    "two_firsts": (
        lambda cell: [Triple(cell, RDF.rest, RDF.nil), Triple(cell, RDF.first, Iri(f"{EHSA}/extra"))],
        "cons cell must have exactly one rdf:first and rdf:rest, found 2/1",
    ),
}


@pytest.mark.parametrize("mutation", sorted(LIST_MUTATIONS))
def test_v1_malformed_list(ehsa_graph, mutation):
    """V1 and the mapper read lists with one reader, so they stop at the same node."""
    added, message = LIST_MUTATIONS[mutation]
    victim = ehsa_graph.triples(None, RDF.rest, RDF.nil)[0]
    mutated = edited(ehsa_graph, drop=[victim], add=added(victim.subject))
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity, finding.message) == ("V1", "error", message)
    wrapper = Iri(victim.subject.value.rpartition("/")[0])
    with pytest.raises(MalformedListError) as raised:
        rdf_to_om(mutated, wrapper)
    expected = Literal("tail") if mutation == "literal_tail" else victim.subject
    assert finding.node == raised.value.node == expected
    if mutation == "literal_tail":
        rendered = finding.render()
        assert '"tail"' in rendered and "Literal(" not in rendered


EQ1_ROOT = Iri(f"{EHSA}/expr/chamber1_pressure_rate/n0")
V2_MESSAGE = "application must have exactly one om:operator and om:arguments, found {}"
V5_MESSAGE = "process operator has no {} state"
V6_MESSAGE = "data element must have exactly one type description, found {}"


def test_v2_missing_operator(ehsa_graph):
    victim = ehsa_graph.triples(EQ1_ROOT, V.om.operator)[0]
    mutated = edited(ehsa_graph, drop=[victim])
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity, finding.node, finding.message) == ("V2", "error", EQ1_ROOT, V2_MESSAGE.format("0/1"))


def test_v3_unassigned_operator(ehsa_graph):
    operator = Iri(f"{EHSA}/PressureStabilization")
    victim = ehsa_graph.triples(operator, V.vdi3682.isAssignedTo)[0]
    mutated = edited(ehsa_graph, drop=[victim])
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity, finding.node, finding.message) == (
        "V3",
        "warning",
        operator,
        "process operator is not assigned to a technical resource",
    )


def test_v4_unlinked_variable(ehsa_graph):
    victim = ehsa_graph.triples(None, V.cpsmod.isDataFor)[0]
    mutated = edited(ehsa_graph, drop=[victim])
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity) == ("V4", "warning")
    assert finding.node == victim.subject


def test_v5_operator_without_input(ehsa_graph):
    operator = Iri(f"{EHSA}/HydraulicControl")
    victim = ehsa_graph.triples(operator, V.vdi3682.hasInput)[0]
    mutated = edited(ehsa_graph, drop=[victim])
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity, finding.node, finding.message) == ("V5", "warning", operator, V5_MESSAGE.format("input"))


def test_v6_data_element_without_type_description(ehsa_graph):
    element = Iri(f"{EHSA}/Q1_DE")
    victim = ehsa_graph.triples(element, V.dinen61360.hasTypeDescription)[0]
    mutated = edited(ehsa_graph, drop=[victim])
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity, finding.node, finding.message) == ("V6", "error", element, V6_MESSAGE.format(0))


HYDRAULIC_CONTROL = Iri(f"{EHSA}/HydraulicControl")
BARE_OPERATOR = Iri(f"{EHSA}/BareOperator")

# Further cardinality mutations of the golden graph: (triples to drop, triples
# to add, every finding as (rule, severity, node, message)).
CARDINALITY_MUTATIONS = {
    "v2_no_arguments": (
        lambda g: g.triples(EQ1_ROOT, V.om.arguments),
        [],
        [("V2", "error", EQ1_ROOT, V2_MESSAGE.format("1/0"))],
    ),
    "v2_two_operators": (
        lambda g: [],
        [Triple(EQ1_ROOT, V.om.operator, symbol_iri(Symbol("relation1", "neq")))],
        [("V2", "error", EQ1_ROOT, V2_MESSAGE.format("2/1"))],
    ),
    "v2_two_argument_lists": (
        lambda g: [],
        [Triple(EQ1_ROOT, V.om.arguments, RDF.nil)],
        [("V2", "error", EQ1_ROOT, V2_MESSAGE.format("1/2"))],
    ),
    "v5_no_output": (
        lambda g: g.triples(HYDRAULIC_CONTROL, V.vdi3682.hasOutput),
        [],
        [("V5", "warning", HYDRAULIC_CONTROL, V5_MESSAGE.format("output"))],
    ),
    "v5_no_input_and_no_output": (
        lambda g: [*g.triples(HYDRAULIC_CONTROL, V.vdi3682.hasInput), *g.triples(HYDRAULIC_CONTROL, V.vdi3682.hasOutput)],
        [],
        [
            ("V5", "warning", HYDRAULIC_CONTROL, V5_MESSAGE.format("input")),
            ("V5", "warning", HYDRAULIC_CONTROL, V5_MESSAGE.format("output")),
        ],
    ),
    "v3_v5_bare_operator": (
        lambda g: [],
        [Triple(BARE_OPERATOR, RDF.type, V.vdi3682.ProcessOperator)],
        [
            ("V3", "warning", BARE_OPERATOR, "process operator is not assigned to a technical resource"),
            ("V5", "warning", BARE_OPERATOR, V5_MESSAGE.format("input")),
            ("V5", "warning", BARE_OPERATOR, V5_MESSAGE.format("output")),
        ],
    ),
    "v6_two_type_descriptions": (
        lambda g: [],
        [Triple(Iri(f"{EHSA}/Q1_DE"), V.dinen61360.hasTypeDescription, Iri(f"{EHSA}/node/type/piston_head_area"))],
        [("V6", "error", Iri(f"{EHSA}/Q1_DE"), V6_MESSAGE.format(2))],
    ),
}


@pytest.mark.parametrize("mutation", sorted(CARDINALITY_MUTATIONS))
def test_cardinality_findings_in_full(ehsa_graph, mutation):
    """V2, V3, V5 and V6 findings, pinned to the node and the message."""
    drop, add, expected = CARDINALITY_MUTATIONS[mutation]
    mutated = edited(ehsa_graph, drop=drop(ehsa_graph), add=add)
    findings = validate(mutated, strict=True).findings
    assert [(f.rule, f.severity, f.node, f.message) for f in findings] == expected


def test_v7_unregistered_content_dictionary(ehsa_graph):
    victim = ehsa_graph.triples(None, V.om.operator, symbol_iri(Symbol("relation1", "eq")))[0]
    mutated = edited(ehsa_graph, drop=[victim], add=[Triple(victim.subject, V.om.operator, symbol_iri(Symbol("nocd1", "mystery")))])
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity) == ("V7", "warning")
    assert not validate(mutated).findings  # V7 only runs in strict mode


FOREIGN = "http://example.org/foo#bar"


@pytest.mark.parametrize(
    "target, types, error, message",
    [
        ("http://www.openmath.org/cd/arith1", [], UnknownSymbolIriError, "IRI under CD base is not of the form cd#name: http://www.openmath.org/cd/arith1"),
        ("http://elsewhere.example/cd/arith1#plus", [], UnknownSymbolIriError, "operator IRI is not under the CD base http://www.openmath.org/cd: http://elsewhere.example/cd/arith1#plus"),
        (FOREIGN, [Iri("http://example.org/Thing")], UnknownSymbolIriError, f"operator IRI is not under the CD base http://www.openmath.org/cd: {FOREIGN}"),
        (FOREIGN, [V.om.Object, V.om.Literal], MalformedNodeError, f"{FOREIGN} has ambiguous expression typing: ['{V.om.Literal.value}', '{V.om.Object.value}']"),
    ],
    ids=["no_name", "foreign_base", "typed_foreign", "two_om_classes"],
)
def test_v7_reports_what_rdf_to_om_rejects(ehsa_graph, target, types, error, message):
    """V7 and rdf_to_om tell symbols from expression nodes, and parse
    operator IRIs, with the same functions, so a graph that strict
    validation calls clean also exports."""
    victim = ehsa_graph.triples(None, V.om.operator, symbol_iri(Symbol("relation1", "eq")))[0]
    added = [Triple(victim.subject, V.om.operator, Iri(target)), *(Triple(Iri(target), RDF.type, t) for t in types)]
    mutated = edited(ehsa_graph, drop=[victim], add=added)
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity, finding.node, finding.message) == ("V7", "warning", Iri(target), message)
    (wrapper,) = mutated.subjects(V.om.root, victim.subject)
    with pytest.raises(error, match=re.escape(message)):
        rdf_to_om(mutated, wrapper)


def test_v7_accepts_registered_cds(ehsa_graph):
    assert not validate(ehsa_graph, strict=True).findings


def test_single_triple_deletions_never_crash(ehsa_graph):
    """Deleting one triple from the passing graph yields a well-formed
    report, never an exception. Deterministic stride sample for speed."""
    triples = list(ehsa_graph)
    for triple in triples[::4]:
        mutated = edited(ehsa_graph, drop=[triple])
        report = validate(mutated, strict=True)
        for finding in report.findings:
            assert finding.rule in {"V1", "V2", "V3", "V4", "V5", "V6", "V7"}
            assert finding.severity in {"error", "warning"}


def test_report_renders_text_and_jsonl(ehsa_graph):
    mutated = edited(ehsa_graph, drop=ehsa_graph.triples(None, V.cpsmod.isDataFor)[:1])
    report = validate(mutated)
    assert report.to_text().startswith("V4 warning ")
    assert '"rule": "V4"' in report.to_jsonl()


def test_jsonl_tells_a_literal_node_from_an_iri():
    """A V1 finding on a literal tail whose text is also an IRI of the
    graph: JSON shows the literal in N-Triples form, as query does."""
    graph = om_to_rdf(parse_infix("sin(x)"), "http://example.org/m", "e").graph
    (tail,) = graph.triples(None, RDF.rest, RDF.nil)
    literal = Literal("http://example.org/m/expr/e/n0")
    mutated = edited(graph, drop=[tail], add=[Triple(tail.subject, RDF.rest, literal)])
    records = [json.loads(line) for line in validate(mutated).to_jsonl().splitlines()]
    assert [(r["rule"], r["node"]) for r in records] == [("V1", '"http://example.org/m/expr/e/n0"')]
    assert Iri(literal.lexical) in set(mutated.subjects())


def test_empty_graph_is_clean():
    assert validate(Graph()).ok()


# --- the text walks against the term walks ------------------------------------
# The walks as they were written over term objects and the public
# Graph.objects, kept as an oracle: the readers of the mapper and the
# validator, which read the store's texts, must give the same results, or
# raise the same exception with the same message, on every input below.


def _term_read_list(graph, head):
    items, seen, node = [], set(), head
    while node != RDF.nil:
        if isinstance(node, Literal):
            raise MalformedListError(node, "argument list continues into a literal")
        if node in seen:
            raise MalformedListError(node, "argument list is cyclic")
        seen.add(node)
        firsts, rests = graph.objects(node, RDF.first), graph.objects(node, RDF.rest)
        if len(firsts) != 1 or len(rests) != 1:
            raise MalformedListError(node, f"cons cell must have exactly one rdf:first and rdf:rest, found {len(firsts)}/{len(rests)}")
        items.append(firsts[0])
        node = rests[0]
    return items


def _term_fragment_variables(graph, roots, om):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node in seen or isinstance(node, Literal):
            continue
        seen.add(node)
        for predicate in (om.operator, om.arguments, RDF.first, RDF.rest):
            stack.extend(graph.objects(node, predicate))
    return sorted((n for n in seen if om.Variable in graph.objects(n, RDF.type)), key=nt_term)


def _term_expression_class(graph, node, om):
    found = [t for t in graph.objects(node, RDF.type) if t in (om.Object, om.Application, om.Variable, om.Literal)]
    if len(found) > 1:
        raise MalformedNodeError(f"{node} has ambiguous expression typing: {[t.value for t in found]}")
    return found[0] if found else None


def _term_rdf_to_om(graph, root, strict):
    om, active = V.om, set()

    def one(node, predicate, what):
        values = graph.objects(node, predicate)
        if len(values) != 1:
            raise MalformedNodeError(f"{node} must have exactly one {what}, found {len(values)}")
        return values[0]

    def read(node):
        if isinstance(node, Literal):
            raise MalformedNodeError(f"a literal term cannot stand for an expression: {node!r}")
        kind = _term_expression_class(graph, node, om)
        if kind in (om.Object, om.Application):
            structure = "om:root chain" if kind == om.Object else "application structure"
            if node in active:
                raise MalformedNodeError(f"{structure} is cyclic at {node}")
            active.add(node)
            if kind == om.Object:
                expr = read(one(node, om.root, "om:root"))
            else:
                operator = read(one(node, om.operator, "om:operator"))
                expr = Application(operator, tuple(read(item) for item in _term_read_list(graph, one(node, om.arguments, "om:arguments"))))
            active.remove(node)
            return expr
        if kind == om.Variable:
            name = one(node, om.name, "om:name")
            if not isinstance(name, Literal):
                raise MalformedNodeError(f"om:name of {node} must be a literal")
            return Variable(name.lexical)
        if kind == om.Literal:
            value = one(node, om.value, "om:value")
            if not isinstance(value, Literal):
                raise MalformedNodeError(f"om:value of {node} must be a literal")
            if value.datatype == XSD.integer:
                try:
                    return IntLiteral(int(value.lexical))
                except ValueError:
                    raise MalformedNodeError(f"invalid integer lexical value: {value.lexical!r}") from None
            if value.datatype == XSD.double:
                try:
                    number = float(value.lexical)
                except ValueError:
                    raise MalformedNodeError(f"invalid double lexical value: {value.lexical!r}") from None
                if not math.isfinite(number):
                    raise MalformedNodeError(f"double lexical value is not finite: {value.lexical!r}")
                return FloatLiteral(number)
            raise MalformedNodeError(f"unsupported om:value datatype: {value.datatype}")
        return parse_symbol_iri(node, V.cd_base, strict=strict)

    try:
        return read(root)
    except UnknownSymbolIriError:
        if strict and isinstance(root, Iri) and not root.value.startswith(V.cd_base + "/") and not graph.triples(root):
            raise RootNotInGraphError(f"root is not a node of the graph: {root}") from None
        raise


def _term_validate(graph):
    """``validate(graph, strict=True)`` over terms."""
    findings = []
    for head in graph.objects(None, V.om.arguments):
        try:
            _term_read_list(graph, head)
        except MalformedListError as exc:
            findings.append(Finding("V1", "error", exc.node, exc.reason))
    roots = [root for wrapper in behavior_objects(graph, V) for root in graph.objects(wrapper, V.om.root)]
    for node in _term_fragment_variables(graph, roots, V.om):
        if not graph.objects(node, V.cpsmod.isDataFor):
            findings.append(Finding("V4", "warning", node, "equation variable is not linked to a data element"))
    for cls, shapes in _cardinality_shapes(V):
        for node in graph.subjects(RDF.type, cls):
            for rule, severity, predicates, least, most, message in shapes:
                counts = [len(graph.objects(node, p)) for p in predicates]
                if any(n < least or (most is not None and n > most) for n in counts):
                    findings.append(Finding(rule, severity, node, message.format(found="/".join(map(str, counts)))))
    for target in graph.objects(None, V.om.operator):
        if not isinstance(target, Iri):
            continue
        try:
            if _term_expression_class(graph, target, V.om) is not None:
                continue
            symbol = parse_symbol_iri(target, V.cd_base)
        except (MalformedNodeError, UnknownSymbolIriError) as exc:
            findings.append(Finding("V7", "warning", target, str(exc)))
            continue
        if not DEFAULT_REGISTRY.knows_cd(symbol.cd):
            findings.append(Finding("V7", "warning", target, f"content dictionary {symbol.cd!r} is not registered"))
    findings.sort(key=lambda f: (f.rule, nt_term(f.node), f.message))
    return ValidationReport(findings)


def _term_variable_elements(graph, wrappers):
    """The export's variable table over terms."""
    variables, rows = set(), set()
    for wrapper in wrappers:
        variables.update(_term_fragment_variables(graph, graph.objects(wrapper, V.om.root), V.om))
    for var in variables:
        names = [o.lexical for o in graph.objects(var, V.om.name) if isinstance(o, Literal)]
        for element in graph.objects(var, V.cpsmod.isDataFor):
            if isinstance(element, Iri):
                descriptions = [d.value for d in graph.objects(element, V.dinen61360.hasTypeDescription) if isinstance(d, Iri)]
                rows.add((names[0] if names else var.value, element.value, descriptions[0] if descriptions else ""))
    return sorted(rows)


def _outcome(read, *args):
    """What a reader gives: its value, or its exception's type, message and
    node (a MalformedListError's cell)."""
    try:
        return ("value", read(*args))
    except CpskgError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "node", None))


_GOLDEN_LINES = (FIXTURES / "golden.nt").read_text(encoding="utf-8").splitlines(keepends=True)
_WRAPPERS = [Iri(f"{EHSA}/expr/chamber1_pressure_rate"), Iri(f"{EHSA}/expr/chamber2_pressure_rate")]


def _edits():
    """Hand-made edits of the golden graph, as (lines dropped, lines added)."""
    graph = from_ntriples("".join(_GOLDEN_LINES))
    root = graph.objects(_WRAPPERS[0], V.om.root)[0]
    cell = graph.objects(root, V.om.arguments)[0]  # the first cell of the root's arguments
    (rest,) = graph.objects(cell, RDF.rest)
    (after_rest,) = graph.objects(rest, RDF.rest)
    variable = _term_fragment_variables(graph, [root], V.om)[0]
    (name,) = graph.objects(variable, V.om.name)
    (other_root,) = graph.objects(_WRAPPERS[1], V.om.root)

    def line(s, p, o):
        return f"{nt_term(s)} {nt_term(p)} {nt_term(o)} .\n"

    # the first equation's fragment as one of numbers, so that a walk meets om:Literal nodes
    fragment = (f"{nt_term(_WRAPPERS[0])} ", f"<{_WRAPPERS[0].value}/")
    numbers = om_to_rdf(parse_infix("y = 2*x + 0.5"), EHSA, "chamber1_pressure_rate", vocab=V).graph
    return {
        "second_first": ((), [line(cell, RDF.first, variable)]),
        "rest_cycle": ([line(rest, RDF.rest, after_rest)], [line(rest, RDF.rest, rest)]),
        "literal_rest": ([line(cell, RDF.rest, rest)], [line(cell, RDF.rest, Literal("rest"))]),
        "variable_and_application": ((), [line(variable, RDF.type, V.om.Application)]),
        "second_root": ((), [line(_WRAPPERS[0], V.om.root, variable)]),
        "literal_root": ([line(_WRAPPERS[1], V.om.root, other_root)], [line(_WRAPPERS[1], V.om.root, Literal("root"))]),
        "literal_operator": ((), [line(root, V.om.operator, Literal("plus"))]),
        "iri_name": ([line(variable, V.om.name, name)], [line(variable, V.om.name, variable)]),
        "literal_equation": ([x for x in _GOLDEN_LINES if x.startswith(fragment)], to_ntriples(numbers).splitlines(keepends=True)),
    }


def _differential_inputs():
    yield "golden", "".join(_GOLDEN_LINES)
    for i in range(len(_GOLDEN_LINES)):
        yield f"without line {i + 1}", "".join(_GOLDEN_LINES[:i] + _GOLDEN_LINES[i + 1 :])
    for name, (drop, add) in _edits().items():
        assert all(line in _GOLDEN_LINES for line in drop), name
        yield name, "".join([line for line in _GOLDEN_LINES if line not in drop] + add)


def test_text_walks_agree_with_the_term_walks():
    """The golden graph, each of its single-line deletions and the hand-made
    edits, one of which holds om:Literal nodes: validate (text and JSON),
    rdf_to_om of each wrapper and of a root that is no node, the export's
    variable table, and the mapper's fragment readers over texts (the
    variables of both wrappers, each argument list, the expression class of
    each operator IRI), with the texts they return made terms by the graph,
    agree with the walks over terms."""
    classes = (V.om.Object._nt, V.om.Application._nt, V.om.Variable._nt, V.om.Literal._nt)
    seen_errors = set()
    for name, text in _differential_inputs():
        graph = from_ntriples(text)
        new, old = validate(graph, strict=True), _term_validate(graph)
        assert (new.to_text(), new.to_jsonl()) == (old.to_text(), old.to_jsonl()), name
        for root in [*_WRAPPERS, Iri("http://elsewhere.example/cd/arith1#plus")]:
            for strict in (True, False):
                outcome = _outcome(lambda: rdf_to_om(graph, root, vocab=V, strict=strict))
                assert outcome == _outcome(lambda: _term_rdf_to_om(graph, root, strict)), (name, root, strict)
                seen_errors.add(outcome[1] if outcome[0] == "error" else None)
        term = graph._term
        roots = [r for w in _WRAPPERS for r in graph.objects(w, V.om.root)]
        variables = [term(n) for n in _variables(graph, [w._nt for w in _WRAPPERS], V.om)]
        assert variables == _term_fragment_variables(graph, roots, V.om), name
        assert variable_elements(graph, V, _WRAPPERS) == _term_variable_elements(graph, _WRAPPERS), name
        for head in graph.objects(None, V.om.arguments):
            items = _outcome(lambda: [term(item) for item in _list_items(graph, nt_term(head))])
            assert items == _outcome(_term_read_list, graph, head), (name, head)
        for target in graph.objects(None, V.om.operator):
            if isinstance(target, Iri):
                kind = _outcome(lambda: _expression_class(graph, target._nt, classes))
                kind = kind if kind[0] == "error" or kind[1] is None else ("value", term(kind[1]))
                assert kind == _outcome(_term_expression_class, graph, target, V.om), (name, target)
    # the inputs reach every way a read can fail
    assert {MalformedListError, MalformedNodeError, RootNotInGraphError, None} <= seen_errors
