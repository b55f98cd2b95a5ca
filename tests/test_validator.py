from __future__ import annotations

import json
import re

import pytest

from cpskg.mapper import MalformedListError, MalformedNodeError, UnknownSymbolIriError, om_to_rdf, rdf_to_om, symbol_iri
from cpskg.infix import parse_infix
from cpskg.om.tree import Symbol
from cpskg.rdf import RDF, Graph, Iri, Literal, Triple
from cpskg.validator import validate
from cpskg.vocab import DEFAULT_VOCAB
from conftest import edited

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
